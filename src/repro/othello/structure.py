"""The Othello separator: XOR-of-two-sides key -> value mapping.

Othello (Yu et al., arXiv:1608.05699) keeps two vertex arrays ``A`` and
``B``; key ``k`` hashes to one vertex on each side and its value is
``A[h_a(k)] ^ B[h_b(k)]``.  The keys form edges of a bipartite graph; while
that graph is acyclic every key's value constraint is satisfiable, and
changing one key only requires XOR-ing a correction into the vertices of a
single connected component — an O(1)-expected *incremental* update, in
contrast to SetSep's per-group brute-force recompute (paper §4.5).

This implementation partitions the structure by the same 1024-key blocks
SetSep uses (``repro.core.twolevel``'s bucket mapping), one small Othello
instance per block:

* RIB ownership, ``Cluster``, the update engine, and the runtime daemons
  see the identical ``groups_of`` / ``rebuild_group`` / ``apply_delta``
  surface, with one group per block;
* a rehash-on-cycle stays a block-local event (a ~16 KiB full-block
  record) instead of a structure-wide rebuild;
* batch lookup is two fused NumPy gathers, mirroring ``SetSep.lookup_batch``.

Update determinism: the record returned by :meth:`rebuild_group` is a pure
function of (current arrays, the group's complete new contents in order,
removed keys).  The per-block edge graph kept by owners is purely an
accelerator — a cold owner reconstructs it from the arrays themselves
(keys whose lookup already matches are exactly the consistent edges), so
the in-process shadow and the wire daemons emit byte-identical records.

Like SetSep, lookup of an unknown key returns an arbitrary value (one-sided
error); ScaleBricks' handling-node FIB rejects such packets (§3.2).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core import hashfamily, twolevel
from repro.core.hashfamily import Key
from repro.core.params import BUCKETS_PER_BLOCK, GROUPS_PER_BLOCK
from repro.obs.metrics import MetricsRegistry, resolve_registry
from repro.othello.params import OthelloParams
from repro.othello.update import OthelloUpdate

#: Independent hash streams for the two vertex sides.
_STREAM_A = hashfamily.derive_stream("othello/a")
_STREAM_B = hashfamily.derive_stream("othello/b")

#: Odd constant folding the per-block seed into the key before mixing.
_SEED_SALT = np.uint64(0x9E3779B97F4A7C15)

_SEED_MASK = 0xFFFFFFFF


class OthelloRehashError(RuntimeError):
    """A block exhausted its rehash budget without finding an acyclic seed."""


def vertex_hashes(
    keys: np.ndarray, seeds: np.ndarray, vertex_bits: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-key (side-A, side-B) vertex indices under per-key block seeds.

    Takes the *top* ``vertex_bits`` of each mixed hash, honouring the
    use-the-MSBs rule the rest of the hash family follows.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    seeds = np.asarray(seeds, dtype=np.uint64)
    with np.errstate(over="ignore"):
        salted = keys + (seeds + np.uint64(1)) * _SEED_SALT
    shift = np.uint64(64 - vertex_bits)
    ha = (hashfamily.splitmix64(salted ^ _STREAM_A) >> shift).astype(np.int64)
    hb = (hashfamily.splitmix64(salted ^ _STREAM_B) >> shift).astype(np.int64)
    return ha, hb


def color_block(
    ha: np.ndarray,
    hb: np.ndarray,
    values: np.ndarray,
    vertices_per_side: int,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Assign cell values satisfying ``A[ha] ^ B[hb] == value`` for all keys.

    Deterministic: components are rooted at their minimum vertex (root cell
    0), BFS visits sorted neighbours, untouched cells stay 0.  Returns
    ``None`` when the block's constraint graph is unsatisfiable under this
    seed (a cycle with a non-zero XOR around it), which triggers a rehash.
    Consistent duplicate constraints — parallel edges or cycles whose
    values XOR to zero — are accepted.
    """
    total = 2 * vertices_per_side
    adjacency: List[List[Tuple[int, int]]] = [[] for _ in range(total)]
    for u, w, value in zip(ha, hb, values):
        u = int(u)
        w2 = vertices_per_side + int(w)
        value = int(value)
        adjacency[u].append((w2, value))
        adjacency[w2].append((u, value))
    assign = np.zeros(total, dtype=np.uint32)
    visited = np.zeros(total, dtype=bool)
    queue: deque = deque()
    for root in range(total):
        if visited[root] or not adjacency[root]:
            continue
        visited[root] = True
        queue.append(root)
        while queue:
            here = queue.popleft()
            want_base = int(assign[here])
            for other, value in sorted(adjacency[here]):
                want = want_base ^ value
                if visited[other]:
                    if int(assign[other]) != want:
                        return None
                else:
                    assign[other] = want
                    visited[other] = True
                    queue.append(other)
    return assign[:vertices_per_side], assign[vertices_per_side:]


def build_block_rows(
    keys: np.ndarray,
    values: np.ndarray,
    params: OthelloParams,
    start_seed: int,
) -> Tuple[int, np.ndarray, np.ndarray, int]:
    """Find an acyclic seed for one block, trying ``start_seed`` upward.

    Returns ``(seed, a_row, b_row, attempts)``; deterministic in its
    inputs.  Raises :class:`OthelloRehashError` after ``params.max_rehash``
    failed seeds.
    """
    vps = params.vertices_per_side
    mask = np.uint32(params.value_mask)
    masked = np.asarray(values, dtype=np.uint32) & mask
    for attempt in range(params.max_rehash):
        seed = (start_seed + attempt) & _SEED_MASK
        seed_arr = np.full(len(keys), seed, dtype=np.uint64)
        ha, hb = vertex_hashes(keys, seed_arr, params.vertex_bits)
        rows = color_block(ha, hb, masked, vps)
        if rows is not None:
            return seed, rows[0], rows[1], attempt + 1
    raise OthelloRehashError(
        f"no acyclic seed within {params.max_rehash} attempts "
        f"(keys={len(keys)}, vertices_per_side={vps})"
    )


class _BlockGraph:
    """Owner-side edge bookkeeping for one block (never serialised).

    ``edges`` maps canonical key -> ``(u, w2, value)`` with the side-B
    vertex offset by ``vertices_per_side``; ``adjacency`` maps vertex ->
    set of keys touching it.  Purely an accelerator: replicas converge by
    applying broadcast records and never build one.
    """

    __slots__ = ("edges", "adjacency")

    def __init__(self) -> None:
        self.edges: Dict[int, Tuple[int, int, int]] = {}
        self.adjacency: Dict[int, Set[int]] = {}

    def add(self, key: int, u: int, w2: int, value: int) -> None:
        self.edges[key] = (u, w2, value)
        self.adjacency.setdefault(u, set()).add(key)
        self.adjacency.setdefault(w2, set()).add(key)

    def remove(self, key: int) -> None:
        u, w2, _ = self.edges.pop(key)
        for vertex in (u, w2):
            touching = self.adjacency.get(vertex)
            if touching is not None:
                touching.discard(key)
                if not touching:
                    del self.adjacency[vertex]

    def component(self, start: int) -> Set[int]:
        """Vertices connected to ``start`` (BFS; components are tiny)."""
        seen = {start}
        queue = deque([start])
        while queue:
            vertex = queue.popleft()
            for key in self.adjacency.get(vertex, ()):
                u, w2, _ = self.edges[key]
                for other in (u, w2):
                    if other not in seen:
                        seen.add(other)
                        queue.append(other)
        return seen


class OthelloSeparator:
    """The queryable Othello structure (SetSep's pluggable peer).

    Instances are normally created with :func:`repro.othello.builder.build`.
    The constructor takes pre-assembled state so the builder, the snapshot
    loader, and :meth:`copy` can produce instances directly.
    """

    backend = "othello"

    def __init__(
        self,
        params: OthelloParams,
        num_blocks: int,
        seeds: np.ndarray,
        array_a: np.ndarray,
        array_b: np.ndarray,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        vps = params.vertices_per_side
        if seeds.shape != (num_blocks,):
            raise ValueError("seeds shape does not match num_blocks")
        if array_a.shape != (num_blocks, vps):
            raise ValueError("array_a shape does not match num_blocks/params")
        if array_b.shape != (num_blocks, vps):
            raise ValueError("array_b shape does not match num_blocks/params")
        self.params = params
        self.num_blocks = num_blocks
        self.seeds = seeds
        self.array_a = array_a
        self.array_b = array_b
        self._graphs: Dict[int, _BlockGraph] = {}
        self._applying_own = False
        self.bind_registry(registry)

    def bind_registry(self, registry: Optional[MetricsRegistry]) -> None:
        """Attach a metrics registry (``None`` selects the null registry)."""
        self.registry = resolve_registry(registry)
        self._m_lookups = self.registry.counter(
            "othello.lookups", "keys looked up (batch or scalar)"
        )
        self._m_rebuilds = self.registry.counter(
            "othello.group_rebuilds", "groups recomputed by the update path"
        )
        self._m_rehashes = self.registry.counter(
            "othello.rehashes", "block rehashes forced by a constraint cycle"
        )
        self._m_deltas_applied = self.registry.counter(
            "othello.deltas_applied", "broadcast othello records applied"
        )

    # ------------------------------------------------------------------
    # Shape properties
    # ------------------------------------------------------------------

    @property
    def num_buckets(self) -> int:
        """First-level buckets (shared with SetSep's two-level mapping)."""
        return self.num_blocks * BUCKETS_PER_BLOCK

    @property
    def num_groups(self) -> int:
        """Update domains; Othello rebuilds whole blocks, one group each."""
        return self.num_blocks * GROUPS_PER_BLOCK

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(self, key: Key) -> int:
        """Map one key to its value (arbitrary for unknown keys)."""
        return int(self.lookup_batch([key])[0])

    def lookup_batch(self, keys: Union[Sequence[Key], np.ndarray]) -> np.ndarray:
        """Vectorised lookup: block gather, two vertex gathers, one XOR."""
        ckeys = hashfamily.canonical_keys(keys)
        if ckeys.size == 0:
            return np.zeros(0, dtype=np.uint32)
        self._m_lookups.inc(ckeys.size)
        # The bucket hash is the one column Othello shares with a
        # pre-hashed batch (its vertex hashes are seeded per block): read
        # from one, hashed alone for raw keys.
        blocks = self.blocks_of(
            keys if isinstance(keys, hashfamily.HashedKeys) else ckeys
        )
        ha, hb = vertex_hashes(
            ckeys, self.seeds[blocks], self.params.vertex_bits
        )
        values = self.array_a[blocks, ha] ^ self.array_b[blocks, hb]
        return values & np.uint32(self.params.value_mask)

    def buckets_of(self, keys: np.ndarray) -> np.ndarray:
        """Global bucket id of each (canonical) key."""
        return twolevel.bucket_ids(keys, self.num_blocks)

    def blocks_of(self, keys: np.ndarray) -> np.ndarray:
        """Block id of each (canonical) key."""
        return self.buckets_of(keys) // BUCKETS_PER_BLOCK

    def groups_of(self, keys: np.ndarray) -> np.ndarray:
        """Global group id of each key.

        Othello's update domain is the whole block, exposed as the block's
        first group id so RIB bookkeeping (``group // GROUPS_PER_BLOCK``)
        and the §4.5 owner protocol work identically for both backends.
        """
        return self.blocks_of(keys) * GROUPS_PER_BLOCK

    def bucket_of(self, key: Key) -> int:
        """Global bucket id of a single key, hashed in plain ints."""
        return twolevel.bucket_id(key, self.num_blocks)

    def group_of(self, key: Key) -> int:
        """Global group id of a single key."""
        return self.group_of_bucket(self.bucket_of(key))

    def group_of_bucket(self, bucket: int) -> int:
        """Global group id of every key of one global bucket."""
        return bucket // BUCKETS_PER_BLOCK * GROUPS_PER_BLOCK

    def buckets_of_group(self, group_id: int) -> Sequence[int]:
        """Global ids of the buckets mapped to ``group_id``, ascending, as
        Python ints: the whole block for its first group, none for the
        other ids (a ``range``, so there is nothing to remember)."""
        block, local_group = divmod(group_id, GROUPS_PER_BLOCK)
        if local_group:
            return range(0)
        return range(block * BUCKETS_PER_BLOCK, (block + 1) * BUCKETS_PER_BLOCK)

    def block_of(self, key: Key) -> int:
        """Block id of a single key — the RIB partitioning unit (§4.5)."""
        return self.bucket_of(key) // BUCKETS_PER_BLOCK

    # ------------------------------------------------------------------
    # Updates (paper §4.5, Othello-style)
    # ------------------------------------------------------------------

    def rebuild_group(
        self,
        group_id: int,
        keys: Union[Sequence[Key], np.ndarray],
        values: Sequence[int],
        removed_keys: Iterable[Key] = (),
    ) -> OthelloUpdate:
        """Incrementally fold the group's new contents in; return the record.

        Same contract as ``SetSep.rebuild_group``: called by the owning RIB
        node with the group's *complete* new contents plus the keys that
        left it; the record is applied locally before being returned and
        broadcast to every replica.  Unlike SetSep, the work is incremental
        — only keys whose stored value disagrees with the new contents are
        touched, each flipping one tiny connected component.
        """
        block = group_id // GROUPS_PER_BLOCK
        if not 0 <= block < self.num_blocks:
            raise ValueError(f"group id {group_id} out of range")
        keys_arr = hashfamily.canonical_keys(keys)
        values_arr = np.asarray(list(values), dtype=np.uint32)
        if keys_arr.shape != values_arr.shape:
            raise ValueError("keys and values must have equal length")
        if len(values_arr) and int(values_arr.max()) > self.params.value_mask:
            raise ValueError(
                f"values must fit in {self.params.value_bits} bits"
            )
        self._m_rebuilds.inc()
        contents: Dict[int, int] = dict(
            zip(keys_arr.tolist(), values_arr.tolist())
        )
        graph = self._graphs.get(block)
        if graph is None:
            graph = self._bootstrap_graph(block, contents)
            self._graphs[block] = graph
        for raw in removed_keys:
            key = hashfamily.canonical_key(raw)
            if key in graph.edges and key not in contents:
                graph.remove(key)

        cells: Dict[int, int] = {}
        update: Optional[OthelloUpdate] = None
        for key, value in contents.items():
            existing = graph.edges.get(key)
            if existing is not None:
                if existing[2] == value:
                    continue
                graph.remove(key)
            if not self._insert(block, graph, key, value, cells):
                # A rehash needs the block's complete contents.  The warm
                # graph holds every surviving edge, so merging it with
                # this call's (possibly partial) contents reconstructs
                # them however the owner was invoked.
                full = {k: edge[2] for k, edge in graph.edges.items()}
                full.update(contents)
                update = self._rehash_block(block, full)
                break
        if update is None:
            update = OthelloUpdate(
                block_id=block,
                seed=int(self.seeds[block]),
                cells=tuple(sorted(cells.items())),
            )
        self._applying_own = True
        try:
            self.apply_delta(update)
        finally:
            self._applying_own = False
        return update

    def rebuild_groups(self, jobs: Sequence[tuple]) -> List[OthelloUpdate]:
        """:meth:`rebuild_group` per ``(group_id, keys, values,
        removed_keys)`` job, in order: a group is a whole block, and the
        incremental fold has nothing to share across blocks."""
        return [self.rebuild_group(*job) for job in jobs]

    def needs_full_contents(self, group_id: int) -> bool:
        """Whether :meth:`rebuild_group` needs the group's full contents.

        ``False`` once this owner's block graph is warm: the graph then
        holds every live edge, so a call covering only the changed keys
        (plus removals) yields the byte-identical record, skipping the
        O(block) contents enumeration entirely — the property that makes
        Othello's sustained update rate beat SetSep's.  Cold owners (and
        backends without this method — callers treat its absence as
        always-``True``) still receive complete contents so the graph
        bootstrap stays deterministic.
        """
        return (group_id // GROUPS_PER_BLOCK) not in self._graphs

    def _bootstrap_graph(self, block: int, contents: Dict[int, int]) -> _BlockGraph:
        """Reconstruct a cold owner's edge graph from the arrays themselves.

        Keys whose stored lookup already matches the new contents are
        exactly the block's consistent edges; mismatching keys are the ops
        :meth:`rebuild_group` is about to perform.  This makes the emitted
        record independent of whether the owner's cache was warm.
        """
        graph = _BlockGraph()
        if not contents:
            return graph
        keys = np.fromiter(contents.keys(), dtype=np.uint64, count=len(contents))
        seed_arr = np.full(len(keys), int(self.seeds[block]), dtype=np.uint64)
        ha, hb = vertex_hashes(keys, seed_arr, self.params.vertex_bits)
        stored = (
            self.array_a[block, ha] ^ self.array_b[block, hb]
        ) & np.uint32(self.params.value_mask)
        vps = self.params.vertices_per_side
        for key, u, w, value in zip(keys, ha, hb, stored):
            key = int(key)
            if contents[key] == int(value):
                graph.add(key, int(u), vps + int(w), int(value))
        return graph

    def _insert(
        self,
        block: int,
        graph: _BlockGraph,
        key: int,
        value: int,
        cells: Dict[int, int],
    ) -> bool:
        """Add one edge, XOR-correcting one component; False means rehash."""
        vps = self.params.vertices_per_side
        seed_arr = np.full(1, int(self.seeds[block]), dtype=np.uint64)
        ha, hb = vertex_hashes(
            np.array([key], dtype=np.uint64), seed_arr, self.params.vertex_bits
        )
        u, w = int(ha[0]), int(hb[0])
        w2 = vps + w
        a_row = self.array_a[block]
        b_row = self.array_b[block]
        delta = (int(a_row[u]) ^ int(b_row[w]) ^ value) & self.params.value_mask
        if delta == 0:
            graph.add(key, u, w2, value)
            return True
        component = graph.component(w2)
        if u in component:
            return False
        correction = np.uint32(delta)
        for vertex in component:
            if vertex < vps:
                a_row[vertex] ^= correction
                cells[vertex] = int(a_row[vertex])
            else:
                b_row[vertex - vps] ^= correction
                cells[vertex] = int(b_row[vertex - vps])
        graph.add(key, u, w2, value)
        return True

    def _rehash_block(
        self, block: int, contents: Dict[int, int]
    ) -> OthelloUpdate:
        """Re-seed a cycled block from its complete contents (full record)."""
        self._m_rehashes.inc()
        count = len(contents)
        keys = np.fromiter(contents.keys(), dtype=np.uint64, count=count)
        values = np.fromiter(contents.values(), dtype=np.uint32, count=count)
        start = (int(self.seeds[block]) + 1) & _SEED_MASK
        seed, a_row, b_row, _ = build_block_rows(
            keys, values, self.params, start
        )
        vps = self.params.vertices_per_side
        graph = _BlockGraph()
        seed_arr = np.full(count, seed, dtype=np.uint64)
        ha, hb = vertex_hashes(keys, seed_arr, self.params.vertex_bits)
        for key, u, w, value in zip(keys, ha, hb, values):
            graph.add(int(key), int(u), vps + int(w), int(value))
        self._graphs[block] = graph
        cells = tuple(
            (vertex, int(value))
            for vertex, value in enumerate(
                np.concatenate([a_row, b_row]).astype(np.uint32)
            )
        )
        return OthelloUpdate(block_id=block, seed=seed, cells=cells, full=True)

    def apply_delta(self, update: OthelloUpdate) -> None:
        """Apply a broadcast record: absolute cell writes, idempotent."""
        block = update.block_id
        if not 0 <= block < self.num_blocks:
            raise ValueError(f"block id {block} out of range")
        vps = self.params.vertices_per_side
        if update.full and len(update.cells) != 2 * vps:
            raise ValueError("full record does not match vertices_per_side")
        self._m_deltas_applied.inc()
        if update.full:
            values = np.fromiter(
                (value for _, value in update.cells),
                dtype=np.uint32,
                count=2 * vps,
            )
            self.array_a[block] = values[:vps]
            self.array_b[block] = values[vps:]
        else:
            for vertex, value in update.cells:
                if not 0 <= vertex < 2 * vps:
                    raise ValueError(f"vertex {vertex} out of range")
                if vertex < vps:
                    self.array_a[block, vertex] = value
                else:
                    self.array_b[block, vertex - vps] = value
        self.seeds[block] = update.seed
        if not self._applying_own:
            # A foreign record invalidates any cached edge graph; replicas
            # never rebuild one, and a displaced owner reconciles cold.
            self._graphs.pop(block, None)

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    def size_bits(self, include_fallback: bool = True) -> int:
        """Logical structure size in bits.

        Charges ``value_bits`` per cell plus the 32-bit per-block seed —
        independent of NumPy's uint32 in-memory padding (Othello keeps no
        fallback; the argument exists for SetSep signature parity).
        """
        del include_fallback
        cell_bits = 2 * self.params.vertices_per_side * self.params.value_bits
        return self.num_blocks * (cell_bits + 32)

    def size_bytes(self) -> int:
        """Logical size rounded up to bytes (used by the cache model)."""
        return (self.size_bits() + 7) // 8

    def bits_per_key(self, num_keys: int) -> float:
        """Measured bits/key for a structure holding ``num_keys`` keys."""
        if num_keys <= 0:
            raise ValueError("num_keys must be positive")
        return self.size_bits() / num_keys

    # ------------------------------------------------------------------
    # Introspection / (de)serialisation
    # ------------------------------------------------------------------

    def state(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw state arrays (seeds, array_a, array_b)."""
        return self.seeds, self.array_a, self.array_b

    def copy(self) -> "OthelloSeparator":
        """Deep copy — used to replicate the GPT to every cluster node.

        Edge-graph caches are not copied; the replica reconciles cold if it
        ever becomes an owner.
        """
        return OthelloSeparator(
            params=self.params,
            num_blocks=self.num_blocks,
            seeds=self.seeds.copy(),
            array_a=self.array_a.copy(),
            array_b=self.array_b.copy(),
            registry=self.registry,
        )

    def __repr__(self) -> str:
        return (
            f"OthelloSeparator(config={self.params.name}, value_bits="
            f"{self.params.value_bits}, blocks={self.num_blocks})"
        )
