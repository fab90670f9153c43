"""The §4.5 update protocol, once: owner step, delta fan-out, peer apply.

The owner of a key's block updates its RIB slice, tells the handling node
to install or remove the exact FIB entry, recomputes the key's separator
group on its own GPT replica and ships the record — tens of bits — to
every peer, which applies it with a memory copy (paper §3.2, §4.5).

Plain functions over a ``RoutingInformationBase`` slice and a
``GlobalPartitionTable`` replica: no I/O, no registry, no sockets.  The
callers are transports — ``UpdateEngine`` delivers each update by direct
call (:func:`owner_step`), ``NodeDaemon`` runs a whole ``MSG_UPDATE``
through :func:`owner_batch` and batches per target into
``MSG_FIB``/``MSG_DELTA`` — and nothing here branches on which one is
calling, so both produce the same records in the same order
(``tests/test_update_differential.py``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from itertools import repeat
from operator import attrgetter
from typing import (
    Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.core import separator as separator_registry
from repro.core.delta import DeltaWireError
from repro.fabric import DELAY, DROP, DUPLICATE

#: A record held back from a peer until the next flush: (peer, wire, bits).
Delayed = Tuple[int, bytes, int]


@dataclass
class UpdateAccount:
    """What a run of updates cost, counted where the work happens.

    The one list of accounting fields: ``UpdateStats`` extends it, a
    daemon's ``RSP_UPDATE`` reply is its ``asdict`` and the controller
    sums replies over :data:`ACCOUNT_FIELDS`.
    """

    updates: int = 0
    fib_messages: int = 0
    groups_rebuilt: int = 0
    #: Records delivered to a peer (a duplicated ship counts once) and
    #: their encoded size, both counted on delivery.
    delta_broadcasts: int = 0
    delta_bits: int = 0
    deltas_dropped: int = 0
    deltas_delayed: int = 0
    deltas_duplicated: int = 0


ACCOUNT_FIELDS = tuple(f.name for f in fields(UpdateAccount))


class OwnerStep(NamedTuple):
    """What the owner ships for one applied update."""

    #: FIB messages in ship order, ``(target node, route)``: install the
    #: route, the key's ``(node, value)``, there, or remove the key when
    #: it is ``None``.  A move removes before it installs.
    fib_ops: tuple
    #: The rebuilt group's self-framing wire record and its size.
    wire: bytes
    bits: int


#: ``OwnerStep((fib_ops, wire, bits))`` with no Python frame (the
#: namedtuple's ``__new__`` is one).
_step_of = functools.partial(tuple.__new__, OwnerStep)

#: One update for :func:`owner_batch`: ``(ckey, bucket, node, value)``
#: as :func:`owner_step` takes them (``node`` ``None`` removes the key).
Update = Tuple[int, int, Optional[int], int]


def owner_step(
    rib, gpt, acc: UpdateAccount, ckey: int, bucket: int,
    node: Optional[int] = None, value: int = 0,
) -> Optional[OwnerStep]:
    """Apply one update at its owner: slice, FIB messages, group record.

    ``node`` is the key's new handling node, ``None`` to remove the key;
    ``bucket`` must be ``rib.bucket_of(ckey)`` (the caller hashed the key
    once to find the owner).  Returns ``None``, with nothing changed or
    counted, when the key to remove is unknown: that is not an update.
    A node outside the cluster raises before anything changes or counts
    (the slice checks it ahead of the write).
    """
    edit = _edit_slice(rib, ckey, bucket, node, value)
    if edit is None:
        return None
    fib_ops, change = edit
    separator = gpt.setsep
    job = _job(rib, separator, separator.group_of_bucket(bucket), change)
    return _step(acc, separator, fib_ops, gpt.rebuild_group(*job))


def owner_batch(
    rib, gpt, acc: UpdateAccount, updates: Sequence[Update]
) -> List[Optional[OwnerStep]]:
    """:func:`owner_step` over a batch, recomputing groups in waves.

    Slice edits run in update order, and each update's group joins the
    pending *wave*.  A wave is flushed — its groups' contents read and
    recomputed in one ``gpt.rebuild_groups`` pass (one key-hash pass,
    one incumbent test) — as soon as an update names a group already in
    it, and once more at the end.  A group's record depends only on its
    own contents and replica row, and a wave's groups are distinct, so
    every step equals what :func:`owner_step` per update returns: the
    same record bytes, slice order, replica state and counts.  Steps come
    back aligned with ``updates`` (``None`` for an unknown key's removal).

    Every node and value is range-checked before anything changes or
    counts.
    """
    for _ckey, _bucket, node, value in updates:
        if node is not None:
            rib.check_node(node)
            rib.check_value(value)
    separator = gpt.setsep
    steps: List[Optional[OwnerStep]] = [None] * len(updates)
    # group -> (position in ``updates``, FIB ops, the change)
    wave: Dict[int, tuple] = {}

    def flush() -> None:
        jobs = [
            _job(rib, separator, group, change)
            for group, (_, _, change) in wave.items()
        ]
        for (position, fib_ops, _), record in zip(
            wave.values(), gpt.rebuild_groups(jobs)
        ):
            steps[position] = _step(acc, separator, fib_ops, record)
        wave.clear()

    for position, (ckey, bucket, node, value) in enumerate(updates):
        group = separator.group_of_bucket(bucket)
        if group in wave:
            flush()
        edit = _edit_slice(rib, ckey, bucket, node, value)
        if edit is not None:
            wave[group] = (position,) + edit
    if wave:
        flush()
    return steps


def _edit_slice(rib, ckey: int, bucket: int, node: Optional[int], value: int):
    """The slice half of one update: ``(fib_ops, change)``, or ``None``
    for the removal of an unknown key.  ``change`` is ``(keys, nodes,
    removed)``, what the group's rebuild needs beyond its contents."""
    if node is None:
        previous = rib._remove(bucket, ckey)
        if previous is None:
            return None
        return ((previous, None),), ((), (), (ckey,))
    previous = rib._insert(bucket, ckey, node, value)
    fib_ops = ((node, (node, value)),)
    if previous is not None and previous != node:
        fib_ops = ((previous, None),) + fib_ops
    return fib_ops, ((ckey,), (node,), ())


def _job(rib, separator, group: int, change: tuple) -> tuple:
    """The ``(group, keys, nodes, removed)`` rebuild of one changed group."""
    keys, nodes, removed = change
    # Incremental backends (Othello) skip the O(group) contents
    # enumeration once their owner-side graph is warm: the changed key
    # alone produces the byte-identical record.
    needs_full = getattr(separator, "needs_full_contents", None)
    if needs_full is None or needs_full(group):
        keys, nodes = rib.group_contents(group, separator)
    return group, keys, nodes, removed


def _step(acc: UpdateAccount, separator, fib_ops: tuple, record) -> OwnerStep:
    """Count one applied update and frame its record."""
    acc.updates += 1
    acc.fib_messages += len(fib_ops)
    acc.groups_rebuilt += 1
    params = separator.params
    return _step_of(
        (fib_ops, record.wire_bytes(params), record.size_bits(params))
    )


def fan_out(
    peers: Iterable[int], verdict_of: Optional[Callable[[int], str]],
    step: OwnerStep, delayed: List[Delayed], acc: UpdateAccount,
) -> List[Tuple[int, int]]:
    """Decide each live peer's copy of one record: ``(peer, copies)``.

    ``verdict_of(peer)`` is consulted exactly once per peer in the order
    given (callers pass ascending ids); ``None`` delivers one copy to
    every peer.  Fault plans are countdowns, so which peer a fault lands
    on depends on that order: it is part of what makes a seeded run
    replay.  A dropped peer stays stale until a later rebroadcast, a
    delayed ship waits on ``delayed`` for :func:`flush_delayed`, and two
    copies exercise record idempotence.
    """
    if verdict_of is None:
        ships = list(zip(peers, repeat(1)))
        acc.delta_broadcasts += len(ships)
        acc.delta_bits += step.bits * len(ships)
        return ships
    ships = []
    for peer in peers:
        verdict = verdict_of(peer)
        if verdict == DROP:
            acc.deltas_dropped += 1
        elif verdict == DELAY:
            delayed.append((peer, step.wire, step.bits))
            acc.deltas_delayed += 1
        else:
            copies = 1
            if verdict == DUPLICATE:
                copies = 2
                acc.deltas_duplicated += 1
            ships.append((peer, copies))
            acc.delta_broadcasts += 1
            acc.delta_bits += step.bits
    return ships


def flush_delayed(
    delayed: List[Delayed], down: Iterable[int],
    send: Callable[[int, bytes, int], None], acc: UpdateAccount,
) -> None:
    """Deliver every held-back record with ``send(peer, wire, bits)``.

    First in, first out, which keeps the per-group last-writer-wins
    convergence of the broadcast; a record counts as broadcast when its
    send returns.  Ships toward a ``down`` peer are discarded, as at
    fan-out: a dead replica is re-seeded whole when it rejoins.  If a
    send raises, its ship and those behind it stay queued, in order, for
    a later flush, and the error propagates.
    """
    dead = set(down)
    pending = [ship for ship in delayed if ship[0] not in dead]
    sent = 0
    try:
        for peer, wire, bits in pending:
            send(peer, wire, bits)
            sent += 1
            acc.delta_broadcasts += 1
            acc.delta_bits += bits
    finally:
        delayed[:] = pending[sent:]


def parse_records(wire: bytes, replica) -> list:
    """Every record of a stream of self-framing wire records, parsed once.

    ``replica`` is where they will be applied.  Raises
    :class:`DeltaWireError` before returning anything when any record is
    malformed, framed with other bit-widths than the replica's, or not
    one the replica can hold (``record.check_against``: a group or block
    it does not have, a value it cannot store), so a caller that parses
    and then applies never applies part of a payload, nor a record cut
    for a different table.
    """
    separator = getattr(replica, "setsep", replica)
    backend = separator.backend
    # The header widths a backend's records carry, and the replica's.
    names = separator_registry.update_record_type(backend).WIRE_WIDTHS
    widths = attrgetter(*names)
    mine = widths(separator.params)
    records = []
    for record, params in separator_registry.parse_update_stream(
        wire, backend
    ):
        if widths(params) != mine:
            raise DeltaWireError(
                f"record framed with {names} = {widths(params)}, "
                f"the replica has {mine}"
            )
        record.check_against(separator)
        records.append(record)
    return records


def apply_records(replica, wire: bytes) -> int:
    """The peer role: apply a stream of wire records; returns the count.

    ``replica`` is a ``GlobalPartitionTable`` or a bare separator of
    either backend; ``wire`` is any concatenation of self-framing records
    (one broadcast, a ``MSG_DELTA`` batch, a delta log).  All or nothing:
    the whole stream is parsed before the first record is applied.
    """
    records = parse_records(wire, replica)
    for record in records:
        replica.apply_delta(record)
    return len(records)
