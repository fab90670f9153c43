"""The §4.5 update protocol, once: owner step, delta fan-out, peer apply.

The owner of a key's block updates its RIB slice, tells the handling node
to install or remove the exact FIB entry, recomputes the key's separator
group on its own GPT replica and ships the record — tens of bits — to
every peer, which applies it with a memory copy (paper §3.2, §4.5).

Plain functions over a ``RoutingInformationBase`` slice and a
``GlobalPartitionTable`` replica: no I/O, no registry, no sockets.  The
callers are transports — ``UpdateEngine`` delivers by direct call,
``NodeDaemon`` batches per target into ``MSG_FIB``/``MSG_DELTA`` — and
nothing here branches on which one is calling, so both produce the same
records in the same order (``tests/test_update_differential.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple

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

    #: FIB messages in ship order, ``(target node, entry)``: install the
    #: RIB entry there, or remove the key when it is ``None``.  A move
    #: removes before it installs.
    fib_ops: tuple
    #: The rebuilt group's self-framing wire record and its size.
    wire: bytes
    bits: int


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
    if node is None:
        previous = rib._remove(bucket, ckey)
        if previous is None:
            return None
        fib_ops = ((previous.node, None),)
        keys, nodes, removed = [], [], (ckey,)
    else:
        previous = rib._get(bucket, ckey)
        fib_ops = ((node, rib._insert(bucket, ckey, node, value)),)
        if previous is not None and previous.node != node:
            fib_ops = ((previous.node, None),) + fib_ops
        keys, nodes, removed = [ckey], [node], ()
    separator = gpt.setsep
    group = separator.group_of_bucket(bucket)
    # Incremental backends (Othello) skip the O(group) contents
    # enumeration once their owner-side graph is warm: the changed key
    # alone produces the byte-identical record.
    needs_full = getattr(separator, "needs_full_contents", None)
    if needs_full is None or needs_full(group):
        keys, nodes = rib.group_contents(group, separator)
    record = gpt.rebuild_group(group, keys, nodes, removed_keys=removed)
    acc.updates += 1
    acc.fib_messages += len(fib_ops)
    acc.groups_rebuilt += 1
    params = separator.params
    return OwnerStep(
        fib_ops, record.wire_bytes(params), record.size_bits(params)
    )


def fan_out(
    peers: Iterable[int], verdict_of: Callable[[int], str],
    step: OwnerStep, delayed: List[Delayed], acc: UpdateAccount,
) -> List[Tuple[int, int]]:
    """Decide each live peer's copy of one record: ``(peer, copies)``.

    ``verdict_of(peer)`` is consulted exactly once per peer in the order
    given (callers pass ascending ids).  Fault plans are countdowns, so
    which peer a fault lands on depends on that order: it is part of what
    makes a seeded run replay.  A dropped peer stays stale until a later
    rebroadcast, a delayed ship waits on ``delayed`` for
    :func:`flush_delayed`, and two copies exercise record idempotence.
    """
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

    ``replica`` is where they will be applied.  Raises before returning
    anything when any record is malformed or framed with other bit-widths
    than the replica's, so a caller that parses and then applies never
    applies part of a payload, nor a record cut for a different table.
    """
    separator = getattr(replica, "setsep", replica)
    names = separator_registry.update_record_type(separator.backend).WIRE_WIDTHS
    widths = attrgetter(*names)
    mine = widths(separator.params)
    records = []
    for record, params in separator_registry.parse_update_stream(
        wire, separator.backend
    ):
        if widths(params) != mine:
            raise DeltaWireError(
                f"record framed with {names} = {widths(params)}, "
                f"the replica has {mine}"
            )
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
