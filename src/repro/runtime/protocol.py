"""The runtime's message catalogue and payload codecs.

Every controller<->daemon and daemon<->daemon exchange is one of the
message types below, carried inside a :mod:`repro.runtime.framing`
message.  Control-plane payloads that are naturally tabular (update
batches, the FIB and RIB rows of a node's state, routing outcomes) use
fixed-width binary records; negotiation and reporting payloads (HELLO,
STATUS) are canonical JSON.  GPT deltas
ride as concatenated :meth:`repro.core.delta.GroupDelta.wire_bytes`
frames — self-delimiting, so a DELTA batch is a plain byte join.

``docs/runtime.md`` documents every layout byte by byte.
"""

from __future__ import annotations

import json
import operator
import struct
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

# ----------------------------------------------------------------------
# Message types
# ----------------------------------------------------------------------

MSG_HELLO = 0x01      # controller -> daemon: identity + topology (JSON)
MSG_SNAPSHOT = 0x02   # controller -> daemon: bootstrap state + snapshot bytes
MSG_SWAP = 0x03       # controller -> daemon: replacement state (resize)
MSG_UPDATE = 0x04     # controller -> owner daemon: RIB update batch
MSG_FIB = 0x05        # owner -> handling daemon: FIB install/remove batch
MSG_DELTA = 0x06      # owner -> peer daemon: concatenated GPT deltas
MSG_ROUTE = 0x07      # controller -> ingress daemon: raw frame batch
MSG_FORWARD = 0x08    # ingress -> handling daemon: forwarded sub-batch
MSG_PING = 0x09       # controller -> daemon: liveness probe
MSG_STATUS = 0x0A     # controller -> daemon: report counters/charges/CRC
MSG_ADOPT = 0x0B      # controller -> successor daemon: orphaned RIB rows
MSG_FAULT = 0x0C      # controller -> daemon: arm transport fault budgets
MSG_FLUSH = 0x0D      # controller -> daemon: deliver delayed deltas
MSG_DOWN = 0x0E       # controller -> daemon: the current dead-node set
MSG_SHUTDOWN = 0x0F   # controller -> daemon: reply then exit

# Controller replication (repro.runtime.replication over the wire).
MSG_VOTE = 0x10       # replica -> replica: RequestVote (JSON)
MSG_APPEND = 0x11     # leader -> replica: AppendEntries/heartbeat (JSON)
MSG_SUBMIT = 0x12     # client -> replica: replicate a controller verb
MSG_QUERY = 0x13      # client -> replica: replication status / audit
MSG_CLAIM = 0x14      # leader -> daemon: claim leadership for this link

# Scale tier (shared-memory snapshots + delta-log catch-up).
MSG_STATE_REF = 0x15  # controller -> daemon: state by shm reference

RSP_OK = 0x80         # generic acknowledgement (optional JSON detail)
RSP_UPDATE = 0x84     # MSG_UPDATE accounting JSON + delta wire records
RSP_ROUTE = 0x87      # per-frame routing outcomes
RSP_FORWARD = 0x88    # per-frame outcomes for a forwarded sub-batch
RSP_PONG = 0x89       # liveness echo
RSP_STATUS = 0x8A     # STATUS report (JSON)
RSP_VOTE = 0x90       # RequestVote reply (JSON)
RSP_APPEND = 0x91     # AppendEntries reply (JSON)
RSP_RESULT = 0x92     # MSG_SUBMIT / MSG_QUERY result (JSON)
RSP_REDIRECT = 0x93   # not the leader: {"leader": id|null, "term": n}
RSP_ERR = 0xFF        # handler raised; payload is JSON {"error": ...}

#: Human names, used in metric names and fault budgets.
MSG_NAMES: Dict[int, str] = {
    MSG_HELLO: "hello",
    MSG_SNAPSHOT: "snapshot",
    MSG_SWAP: "swap",
    MSG_UPDATE: "update",
    MSG_FIB: "fib",
    MSG_DELTA: "delta",
    MSG_ROUTE: "route",
    MSG_FORWARD: "forward",
    MSG_PING: "ping",
    MSG_STATUS: "status",
    MSG_ADOPT: "adopt",
    MSG_FAULT: "fault",
    MSG_FLUSH: "flush",
    MSG_DOWN: "down",
    MSG_SHUTDOWN: "shutdown",
    MSG_VOTE: "vote",
    MSG_APPEND: "append",
    MSG_SUBMIT: "submit",
    MSG_QUERY: "query",
    MSG_CLAIM: "claim",
    MSG_STATE_REF: "state_ref",
    RSP_OK: "ok",
    RSP_UPDATE: "update_rsp",
    RSP_ROUTE: "route_rsp",
    RSP_FORWARD: "forward_rsp",
    RSP_PONG: "pong",
    RSP_STATUS: "status_rsp",
    RSP_VOTE: "vote_rsp",
    RSP_APPEND: "append_rsp",
    RSP_RESULT: "result",
    RSP_REDIRECT: "redirect",
    RSP_ERR: "err",
}


class ProtocolError(ValueError):
    """A payload failed to parse or an unexpected response arrived."""


def encode_json(document: object) -> bytes:
    """Canonical JSON payload (sorted keys, compact separators)."""
    return json.dumps(document, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def decode_json(payload: bytes) -> dict:
    """Parse a JSON payload; raises :class:`ProtocolError` on garbage."""
    try:
        document = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad JSON payload: {exc}") from exc
    if not isinstance(document, dict):
        raise ProtocolError("JSON payload root must be an object")
    return document


# ----------------------------------------------------------------------
# Update records (MSG_UPDATE, MSG_FIB, MSG_ADOPT, a node state's rows)
# ----------------------------------------------------------------------

OP_INSERT = 1
OP_REMOVE = 2

#: One update record: op u8, key u64, node u32, value u32, bs_ip u32; as
#: a packed NumPy row, what every FIB or RIB row section holds.
_UPDATE_RECORD = struct.Struct("<BQIII")
UPDATE_DTYPE = np.dtype([
    ("op", "u1"), ("key", "<u8"), ("node", "<u4"), ("value", "<u4"),
    ("bs_ip", "<u4"),
])
assert UPDATE_DTYPE.itemsize == _UPDATE_RECORD.size
_COUNT = struct.Struct("<I")


@dataclass(frozen=True)
class UpdateOp:
    """One RIB/FIB operation on the wire.

    ``node``/``value``/``bs_ip`` are ignored for :data:`OP_REMOVE` (the
    authoritative slice knows where the key lives).
    """

    op: int
    key: int
    node: int = 0
    value: int = 0
    bs_ip: int = 0


def _field_out_of_range(op: UpdateOp, exc: struct.error) -> str:
    """The first field of ``op`` its record cannot carry, described."""
    for name in UPDATE_DTYPE.names:
        value, bits = getattr(op, name), 8 * UPDATE_DTYPE[name].itemsize
        try:
            fits = 0 <= operator.index(value) < 1 << bits
        except TypeError:
            return f"{name} {value!r} is not an integer"
        if not fits:
            return f"{name} {value} is outside u{bits}"
    return str(exc)


def encode_updates(ops: Sequence[UpdateOp]) -> bytes:
    """``u32 count | count x update records``.

    Refuses what the receiving :func:`decode_updates` would refuse, or
    what a record cannot carry: an op code other than :data:`OP_INSERT`
    / :data:`OP_REMOVE`, or a field outside its width, is a
    ``ValueError`` naming the op's index and the field.
    """
    parts = [_COUNT.pack(len(ops))]
    for index, op in enumerate(ops):
        if op.op not in (OP_INSERT, OP_REMOVE):
            raise ValueError(f"ops[{index}]: unknown op code {op.op!r}")
        try:
            parts.append(_UPDATE_RECORD.pack(op.op, op.key, op.node,
                                             op.value, op.bs_ip))
        except struct.error as exc:
            raise ValueError(
                f"ops[{index}]: {_field_out_of_range(op, exc)}"
            ) from None
    return b"".join(parts)


def decode_updates(payload: bytes) -> List[UpdateOp]:
    """Inverse of :func:`encode_updates`."""
    records, _ = decode_records(payload)
    return [UpdateOp(*record) for record in records.tolist()]


def insert_records(keys, nodes, values, bs_ips=0) -> np.ndarray:
    """``insert(key, node, value, bs_ip)`` records from columns (a scalar
    serves every row); a field that does not fit is a ``ValueError``
    naming its first offending position."""
    records = np.empty(len(keys), dtype=UPDATE_DTYPE)
    records["key"] = np.asarray(keys, dtype=np.uint64)
    for name, column in zip(("op", "node", "value", "bs_ip"),
                            (OP_INSERT, nodes, values, bs_ips)):
        records[name] = _fitted(name, np.broadcast_to(column, len(keys)),
                                UPDATE_DTYPE[name])
    return records


def pack_records(records: np.ndarray) -> bytes:
    """``u32 count | count x update records``: one record section."""
    return _COUNT.pack(len(records)) + records.tobytes()


def decode_records(
    payload: bytes, offset: Optional[int] = None,
    section: str = "update batch",
    ops: Tuple[int, ...] = (OP_INSERT, OP_REMOVE),
) -> Tuple[np.ndarray, int]:
    """The record section at ``offset`` (``None``: the whole payload), as
    a read-only view, and the offset just past it.  Cut short, longer
    than the whole payload, or holding an op not in ``ops``:
    ``ProtocolError``."""
    start = (offset or 0) + _COUNT.size
    if len(payload) < start:
        raise ProtocolError(f"{section} truncated in count")
    (count,) = _COUNT.unpack_from(payload, start - _COUNT.size)
    end = start + count * UPDATE_DTYPE.itemsize
    if end > len(payload) or offset is None and end != len(payload):
        raise ProtocolError(
            f"{section} length {len(payload)} != expected {end}"
        )
    records = np.frombuffer(payload, UPDATE_DTYPE, count, start)
    bad = records["op"] != ops[0]
    for op in ops[1:]:
        bad &= records["op"] != op
    if bad.any():
        row = int(bad.argmax())
        raise ProtocolError(
            f"{section} record {row}: unexpected op {records['op'][row]}"
        )
    return records, end


# ----------------------------------------------------------------------
# Routing outcomes (RSP_ROUTE / RSP_FORWARD)
# ----------------------------------------------------------------------

STATUS_DELIVERED = 0
STATUS_UNKNOWN = 1     # FIB rejected (one-sided error / stale replica)
STATUS_MALFORMED = 2
STATUS_NODE_DOWN = 3
STATUS_LOST = 4        # consumed by an injected transport fault

#: Shadow-simulation drop reason -> wire status, for the differential
#: harness (``"handled"`` maps to DELIVERED).
REASON_TO_STATUS: Dict[str, int] = {
    "handled": STATUS_DELIVERED,
    "unknown_key": STATUS_UNKNOWN,
    "malformed": STATUS_MALFORMED,
    "node_down": STATUS_NODE_DOWN,
}

#: One outcome's header row, packed: status u8, handler i32, teid u32,
#: packet length u32 (13 bytes).
OUTCOME_DTYPE = np.dtype(
    [("status", "u1"), ("handler", "<i4"), ("teid", "<u4"), ("len", "<u4")]
)

#: An outcome batch as columns: status, handler and TEID arrays, and the
#: packets (``b""`` where a frame was not delivered).
OutcomeColumns = Tuple[np.ndarray, np.ndarray, np.ndarray, List[bytes]]


class RouteOutcome(NamedTuple):
    """What happened to one routed frame.

    ``handler`` is the GPT's answer even for drops (−1 when the frame
    never reached a lookup); ``out`` is the GTP-U encapsulated packet for
    delivered frames, ``None`` otherwise.
    """

    status: int
    handler: int
    teid: int
    out: Optional[bytes]


def _fitted(name: str, values, dtype: str) -> np.ndarray:
    """``values`` as an int64 column, refused if any would not survive
    the cast to the wire's ``dtype``."""
    column = np.asarray(values, dtype=np.int64)
    bad = np.nonzero(column.astype(dtype) != column)[0]
    if bad.size:
        raise ValueError(
            f"{name}[{bad[0]}] = {column[bad[0]]} does not fit {dtype}"
        )
    return column


def encode_outcome_columns(
    status, handler, teid, packets: Sequence[bytes]
) -> bytes:
    """``u32 n | n x (u8 status | i32 handler | u32 teid | u32 len) |
    packets end to end`` — one header table, then one blob.

    Raises:
        ValueError: the columns differ in length, or a value does not fit
            its field (naming the first offending position).
    """
    count = len(packets)
    head = np.empty(count, dtype=OUTCOME_DTYPE)
    for name, values, dtype in (
        ("status", status, "u1"), ("handler", handler, "i4"),
        ("teid", teid, "u4"),
    ):
        column = _fitted(name, values, dtype)
        if column.shape != (count,):
            raise ValueError(f"{name} has {column.size} rows, not {count}")
        head[name] = column
    head["len"] = np.fromiter(map(len, packets), dtype=np.int64, count=count)
    return b"".join([_COUNT.pack(count), head.tobytes(), *packets])


def decode_outcome_columns(payload: bytes) -> OutcomeColumns:
    """Inverse of :func:`encode_outcome_columns`.

    Raises:
        ProtocolError: the payload is cut short anywhere, or carries bytes
            after the last packet.
    """
    if len(payload) < _COUNT.size:
        raise ProtocolError("outcome batch truncated in count")
    (count,) = _COUNT.unpack_from(payload, 0)
    start = _COUNT.size + OUTCOME_DTYPE.itemsize * count
    if start > len(payload):
        raise ProtocolError("outcome batch truncated in header")
    head = np.frombuffer(
        payload, dtype=OUTCOME_DTYPE, count=count, offset=_COUNT.size
    )
    ends = np.cumsum(head["len"], dtype=np.int64) + start
    body_end = int(ends[-1]) if count else start
    if body_end > len(payload):
        raise ProtocolError("outcome batch truncated in packet body")
    if body_end != len(payload):
        raise ProtocolError("outcome batch has trailing bytes")
    packets = [
        payload[begin:end]
        for begin, end in zip((ends - head["len"]).tolist(), ends.tolist())
    ]
    return head["status"], head["handler"], head["teid"], packets


def decode_outcomes(payload: bytes) -> List[RouteOutcome]:
    """:func:`decode_outcome_columns` as a list of outcomes."""
    status, handler, teid, packets = decode_outcome_columns(payload)
    return [
        RouteOutcome(s, h, t, p if s == STATUS_DELIVERED else None)
        for s, h, t, p in zip(
            status.tolist(), handler.tolist(), teid.tolist(), packets
        )
    ]


# ----------------------------------------------------------------------
# Node state (MSG_SNAPSHOT / MSG_SWAP / MSG_STATE_REF)
# ----------------------------------------------------------------------


def encode_state(header: dict, body: bytes) -> bytes:
    """``u32 json_len | json | body``: the framing of a node state
    (:func:`decode_node_state`) and of the extended ``RSP_UPDATE``
    (accounting JSON + the batch's delta wire records)."""
    blob = encode_json(header)
    return _COUNT.pack(len(blob)) + blob + body


def decode_state(payload: bytes) -> Tuple[dict, bytes]:
    """Inverse of :func:`encode_state`; returns (header, body)."""
    if len(payload) < _COUNT.size:
        raise ProtocolError("state payload truncated in header length")
    (json_len,) = _COUNT.unpack_from(payload, 0)
    start = _COUNT.size
    if start + json_len > len(payload):
        raise ProtocolError("state payload truncated in JSON header")
    header = decode_json(payload[start:start + json_len])
    return header, payload[start + json_len:]


def decode_node_state(
    payload: bytes,
) -> Tuple[dict, np.ndarray, np.ndarray, bytes]:
    """``u32 json_len | json | FIB rows | RIB rows | tail`` as ``(header,
    fib, rib, tail)``: two :func:`insert_records` sections, then the GPT's
    snapshot (``MSG_STATE_REF``: catch-up records)."""
    header, body = decode_state(payload)
    fib, offset = decode_records(body, 0, "FIB rows", (OP_INSERT,))
    rib, offset = decode_records(body, offset, "RIB rows", (OP_INSERT,))
    return header, fib, rib, body[offset:]


# ----------------------------------------------------------------------
# Liveness
# ----------------------------------------------------------------------

_PING = struct.Struct("<Q")


def encode_ping(seq: int) -> bytes:
    """``u64 sequence number``."""
    return _PING.pack(seq)


def decode_ping(payload: bytes) -> int:
    """Inverse of :func:`encode_ping`."""
    if len(payload) != _PING.size:
        raise ProtocolError("ping payload must be exactly 8 bytes")
    return _PING.unpack(payload)[0]


def expect(rsp_type: int, wanted: int, payload: bytes) -> bytes:
    """Assert a response type, surfacing RSP_ERR bodies as exceptions."""
    if rsp_type == RSP_ERR:
        detail = "remote error"
        try:
            detail = str(decode_json(payload).get("error", detail))
        except ProtocolError:
            pass
        raise ProtocolError(f"peer reported: {detail}")
    if rsp_type != wanted:
        raise ProtocolError(
            f"expected {MSG_NAMES.get(wanted, wanted)} response, got "
            f"{MSG_NAMES.get(rsp_type, rsp_type)}"
        )
    return payload
