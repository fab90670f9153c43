"""Delta updates for SetSep groups (paper §4.5).

When a key is inserted, changed or removed, only the owning RIB node
recomputes the affected group and broadcasts the result; every other node
applies it with a memory copy.  A delta carries the group id plus, per value
bit, the new hash index and m-bit array — "usually tens of bits".  The
encoding here is the literal bit-level wire format, so tests can assert the
paper's size claim and the update-rate benchmark measures realistic payloads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.core.params import SetSepParams
from repro.utils.bits import BitReader, BitWriter

#: Bits used for the group id on the wire.
GROUP_ID_BITS = 32

#: Self-describing wire header: payload length u16, then the three
#: SetSep bit-widths (index, array, value) as u8 each.  The length
#: header lets a receiver frame deltas out of a byte stream, and the
#: bit-widths let it decode without knowing the sender's
#: :class:`SetSepParams` up front.
WIRE_HEADER = struct.Struct("<HBBB")


class DeltaWireError(ValueError):
    """A framed delta failed to parse (truncated or inconsistent)."""

#: Bits used for the fallback entry counters.
COUNT_BITS = 8

#: Bits per fallback key / value on the wire.
FALLBACK_KEY_BITS = 64
FALLBACK_VALUE_BITS = 16


@dataclass(frozen=True)
class GroupDelta:
    """Replacement state for one group, broadcast cluster-wide.

    Attributes:
        group_id: global group index.
        failed: whether the group now lives in the fallback table.
        indices: per-value-bit hash-function index (all zero when failed).
        arrays: per-value-bit packed m-bit arrays.
        fallback_upserts: exact entries to add to the fallback table
            (non-empty only when the group's search failed).
        fallback_removals: keys to drop from the fallback table (the group
            used to be failed and now separates, or a key was deleted).
    """

    #: The ``SetSepParams`` fields the wire header carries: a receiver
    #: applies a record only when they equal its own.
    WIRE_WIDTHS = ("index_bits", "array_bits", "value_bits")

    group_id: int
    failed: bool
    indices: Tuple[int, ...]
    arrays: Tuple[int, ...]
    fallback_upserts: Tuple[Tuple[int, int], ...] = field(default=())
    fallback_removals: Tuple[int, ...] = field(default=())

    def size_bits(self, params: SetSepParams) -> int:
        """Exact encoded size in bits (the paper's "tens of bits")."""
        body = GROUP_ID_BITS + 1 + params.value_bits * (
            params.index_bits + params.array_bits
        )
        body += 2 * COUNT_BITS
        body += len(self.fallback_upserts) * (
            FALLBACK_KEY_BITS + FALLBACK_VALUE_BITS
        )
        body += len(self.fallback_removals) * FALLBACK_KEY_BITS
        return body

    def encode(self, params: SetSepParams) -> bytes:
        """Serialise to the bit-level wire format."""
        if not len(self.indices) == len(self.arrays) == params.value_bits:
            raise ValueError("delta does not match params.value_bits")
        writer = BitWriter()
        writer.write(self.group_id, GROUP_ID_BITS)
        writer.write(int(self.failed), 1)
        for index, array in zip(self.indices, self.arrays):
            writer.write(index, params.index_bits)
            writer.write(array, params.array_bits)
        writer.write(len(self.fallback_upserts), COUNT_BITS)
        writer.write(len(self.fallback_removals), COUNT_BITS)
        for key, value in self.fallback_upserts:
            writer.write(key, FALLBACK_KEY_BITS)
            writer.write(value, FALLBACK_VALUE_BITS)
        for key in self.fallback_removals:
            writer.write(key, FALLBACK_KEY_BITS)
        return writer.getvalue()

    def wire_bytes(self, params: SetSepParams) -> bytes:
        """Frame the delta for a byte stream: length + bit-widths + body.

        The body is exactly :meth:`encode`'s bit-level format; the
        5-byte header prepends the body length and the three
        ``SetSepParams`` widths so :meth:`from_wire_bytes` needs no
        out-of-band parameter agreement and multiple deltas can be
        concatenated back to back.
        """
        body = self.encode(params)
        if len(body) > 0xFFFF:
            raise ValueError("delta body too large for the wire header")
        return WIRE_HEADER.pack(
            len(body), params.index_bits, params.array_bits, params.value_bits
        ) + body

    @classmethod
    def from_wire_bytes(
        cls, data: bytes, offset: int = 0
    ) -> "Tuple[GroupDelta, SetSepParams, int]":
        """Parse one framed delta starting at ``offset``.

        Returns ``(delta, params, next_offset)`` where ``next_offset``
        points just past this delta — ready to parse the next one out of
        a concatenated stream.

        Raises:
            DeltaWireError: on truncation or an impossible header.
        """
        if offset + WIRE_HEADER.size > len(data):
            raise DeltaWireError("delta frame truncated in header")
        body_len, index_bits, array_bits, value_bits = WIRE_HEADER.unpack_from(
            data, offset
        )
        body_start = offset + WIRE_HEADER.size
        if body_start + body_len > len(data):
            raise DeltaWireError("delta frame truncated in body")
        try:
            params = SetSepParams(
                index_bits=index_bits,
                array_bits=array_bits,
                value_bits=value_bits,
            )
        except ValueError as exc:
            raise DeltaWireError(f"impossible delta header: {exc}") from exc
        body = data[body_start:body_start + body_len]
        try:
            delta = cls.decode(body, params)
        except EOFError as exc:
            raise DeltaWireError(f"delta body exhausted: {exc}") from exc
        if (delta.size_bits(params) + 7) // 8 != body_len:
            raise DeltaWireError("delta body length disagrees with content")
        return delta, params, body_start + body_len

    @classmethod
    def decode(cls, data: bytes, params: SetSepParams) -> "GroupDelta":
        """Parse a delta from its wire format.

        Raises:
            EOFError: when ``data`` ends inside a field.
            DeltaWireError: when a bit after the last field is set.
        """
        reader = BitReader(data)
        group_id = reader.read(GROUP_ID_BITS)
        failed = bool(reader.read(1))
        indices: List[int] = []
        arrays: List[int] = []
        for _ in range(params.value_bits):
            indices.append(reader.read(params.index_bits))
            arrays.append(reader.read(params.array_bits))
        n_upserts = reader.read(COUNT_BITS)
        n_removals = reader.read(COUNT_BITS)
        upserts = tuple(
            (reader.read(FALLBACK_KEY_BITS), reader.read(FALLBACK_VALUE_BITS))
            for _ in range(n_upserts)
        )
        removals = tuple(
            reader.read(FALLBACK_KEY_BITS) for _ in range(n_removals)
        )
        # One delta, one byte string: the zero padding is part of the format.
        if reader.read(reader.bits_remaining):
            raise DeltaWireError("non-zero padding bits after the delta")
        return cls(
            group_id=group_id,
            failed=failed,
            indices=tuple(indices),
            arrays=tuple(arrays),
            fallback_upserts=upserts,
            fallback_removals=removals,
        )
