"""Delta updates for SetSep groups (paper §4.5).

When a key is inserted, changed or removed, only the owning RIB node
recomputes the affected group and broadcasts the result; every other node
applies it with a memory copy.  A delta carries the group id plus, per value
bit, the new hash index and m-bit array — "usually tens of bits".  The
encoding here is the literal bit-level wire format, so tests can assert the
paper's size claim and the update-rate benchmark measures realistic payloads.

A record is one MSB-first bit stream, coded as one integer: every field is
a shift and a mask at an offset fixed by the three header widths, worked
out once per width triple (:func:`_layout`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.params import SetSepParams

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

_UPSERT_BITS = FALLBACK_KEY_BITS + FALLBACK_VALUE_BITS
_KEY_MASK = (1 << FALLBACK_KEY_BITS) - 1
_VALUE_MASK = (1 << FALLBACK_VALUE_BITS) - 1
_COUNT_MASK = (1 << COUNT_BITS) - 1


class _Layout:
    """The fixed fields of a record at one (index, array, value) width
    triple: the ``head_bits`` before the fallback entries, and the shift of
    each value bit's index and array from the head's least significant
    bit.  ``params`` is what a receiver of such a record gets back."""

    __slots__ = ("params", "head_bits", "shifts", "index_mask", "array_mask")

    def __init__(self, params: SetSepParams) -> None:
        index_bits, array_bits = params.index_bits, params.array_bits
        self.params = params
        self.head_bits = GROUP_ID_BITS + 1 + params.value_bits * (
            index_bits + array_bits
        ) + 2 * COUNT_BITS
        shifts = []
        position = self.head_bits - GROUP_ID_BITS - 1
        for _ in range(params.value_bits):
            position -= index_bits + array_bits
            shifts.append((position + array_bits, position))
        self.shifts = tuple(shifts)
        self.index_mask = (1 << index_bits) - 1
        self.array_mask = (1 << array_bits) - 1


_LAYOUTS: Dict[Tuple[int, int, int], _Layout] = {}


def _layout(index_bits: int, array_bits: int, value_bits: int) -> _Layout:
    """The layout of one width triple, made on first use (at most 16 x 32
    x 16 of them exist).  Raises ``ValueError`` for impossible widths."""
    widths = (index_bits, array_bits, value_bits)
    layout = _LAYOUTS.get(widths)
    if layout is None:
        layout = _LAYOUTS[widths] = _Layout(SetSepParams(
            index_bits=index_bits, array_bits=array_bits,
            value_bits=value_bits,
        ))
    return layout


def _refuse(value: int, width: int) -> None:
    """The one refusal of :meth:`GroupDelta.encode`: a field's value."""
    raise ValueError(f"value {value} does not fit in {width} bits")


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

    @classmethod
    def _of(
        cls, group_id, failed, indices, arrays, fallback_upserts=(),
        fallback_removals=(),
    ) -> "GroupDelta":
        """Positional constructor for the codec and the owner's rebuild.

        Equal, hash-equal and repr-equal to the keyword constructor; it
        fills the instance dict in one call where the frozen dataclass
        ``__init__`` pays six ``object.__setattr__``.
        """
        self = object.__new__(cls)
        self.__dict__.update(
            group_id=group_id, failed=failed, indices=indices,
            arrays=arrays, fallback_upserts=fallback_upserts,
            fallback_removals=fallback_removals,
        )
        return self

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
        """Serialise to the bit-level wire format.

        Raises:
            ValueError: when the record's bit count is not
                ``params.value_bits``, or a field does not fit its width.
        """
        indices, arrays = self.indices, self.arrays
        if not len(indices) == len(arrays) == params.value_bits:
            raise ValueError("delta does not match params.value_bits")
        index_bits, array_bits = params.index_bits, params.array_bits
        # Each field is range-checked, in wire order, then appended: a
        # shift and an OR, inline.
        acc = self.group_id
        if acc < 0 or acc >> GROUP_ID_BITS:
            _refuse(acc, GROUP_ID_BITS)
        failed = int(self.failed)
        if failed < 0 or failed >> 1:
            _refuse(failed, 1)
        acc = acc << 1 | failed
        for index, array in zip(indices, arrays):
            if index < 0 or index >> index_bits:
                _refuse(index, index_bits)
            if array < 0 or array >> array_bits:
                _refuse(array, array_bits)
            acc = (acc << index_bits | index) << array_bits | array
        upserts, removals = self.fallback_upserts, self.fallback_removals
        n_upserts, n_removals = len(upserts), len(removals)
        if n_upserts >> COUNT_BITS:
            _refuse(n_upserts, COUNT_BITS)
        if n_removals >> COUNT_BITS:
            _refuse(n_removals, COUNT_BITS)
        acc = (acc << COUNT_BITS | n_upserts) << COUNT_BITS | n_removals
        for key, value in upserts:
            if key < 0 or key >> FALLBACK_KEY_BITS:
                _refuse(key, FALLBACK_KEY_BITS)
            if value < 0 or value >> FALLBACK_VALUE_BITS:
                _refuse(value, FALLBACK_VALUE_BITS)
            acc = (acc << FALLBACK_KEY_BITS | key) << FALLBACK_VALUE_BITS | value
        for key in removals:
            if key < 0 or key >> FALLBACK_KEY_BITS:
                _refuse(key, FALLBACK_KEY_BITS)
            acc = acc << FALLBACK_KEY_BITS | key
        layout = _LAYOUTS.get(
            (index_bits, array_bits, params.value_bits)
        ) or _layout(index_bits, array_bits, params.value_bits)
        bits = layout.head_bits + n_upserts * _UPSERT_BITS + (
            n_removals * FALLBACK_KEY_BITS
        )
        size = (bits + 7) // 8
        return (acc << (size * 8 - bits)).to_bytes(size, "big")

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
        a concatenated stream.  Records framed with the same widths share
        one ``params`` instance.

        Raises:
            DeltaWireError: on a truncated header or body, impossible
                widths, a body that ends inside a field, a non-zero
                padding bit, or a body length the content does not fill.
        """
        if offset + WIRE_HEADER.size > len(data):
            raise DeltaWireError("delta frame truncated in header")
        body_len, index_bits, array_bits, value_bits = WIRE_HEADER.unpack_from(
            data, offset
        )
        body_start = offset + WIRE_HEADER.size
        end = body_start + body_len
        if end > len(data):
            raise DeltaWireError("delta frame truncated in body")
        layout = _LAYOUTS.get((index_bits, array_bits, value_bits))
        if layout is None:
            try:
                layout = _layout(index_bits, array_bits, value_bits)
            except ValueError as exc:
                raise DeltaWireError(
                    f"impossible delta header: {exc}"
                ) from exc
        try:
            delta, bits = cls._decode(data[body_start:end], layout)
        except EOFError as exc:
            raise DeltaWireError(f"delta body exhausted: {exc}") from exc
        if (bits + 7) // 8 != body_len:
            raise DeltaWireError("delta body length disagrees with content")
        return delta, layout.params, end

    @classmethod
    def decode(cls, data: bytes, params: SetSepParams) -> "GroupDelta":
        """Parse a delta from its wire format.

        Raises:
            EOFError: when ``data`` ends inside a field.
            DeltaWireError: when a bit after the last field is set.
        """
        layout = _layout(params.index_bits, params.array_bits, params.value_bits)
        return cls._decode(data, layout)[0]

    @classmethod
    def _decode(cls, data: bytes, layout: _Layout) -> "Tuple[GroupDelta, int]":
        """:meth:`decode` at a known layout; also returns the bits the
        fields take (the rest of ``data`` is zero padding)."""
        spare = len(data) * 8 - layout.head_bits
        if spare < 0:
            raise EOFError("bit stream exhausted")
        acc = int.from_bytes(data, "big")
        head = acc >> spare
        index_mask, array_mask = layout.index_mask, layout.array_mask
        indices = []
        arrays = []
        for index_shift, array_shift in layout.shifts:
            indices.append(head >> index_shift & index_mask)
            arrays.append(head >> array_shift & array_mask)
        n_upserts = head >> COUNT_BITS & _COUNT_MASK
        n_removals = head & _COUNT_MASK
        upserts: tuple = ()
        removals: tuple = ()
        if n_upserts or n_removals:
            if n_upserts * _UPSERT_BITS + n_removals * FALLBACK_KEY_BITS > spare:
                raise EOFError("bit stream exhausted")
            entries: List = []
            for _ in range(n_upserts):
                spare -= _UPSERT_BITS
                entry = acc >> spare
                entries.append(
                    (entry >> FALLBACK_VALUE_BITS & _KEY_MASK, entry & _VALUE_MASK)
                )
            upserts = tuple(entries)
            entries = []
            for _ in range(n_removals):
                spare -= FALLBACK_KEY_BITS
                entries.append(acc >> spare & _KEY_MASK)
            removals = tuple(entries)
        # One delta, one byte string: the zero padding is part of the format.
        if acc & ((1 << spare) - 1):
            raise DeltaWireError("non-zero padding bits after the delta")
        head_bits = layout.head_bits
        delta = cls._of(
            head >> (head_bits - GROUP_ID_BITS),
            bool(head >> (head_bits - GROUP_ID_BITS - 1) & 1),
            tuple(indices), tuple(arrays), upserts, removals,
        )
        return delta, len(data) * 8 - spare

    def check_against(self, setsep) -> None:
        """Raise :class:`DeltaWireError` unless ``setsep`` can hold this
        record: its group exists there, a live record's indices are not
        the all-ones failure sentinel, and every fallback value fits in
        ``value_bits``.  Widths are the caller's to compare."""
        params = setsep.params
        if not 0 <= self.group_id < setsep.num_groups:
            raise DeltaWireError(f"group id {self.group_id} out of range")
        failure_index = (1 << params.index_bits) - 1  # ``max_index``
        if not self.failed and failure_index in self.indices:
            raise DeltaWireError(
                f"live record holds the failure index {failure_index}"
            )
        value_bits = params.value_bits
        for _, value in self.fallback_upserts:
            if value >> value_bits:
                raise DeltaWireError(
                    f"fallback value {value} does not fit in {value_bits} bits"
                )
