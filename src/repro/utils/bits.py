"""Bit-level packing helpers.

SetSep deltas and the GPT wire format are specified in bits, not bytes
(a delta is "usually tens of bits", per the paper).  These helpers provide a
small MSB-first bit stream used by :mod:`repro.core.delta` and by the size
accounting in benchmarks.
"""

from __future__ import annotations

from typing import Iterable, List


class BitWriter:
    """Accumulates fields of arbitrary bit width into a byte string.

    Bits are written MSB-first, so the encoded stream is independent of host
    endianness and easy to inspect in tests.  The stream is held as one
    integer: a field costs one shift, the bytes one conversion.
    """

    def __init__(self) -> None:
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, width: int) -> "BitWriter":
        """Append ``value`` as a ``width``-bit big-endian field."""
        if width < 0:
            raise ValueError("width must be non-negative")
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._acc = (self._acc << width) | value
        self._nbits += width
        return self

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return self._nbits

    def getvalue(self) -> bytes:
        """Return the stream as bytes, zero-padded to a byte boundary."""
        size = (self._nbits + 7) // 8
        return (self._acc << (size * 8 - self._nbits)).to_bytes(size, "big")


class BitReader:
    """Reads MSB-first bit fields produced by :class:`BitWriter`."""

    def __init__(self, data: bytes) -> None:
        self._acc = int.from_bytes(data, "big")
        self._remaining = len(data) * 8

    def read(self, width: int) -> int:
        """Consume and return the next ``width`` bits as an unsigned int."""
        if width < 0:
            raise ValueError("width must be non-negative")
        if width > self._remaining:
            raise EOFError("bit stream exhausted")
        self._remaining -= width
        return (self._acc >> self._remaining) & ((1 << width) - 1)

    @property
    def bits_remaining(self) -> int:
        """Number of unread bits left in the stream."""
        return self._remaining


def pack_bits(values: Iterable[int], width: int) -> bytes:
    """Pack equal-width unsigned fields into bytes (MSB-first)."""
    writer = BitWriter()
    for value in values:
        writer.write(value, width)
    return writer.getvalue()


def unpack_bits(data: bytes, width: int, count: int) -> List[int]:
    """Unpack ``count`` equal-width fields previously packed by ``pack_bits``."""
    reader = BitReader(data)
    return [reader.read(width) for _ in range(count)]
