"""Tests for the MSB-first bit stream (repro.utils.bits)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.bits import BitReader, BitWriter, pack_bits, unpack_bits


def reference_pack(fields):
    """MSB-first packing one bit per step: what the stream means."""
    bits = [
        (value >> shift) & 1
        for value, width in fields
        for shift in range(width - 1, -1, -1)
    ]
    out = bytearray((len(bits) + 7) // 8)
    for pos, bit in enumerate(bits):
        if bit:
            out[pos // 8] |= 0x80 >> (pos % 8)
    return bytes(out)


def reference_unpack(data, widths):
    """The fields of ``data`` read back one bit per step."""
    pos, values = 0, []
    for width in widths:
        value = 0
        for _ in range(width):
            value = (value << 1) | ((data[pos // 8] >> (7 - pos % 8)) & 1)
            pos += 1
        values.append(value)
    return values


@st.composite
def field_lists(draw):
    """``(value, width)`` fields, up to 4,096 bits in all."""
    widths = draw(st.lists(st.integers(0, 96), max_size=64))
    while sum(widths) > 4096:
        widths.pop()
    return [(draw(st.integers(0, (1 << w) - 1)), w) for w in widths]


class TestAgainstBitAtATimeReference:
    @settings(max_examples=200, deadline=None)
    @given(field_lists())
    def test_writer_matches_reference(self, fields):
        writer = BitWriter()
        for value, width in fields:
            writer.write(value, width)
        assert writer.bit_length == sum(width for _, width in fields)
        assert writer.getvalue() == reference_pack(fields)

    @settings(max_examples=200, deadline=None)
    @given(field_lists(), st.binary(max_size=8))
    def test_reader_matches_reference(self, fields, tail):
        data = reference_pack(fields) + tail
        widths = [width for _, width in fields]
        reader = BitReader(data)
        assert [reader.read(w) for w in widths] == reference_unpack(data, widths)
        assert reader.bits_remaining == len(data) * 8 - sum(widths)


class TestBitWriter:
    def test_single_bit(self):
        assert BitWriter().write(1, 1).getvalue() == b"\x80"

    def test_zero_width_writes_nothing(self):
        writer = BitWriter()
        writer.write(0, 0)
        assert writer.bit_length == 0
        assert writer.getvalue() == b""

    def test_full_byte(self):
        assert BitWriter().write(0xAB, 8).getvalue() == b"\xab"

    def test_multi_field_packing(self):
        writer = BitWriter()
        writer.write(0b101, 3).write(0b01, 2).write(0b110, 3)
        assert writer.getvalue() == bytes([0b10101110])

    def test_padding_to_byte_boundary(self):
        assert BitWriter().write(0b11, 2).getvalue() == bytes([0b11000000])

    def test_bit_length_tracks_writes(self):
        writer = BitWriter()
        writer.write(0, 5)
        writer.write(0, 11)
        assert writer.bit_length == 16

    def test_value_too_wide_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write(4, 2)

    @pytest.mark.parametrize("width", [63, 64, 65, 128])
    def test_value_too_wide_rejected_at_every_width(self, width):
        # A fallback key is a 64-bit field: a wider one must not be
        # silently truncated on the wire.
        with pytest.raises(ValueError):
            BitWriter().write(1 << width, width)
        assert BitWriter().write((1 << width) - 1, width).bit_length == width

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write(-1, 8)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write(0, -1)

    def test_64_bit_field(self):
        value = 0xDEADBEEFCAFEF00D
        writer = BitWriter().write(value, 64)
        assert BitReader(writer.getvalue()).read(64) == value


class TestBitReader:
    def test_roundtrip_mixed_widths(self):
        writer = BitWriter()
        fields = [(3, 2), (100, 7), (0, 1), (65535, 16), (1, 1)]
        for value, width in fields:
            writer.write(value, width)
        reader = BitReader(writer.getvalue())
        for value, width in fields:
            assert reader.read(width) == value

    def test_exhaustion_raises(self):
        reader = BitReader(b"\xff")
        reader.read(8)
        with pytest.raises(EOFError):
            reader.read(1)

    def test_bits_remaining(self):
        reader = BitReader(b"\x00\x00")
        assert reader.bits_remaining == 16
        reader.read(5)
        assert reader.bits_remaining == 11

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            BitReader(b"\x00").read(-2)


class TestPackUnpack:
    def test_roundtrip(self):
        values = [5, 0, 31, 17, 2]
        data = pack_bits(values, 5)
        assert unpack_bits(data, 5, len(values)) == values

    def test_two_bit_choices(self):
        values = [0, 1, 2, 3] * 8
        data = pack_bits(values, 2)
        assert len(data) == 8  # 32 choices x 2 bits = 64 bits
        assert unpack_bits(data, 2, len(values)) == values

    def test_empty(self):
        assert pack_bits([], 4) == b""
        assert unpack_bits(b"", 4, 0) == []
