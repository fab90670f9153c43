"""Incremental update records for the Othello separator.

The §4.5 protocol is backend-agnostic: the RIB node owning a key's block
recomputes locally and broadcasts a small record that every replica applies
with plain memory writes.  For SetSep that record is a
:class:`repro.core.delta.GroupDelta` (whole-group replacement); for Othello
it is this module's :class:`OthelloUpdate` — either a *sparse* record
carrying the absolute new values of the few cells a component flip touched
(O(1) per update in expectation), or a *full* record carrying a block's
complete rows after a rehash-on-cycle (rare).

Both kinds write absolute values, so applying a record twice — or applying
a duplicate delivered by a faulty transport — is idempotent, matching
GroupDelta's last-writer-wins semantics under the chaos harness.

The API mirrors ``GroupDelta`` exactly (``encode`` / ``decode`` /
``wire_bytes`` / ``from_wire_bytes`` / ``size_bits``) so the update engine
and the runtime daemons handle either record type generically.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.core.delta import DeltaWireError
from repro.othello.params import OthelloParams

#: Record kinds.
KIND_SPARSE = 0
KIND_FULL = 1

#: Self-describing wire header: payload length u32, kind u8, value_bits u8,
#: vertex_bits u8 (log2 vertices per side), reserved u8.  The widths let a
#: receiver rebuild :class:`OthelloParams` without out-of-band agreement,
#: and the u32 length accommodates full-block records (~16 KiB at the
#: default geometry) that would overflow GroupDelta's u16 length.
WIRE_HEADER = struct.Struct("<IBBBB")

#: Sparse-body prefix: block id u32, seed u32, cell count u16.
_SPARSE_PREFIX = struct.Struct("<IIH")

#: One sparse cell: vertex u16 (A side < vps, B side >= vps), value u32.
_CELL = struct.Struct("<HI")

#: Full-body prefix: block id u32, seed u32.
_FULL_PREFIX = struct.Struct("<II")


@dataclass(frozen=True)
class OthelloUpdate:
    """Replacement cells (or a whole block) broadcast cluster-wide.

    Attributes:
        block_id: the 1024-key block this record belongs to.
        seed: the block's vertex-hash seed *after* the update (unchanged
            for sparse records; bumped by a rehash).
        cells: ``(vertex, value)`` pairs with absolute new cell values;
            vertices ``< vertices_per_side`` address side A, the rest
            address side B at ``vertex - vertices_per_side``.
        full: ``True`` for a rehash record; ``cells`` then holds every
            vertex of both sides in order (A row, then B row).
    """

    #: The ``OthelloParams`` fields the wire header carries (the peer of
    #: ``GroupDelta.WIRE_WIDTHS``).
    WIRE_WIDTHS = ("value_bits", "vertex_bits")

    block_id: int
    seed: int
    cells: Tuple[Tuple[int, int], ...] = field(default=())
    full: bool = False

    def check_against(self, separator) -> None:
        """Raise :class:`DeltaWireError` unless ``separator`` has this
        record's block (the peer of ``GroupDelta.check_against``)."""
        if not 0 <= self.block_id < separator.num_blocks:
            raise DeltaWireError(f"block id {self.block_id} out of range")

    def size_bits(self, params: OthelloParams) -> int:
        """Exact framed size in bits (feeds the update-rate histograms)."""
        return 8 * len(self.wire_bytes(params))

    def encode(self, params: OthelloParams) -> bytes:
        """Serialise the body (header-less) wire format."""
        if self.full:
            expected = 2 * params.vertices_per_side
            if len(self.cells) != expected:
                raise ValueError(
                    f"full record must carry {expected} cells, "
                    f"got {len(self.cells)}"
                )
            values = np.fromiter(
                (value for _, value in self.cells),
                dtype="<u4",
                count=expected,
            )
            return (
                _FULL_PREFIX.pack(self.block_id, self.seed) + values.tobytes()
            )
        if len(self.cells) > 0xFFFF:
            raise ValueError("too many sparse cells for the wire format")
        parts = [_SPARSE_PREFIX.pack(self.block_id, self.seed, len(self.cells))]
        limit = 2 * params.vertices_per_side
        for vertex, value in self.cells:
            if not 0 <= vertex < limit:
                raise ValueError(f"vertex {vertex} out of range")
            parts.append(_CELL.pack(vertex, value))
        return b"".join(parts)

    def wire_bytes(self, params: OthelloParams) -> bytes:
        """Frame the record for a byte stream (peer of GroupDelta's)."""
        body = self.encode(params)
        kind = KIND_FULL if self.full else KIND_SPARSE
        return WIRE_HEADER.pack(
            len(body), kind, params.value_bits, params.vertex_bits, 0
        ) + body

    @classmethod
    def from_wire_bytes(
        cls, data: bytes, offset: int = 0
    ) -> "Tuple[OthelloUpdate, OthelloParams, int]":
        """Parse one framed record starting at ``offset``.

        Returns ``(update, params, next_offset)`` so concatenated records
        can be framed out of one payload, exactly like
        ``GroupDelta.from_wire_bytes``.

        Raises:
            DeltaWireError: on truncation or an impossible header.
        """
        if offset + WIRE_HEADER.size > len(data):
            raise DeltaWireError("othello record truncated in header")
        body_len, kind, value_bits, vertex_bits, _ = WIRE_HEADER.unpack_from(
            data, offset
        )
        body_start = offset + WIRE_HEADER.size
        if body_start + body_len > len(data):
            raise DeltaWireError("othello record truncated in body")
        if kind not in (KIND_SPARSE, KIND_FULL):
            raise DeltaWireError(f"unknown othello record kind {kind}")
        try:
            params = OthelloParams(
                value_bits=value_bits, vertices_per_side=1 << vertex_bits
            )
        except ValueError as exc:
            raise DeltaWireError(f"impossible othello header: {exc}") from exc
        body = data[body_start:body_start + body_len]
        update = cls.decode(body, params, full=kind == KIND_FULL)
        return update, params, body_start + body_len

    @classmethod
    def decode(
        cls, data: bytes, params: OthelloParams, full: bool = False
    ) -> "OthelloUpdate":
        """Parse a record body (``full`` selects the rehash layout)."""
        try:
            if full:
                block_id, seed = _FULL_PREFIX.unpack_from(data, 0)
                expected = 2 * params.vertices_per_side
                raw = data[_FULL_PREFIX.size:]
                if len(raw) != 4 * expected:
                    raise DeltaWireError(
                        "full othello record length disagrees with geometry"
                    )
                values = np.frombuffer(raw, dtype="<u4")
                cells = tuple(
                    (vertex, int(value)) for vertex, value in enumerate(values)
                )
                return cls(
                    block_id=block_id, seed=seed, cells=cells, full=True
                )
            block_id, seed, count = _SPARSE_PREFIX.unpack_from(data, 0)
            if len(data) != _SPARSE_PREFIX.size + count * _CELL.size:
                raise DeltaWireError(
                    "sparse othello record length disagrees with count"
                )
            cells = tuple(
                _CELL.unpack_from(data, _SPARSE_PREFIX.size + i * _CELL.size)
                for i in range(count)
            )
            limit = 2 * params.vertices_per_side
            if any(vertex >= limit for vertex, _ in cells):
                raise DeltaWireError("sparse othello record vertex out of range")
            return cls(block_id=block_id, seed=seed, cells=cells, full=False)
        except struct.error as exc:
            raise DeltaWireError(f"othello record exhausted: {exc}") from exc
