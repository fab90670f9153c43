"""Shared low-level utilities: bit packing, environment."""

from repro.utils.bits import BitWriter, BitReader, pack_bits, unpack_bits
from repro.utils.env import environment_fingerprint, git_sha

__all__ = [
    "BitWriter",
    "BitReader",
    "pack_bits",
    "unpack_bits",
    "environment_fingerprint",
    "git_sha",
]
