"""Shared low-level utilities: bit packing, environment."""

import sys

from repro.utils.bits import BitWriter, BitReader, pack_bits, unpack_bits
from repro.utils.env import environment_fingerprint, git_sha

#: ``@dataclass(**DATACLASS_SLOTS)`` keeps a per-flow record's fields in
#: slots, without a per-instance ``__dict__``, on Python 3.10 and later
#: (``slots=True``); on 3.9, which lacks the flag, the record keeps its
#: ``__dict__`` and behaves the same.
DATACLASS_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}

__all__ = [
    "DATACLASS_SLOTS",
    "BitWriter",
    "BitReader",
    "pack_bits",
    "unpack_bits",
    "environment_fingerprint",
    "git_sha",
]
