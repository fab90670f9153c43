"""Configuration of the SetSep data structure (paper §4.2–§4.4).

The paper names configurations "x+y": ``x`` bits store the hash-function
index and ``y = m`` bits store the per-group bit array.  The defaults here
are the paper's production choice, "16+8" with 16-key groups, which costs
24 bits per group per value bit = 1.5 bits/key, plus the constant 0.5
bits/key for the two-level bucket-to-group mapping.
"""

from __future__ import annotations

from dataclasses import dataclass


#: First-level buckets per 1024-key block (average bucket size 4).
BUCKETS_PER_BLOCK = 256

#: Groups per block (average group size 16).
GROUPS_PER_BLOCK = 64

#: Expected keys per block (BUCKETS_PER_BLOCK * average bucket size).
KEYS_PER_BLOCK = 1024

#: Candidate groups per bucket; the stored choice is log2(4) = 2 bits.
CANDIDATES_PER_BUCKET = 4

#: Bits used to store the chosen candidate per bucket.
CHOICE_BITS = 2

#: Sentinel hash index marking a group whose search failed (fallback used).
FAILED_GROUP = 0xFFFF


@dataclass(frozen=True)
class SetSepParams:
    """Tunable parameters of a SetSep instance.

    Attributes:
        index_bits: bits allocated to the per-group hash-function index
            ("x" in the paper's "x+y" notation).  The search tries indices
            ``0 .. 2**index_bits - 2``; the all-ones index is the failure
            sentinel that routes a group to the fallback table.
        array_bits: size m of the per-group bit array ("y").  Must be
            between 1 and 32 so the array packs into a uint32.
        value_bits: bits per stored value; a cluster of N nodes needs
            ``ceil(log2 N)``.  One hash function is searched per value bit
            (paper §4.3).
        assignment_trials: how many runs of the randomised greedy
            bucket-to-group assignment to attempt per block, keeping the
            most balanced (paper §4.4 "run this randomized algorithm
            several times per block").
        search_chunk: how many candidate indices the vectorised search
            evaluates per step, as one ``(n_keys, search_chunk)`` matrix
            of one-byte slot masks at m <= 8.  It changes no result (the
            first fit is found at any chunk size), only speed.  512 is
            fixed: smaller chunks pay more per-step overhead, and larger
            ones make a failing group's full scan cheaper but slow the
            median update and the update rate (EXPERIMENTS.md, §6.2).
        seed: seed for the randomised greedy assignment tie-breaking.
    """

    index_bits: int = 16
    array_bits: int = 8
    value_bits: int = 1
    assignment_trials: int = 3
    search_chunk: int = 512
    seed: int = 0x5CA1EB

    def __post_init__(self) -> None:
        if not 1 <= self.index_bits <= 16:
            raise ValueError("index_bits must be in [1, 16]")
        if not 1 <= self.array_bits <= 32:
            raise ValueError("array_bits (m) must be in [1, 32]")
        if not 1 <= self.value_bits <= 16:
            raise ValueError("value_bits must be in [1, 16]")
        if self.assignment_trials < 1:
            raise ValueError("assignment_trials must be >= 1")
        if self.search_chunk < 1:
            raise ValueError("search_chunk must be >= 1")

    @property
    def max_index(self) -> int:
        """Largest usable hash-function index (one below the sentinel)."""
        return (1 << self.index_bits) - 1

    @property
    def group_bits(self) -> int:
        """Storage per group: (index + array) bits for each value bit."""
        return (self.index_bits + self.array_bits) * self.value_bits

    @property
    def name(self) -> str:
        """The paper's "x+y" configuration label."""
        return f"{self.index_bits}+{self.array_bits}"

    def bits_per_key(self) -> float:
        """Expected storage in bits/key, including the two-level mapping.

        16-key groups at ``group_bits`` bits each contribute
        ``group_bits / 16`` and the 2-bit choice per 4-key bucket adds the
        constant 0.5 — e.g. 3.5 bits/key for the 16+8, 2-bit-value GPT the
        paper quotes in its conclusion.
        """
        avg_group = KEYS_PER_BLOCK / GROUPS_PER_BLOCK
        avg_bucket = KEYS_PER_BLOCK / BUCKETS_PER_BLOCK
        return self.group_bits / avg_group + CHOICE_BITS / avg_bucket

    @staticmethod
    def for_cluster(num_nodes: int, **overrides) -> "SetSepParams":
        """Parameters sized for a GPT mapping keys to ``num_nodes`` nodes."""
        if num_nodes < 1:
            raise ValueError("cluster must have at least one node")
        value_bits = max(1, (num_nodes - 1).bit_length())
        return SetSepParams(value_bits=value_bits, **overrides)
