"""Spans recorded from outside the program, and self-time arithmetic.

The harness wraps public callables — on the module, class or instance
attribute their caller resolves — with a recorder that keeps one row per
call in memory: name, start, end, the span that caused it, and the ordinal
of the timed harness call it belongs to.  Nothing inside ``src/`` changes;
every original is put back in a ``finally``.
"""

from __future__ import annotations

import json
import time
from array import array
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

#: ``count(args, kwargs, result) -> int`` — work done by one call.
CountFn = Callable[[tuple, dict, object], int]


class Hook(NamedTuple):
    """One callable to wrap: ``getattr(owner, attr)`` recorded as ``name``."""

    owner: object
    attr: str
    name: str
    count: Optional[CountFn] = None


class Recorder:
    """In-memory span table (column arrays: no per-span objects survive)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.trace_id = array("l")
        self.count = array("q")
        self._stack: List[int] = []
        #: Ordinal of the timed harness call in flight (set by the harness).
        self.current_trace = 0
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             count: Optional[CountFn] = None) -> Callable:
        """``fn`` with a span around every call."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        starts, ends, counts = self.start, self.end, self.count
        name_ids, parents, traces = self.name_id, self.parent, self.trace_id
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            row = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            traces.append(self.current_trace)
            ends.append(0)
            counts.append(0)
            stack.append(row)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[row] = clock()
                stack.pop()
            if count is not None:
                counts[row] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self, hooks: List[Hook]) -> None:
        """Replace every hooked callable with its traced wrapper."""
        for hook in hooks:
            owner = hook.owner
            if isinstance(owner, type):
                # Patch the class that defines it, so restoring leaves no
                # shadowing attribute behind on a subclass.
                owner = next(
                    c for c in owner.__mro__ if hook.attr in vars(c)
                )
            raw = vars(owner)[hook.attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(
                    self.wrap(hook.name, raw.__func__, hook.count)
                )
            else:
                wrapped = self.wrap(hook.name, raw, hook.count)
            self._patched.append((owner, hook.attr, raw))
            setattr(owner, hook.attr, wrapped)

    def restore(self) -> None:
        """Put every original back (safe to call twice)."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- analysis -------------------------------------------------------

    def columns(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int64),
            "start": np.asarray(self.start, dtype=np.int64),
            "end": np.asarray(self.end, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "count": np.asarray(self.count, dtype=np.int64),
        }

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, in call order."""
        with open(path, "w", encoding="utf-8") as handle:
            for row in range(len(self.start)):
                handle.write(json.dumps({
                    "name": self.names[self.name_id[row]],
                    "start": self.start[row],
                    "end": self.end[row],
                    "parent": self.parent[row],
                    "trace_id": self.trace_id[row],
                }) + "\n")


class SpanStats(NamedTuple):
    """Totals of one span name under one root span name."""

    calls: int
    total_ns: int
    self_ns: int
    count: int


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the part child spans cover.

    Spans of one single-threaded call tree nest and never overlap, so the
    covered part is the sum of the direct children's durations.
    """
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent],
        minlength=len(duration),
    ).astype(np.int64)
    return duration - covered


def roots_of(parent: np.ndarray) -> np.ndarray:
    """Row of each span's outermost ancestor (rows are in call order, so
    that is the latest root at or before the span)."""
    rows = np.arange(len(parent), dtype=np.int64)
    return np.maximum.accumulate(np.where(parent < 0, rows, -1))


def aggregate(
    names: List[str], cols: Dict[str, np.ndarray]
) -> Dict[Tuple[str, str], SpanStats]:
    """``(root name, span name) -> SpanStats`` over the whole table."""
    if not len(cols["start"]):
        return {}
    duration = cols["end"] - cols["start"]
    own = self_times(cols["start"], cols["end"], cols["parent"])
    root_name = cols["name_id"][roots_of(cols["parent"])]
    pair = root_name * len(names) + cols["name_id"]
    size = len(names) ** 2
    calls = np.bincount(pair, minlength=size)
    total = np.bincount(pair, weights=duration, minlength=size)
    self_ns = np.bincount(pair, weights=own, minlength=size)
    count = np.bincount(pair, weights=cols["count"], minlength=size)
    out: Dict[Tuple[str, str], SpanStats] = {}
    for cell in np.flatnonzero(calls):
        root, name = divmod(int(cell), len(names))
        out[(names[root], names[name])] = SpanStats(
            int(calls[cell]), int(total[cell]), int(self_ns[cell]),
            int(count[cell]),
        )
    return out
