"""Shared benchmark helpers.

Benchmarks regenerate every table and figure of the paper's §6 at
reproduction scale.  Absolute numbers from the Python implementation are
reported next to *model-projected* numbers for the paper's hardware and key
counts; the shapes (who wins, by what factor, where crossovers fall) are
the reproduction target — see EXPERIMENTS.md.

Run with ``pytest benchmarks/ --benchmark-only -s`` (the ``-s`` lets the
regenerated figure tables print).  Set ``REPRO_BENCH_SCALE`` to scale the
workload sizes (default 1 targets a laptop; 10 gets closer to the paper's
populations at ~10x the runtime).
"""

from __future__ import annotations

import gc
import os
import sys
import time

import numpy as np
import pytest


def bench_scale() -> int:
    """Workload multiplier from the environment (default 1)."""
    return max(1, int(os.environ.get("REPRO_BENCH_SCALE", "1")))


def bench_keys(count: int, seed: int = 1, high: int = 2**62) -> np.ndarray:
    """``count`` distinct uint64 keys for benchmark populations.

    Deterministic in ``seed``.  Oversamples by 2.2x and, should a draw
    ever under-produce (only plausible when ``count`` approaches the key
    space), retries with doubled oversampling from the same generator
    stream instead of dying — large ``REPRO_BENCH_SCALE`` runs must not
    abort on a recoverable condition.  ``high`` narrows the key space
    (tests exercise the retry path with it).
    """
    if count > high - 1:
        raise ValueError(f"cannot draw {count} distinct keys below {high}")
    rng = np.random.default_rng(seed)
    oversample = 2.2
    for _ in range(8):
        keys = np.unique(
            rng.integers(1, high, size=int(count * oversample),
                         dtype=np.uint64)
        )
        if len(keys) >= count:
            return keys[:count]
        oversample *= 2
    raise RuntimeError(
        f"key generation under-produced: {count} keys requested from a "
        f"space of {high - 1}"
    )


#: Items per call of the per-node stage rows: what one node gets of a
#: 32-frame gateway batch (8), the gateway batch (32), the uniform
#: workloads' batch (256) and a daemon's (1,024).
STAGE_COST_SIZES = (8, 32, 256, 1_024)


def stage_cost(ctx, call_for, also=()):
    """Best-of cost of one call per batch size, fitted and recorded.

    ``call_for(n)`` returns the zero-argument call to time at ``n``
    items.  ``fixed_us`` / ``per_item_ns`` are the intercept and slope
    of the least-squares line ``cost = fixed + per_item * n`` through the
    sizes of :data:`STAGE_COST_SIZES`, each point weighted by 1/cost so
    the fit minimises *relative* error.  ``also`` holds ``(label, items,
    call)`` triples timed in the same sweeps, so a ratio against them is
    a same-run one; returns the best cost in µs of every size and label.
    """
    calls = [(n, n, call_for(n)) for n in STAGE_COST_SIZES] + [
        (label, items, call) for label, items, call in also
    ]
    best = {name: float("inf") for name, _, _ in calls}

    def sweep():
        for name, items, call in calls:
            repeats = max(3, 2_048 // items)
            started = time.perf_counter()
            for _ in range(repeats):
                call()
            cost = (time.perf_counter() - started) / repeats * 1e6
            best[name] = min(best[name], cost)

    ctx.timeit(sweep)
    sizes = np.array(STAGE_COST_SIZES, dtype=np.float64)
    costs = np.array([best[n] for n in STAGE_COST_SIZES])
    per_item_us, fixed_us = np.polyfit(sizes, costs, 1, w=1.0 / costs)
    ctx.set_params(sizes="/".join(map(str, STAGE_COST_SIZES)))
    ctx.record(
        fixed_us=fixed_us,
        per_item_ns=per_item_us * 1e3,
        **{f"us_at_{n}": best[n] for n in STAGE_COST_SIZES},
    )
    return best


def print_header(title: str) -> None:
    """Figure/table banner in the captured output."""
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


@pytest.fixture(scope="session")
def scale() -> int:
    return bench_scale()


def count_calls(fn, *args):
    """``fn(*args)`` under ``sys.setprofile``; returns the Python function
    calls it made (``call`` events, a generator's resumptions included)
    and the C-level ones (``c_call`` events: builtins and the methods of
    C types, NumPy's array methods among them; a ufunc or an operator on
    arrays is not one), collector off so no finaliser runs inside."""
    calls = {"call": 0, "c_call": 0}

    def profile(_frame, event, _arg):
        if event in calls:
            calls[event] += 1

    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls["call"], calls["c_call"]
