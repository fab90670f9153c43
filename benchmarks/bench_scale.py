"""Scale tier: resident memory and cold start at 16M keys.

The paper's headline population (Figure 11: up to 16M TEIDs per value-bit
configuration) is where the one-heap-per-daemon model breaks down.  These
benchmarks measure the two scale-tier claims on a synthesized 16M-key
separator (:func:`repro.runtime.scalesmoke.synthesize_separator` — real
structure, random contents, so no construction search at this size):

* ``scale.resident_bytes`` — total resident bytes for four local daemons
  holding the same GPT: four private heap deserialisations vs four
  copy-on-write attachments of one shared segment.  Target: >= 3x less.
* ``scale.cold_start``     — time for a (re)joining daemon to obtain
  usable state: ``serialize.loads`` of the wire snapshot vs ``shm.attach``
  of the published segment.  Target: >= 10x faster.

Everything runs in-process (the perf-lab smoke suite must not spawn
children); cross-process sharing of the same segments is proven by the
``scale-smoke`` CLI drill and the runtime tests.
"""

import gc

import numpy as np
import pytest

from repro import perflab
from repro.core import serialize, shm
from repro.runtime.scalesmoke import synthesize_separator
from benchmarks.conftest import print_header

NUM_DAEMONS = 4
SCALE_KEYS = 16_000_000

needs_shm = pytest.mark.skipif(
    not shm.available(), reason="no writable /dev/shm on this host"
)


def _pss_kb() -> int:
    with open("/proc/self/smaps_rollup", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Pss:"):
                return int(line.split()[1])
    return 0


def _touch(separator) -> int:
    """Fault in every data page of an attached separator."""
    total = 0
    for name in ("choices", "indices", "arrays", "seeds",
                 "array_a", "array_b"):
        block = getattr(separator, name, None)
        if block is not None:
            total += int(np.asarray(block).sum(dtype=np.uint64))
    return total


def _resident_comparison(num_keys: int):
    """(heap_kb, shm_kb, payload_bytes) for NUM_DAEMONS replicas."""
    payload = serialize.dumps(synthesize_separator(num_keys, seed=2))
    publisher = shm.SegmentPublisher(prefix=f"{shm.SEGMENT_PREFIX}bench-")
    try:
        gc.collect()
        base = _pss_kb()
        segment = publisher.publish(payload)
        attachments = [
            shm.attach(segment.name) for _ in range(NUM_DAEMONS)
        ]
        for attachment in attachments:
            _touch(attachment.separator)
        shm_kb = _pss_kb() - base
        for attachment in attachments:
            attachment.close()
        del attachments
    finally:
        publisher.close()
    gc.collect()
    base = _pss_kb()
    copies = [serialize.loads(payload) for _ in range(NUM_DAEMONS)]
    heap_kb = _pss_kb() - base
    del copies
    gc.collect()
    return heap_kb, shm_kb, len(payload)


# ----------------------------------------------------------------------
# pytest gates (run with ``pytest benchmarks/`` — smaller population)
# ----------------------------------------------------------------------


@needs_shm
def test_shared_segment_cuts_resident_bytes():
    heap_kb, shm_kb, payload = _resident_comparison(4_000_000)
    print_header("scale.resident_bytes (4M keys)")
    print(f"  payload          : {payload / 1e6:8.1f} MB")
    print(f"  {NUM_DAEMONS} heap copies : {heap_kb / 1024:8.1f} MB")
    print(f"  {NUM_DAEMONS} shm attaches: {shm_kb / 1024:8.1f} MB "
          f"({heap_kb / max(shm_kb, 1):.1f}x less)")
    assert heap_kb >= 3 * max(shm_kb, 1)


@needs_shm
def test_attach_beats_wire_deserialisation():
    import time

    payload = serialize.dumps(synthesize_separator(4_000_000, seed=2))
    publisher = shm.SegmentPublisher(prefix=f"{shm.SEGMENT_PREFIX}bench-")
    try:
        segment = publisher.publish(payload)
        best_load = min(
            _timed(lambda: serialize.loads(payload), time) for _ in range(3)
        )
        best_attach = min(
            _timed(lambda: shm.attach(segment.name).close(), time)
            for _ in range(3)
        )
    finally:
        publisher.close()
    print_header("scale.cold_start (4M keys)")
    print(f"  wire loads : {best_load * 1e3:8.2f} ms")
    print(f"  shm attach : {best_attach * 1e3:8.2f} ms "
          f"({best_load / best_attach:.0f}x faster)")
    assert best_load >= 10 * best_attach


def _timed(fn, time_mod) -> float:
    started = time_mod.perf_counter()
    fn()
    return time_mod.perf_counter() - started


# -- perf lab registration (repro.perflab; see EXPERIMENTS.md) -----------


@perflab.benchmark(
    "scale.resident_bytes", figure="Figure 11 (scale tier)", repeats=1
)
def perflab_scale_resident(ctx):
    """Resident bytes: NUM_DAEMONS heap copies vs shared-segment COW."""
    if not shm.available():
        ctx.set_params(skipped="no /dev/shm")
        ctx.timeit(lambda: None)
        return
    ctx.set_params(keys=SCALE_KEYS, daemons=NUM_DAEMONS)
    heap_kb, shm_kb, payload = ctx.timeit(
        lambda: _resident_comparison(SCALE_KEYS)
    )
    ctx.record(
        payload_mb=round(payload / 1e6, 2),
        heap_resident_mb=round(heap_kb / 1024, 2),
        shm_resident_mb=round(shm_kb / 1024, 2),
        reduction_factor=round(heap_kb / max(shm_kb, 1), 2),
    )


@perflab.benchmark(
    "scale.cold_start", figure="Figure 11 (scale tier)", repeats=5
)
def perflab_scale_cold_start(ctx):
    """Daemon cold start: shm attach (timed) vs wire deserialisation."""
    if not shm.available():
        ctx.set_params(skipped="no /dev/shm")
        ctx.timeit(lambda: None)
        return
    import time

    payload = serialize.dumps(synthesize_separator(SCALE_KEYS, seed=2))
    ctx.set_params(keys=SCALE_KEYS, payload_bytes=len(payload))
    publisher = shm.SegmentPublisher(prefix=f"{shm.SEGMENT_PREFIX}bench-")
    try:
        segment = publisher.publish(payload)
        wire_s = min(
            _timed(lambda: serialize.loads(payload), time)
            for _ in range(3)
        )
        # The timed body is the attach itself — the samples in the
        # artifact are attach times.
        ctx.timeit(lambda: shm.attach(segment.name).close())
        attach_s = min(ctx.samples)
    finally:
        publisher.close()
    ctx.record(
        wire_load_ms=round(wire_s * 1e3, 3),
        attach_ms=round(attach_s * 1e3, 3),
        speedup=round(wire_s / max(attach_s, 1e-9), 1),
    )
