"""The scale-tier smoke drill: shm sharing, delta-log rejoin, hard gates.

CI's ``runtime-smoke`` job proves the socket runtime's differential
correctness; this module proves the *scale tier* (shared-memory GPT
snapshots, epoch delta logs) holds its contract, cheaply enough to run on
every push:

**Part A — one segment, many attachers, at ~10⁶ keys.**  A synthesized
million-key separator is published once and attached by child processes
exactly the way daemons attach it (copy-on-write, fingerprint-checked,
no CRC pass).  Gates: every attacher parses the identical structure
(fingerprints equal), attaching beats deserialising the same bytes by at
least :data:`COLD_START_GATE` (the reason ``MSG_STATE_REF`` exists), and
closing the publisher leaves ``/dev/shm`` clean.

**Part B — kill, repair, storm, rejoin, at demo scale.**  A live cluster
is bootstrapped over shm, one daemon is SIGKILLed and repaired, an update
storm runs while it is gone, a fresh process rejoins via
:meth:`~repro.runtime.controller.RuntimeController.rejoin_node` and
replays the delta log.  Gates: the rejoined replica is byte-identical to
the shadow (and stays so through another storm), routed traffic does not
diverge, **zero** full snapshots crossed the wire
(``runtime.snapshot_bytes == 0`` — everything travelled by reference),
and neither processes nor segments leak.

Synthesized separators (:func:`synthesize_separator`) have random array
contents: structurally valid, lookup-safe, byte-stable for a seed — but
mapping keys to arbitrary values, which is irrelevant here and lets the
drill reach sizes the construction search cannot at smoke cost.
"""

from __future__ import annotations

import math
import os
import time
from typing import Dict, List, Optional

import multiprocessing

import numpy as np

from repro.core import serialize, shm
from repro.core import separator as separator_registry
from repro.core.fallback import FallbackTable
from repro.core.params import (
    BUCKETS_PER_BLOCK,
    CANDIDATES_PER_BUCKET,
    GROUPS_PER_BLOCK,
    KEYS_PER_BLOCK,
    SetSepParams,
)
from repro.core.setsep import SetSep

#: Attach must beat deserialising the same bytes by this factor (Part A).
COLD_START_GATE = 3.0


def synthesize_separator(
    num_keys: int,
    backend: Optional[str] = None,
    value_bits: int = 2,
    seed: int = 1,
):
    """A structurally valid separator sized for ``num_keys``, no search.

    Array contents are drawn uniformly at random (within each field's
    legal range), so lookups are safe and dumps are deterministic per
    seed — only the key→value mapping is meaningless.  This is what lets
    smoke tests and perf-lab benchmarks exercise million-to-16M-key
    structures that the real construction search would take minutes to
    build.
    """
    backend = separator_registry.resolve_backend(backend)
    num_blocks = max(1, math.ceil(num_keys / KEYS_PER_BLOCK))
    rng = np.random.default_rng(seed)
    if backend == "othello":
        from repro.othello.params import OthelloParams
        from repro.othello.structure import OthelloSeparator

        params = OthelloParams(value_bits=value_bits)
        vps = params.vertices_per_side
        return OthelloSeparator(
            params,
            num_blocks,
            seeds=rng.integers(0, 1 << 32, size=num_blocks, dtype=np.uint32),
            array_a=rng.integers(
                0, 1 << 32, size=(num_blocks, vps), dtype=np.uint32
            ),
            array_b=rng.integers(
                0, 1 << 32, size=(num_blocks, vps), dtype=np.uint32
            ),
        )
    params = SetSepParams(value_bits=value_bits)
    num_buckets = num_blocks * BUCKETS_PER_BLOCK
    num_groups = num_blocks * GROUPS_PER_BLOCK
    return SetSep(
        params,
        num_blocks,
        choices=rng.integers(
            0, CANDIDATES_PER_BUCKET, size=num_buckets, dtype=np.uint8
        ),
        indices=rng.integers(
            0, (1 << params.index_bits) - 1,
            size=(num_groups, params.value_bits), dtype=np.uint16,
        ),
        arrays=rng.integers(
            0, 1 << 32, size=(num_groups, params.value_bits), dtype=np.uint32
        ),
        failed_groups=np.zeros(num_groups, dtype=bool),
        fallback=FallbackTable(),
    )


def _pss_kb() -> int:
    """This process's proportional set size in KiB (0 if unreadable)."""
    try:
        with open("/proc/self/smaps_rollup", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _attach_child(name: str, fingerprint: int, probe_keys, conn) -> None:
    """Child body: attach the segment like a daemon would, report back."""
    before_kb = _pss_kb()
    started = time.perf_counter()
    attachment = shm.attach(name, expected_fingerprint=fingerprint)
    attach_ms = (time.perf_counter() - started) * 1e3
    values = attachment.separator.lookup_batch(probe_keys)
    conn.send({
        "attach_ms": attach_ms,
        "fingerprint": attachment.fingerprint,
        "checksum": int(values.sum()),
        "pss_delta_kb": _pss_kb() - before_kb,
    })
    conn.close()
    attachment.close()


def _time_best(fn, repeats: int = 3) -> float:
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _segment_sharing_drill(
    keys: int, attachers: int, seed: int, backend: Optional[str]
) -> Dict[str, object]:
    """Part A: publish one ~``keys``-key segment, attach it N ways."""
    separator = synthesize_separator(keys, backend=backend, seed=seed)
    payload = serialize.dumps(separator)
    expected = serialize.fingerprint_bytes(payload)
    # The wire path a rejoining daemon would otherwise pay: deserialise
    # (CRC pass + array copies) the same bytes.
    wire_load_s = _time_best(lambda: serialize.loads(payload))
    publisher = shm.SegmentPublisher(
        prefix=f"{shm.SEGMENT_PREFIX}smoke-{os.getpid():x}-"
    )
    probe = np.arange(1, 4097, dtype=np.uint64) * np.uint64(
        0x9E3779B97F4A7C15
    )
    try:
        segment = publisher.publish(payload)

        def _attach_once() -> None:
            shm.attach(segment.name, expected_fingerprint=expected).close()

        attach_s = _time_best(_attach_once)
        reference = int(separator.lookup_batch(probe).sum())
        reports: List[dict] = []
        for _ in range(attachers):
            parent, child = multiprocessing.Pipe(duplex=False)
            process = multiprocessing.Process(
                target=_attach_child,
                args=(segment.name, expected, probe, child),
                daemon=True,
            )
            process.start()
            child.close()
            if not parent.poll(60.0):
                process.kill()
                raise RuntimeError("attacher child did not report in time")
            reports.append(parent.recv())
            parent.close()
            process.join(timeout=10.0)
    finally:
        publisher.close()
    speedup = wire_load_s / max(attach_s, 1e-9)
    return {
        "keys": keys,
        "payload_bytes": len(payload),
        "fingerprint": expected,
        "wire_load_ms": round(wire_load_s * 1e3, 3),
        "attach_ms": round(attach_s * 1e3, 3),
        "cold_start_speedup": round(speedup, 2),
        "attachers": reports,
        "gates": {
            "fingerprints_identical": all(
                r["fingerprint"] == expected for r in reports
            ),
            "lookups_identical": all(
                r["checksum"] == reference for r in reports
            ),
            "cold_start": speedup >= COLD_START_GATE,
            "segments_unlinked": not shm.list_segments(publisher.prefix),
        },
    }


def _rejoin_drill(
    num_nodes: int, flows: int, updates: int, seed: int
) -> Dict[str, object]:
    """Part B: bootstrap over shm, kill/repair/storm, rejoin by delta log."""
    from repro.runtime.session import Session, differential_gates, run_drill

    victim = num_nodes - 1
    third = updates // 3
    session = Session(
        num_nodes, seed, miss_threshold=2, ping_timeout=0.5, use_shm=True
    )
    with session:
        # Rehome-only storms, one stream each; the post-rejoin traffic
        # enters at the rejoined node.
        results = run_drill(session, [
            ("bootstrap", {"flows": flows}),
            ("storm", {"stream": 1, "rehomes": third}),
            ("kill", {"node": victim}),
            ("await_dead", {"node": victim}),
            ("repair", {"node": victim}),
            ("storm", {"stream": 2, "rehomes": updates - third}),
            ("rejoin", {"node": victim}),
            ("audit", {}),
            ("traffic", {"packets": 200, "stream": 4, "ingress": victim}),
            ("storm", {"stream": 3, "rehomes": third}),
            ("audit", {}),
        ])
        counters = {
            name: session.controller.registry.counter(name).value
            for name in (
                "runtime.snapshot_bytes",
                "runtime.tx.snapshot",
                "runtime.tx.swap",
                "runtime.tx.state_ref",
                "runtime.stateref.fallbacks",
            )
        }
    bootstrap, = results["bootstrap"]
    rejoin, = results["rejoin"]
    after_rejoin, after_storm = results["audit"]
    core = differential_gates(
        results["traffic"], after_storm,
        session.leaks["leaked_processes"],
        session.leaks["leaked_shm_segments"],
    )
    return {
        "nodes": num_nodes,
        "flows": flows,
        "bootstrap": bootstrap,
        "stormed_while_down": results["storm"][1]["rehomes"],
        "deltalog_records_at_rejoin": rejoin["detail"]["catchup_records"],
        "rejoin": rejoin,
        "post_rejoin_divergences": results["traffic"][0]["divergences"],
        "counters": counters,
        "gates": {
            "bootstrap_by_reference": bootstrap["shm_attached"] == num_nodes,
            "rejoin_by_reference": rejoin["detail"]["transport"] == "shm",
            "replicas_identical_after_rejoin": (
                after_rejoin["gpt_replicas_identical"]
            ),
            "replicas_identical_after_storm": core["gpt_replicas_identical"],
            "no_divergence": core["no_divergence"],
            "zero_wire_snapshots": (
                counters["runtime.snapshot_bytes"] == 0
                and counters["runtime.tx.snapshot"] == 0
                and counters["runtime.tx.swap"] == 0
            ),
            "no_leaked_processes": core["no_leaked_processes"],
            "no_leaked_segments": core["no_leaked_segments"],
        },
    }


def run_scale_smoke(
    keys: int = 1_000_000,
    attachers: int = 2,
    nodes: int = 2,
    flows: int = 400,
    updates: int = 300,
    seed: int = 7,
    backend: Optional[str] = None,
) -> Dict[str, object]:
    """Run both drills; ``report["ok"]`` is the AND of every hard gate.

    On hosts without ``/dev/shm`` the report carries
    ``shm_available: false`` and only checks that the wire fallback still
    exists (nothing else is gateable there).
    """
    report: Dict[str, object] = {
        "shm_available": shm.available(),
        "seed": seed,
        "backend": separator_registry.resolve_backend(backend),
    }
    if not shm.available():
        report["ok"] = True
        report["skipped"] = "no /dev/shm on this host"
        return report
    sharing = _segment_sharing_drill(keys, attachers, seed, backend)
    rejoin = _rejoin_drill(nodes, flows, updates, seed)
    report["segment_sharing"] = sharing
    report["rejoin_drill"] = rejoin
    gates: Dict[str, bool] = {}
    for part, doc in (("sharing", sharing), ("rejoin", rejoin)):
        for name, passed in doc["gates"].items():
            gates[f"{part}.{name}"] = bool(passed)
    report["gates"] = gates
    report["ok"] = all(gates.values())
    return report
