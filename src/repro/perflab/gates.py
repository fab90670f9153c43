"""Hard gates on the exact counts in a benchmark artifact.

Timings are compared warn-only (``repro bench compare``): CI runners are
too noisy for more.  Counts the program keeps of its own work repeat
exactly and gate hard, as do same-run ratios with a wide margin.  A gate
takes the parsed ``BENCH_*.json`` and returns the line to log, or raises
:class:`GateFailure`; CI runs every member of :data:`GATES` with
``python -m repro.perflab.gates BENCH_<sha>.json``.
"""

from __future__ import annotations

import json
import sys
from typing import Any, List, Mapping, Optional, Sequence


class GateFailure(Exception):
    """An artifact broke a gate (or lacks the row the gate reads)."""


def _row(artifact: Mapping[str, Any], row: str) -> Mapping[str, Any]:
    """One result row, which must exist."""
    for result in artifact.get("results", ()):
        if result.get("name") == row:
            return result
    raise GateFailure(f"{row} missing from the artifact")


def _read(artifact: Mapping[str, Any], row: str, *metrics: str) -> List[float]:
    """The named derived metrics of one result row, which must exist."""
    derived = _row(artifact, row).get("derived", {})
    try:
        return [float(derived[name]) for name in metrics]
    except KeyError as exc:
        raise GateFailure(f"{row} does not report {exc}") from exc


def group_scan_gate(artifact: Mapping[str, Any]) -> str:
    """One update reads its group's records, not its block's (§4.5).

    ``update.single_owner_rate`` reports the records ``group_contents``
    read per update beside the mean group size; an owner that enumerates
    the 1,024-key block again reads ~60 times the group.
    """
    scanned, group = _read(
        artifact, "update.single_owner_rate",
        "keys_scanned_per_update", "mean_group_keys",
    )
    line = (
        f"group scan: {scanned:.1f} records/update, "
        f"mean group {group:.1f} records"
    )
    if not 0 < scanned <= 2 * group:
        raise GateFailure(f"{line}: outside (0, 2 x group]")
    return line


def othello_gate(artifact: Mapping[str, Any]) -> str:
    """Othello out-updates SetSep on the same storm and costs more bits.

    The separator-backend claim ``bench_othello.py`` exists to defend.
    Rates are same-run ratios, not absolute timings, so the order holds on
    noisy runners; a flip means the incremental update path has silently
    degraded.  Inverted bits per key mean the build is misconfigured.
    """
    _read(artifact, "othello.lookup")
    othello, setsep = _read(
        artifact, "othello.update_rate",
        "othello_updates_per_second", "setsep_updates_per_second",
    )
    othello_bits, setsep_bits = _read(
        artifact, "othello.build",
        "othello_bits_per_key", "setsep_bits_per_key",
    )
    line = f"update rate: othello={othello:.0f}/s setsep={setsep:.0f}/s"
    if othello <= setsep:
        raise GateFailure(f"{line}: Othello fell behind SetSep")
    if othello_bits <= setsep_bits:
        raise GateFailure(
            f"bits/key inverted: othello={othello_bits:.2f} "
            f"setsep={setsep_bits:.2f}"
        )
    return line


def fastpath_gate(artifact: Mapping[str, Any]) -> str:
    """The end-to-end forwarding row ran on the batch pipeline and won.

    Zero frames on the fast path, or every frame spilling to the scalar
    codec, means the batch pipeline has silently degraded; the component
    rows of its two stages must be in the artifact too.  ``speedup`` is
    batch 256 against a batch of one (what ``process_downstream`` is),
    both timed in steady state in the same run, so the ratio holds on
    noisy runners.
    """
    counters = _row(artifact, "fig8.forwarding.endtoend").get("counters", {})
    frames, batches, spilled = (
        counters.get(f"gateway.fastpath.{name}", 0)
        for name in ("frames", "batches", "spilled_frames")
    )
    (speedup,) = _read(artifact, "fig8.forwarding.endtoend", "speedup")
    for stage in ("fastpath.parse", "fastpath.encap"):
        _row(artifact, stage)
    line = (
        f"fastpath frames={frames} batches={batches} spilled={spilled} "
        f"speedup={speedup:.1f}x"
    )
    if frames == 0 or batches == 0:
        raise GateFailure(f"{line}: zero fast-path frames on the batch pipeline")
    if spilled >= frames:
        raise GateFailure(f"{line}: every frame spilled to the scalar codec")
    if speedup < 3:
        raise GateFailure(f"{line}: batch 256 under 3x a batch of one")
    return line


def fabric_gate(artifact: Mapping[str, Any]) -> str:
    """The fabric head-to-head keeps its seeded, deterministic shape.

    The crossbar stays at exactly one hop per transit and the fat tree
    inside its 1-3 hop envelope; queueing grows with oversubscription;
    utilization-aware ingress beats round-robin on the busiest link (the
    hot-spot claim ``bench_fabric.py`` exists to defend); and only a
    degraded fat tree reroutes.
    """
    crossbar, fattree = _read(
        artifact, "fabric.hops",
        "hops_per_transit_crossbar", "hops_per_transit_fattree",
    )
    queueing = _read(
        artifact, "fabric.skew_oversub",
        "capacity_exceeded_1to1", "capacity_exceeded_2to1",
        "capacity_exceeded_4to1",
    )
    roundrobin, utilization = _read(
        artifact, "fabric.ingress_policy",
        "busiest_link_roundrobin", "busiest_link_utilization",
    )
    healthy, degraded = _read(
        artifact, "fabric.link_failure",
        "reroutes_healthy", "reroutes_degraded",
    )
    line = (
        f"hops/transit: crossbar={crossbar} fattree={fattree:.2f}; "
        f"busiest link: roundrobin={roundrobin:.0f} "
        f"utilization={utilization:.0f}"
    )
    if crossbar != 1.0:
        raise GateFailure(f"{line}: crossbar lost its one-hop-per-transit shape")
    if not 1.0 <= fattree <= 3.0:
        raise GateFailure(f"{line}: fat-tree hops/transit outside 1-3")
    if queueing != sorted(queueing):
        raise GateFailure(
            f"queueing no longer grows with oversubscription: {queueing}"
        )
    if utilization >= roundrobin:
        raise GateFailure(f"{line}: utilization ingress fell behind round-robin")
    if healthy != 0:
        raise GateFailure("a healthy fat tree rerouted")
    if degraded == 0:
        raise GateFailure("spine failures produced no reroutes")
    return line


def batch_cost_gate(artifact: Mapping[str, Any]) -> str:
    """A pre-hashed batch is read by the tables, not hashed again.

    ``lookup.batch_cost.gpt`` / ``.fib`` time an 8-key lookup (the size a
    32-frame batch split four ways hands each table) on raw keys and on
    a pre-hashed batch in the same run.  The key-only hash pass is about
    a third of the raw GPT call and half of the raw FIB call (measured
    0.71 and 0.54), so a ratio near 1 means the columns stopped being
    carried or read and every table hashes for itself again.
    """
    (gpt,) = _read(artifact, "lookup.batch_cost.gpt", "prehashed_over_raw_at_8")
    (fib,) = _read(artifact, "lookup.batch_cost.fib", "prehashed_over_raw_at_8")
    line = f"pre-hashed/raw lookup at 8 keys: gpt={gpt:.2f}x fib={fib:.2f}x"
    if not (0 < min(gpt, fib) and max(gpt, fib) <= 0.85):
        raise GateFailure(f"{line}: a pre-hashed batch must cost <= 0.85x")
    return line


def codec_cost_gate(artifact: Mapping[str, Any]) -> str:
    """Egress copies payload by slice, not by index.

    ``codec.batch_cost.encap`` times one ``encapsulate_batch`` call of 256
    frames at 18- and at 1,400-byte payloads in the same run.  Headers are
    the whole cost of a packet whose payload is one ``bytes`` slice (the
    ratio measured 1.9-2.3); a codec that touches payload byte by byte
    again pays 11-18x.  ``codec.batch_cost.parse`` must be in the artifact
    beside it: it never reads payload.
    """
    (parse,) = _read(
        artifact, "codec.batch_cost.parse", "payload_1400_over_18_at_256")
    (encap,) = _read(
        artifact, "codec.batch_cost.encap", "payload_1400_over_18_at_256")
    line = (
        f"1,400- over 18-byte payloads at 256 frames: "
        f"parse={parse:.2f}x encap={encap:.2f}x"
    )
    if not (0 < parse and 0 < encap <= 4):
        raise GateFailure(f"{line}: encap must cost <= 4x")
    return line


def dpe_batch_gate(artifact: Mapping[str, Any]) -> str:
    """The DPE's batch call stays near its own scalar loop at 8 packets.

    ``dpe.batch_cost`` times one ``process_batch`` of 8 packets (what a
    handling node gets of a 32-frame gateway batch) against the same 8
    packets through ``process``, in the same sweeps.  Below
    ``dpe.LOOP_BELOW`` packets the batch runs ``process``'s own loop over
    memoryviews of the DPE's columns in one call, and measured 0.45-0.57x
    (each ``process`` call reads the TEID index on its own); the column
    operations at 8 packets measured 1.0-1.1x, and a batch that groups
    packets by bearer over per-bearer objects measured 4.5-5.3x.
    """
    (ratio,) = _read(artifact, "dpe.batch_cost", "batch_over_scalar_at_8")
    line = f"DPE batch over its scalar loop at 8 packets: {ratio:.2f}x"
    if not 0 < ratio <= 2.0:
        raise GateFailure(f"{line}: must cost <= 2x")
    return line


#: ``cluster.build_cost``'s counts: 20,000 seeded flows on 4 nodes, and
#: the same cluster resized to 5 (``membership.resize`` adds a node and
#: moves no flow onto it).
BUILD_COST_COUNTS = {
    **{
        f"cluster.build_cost.{stage}.{name}": count
        for stage in ("build", "resize")
        for name, count in (
            ("rib_entries", 20_000),
            ("fib_entries.node0", 5_050),
            ("fib_entries.node1", 5_031),
            ("fib_entries.node2", 4_971),
            ("fib_entries.node3", 4_948),
            ("relocations", 1),
            ("gpt_fallback_keys", 0),
        )
    },
    "cluster.build_cost.resize.fib_entries.node4": 0,
}


def build_cost_gate(artifact: Mapping[str, Any]) -> str:
    """A cluster build and a resize leave the tables they always have.

    ``cluster.build_cost`` counts what ``Cluster.build`` and
    ``membership.resize`` place: RIB records, each node's FIB entries,
    cuckoo relocations and GPT fallback keys.  A bulk insert that placed
    a key where a loop of single inserts would not, or lost or doubled
    one, moves a count; so does a change to a hash or to the group
    search, which is then a behaviour change to explain and re-pin.
    """
    counters = _row(artifact, "cluster.build_cost").get("counters", {})
    moved = {
        name: (counters.get(name), count)
        for name, count in BUILD_COST_COUNTS.items()
        if counters.get(name) != count
    }
    line = (
        f"cluster build: {len(BUILD_COST_COUNTS) - len(moved)}/"
        f"{len(BUILD_COST_COUNTS)} counts as pinned"
    )
    if moved:
        detail = ", ".join(
            f"{name}={got} (pinned {want})"
            for name, (got, want) in sorted(moved.items())
        )
        raise GateFailure(f"{line}: {detail}")
    return line


#: Traced heap per bearer that ``gateway.bearer_bytes`` may read: the
#: 416.2 B measured on CPython 3.11 plus 5% for another interpreter's
#: object layout.  By structure: controller 126.2 B (TEID columns,
#: key -> TEID dict, flow keys), DPE 106.7 B (a 40-byte row of counters
#: and ``opened_at``, grown by half, and the TEID index), FIB 85.9 B,
#: RIB 59.7 B (per-block columns: key, separator hashes, value, node,
#: bucket chains), TEID allocator 31.6 B, GPT 5.1 B; not run on CI's
#: 3.12.  A slotted ``RibEntry`` per key in a dict per bucket was
#: 169.7 B, a ``FlowRecord`` per bearer beside the controller's columns
#: +45.6 B, a set-based TEID index +105 B, a DPE row that also kept a
#: bearer state byte and a last-activity time +12.7 B.
BEARER_BYTES_BUDGET = 437.1


def bearer_bytes_gate(artifact: Mapping[str, Any]) -> str:
    """The gateway's set-up keeps no more heap per bearer than budgeted.

    ``gateway.bearer_bytes`` traces a 20,000-bearer, 4-node set-up and
    reports the bytes still held per bearer, split by structure.  Bytes
    are the program's own layout, not a timing, so they hold on noisy
    runners; a record that grows a ``__dict__`` again, or a second index
    beside one that already answers, pushes the total over the budget.
    """
    (total,) = _read(artifact, "gateway.bearer_bytes", "bytes_per_bearer")
    line = (
        f"heap per bearer: {total:.0f} B "
        f"(budget {BEARER_BYTES_BUDGET:.0f} B)"
    )
    if not 0 < total <= BEARER_BYTES_BUDGET:
        raise GateFailure(f"{line}: over budget")
    return line


#: Python calls per frame that ``gateway.batch_calls`` may count, by
#: batch size.  Measured only on CPython 3.11 with NumPy 2.4: 5.66 at 32
#: frames (181 calls) and 0.65 at 256 (166 calls); each budget is that
#: reading plus 30 calls per batch of headroom for another
#: interpreter's or NumPy's per-batch wrappers, unverified on CI's 3.12,
#: where the row has not been run.
BATCH_CALLS_BUDGET = {32: 6.6, 256: 0.77}

#: C-level calls per frame (``sys.setprofile`` ``c_call`` events:
#: builtins and C methods, NumPy's array methods among them) that
#: ``gateway.batch_calls`` may count, by batch size: 14.75 at 32 (472
#: calls) and 1.44 at 256 (369), measured as above, plus the same 30
#: calls per batch.  (Before a batch's ``RouteResult``s were made in one
#: ``map`` they read 604 and 1,137: three C-level calls per frame.)
C_CALLS_BUDGET = {32: 15.69, 256: 1.56}

#: Python calls each frame beyond the 32nd may add
#: (``python_calls_per_extra_frame``): -0.07 today (no Python call per
#: frame; from 40 packets a node the DPE and the ledger leave their
#: loops), about 0.9 with one Python call per frame or a controller
#: record looked up per flow.  The per-batch calls cancel in the
#: difference, so this bound holds whatever the interpreter and NumPy.
BATCH_CALLS_PER_EXTRA_FRAME = 0.5

#: C-level calls each frame beyond the 32nd may add
#: (``c_calls_per_extra_frame``): -0.46 today (no C-level call per frame
#: on the column path; below ``dpe.LOOP_BELOW`` the DPE's and the
#: ledger's loops read the TEID index one ``dict.get`` a packet), +0.54
#: with one C-level call per frame more, as the result loop's three
#: (``object.__new__``, ``dict.update``, ``list.append``) read before.
#: Per-batch calls cancel here too.
BATCH_C_CALLS_PER_EXTRA_FRAME = 0.5


def batch_calls_gate(artifact: Mapping[str, Any]) -> str:
    """One gateway batch makes no more Python and C-level calls per frame
    than budgeted.

    ``gateway.batch_calls`` counts the ``sys.setprofile`` ``call`` and
    ``c_call`` events of one ``process_downstream_batch`` at 32 and 256
    frames.  Counts are the program's own work, not a timing, so they
    hold on noisy runners.  A Python call per frame or per flow in the
    gateway's own code adds about one to ``python_calls_per_extra_frame``,
    a C-level one about one to ``c_calls_per_extra_frame``.
    """
    cases = [
        (kind, size, budget[size])
        for kind, budget in (("python", BATCH_CALLS_BUDGET),
                             ("c", C_CALLS_BUDGET))
        for size in sorted(budget)
    ]
    extra_cases = (("python", BATCH_CALLS_PER_EXTRA_FRAME),
                   ("c", BATCH_C_CALLS_PER_EXTRA_FRAME))
    counts = _read(
        artifact, "gateway.batch_calls",
        *(f"{kind}_calls_per_frame_at_{size}" for kind, size, _ in cases),
        *(f"{kind}_calls_per_extra_frame" for kind, _ in extra_cases),
    )
    counts, extras = counts[:len(cases)], counts[len(cases):]
    line = "calls per frame of a gateway batch: " + ", ".join(
        [f"{kind} {count:.2f} at {size} (budget {budget:.2f})"
         for (kind, size, budget), count in zip(cases, counts)]
        + [f"{kind} {count:.2f} per extra frame (budget {budget:.2f})"
           for (kind, budget), count in zip(extra_cases, extras)]
    )
    if not (
        all(0 < count <= budget
            for (_, _, budget), count in zip(cases, counts))
        and all(count <= budget
                for (_, budget), count in zip(extra_cases, extras))
    ):
        raise GateFailure(f"{line}: over budget")
    return line


#: Python and C-level calls that ``update.owner_calls`` may count for
#: one owner-side update, by case.  Measured only on CPython 3.11 with
#: NumPy 2.4: 39 Python and 81 C-level calls for an insert whose group
#: keeps every incumbent, 73 and 123 for one that searches (61/80 and
#: 93/120 before the record's fields were packed inline and the group's
#: properties became attributes); each Python budget is that reading
#: plus the 30 calls of headroom ``batch_calls_gate`` gives a batch, and
#: the C-level budgets stay those set on the first readings (110 and
#: 150); unverified on CI's 3.12.
OWNER_CALLS_BUDGET = {"kept": 69, "searched": 103}
OWNER_C_CALLS_BUDGET = {"kept": 110, "searched": 150}


def owner_calls_gate(artifact: Mapping[str, Any]) -> str:
    """One owner-side update makes no more Python and C-level calls than
    budgeted.

    ``update.owner_calls`` counts the ``sys.setprofile`` ``call`` and
    ``c_call`` events of one ``owner.owner_step`` on a young
    20,000-bearer table, for an insert that keeps its group's incumbent
    indices and for one that searches.  Counts are the program's own
    work, not a timing, so they hold on noisy runners.  A group holds
    about 17 keys, so one Python call per key in the group read or the
    rebuild fits the headroom and two do not.
    """
    cases = [
        (kind, case, budget[case])
        for kind, budget in (("python", OWNER_CALLS_BUDGET),
                             ("c", OWNER_C_CALLS_BUDGET))
        for case in ("kept", "searched")
    ]
    counts = _read(
        artifact, "update.owner_calls",
        *(f"{kind}_calls_{case}" for kind, case, _ in cases),
    )
    line = "calls of one owner update: " + ", ".join(
        f"{kind} {count:.0f} {case} (budget {budget})"
        for (kind, case, budget), count in zip(cases, counts)
    )
    if not all(
        0 < count <= budget for (_, _, budget), count in zip(cases, counts)
    ):
        raise GateFailure(f"{line}: over budget")
    return line


#: Python and C-level calls that ``update.gateway_calls`` may count for
#: one in-process update through ``EpcGateway``, by kind, each one whose
#: group keeps every incumbent.  Measured only on CPython 3.11 with
#: NumPy 2.4: 95 / 150 for a connect, 91 / 146 for a disconnect and
#: 98 / 151 for a rehome (the scalar-cuckoo, codec and fan-out cuts of
#: EXPERIMENTS.md "An update pays its fixed cost once"; 154 / 152,
#: 146 / 148 and 173 / 157 before them).  Each budget is that reading
#: plus 15 C-level calls, or plus 10 Python calls capped at two thirds of
#: the count before the cuts (the third fewer the gate holds: 7 and 6
#: calls of headroom for a connect and a disconnect); unverified on CI's
#: 3.12.
GATEWAY_CALLS_BUDGET = {"connect": 102, "disconnect": 97, "rehome": 108}
GATEWAY_C_CALLS_BUDGET = {"connect": 165, "disconnect": 161, "rehome": 166}


def gateway_calls_gate(artifact: Mapping[str, Any]) -> str:
    """One in-process connect, disconnect or rehome makes no more Python
    and C-level calls than budgeted.

    ``update.gateway_calls`` counts the ``sys.setprofile`` ``call`` and
    ``c_call`` events of one ``EpcGateway`` update on a started
    20,000-bearer gateway: the controller, the DPE, the owner step, the
    record's encode and parse, three peers' apply and the cuckoo FIB op.
    A helper call per hash round, per slot or per peer again shows as a
    few calls more per update, past the headroom.
    """
    cases = [
        (kind, case, budget[case])
        for kind, budget in (("python", GATEWAY_CALLS_BUDGET),
                             ("c", GATEWAY_C_CALLS_BUDGET))
        for case in ("connect", "disconnect", "rehome")
    ]
    counts = _read(
        artifact, "update.gateway_calls",
        *(f"{kind}_calls_{case}" for kind, case, _ in cases),
    )
    line = "calls of one gateway update: " + ", ".join(
        f"{kind} {count:.0f} {case} (budget {budget})"
        for (kind, case, budget), count in zip(cases, counts)
    )
    if not all(
        0 < count <= budget for (_, _, budget), count in zip(cases, counts)
    ):
        raise GateFailure(f"{line}: over budget")
    return line


#: Every gate CI runs on the smoke artifact.
GATES = (
    fastpath_gate, group_scan_gate, othello_gate, fabric_gate,
    batch_cost_gate, codec_cost_gate, dpe_batch_gate, build_cost_gate,
    bearer_bytes_gate, batch_calls_gate, owner_calls_gate,
    gateway_calls_gate,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run every gate on one artifact file; 1 if any failed."""
    (path,) = sys.argv[1:] if argv is None else argv
    with open(path, "r", encoding="utf-8") as handle:
        artifact = json.load(handle)
    failed = 0
    for gate in GATES:
        try:
            print(gate(artifact))
        except GateFailure as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main())
