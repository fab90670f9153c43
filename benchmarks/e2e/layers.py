"""Per-layer metrics: the span table and the program's counters, by name.

Layers are this repository's modules.  A time is the layer's total (or
self) time inside the traced windows divided by the frames or updates those
windows carried; a share or a count per operation comes from counters the
program keeps anyway and repeats exactly for a given seed and window count.
A layer one of the two systems does not have is named by
:func:`not_applicable`; the harness reports 0 for those and refuses to
report a run in which any other metric is missing.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from .trace import SpanStats

_ZERO = SpanStats(0, 0, 0, 0)

#: Root spans (the calls the harness times) of each system.
_ROOTS = {
    False: ("gateway.forward", "gateway.update"),
    True: ("runtime.route", "runtime.update"),
}

#: (root span, span under it, metric, "total" | "self" time of the span).
_FRAME_TIMES: Sequence[Tuple[str, str, str, str]] = (
    ("gateway.forward", "gateway.forward", "gateway.total_ns_per_frame",
     "total"),
    ("gateway.forward", "gateway.forward", "gateway.self_ns_per_frame",
     "self"),
    ("gateway.forward", "fastpath.parse", "fastpath.parse_ns_per_frame",
     "total"),
    ("gateway.forward", "fastpath.encap", "fastpath.encap_ns_per_frame",
     "total"),
    ("gateway.forward", "cluster.pick_ingress",
     "cluster.pick_ingress_ns_per_frame", "total"),
    ("gateway.forward", "cluster.route", "cluster.route_total_ns_per_frame",
     "total"),
    ("gateway.forward", "cluster.route", "cluster.route_self_ns_per_frame",
     "self"),
    ("gateway.forward", "fabric.deliver", "fabric.deliver_ns_per_frame",
     "total"),
    ("gateway.forward", "controller.record",
     "controller.record_lookup_ns_per_frame", "total"),
    ("gateway.forward", "dpe.process", "dpe.process_ns_per_frame", "total"),
    ("gateway.forward", "ledger.charge", "ledger.charge_ns_per_frame",
     "total"),
    ("runtime.route", "framing.pack", "runtime.route_encode_ns_per_frame",
     "total"),
    ("runtime.route", "socket.request", "runtime.route_wait_ns_per_frame",
     "total"),
    ("runtime.route", "protocol.decode_outcomes",
     "runtime.route_decode_ns_per_frame", "total"),
    ("runtime.route", "runtime.route", "runtime.route_self_ns_per_frame",
     "self"),
)

_UPDATE_TIMES: Sequence[Tuple[str, str, str, str]] = (
    ("gateway.update", "gateway.update", "gateway.update_self_us_per_update",
     "self"),
    ("gateway.update", "update.engine", "update.total_us_per_update",
     "total"),
    ("gateway.update", "update.engine", "update.self_us_per_update", "self"),
    ("gateway.update", "rib.group_contents",
     "rib.group_contents_us_per_update", "total"),
    ("gateway.update", "gpt.rebuild", "gpt.rebuild_group_us_per_update",
     "total"),
    ("gateway.update", "delta.codec", "delta.codec_us_per_update", "total"),
    ("gateway.update", "gpt.apply_delta", "gpt.apply_delta_us_per_update",
     "total"),
    ("gateway.update", "fib.install", "fib.install_us_per_update", "total"),
    ("gateway.update", "controller.bearer",
     "controller.bearer_us_per_update", "total"),
    ("gateway.update", "dpe.bearer", "dpe.bearer_us_per_update", "total"),
    ("runtime.update", "protocol.encode_updates",
     "runtime.update_encode_us_per_update", "total"),
    ("runtime.update", "socket.request",
     "runtime.update_wait_us_per_update", "total"),
    ("runtime.update", "runtime.update",
     "runtime.update_self_us_per_update", "self"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def from_counters(
    runtime: bool, counters: Dict[str, int], frames: int,
    delivered: int, remote: int,
) -> Dict[str, float]:
    """Exact counts over every measured window (traced or not)."""
    updates = counters["updates"]
    prefix = "runtime" if runtime else "update"
    out = {
        f"{prefix}.fib_messages_per_update": _ratio(
            counters["fib_messages"], updates),
        f"{prefix}.delta_broadcasts_per_update": _ratio(
            counters["delta_broadcasts"], updates),
        f"{prefix}.delta_bits_mean": _ratio(
            counters["delta_bits"], counters["delta_broadcasts"]),
    }
    if runtime:
        out["runtime.forwards_per_frame"] = _ratio(
            counters["forwarded"], frames)
        return out
    out["update.groups_rebuilt_per_update"] = _ratio(
        counters["groups_rebuilt"], updates)
    frames_in = counters["frames_in"]
    out["fastpath.spill_share"] = _ratio(counters["spilled"], frames_in)
    out["gateway.drop_share_unknown"] = _ratio(
        counters["drop_unknown"], frames_in)
    out["gateway.drop_share_acl"] = _ratio(counters["drop_acl"], frames_in)
    out["gateway.drop_share_malformed"] = _ratio(
        counters["drop_malformed"], frames_in)
    # The oracle's tallies also cover the warm window; as ratios that
    # changes nothing it matters to: every delivered frame made 0 or 1 hop.
    out["cluster.hops_per_frame"] = _ratio(remote, delivered)
    out["cluster.remote_share"] = _ratio(remote, delivered)
    return out


def from_spans(
    runtime: bool,
    names: List[str],
    cols: Dict[str, np.ndarray],
    spans: Dict[Tuple[str, str], SpanStats],
    traced: Sequence,
    untraced: Sequence,
) -> Dict[str, float]:
    """Times per operation from the traced windows, the tracing overhead
    against the untraced windows they alternate with, and the runtime's
    CPU split."""
    frames = sum(w.frames for w in traced)
    updates = sum(w.updates for w in traced)
    roots = _ROOTS[runtime]
    for root in roots:
        if (root, root) not in spans:
            raise RuntimeError(f"the traced windows recorded no {root} span")
    out: Dict[str, float] = {}

    def stat(root: str, name: str) -> SpanStats:
        return spans.get((root, name), _ZERO)

    # ns per frame; us per update.
    for table, ops, per_unit in ((_FRAME_TIMES, frames, 1.0),
                                 (_UPDATE_TIMES, updates, 1e3)):
        for root, name, metric, which in table:
            if root in roots:
                s = stat(root, name)
                ns = s.total_ns if which == "total" else s.self_ns
                out[metric] = _ratio(ns, ops) / per_unit

    if runtime:
        out["runtime.wire_bytes_per_frame"] = _ratio(
            stat("runtime.route", "socket.request").count, frames)
        out["runtime.wire_bytes_per_update"] = _ratio(
            stat("runtime.update", "socket.request").count, updates)
        every = list(traced) + list(untraced)
        all_frames = sum(w.frames for w in every)
        out["runtime.daemon_cpu_us_per_frame"] = _ratio(
            sum(w.daemon_cpu_ns[0] for w in every), all_frames) / 1e3
        out["runtime.controller_cpu_us_per_frame"] = _ratio(
            sum(w.cpu_ns[0] for w in every), all_frames) / 1e3
        out["runtime.daemon_cpu_us_per_update"] = _ratio(
            sum(w.daemon_cpu_ns[1] for w in every),
            sum(w.updates for w in every)) / 1e3
    else:
        for name, metric in (("gpt.lookup", "gpt.lookup_ns_per_key"),
                             ("fib.lookup", "fib.lookup_ns_per_key")):
            s = stat("gateway.forward", name)
            out[metric] = _ratio(s.total_ns, s.count)
        out["controller.record_lookups_per_frame"] = _ratio(
            stat("gateway.forward", "controller.record").calls, frames)
        rebuilds = cols["name_id"] == names.index("gpt.rebuild")
        spent = np.sort(cols["end"][rebuilds] - cols["start"][rebuilds])
        tail = max(1, len(spent) // 100)
        out["gpt.rebuild_tail_share"] = _ratio(
            float(spent[-tail:].sum()), float(spent.sum()))

    # Windows alternate untraced, traced and carry equal work: the ratio
    # of each pair's timed time is the overhead the wrappers add.
    pairs = [
        (t.timed_ns / t.slowdown) / (u.timed_ns / u.slowdown)
        for t, u in zip(traced, untraced)
    ]
    out["trace.overhead_share"] = float(np.median(pairs)) - 1.0
    # Self times of a call tree add up to its root span; what the harness
    # timed beyond that is the root wrapper itself.
    root_ns = sum(
        s.self_ns for (root, _name), s in spans.items() if root in roots
    )
    out["trace.selfsum_share"] = _ratio(
        root_ns, sum(w.timed_ns for w in traced))
    return out


#: Per-layer metrics only the in-process gateway has / only the runtime has
#: (besides the span times, which the tables above file under a root).
_GATEWAY_ONLY = (
    "gpt.lookup_ns_per_key", "fib.lookup_ns_per_key",
    "controller.record_lookups_per_frame", "gpt.rebuild_tail_share",
    "update.fib_messages_per_update", "update.delta_broadcasts_per_update",
    "update.delta_bits_mean", "update.groups_rebuilt_per_update",
    "fastpath.spill_share", "gateway.drop_share_unknown",
    "gateway.drop_share_acl", "gateway.drop_share_malformed",
    "cluster.hops_per_frame", "cluster.remote_share",
)
_RUNTIME_ONLY = (
    "runtime.wire_bytes_per_frame", "runtime.wire_bytes_per_update",
    "runtime.daemon_cpu_us_per_frame", "runtime.controller_cpu_us_per_frame",
    "runtime.daemon_cpu_us_per_update", "runtime.forwards_per_frame",
    "runtime.fib_messages_per_update", "runtime.delta_broadcasts_per_update",
    "runtime.delta_bits_mean",
    "setup.runtime_spawn_s", "setup.runtime_bootstrap_s",
)


def not_applicable(runtime: bool) -> List[str]:
    """Per-layer metrics of layers the system of this kind does not have:
    the only ones a run may report without having measured them."""
    other = _ROOTS[not runtime]
    return [
        metric for root, _name, metric, _which in (
            *_FRAME_TIMES, *_UPDATE_TIMES)
        if root in other
    ] + list(_GATEWAY_ONLY if runtime else _RUNTIME_ONLY)
