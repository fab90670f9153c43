"""The shadow: the one in-process gateway every runtime driver mirrors into.

The socket runtime is checked differentially: a driver plays each verb
into an in-process :class:`~repro.epc.gateway.EpcGateway`, ships the
matching :class:`~repro.runtime.protocol.UpdateOp` to the daemons, routes
the same frames through both worlds and audits charging and GPT replicas.
:class:`Shadow` is that gateway with its seeded flow source, live-flow
list and ledgers: mirror verbs that return the wire op, one draw of the
churn mix, pinned-ingress routing, the global audit.  :func:`_pin` is
the wire op that makes the daemons follow a re-homed record, one per
flow :meth:`EpcGateway.evacuate` moves (§7 repair, graceful drain);
:func:`compare_frames` is the per-frame verdict.

What a verb does to the shadow and which op it ships is the same
everywhere, so it lives here; which verb comes next, which seeded RNG
stream feeds it and where a long replay yields is a drill's phase list
over :class:`~repro.runtime.session.Session`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.architectures import Architecture
from repro.cluster.cluster import RouteResult
from repro.core import serialize
from repro.epc.controller import FlowRecord
from repro.epc.fastpath import OUTER_SIZE
from repro.epc.gateway import EpcGateway
from repro.epc.packets import FlowTuple, parse_ip
from repro.epc.traffic import FlowGenerator
from repro.obs.metrics import MetricsRegistry
from repro.runtime.protocol import (
    OP_INSERT,
    OP_REMOVE,
    REASON_TO_STATUS,
    RouteOutcome,
    STATUS_DELIVERED,
    UpdateOp,
)

#: The demo gateway's tunnel endpoint (TEST-NET-1, never routable).
DEMO_GATEWAY_IP = "192.0.2.1"

#: What the shadow gateway returns per frame: verdict + GTP-U bytes.
ShadowOutcome = Tuple[RouteResult, Optional[bytes]]


def _pin(record: FlowRecord) -> UpdateOp:
    """The wire insert that pins ``record``'s flow where the shadow has it."""
    return UpdateOp(
        OP_INSERT, record.key, record.handling_node, record.teid,
        record.base_station_ip,
    )


def compare_frames(
    shadow: Sequence[ShadowOutcome], wire: Sequence[RouteOutcome]
) -> Dict[str, int]:
    """Frame-by-frame shadow-vs-wire comparison (the §3 differential)."""
    assert len(shadow) == len(wire)
    divergences = 0
    delivered = 0
    dropped = 0
    byte_identical = True
    for (result, out), outcome in zip(shadow, wire):
        if out is not None:
            delivered += 1
            if (
                outcome.status != STATUS_DELIVERED
                or outcome.out != out
                or outcome.handler != result.handled_by
            ):
                divergences += 1
                if outcome.out != out:
                    byte_identical = False
        else:
            dropped += 1
            expected = REASON_TO_STATUS.get(result.reason, -1)
            if outcome.status != expected:
                divergences += 1
    return {
        "frames": len(wire),
        "delivered": delivered,
        "dropped": dropped,
        "divergences": divergences,
        "byte_identical": bool(byte_identical and divergences == 0),
    }


def merge_comparisons(summaries: Sequence[Dict[str, int]]) -> Dict[str, int]:
    """Add up :func:`compare_frames` summaries (phases, log entries)."""
    merged = {
        name: sum(summary[name] for summary in summaries)
        for name in ("frames", "delivered", "dropped", "divergences")
    }
    merged["byte_identical"] = all(s["byte_identical"] for s in summaries)
    return merged


class Shadow:
    """A seeded shadow gateway, its flow population and its ledgers.

    Attributes:
        gateway: the in-process gateway, with its own metrics registry.
        generator: the seeded flow/packet source both worlds draw from.
        live_flows: bearers currently connected, in admission order (the
            drivers' RNG streams index into it).
        counts: verbs mirrored so far (``connects`` excludes the initial
            population; a rehome onto the current node is not a rehome).
        charges_by_node: ``node -> teid -> bytes`` charged by that node's
            data plane.  A daemon's counters die with its process (fate
            sharing, §7) while the shadow's global ledger keeps them, so
            :meth:`audit` subtracts a dead node's slice.
    """

    def __init__(self, num_nodes: int, seed: int) -> None:
        self.seed = seed
        self.gateway = EpcGateway(
            Architecture.SCALEBRICKS,
            num_nodes,
            parse_ip(DEMO_GATEWAY_IP),
            registry=MetricsRegistry(),
        )
        self.generator = FlowGenerator(seed)
        self.live_flows: List[FlowTuple] = []
        self.counts = {"connects": 0, "rehomes": 0, "disconnects": 0}
        self.charges_by_node: Dict[int, Dict[int, int]] = {}

    # -- population ----------------------------------------------------

    def _admit(self, flow: FlowTuple) -> FlowRecord:
        record = self.gateway.connect(
            flow,
            self.generator.base_station_for(flow),
            self.generator.region_for(flow),
        )
        self.live_flows.append(flow)
        return record

    def populate_steps(self, flows: int, every: int) -> Iterator[None]:
        """:meth:`populate`, yielding after every ``every`` bearers (the
        forwarding-plane build at the end stays one step)."""
        for i, flow in enumerate(self.generator.flows(flows)):
            if i and i % every == 0:
                yield
            self._admit(flow)
        self.gateway.start()

    def populate(self, flows: int) -> None:
        """Admit the initial ``flows`` bearers and build the data plane."""
        for _ in self.populate_steps(flows, max(1, flows)):
            pass

    # -- mirror verbs: mutate the shadow, return the wire op ------------

    def connect(self) -> UpdateOp:
        """Admit one fresh bearer."""
        record = self._admit(self.generator.flows(1)[0])
        self.counts["connects"] += 1
        return _pin(record)

    def rehome(self, flow: FlowTuple, target: int) -> Optional[UpdateOp]:
        """Move a live bearer to ``target``; ``None`` when already there."""
        record = self.gateway.controller.record_for_key(flow.key())
        assert record is not None, "rehome of a flow that is not live"
        if record.handling_node == target:
            return None
        self.counts["rehomes"] += 1
        return _pin(self.gateway.rehome_flow(flow, target))

    def disconnect(self, position: int) -> UpdateOp:
        """Tear down the bearer at ``position`` of :attr:`live_flows`."""
        flow = self.live_flows.pop(position)
        torn_down = self.gateway.disconnect(flow)
        assert torn_down, "live flow without a bearer"
        self.counts["disconnects"] += 1
        return UpdateOp(OP_REMOVE, flow.key())

    def storm_op(self, rng: np.random.Generator) -> Optional[UpdateOp]:
        """One draw of the §4.5 churn mix: 30% connect, 55% rehome, 15%
        disconnect (connect while two or fewer bearers are left).

        Draw order is fixed — action, then flow, then target — because
        the reports are functions of the stream; ``None`` is a rehome
        that drew the flow's current node.
        """
        action = int(rng.integers(100))
        if action < 30 or len(self.live_flows) <= 2:
            return self.connect()
        if action < 85:
            flow = self.live_flows[int(rng.integers(len(self.live_flows)))]
            return self.rehome(
                flow, int(rng.integers(self.gateway.num_nodes))
            )
        return self.disconnect(int(rng.integers(len(self.live_flows))))

    # -- data path -----------------------------------------------------

    def route(
        self, frames: Sequence[bytes], ingress: Sequence[int]
    ) -> List[ShadowOutcome]:
        """Run frames through the shadow, per-frame ingress pinned; each
        delivered frame's inner bytes land on the handling node's slice
        of :attr:`charges_by_node`."""
        outcomes = self.gateway.process_downstream_batch(
            list(frames), [int(n) for n in ingress]
        )
        for result, out in outcomes:
            if out is not None:
                ledger = self.charges_by_node.setdefault(
                    result.handled_by, {}
                )
                teid = int(result.value)
                ledger[teid] = ledger.get(teid, 0) + len(out) - OUTER_SIZE
        return outcomes

    # -- global state --------------------------------------------------

    def fingerprints(self) -> List[int]:
        """Per-node GPT replica CRCs ([] before :meth:`populate`)."""
        cluster = self.gateway.cluster
        if cluster is None:
            return []
        return [
            serialize.fingerprint(node.gpt.setsep) for node in cluster.nodes
        ]

    def audit(
        self,
        statuses: Dict[int, dict],
        lost: Optional[Dict[int, int]] = None,
    ) -> Dict[str, object]:
        """Global differential: charging dicts and GPT replica CRCs.

        ``statuses`` are the live daemons' STATUS documents by node id.
        A node without one took its counters with it, so its slice of
        :attr:`charges_by_node` is subtracted from the shadow's global
        ledger before the comparison, as are the per-TEID bytes in
        ``lost`` (slices the caller retired, e.g. at drain time).
        """
        wire: Dict[int, int] = {}
        for status in statuses.values():
            for teid, total in status["charges"].items():
                wire[int(teid)] = wire.get(int(teid), 0) + int(total)
        wire = {teid: total for teid, total in wire.items() if total}
        shadow = {
            int(teid): int(total)
            for teid, total in self.gateway.stats.bytes_charged.items()
        }
        gone = [lost or {}] + [
            ledger for node, ledger in self.charges_by_node.items()
            if node not in statuses
        ]
        for ledger in gone:
            for teid, total in ledger.items():
                shadow[teid] = shadow.get(teid, 0) - total
        shadow = {teid: total for teid, total in shadow.items() if total}
        crcs = self.fingerprints()
        # Bounded mismatch breakdown: zeros on a clean run, and enough to
        # localise a divergence (over = wire charged more than the shadow,
        # e.g. a frame routed twice; under = wire missed a charge).
        over = sorted(t for t in wire if wire[t] > shadow.get(t, 0))
        under = sorted(t for t in shadow if shadow[t] > wire.get(t, 0))
        return {
            "charging_identical": wire == shadow,
            "charged_teids": len(wire),
            "charge_mismatches": {
                "over": len(over),
                "under": len(under),
                "sample": [
                    [t, wire.get(t, 0), shadow.get(t, 0)]
                    for t in (over + under)[:5]
                ],
            },
            "gpt_replicas_identical": all(
                int(status["gpt_crc"]) == crcs[node_id]
                for node_id, status in statuses.items()
            ),
        }
