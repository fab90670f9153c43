"""The runtime drivers' one shadow (:mod:`repro.runtime.shadow`).

The mirror verbs, the storm mix and the evacuation used to be written out
per driver; the references kept here are those inline versions, so the
module is pinned to what every report was built from.
"""

import numpy as np

from repro.core import serialize
from repro.epc.fastpath import OUTER_SIZE
from repro.ops.manager import ClusterOps
from repro.runtime.protocol import OP_INSERT, OP_REMOVE, UpdateOp
from repro.runtime.session import Session, _finish
from repro.runtime.shadow import Shadow, _pin

NODES = 4


def populated(seed=7, flows=300, nodes=NODES):
    shadow = Shadow(nodes, seed)
    shadow.populate(flows)
    return shadow


def inline_storm(shadow, rng, updates):
    """The 30/55/15 loop as ``run_workload`` and the replicated machine
    each spelled it out before there was a ``storm_op``."""
    gateway, generator = shadow.gateway, shadow.generator
    live_flows = shadow.live_flows
    ops = []
    connects = rehomes = disconnects = 0
    for _ in range(updates):
        action = int(rng.integers(100))
        if action < 30 or len(live_flows) <= 2:
            flow = generator.flows(1)[0]
            record = gateway.connect(
                flow,
                generator.base_station_for(flow),
                generator.region_for(flow),
            )
            ops.append(UpdateOp(
                OP_INSERT, record.key, record.handling_node,
                record.teid, record.base_station_ip,
            ))
            live_flows.append(flow)
            connects += 1
        elif action < 85:
            flow = live_flows[int(rng.integers(len(live_flows)))]
            target = int(rng.integers(NODES))
            record = gateway.controller.record_for_key(flow.key())
            if record.handling_node == target:
                continue
            moved = gateway.rehome_flow(flow, target)
            ops.append(UpdateOp(
                OP_INSERT, moved.key, target, moved.teid,
                moved.base_station_ip,
            ))
            rehomes += 1
        else:
            flow = live_flows.pop(int(rng.integers(len(live_flows))))
            assert gateway.disconnect(flow)
            ops.append(UpdateOp(OP_REMOVE, flow.key()))
            disconnects += 1
    return ops, {
        "connects": connects, "rehomes": rehomes, "disconnects": disconnects,
    }


def inline_churn(shadow, rng, live, connects, rehomes, disconnects):
    """``ClusterOps.churn``'s loop as it was: explicit verb counts, rehome
    targets drawn from the live nodes."""
    ops = [shadow.connect() for _ in range(connects)]
    for _ in range(rehomes):
        if not shadow.live_flows:
            break
        flow = shadow.live_flows[int(rng.integers(len(shadow.live_flows)))]
        op = shadow.rehome(flow, int(live[int(rng.integers(len(live)))]))
        if op is not None:
            ops.append(op)
    for _ in range(disconnects):
        if len(shadow.live_flows) <= 1:
            break
        ops.append(shadow.disconnect(
            int(rng.integers(len(shadow.live_flows)))
        ))
    return ops


def inline_repair(gateway, failed, survivors):
    """``RuntimeController._repair``'s shadow half as it was: contexts
    and controller records moved by hand, then the RIB entry by entry
    through the §4.5 update path."""
    victims = [
        e for e in list(gateway.cluster.rib.entries()) if e.node == failed
    ]
    ops = []
    for i, entry in enumerate(victims):
        record = gateway.controller.record_for_key(entry.key)
        target = survivors[i % len(survivors)]
        context = gateway.dpes[failed].export_context(record.teid)
        gateway.dpes[target].import_context(context)
        gateway.controller.rehome(record.flow, target)
        ops.append(UpdateOp(OP_INSERT, entry.key, target, record.teid,
                            record.base_station_ip))
    for entry, op in zip(victims, ops):
        gateway.updates.insert_flow(entry.key, op.node, entry.value)
    return ops


def observable(gateway):
    """Everything a repair may touch, in comparable form."""
    return {
        "fingerprints": [
            serialize.fingerprint(node.gpt.setsep)
            for node in gateway.cluster.nodes
        ],
        "records": dict(gateway.controller.flows),
        "contexts": [
            {
                record.teid: dpe.context(record.teid)
                for record in gateway.controller.flows.values()
                if dpe.context(record.teid) is not None
            }
            for dpe in gateway.dpes
        ],
        "rib": sorted(
            (e.key, e.node, e.value) for e in gateway.cluster.rib.entries()
        ),
    }


class TestMirrorVerbs:
    def test_storm_matches_the_inline_loop(self):
        mirrored, reference = populated(), populated()
        rng = np.random.default_rng(7 * 65537 + 13)
        draws = [mirrored.storm_op(rng) for _ in range(1000)]
        ops = [op for op in draws if op is not None]
        expected, counts = inline_storm(
            reference, np.random.default_rng(7 * 65537 + 13), 1000
        )
        assert ops == expected
        assert mirrored.counts == counts
        assert mirrored.live_flows == reference.live_flows
        assert mirrored.fingerprints() == reference.fingerprints()
        assert sum(counts.values()) == len(ops) > 800

    def test_session_storm_shapes_match_the_inline_loops(self):
        """The session's one derive half against what three drivers each
        wrote out: the mix (``run_workload``, the replicated machine, in
        steps), explicit counts over live targets (``ClusterOps.churn``)
        and rehomes over all nodes (the scale-smoke drill)."""
        session, reference = Session(NODES, 7), populated()
        steps = session.derive_bootstrap(300)
        assert sum(1 for _ in steps) == 0  # under one APPLY_STEP_FLOWS
        for shadow in (session.shadow, reference):
            shadow.gateway.down_nodes.add(2)

        def derived(**phase):
            return _finish(session.derive_storm(**phase))

        def rng(salt):
            return np.random.default_rng(7 * 65537 + salt)

        stream = rng(13)  # one stream, continued across rounds
        for count in (70, 60):
            assert derived(stream=13, count=count) == inline_storm(
                reference, stream, count
            )
        expected = inline_churn(reference, rng(2001), [0, 1, 3], 9, 40, 7)
        ops, counts = derived(
            stream=2001, connects=9, rehomes=40, disconnects=7,
            targets="live",
        )
        assert ops == expected and len(ops) > 40
        assert counts["connects"] == 9 and counts["disconnects"] == 7
        expected = inline_churn(reference, rng(2), range(NODES), 0, 50, 0)
        ops, counts = derived(stream=2, rehomes=50)
        assert ops == expected and counts["rehomes"] == len(ops) > 25
        assert any(op.node == 2 for op in ops)  # "all" includes the dead
        assert session.shadow.live_flows == reference.live_flows
        assert session.shadow.fingerprints() == reference.fingerprints()

    def test_rehome_onto_the_current_node_is_no_op(self):
        shadow = populated(flows=20)
        flow = shadow.live_flows[0]
        here = shadow.gateway.controller.record_for_key(
            flow.key()
        ).handling_node
        assert shadow.rehome(flow, here) is None
        assert shadow.counts["rehomes"] == 0
        op = shadow.rehome(flow, (here + 1) % NODES)
        assert (op.op, op.key, op.node) == (
            OP_INSERT, flow.key(), (here + 1) % NODES
        )
        assert shadow.counts["rehomes"] == 1

    def test_populate_steps_yield_without_changing_the_outcome(self):
        whole, stepped = populated(flows=120), Shadow(NODES, 7)
        assert sum(1 for _ in stepped.populate_steps(120, 50)) == 2
        assert stepped.live_flows == whole.live_flows
        assert stepped.fingerprints() == whole.fingerprints()
        assert stepped.counts == whole.counts == {
            "connects": 0, "rehomes": 0, "disconnects": 0,
        }

    def test_evacuate_matches_the_inline_repair(self):
        mirrored, reference = populated(seed=5), populated(seed=5)
        for shadow in (mirrored, reference):
            # Charged contexts, so a lost or duplicated one would show.
            frames = shadow.generator.packet_stream(shadow.live_flows, 400)
            shadow.route(frames, [i % NODES for i in range(len(frames))])
            shadow.gateway.down_nodes.add(2)
        ops = [_pin(record)
               for record in mirrored.gateway.evacuate(2, [0, 1, 3])]
        expected = inline_repair(reference.gateway, 2, [0, 1, 3])
        assert ops == expected and len(ops) > 50
        assert observable(mirrored.gateway) == observable(reference.gateway)
        assert not any(
            record.handling_node == 2
            for record in mirrored.gateway.controller.flows.values()
        )
        assert len(mirrored.gateway.dpes[2]) == 0


class TestLedgerAndAudit:
    def test_route_charges_the_handling_node_per_delivered_frame(self):
        shadow = populated(flows=60)
        frames = shadow.generator.packet_stream(shadow.live_flows, 200)
        frames += shadow.generator.packet_stream(
            shadow.generator.flows(4), 20
        )
        frames.append(b"\x00" * 9)
        outcomes = shadow.route(
            frames, [i % NODES for i in range(len(frames))]
        )
        expected = {}
        for result, out in outcomes:
            if out is not None:
                slice_ = expected.setdefault(result.handled_by, {})
                slice_[result.value] = (
                    slice_.get(result.value, 0) + len(out) - OUTER_SIZE
                )
        assert sum(out is None for _, out in outcomes) == 21
        assert shadow.charges_by_node == expected
        merged = {}
        for slice_ in shadow.charges_by_node.values():
            for teid, total in slice_.items():
                merged[teid] = merged.get(teid, 0) + total
        assert merged == shadow.gateway.stats.bytes_charged

    @staticmethod
    def _statuses(shadow):
        """What healthy daemons would report for this shadow."""
        crcs = shadow.fingerprints()
        return {
            node: {
                "gpt_crc": crcs[node],
                "charges": {
                    str(teid): total for teid, total in
                    shadow.charges_by_node.get(node, {}).items()
                },
            }
            for node in range(NODES)
        }

    def test_audit_reports_each_fault_on_its_own(self):
        shadow = populated(flows=60)
        frames = shadow.generator.packet_stream(shadow.live_flows, 300)
        shadow.route(frames, [i % NODES for i in range(len(frames))])
        clean = shadow.audit(self._statuses(shadow))
        assert clean == {
            "charging_identical": True,
            "charged_teids": len(shadow.gateway.stats.bytes_charged),
            "charge_mismatches": {"over": 0, "under": 0, "sample": []},
            "gpt_replicas_identical": True,
        }

        teid, total = next(iter(shadow.charges_by_node[1].items()))
        shadow_total = shadow.gateway.stats.bytes_charged[teid]

        over = self._statuses(shadow)
        over[1]["charges"][str(teid)] = total + 46
        report = shadow.audit(over)
        assert not report["charging_identical"]
        assert report["gpt_replicas_identical"]
        assert report["charge_mismatches"] == {
            "over": 1, "under": 0,
            "sample": [[teid, shadow_total + 46, shadow_total]],
        }

        under = self._statuses(shadow)
        del under[1]["charges"][str(teid)]
        report = shadow.audit(under)
        assert not report["charging_identical"]
        assert report["charge_mismatches"]["over"] == 0
        assert report["charge_mismatches"]["under"] == 1

        # Node 1 died with its counters: it reports no status, and its
        # slice of the ledger — no more — is what the audit forgives.
        survivors = self._statuses(shadow)
        del survivors[1]
        assert shadow.audit(survivors)["charging_identical"]
        survivors[0]["charges"].clear()
        assert shadow.audit(survivors)["charge_mismatches"]["under"] == len(
            shadow.charges_by_node[0]
        )

        # A slice the caller retired (a drained node whose id a later
        # join reuses) comes back as ``lost``.
        retired = shadow.charges_by_node.pop(3)
        rest = self._statuses(shadow)
        assert shadow.audit(rest)["charge_mismatches"]["under"] > 0
        assert shadow.audit(rest, retired)["charging_identical"]
        shadow.charges_by_node[3] = retired

        stale = self._statuses(shadow)
        stale[2]["gpt_crc"] ^= 1
        report = shadow.audit(stale)
        assert report["charging_identical"]
        assert not report["gpt_replicas_identical"]


class TestOpsLedgerAcrossMembership:
    def test_drain_then_join_reusing_the_id_audits_clean(self):
        """The drained daemon's counters are gone for good; the daemon
        that later joins under the same node id starts from zero, so the
        drained slice must be folded away at drain time, not by id."""
        with ClusterOps.launch(num_nodes=3, seed=19, flows=240) as ops:
            assert ops.traffic(packets=300)["divergences"] == 0
            assert ops.shadow.charges_by_node.get(2)
            ops.drain(2)
            assert 2 not in ops.shadow.charges_by_node
            assert ops.traffic(packets=200)["divergences"] == 0
            assert ops.join()["node"] == 2
            ops.churn(connects=60, rehomes=120)  # bearers for the newcomer
            assert ops.traffic(packets=400)["divergences"] == 0
            assert ops.shadow.charges_by_node.get(2)
            audit = ops.audit()
            assert audit["live_nodes"] == [0, 1, 2]
            assert audit["charging_identical"]
            assert audit["gpt_replicas_identical"]
            assert audit["charge_mismatches"]["over"] == 0
        assert ops.runtime.leaked() == []
