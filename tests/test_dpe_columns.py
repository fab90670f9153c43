"""The column DPE, the column ledger and their TEID index, each against a
plain-dict reference.

``DataPlaneEngine`` keeps bearer state in row columns behind a
``TeidIndex``, and ``ChargingLedger`` keeps bytes per TEID the same way.
The references here are the per-packet dict code those replaced: one
``FlowContext`` per bearer in a dict, one int per TEID in another.
"""

from __future__ import annotations

import random
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.epc.dpe import (
    LOOP_BELOW,
    ChargingRecord,
    DataPlaneEngine,
    FlowContext,
)
from repro.epc.gateway import ChargingLedger
from repro.epc.teid_index import MAX_TEID, TeidIndex, is_teid


class TestTeidIndex:
    """Adds, removals, scalar and batch reads against a dict."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_a_dict(self, seed):
        rnd = random.Random(seed)
        index, model, row = TeidIndex(), {}, 0
        span = rnd.choice([30, 3_000, MAX_TEID])
        for _ in range(rnd.randint(50, 300)):
            teid = rnd.randint(0, span)
            roll = rnd.random()
            if roll < 0.45:
                if teid not in model:
                    index.add(teid, row)
                    model[teid] = row
                    row += 1
            elif roll < 0.7:
                assert index.pop(teid) == model.pop(teid, None)
            elif roll < 0.85:
                probe = [
                    rnd.choice(list(model))
                    if model and rnd.random() < 0.7
                    else rnd.randint(-5, span + 5)
                    for _ in range(rnd.randint(0, 70))
                ]
                got = index.rows(np.array(probe, dtype=np.int64))
                assert got.tolist() == [model.get(t, -1) for t in probe]
            else:
                assert index.get(teid) == model.get(teid)
            assert len(index) == len(model)
        assert sorted(index.items()) == sorted(model.items())

    def test_keys_that_share_a_slot(self):
        index = TeidIndex()
        base = list(range(1, 301))
        index.add_many(np.array(base), np.arange(300))
        index.rows(np.array([1]))  # moves them into their slots
        size = index._keys.size
        # Every one of these wants slot 5 of the same columns.
        crowd = [k * size + 5 for k in range(1, 20)]
        index.add_many(np.array(crowd), np.arange(1_000, 1_019))
        model = dict(zip(base, range(300)))
        model.update(zip(crowd, range(1_000, 1_019)))
        probe = np.array(list(model) + [77 * size + 5, -1, -9], dtype=np.int64)
        assert index.rows(probe).tolist() == [
            model.get(t, -1) for t in probe.tolist()
        ]
        assert index._keys.size == size  # read through the overflow
        for teid in crowd[::3] + base[4::7]:
            assert index.pop(teid) == model.pop(teid)
            assert index.get(teid) is None
        probe = np.array(list(model) + crowd, dtype=np.int64)
        assert index.rows(probe).tolist() == [
            model.get(t, -1) for t in probe.tolist()
        ]

    def test_not_a_teid_is_never_found(self):
        index = TeidIndex()
        index.add(1, 0)
        index.add(0, 1)
        index.rows(np.array([1]))
        for other in (True, False, 1.0, 0.0, -1, MAX_TEID + 1, "1", None):
            assert index.get(other) is None
            assert index.pop(other) is None
        assert index.rows(np.array([-1, -2, 1 << 40])).tolist() == [-1] * 3
        assert sorted(index.items()) == [(0, 1), (1, 0)]

    def test_is_teid(self):
        for good in (0, 1, MAX_TEID, np.int64(7), np.uint32(7)):
            assert is_teid(good)
        for bad in (-1, MAX_TEID + 1, True, np.bool_(True), 1.0, "1", None):
            assert not is_teid(bad)


NOT_TEIDS = [-1, MAX_TEID + 1, 1.0, 2.5, True, False, np.bool_(True), "7"]


class TestLedgerTeidRule:
    """The ledger takes only TEIDs, and refuses before anything moves."""

    def charged_ledger(self):
        ledger = ChargingLedger()
        ledger.charge_many(np.array([1, 2]), np.array([100, 200]))
        return ledger

    @pytest.mark.parametrize("teid", NOT_TEIDS)
    def test_charge_refuses_what_is_not_a_teid(self, teid):
        ledger = self.charged_ledger()
        with pytest.raises(ValueError, match="TEID"):
            ledger.charge(teid, 5)
        assert ledger.bytes_charged == {1: 100, 2: 200}
        assert ledger._c_bytes.value == 300

    @pytest.mark.parametrize("teid", NOT_TEIDS)
    def test_charge_many_names_the_row(self, teid):
        ledger = self.charged_ledger()
        with pytest.raises(ValueError, match=r"^row 2: TEID"):
            ledger.charge_many([3, 1, teid, 4], [10, 10, 10, 10])
        assert ledger.bytes_charged == {1: 100, 2: 200}
        assert ledger._c_bytes.value == 300

    @pytest.mark.parametrize("column", [
        np.array([3, 1, -1]), np.array([3, 1, MAX_TEID + 1]),
        np.array([3, 1, 1 << 40], dtype=np.uint64),
    ])
    def test_charge_many_names_the_row_of_an_array(self, column):
        ledger = self.charged_ledger()
        with pytest.raises(ValueError, match=r"^row 2: TEID"):
            ledger.charge_many(column, np.full(3, 10))
        assert ledger.bytes_charged == {1: 100, 2: 200}

    @pytest.mark.parametrize("column", [
        np.array([1.0, 2.0]), np.array([True, False]),
    ])
    def test_charge_many_refuses_a_column_of_another_kind(self, column):
        ledger = self.charged_ledger()
        with pytest.raises(ValueError, match=r"^row 0: TEID"):
            ledger.charge_many(column, np.full(2, 10))
        assert ledger._c_bytes.value == 300

    def test_zero_bytes_lists_the_teid_and_the_view_is_read_only(self):
        ledger = ChargingLedger()
        ledger.charge(7, 0)
        ledger.charge_many(np.array([9, 8, 9]), np.array([0, 5, 0]))
        ledger.charge(MAX_TEID, 1)
        ledger.charge(np.int64(8), 2)
        assert list(ledger.bytes_charged.items()) == [
            (7, 0), (9, 0), (8, 7), (MAX_TEID, 1)
        ]
        assert ledger.bytes_of(8) == 7 and ledger.bytes_of(6) == 0
        with pytest.raises(TypeError):
            ledger.bytes_charged[7] = 1  # type: ignore[index]


class TestEngineRefusals:
    """Bearer events that cannot be taken change nothing."""

    def test_import_of_a_bad_context_changes_nothing(self):
        engine = DataPlaneEngine()
        engine.open_bearer(1, now=0.5)
        before = engine.contexts()
        for bad in (FlowContext(2, uplink_bytes=1.5),
                    FlowContext(2, opened_at="early"),
                    FlowContext(1), FlowContext(True), FlowContext(-3)):
            with pytest.raises((TypeError, ValueError)):
                engine.import_context(bad)
            assert engine.contexts() == before and len(engine) == 1
        engine.import_context(FlowContext(2, downlink_bytes=7))
        assert engine.context(2).downlink_bytes == 7

    def test_open_refuses_what_is_not_a_teid(self):
        engine = DataPlaneEngine()
        for bad in (-1, MAX_TEID + 1, True, 1.0, "1"):
            with pytest.raises(ValueError):
                engine.open_bearer(bad)
        assert len(engine) == 0
        assert engine.open_bearer(np.int64(MAX_TEID)).teid == MAX_TEID
        assert engine.context(MAX_TEID) is not None


# ----------------------------------------------------------------------
# Model: two engines and a ledger against the per-packet dict code
# ----------------------------------------------------------------------


class ReferenceEngine:
    """The DPE as one ``FlowContext`` per bearer in a dict."""

    def __init__(self) -> None:
        self.flows = {}

    def open(self, teid, now):
        if teid in self.flows:
            raise ValueError(teid)
        self.flows[teid] = FlowContext(teid=teid, opened_at=now)

    def close(self, teid, now):
        context = self.flows.pop(teid)
        return ChargingRecord(
            teid, context.uplink_bytes, context.downlink_bytes,
            context.uplink_packets, context.downlink_packets,
            context.opened_at, now,
        )

    def process(self, teid, size, downlink):
        context = self.flows.get(teid)
        if context is None:
            return False
        if downlink:
            context.downlink_bytes += size
            context.downlink_packets += 1
        else:
            context.uplink_bytes += size
            context.uplink_packets += 1
        return True


#: TEIDs that share slots of small columns (multiples of 13 and of 7),
#: and both ends of the TEID range.
TEID_POOL = [0, 1, 2, 7, 13, 14, 26, 39, 91, 2**31 + 1, MAX_TEID]
teids = st.sampled_from(TEID_POOL + [5, 6])  # 5 and 6 are never opened
nows = st.floats(0, 200, allow_nan=False)
packets = st.lists(st.tuples(teids, st.integers(0, 1_500)), max_size=24)


class ColumnsAgainstDicts(RuleBasedStateMachine):
    """Open, close, move and account on two column engines and a ledger,
    and the same on the dict reference; after every step the snapshots,
    CDRs, drops and charges agree."""

    def __init__(self):
        super().__init__()
        self.engines = [DataPlaneEngine(), DataPlaneEngine()]
        self.refs = [ReferenceEngine(), ReferenceEngine()]
        self.ledger = ChargingLedger()
        self.charged = {}  # TEID -> bytes, first-charge order

    def _charge(self, teids, sizes):
        for teid, size in zip(teids, sizes):
            self.charged[teid] = self.charged.get(teid, 0) + size

    @rule(side=st.integers(0, 1), teid=st.sampled_from(TEID_POOL), now=nows)
    def open(self, side, teid, now):
        engine, ref = self.engines[side], self.refs[side]
        if teid in ref.flows:
            with pytest.raises(ValueError):
                engine.open_bearer(teid, now)
            return
        context = engine.open_bearer(teid, now)
        ref.open(teid, now)
        assert asdict(context) == asdict(ref.flows[teid])

    @rule(side=st.integers(0, 1), teid=st.sampled_from(TEID_POOL), now=nows)
    def close(self, side, teid, now):
        engine, ref = self.engines[side], self.refs[side]
        if teid not in ref.flows:
            with pytest.raises(KeyError):
                engine.close_bearer(teid, now)
            return
        assert engine.close_bearer(teid, now) == ref.close(teid, now)

    @rule(side=st.integers(0, 1), teid=st.sampled_from(TEID_POOL))
    def move(self, side, teid):
        src, dst = self.engines[side], self.engines[1 - side]
        ref_src, ref_dst = self.refs[side], self.refs[1 - side]
        if teid not in ref_src.flows:
            with pytest.raises(KeyError):
                src.export_context(teid)
        elif teid in ref_dst.flows:
            with pytest.raises(ValueError):
                dst.import_context(src.context(teid))
        else:
            dst.import_context(src.export_context(teid))
            ref_dst.flows[teid] = ref_src.flows.pop(teid)

    @rule(side=st.integers(0, 1), batch=packets, downlink=st.booleans(),
          wide=st.booleans())
    def process_batch(self, side, batch, downlink, wide):
        if wide:  # past the packet loop, into the array operations
            batch = batch * (LOOP_BELOW // max(len(batch), 1) + 1)
        engine, ref = self.engines[side], self.refs[side]
        column = [np.array([p[i] for p in batch], dtype=np.int64)
                  for i in range(2)]
        assert engine.process_batch(*column, downlink) is None
        accepted = np.array(
            [ref.process(t, s, downlink) for t, s in batch], dtype=bool
        ).nonzero()[0]
        self.ledger.charge_many(column[0][accepted], column[1][accepted])
        self._charge(column[0][accepted].tolist(),
                     column[1][accepted].tolist())

    @rule(side=st.integers(0, 1), teid=teids,
          size=st.integers(0, 1_500), downlink=st.booleans())
    def process(self, side, teid, size, downlink):
        ok = self.engines[side].process(teid, size, downlink)
        assert ok == self.refs[side].process(teid, size, downlink)
        if ok:
            self.ledger.charge(teid, size)
            self._charge([teid], [size])

    @invariant()
    def columns_match_the_dicts(self):
        for engine, ref in zip(self.engines, self.refs):
            assert {t: asdict(c) for t, c in engine.contexts().items()} == {
                t: asdict(c) for t, c in ref.flows.items()
            }
            for teid in TEID_POOL + [5]:
                context = engine.context(teid)
                expected = ref.flows.get(teid)
                assert (context is None) == (expected is None)
                if context is not None:
                    assert asdict(context) == asdict(expected)
            assert len(engine) == len(ref.flows)
            assert engine.total_bytes() == sum(
                c.uplink_bytes + c.downlink_bytes for c in ref.flows.values()
            )
        assert list(self.ledger.bytes_charged.items()) == list(
            self.charged.items()
        )


ColumnsAgainstDicts.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, derandomize=True,
    deadline=None, suppress_health_check=list(HealthCheck),
)
TestColumnsAgainstDicts = ColumnsAgainstDicts.TestCase
