"""Tests for the queueing model."""

import pytest

from repro.model.cache import XEON_E5_2697V2
from repro.model.perf import ForwardingModel, cuckoo_model
from repro.model.queueing import LoadLatencyModel, LoadPoint, md1_wait_us

FLOWS = 8_000_000


class TestMd1:
    def test_zero_load_zero_wait(self):
        assert md1_wait_us(1.0, 0.0) == 0.0

    def test_wait_grows_without_bound_near_saturation(self):
        assert md1_wait_us(1.0, 0.5) == pytest.approx(0.5)
        assert md1_wait_us(1.0, 0.9) > md1_wait_us(1.0, 0.5) * 5

    def test_validation(self):
        with pytest.raises(ValueError):
            md1_wait_us(1.0, 1.0)
        with pytest.raises(ValueError):
            md1_wait_us(-1.0, 0.5)


class TestLoadLatencyModel:
    def make(self, design="scalebricks"):
        return LoadLatencyModel(XEON_E5_2697V2, cuckoo_model(), design=design)

    def test_latency_monotone_in_load(self):
        model = self.make()
        sweep = model.sweep(1_000_000, fractions=[0.1, 0.5, 0.9])
        latencies = [p.latency_us for p in sweep]
        assert None not in latencies
        assert latencies == sorted(latencies)

    def test_overload_reports_loss(self):
        model = self.make()
        point = model.point(1_000.0, 1_000_000)  # absurd offered load
        assert point.saturated
        assert 0.9 < point.loss_fraction < 1.0

    def test_light_load_close_to_base_latency(self):
        model = self.make()
        light = model.point(0.1, 1_000_000)
        heavy = model.point(
            0.95 * LoadLatencyModel(
                XEON_E5_2697V2, cuckoo_model()
            )._capacity_mpps(1_000_000),
            1_000_000,
        )
        assert light.latency_us < heavy.latency_us

    def test_knee_below_capacity(self):
        model = self.make()
        base = model._base_latency_us(1_000_000)
        knee = model.knee_mpps(1_000_000, latency_budget_us=base + 0.05)
        capacity = model._capacity_mpps(1_000_000)
        assert 0 < knee < capacity

    def test_knee_zero_when_budget_unreachable(self):
        model = self.make()
        assert model.knee_mpps(1_000_000, latency_budget_us=1.0) == 0.0

    def test_all_designs_supported(self):
        for design in ("scalebricks", "full_duplication", "hash_partition"):
            point = self.make(design).point(1.0, 1_000_000)
            assert point.latency_us is not None

    def test_unknown_design(self):
        with pytest.raises(ValueError):
            self.make("vlb").point(1.0, 1_000)

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            self.make().point(-1.0, 1_000)

    def test_zero_load_is_the_base_latency(self):
        model = self.make()
        point = model.point(0.0, FLOWS)
        assert point.loss_fraction == 0.0
        assert point.utilization == 0.0
        assert point.latency_us == model._base_latency_us(FLOWS)

    @pytest.mark.parametrize(
        "design", ["scalebricks", "full_duplication", "hash_partition"]
    )
    def test_overload_delivers_the_forwarding_capacity(self, design):
        """Past saturation the delivered rate is ForwardingModel's
        capacity for the design, whatever the offered load."""
        forwarding = ForwardingModel(XEON_E5_2697V2, cuckoo_model())
        capacity = {
            "scalebricks": forwarding.scalebricks_mpps,
            "full_duplication": forwarding.full_duplication_mpps,
            "hash_partition": forwarding.hash_partition_mpps,
        }[design](FLOWS)
        for factor in (1.4, 3.0):
            point = self.make(design).point(capacity * factor, FLOWS)
            assert point.saturated
            delivered = point.offered_mpps * (1.0 - point.loss_fraction)
            assert delivered == pytest.approx(capacity, rel=1e-9)

    def test_scalebricks_outdelivers_full_duplication_at_overload(self):
        overloaded = 15.0
        sb = self.make("scalebricks").point(overloaded, FLOWS)
        fd = self.make("full_duplication").point(overloaded, FLOWS)
        assert sb.saturated and fd.saturated
        assert sb.loss_fraction < fd.loss_fraction

    def test_hash_partition_saturates_first(self):
        """At 8 Mpps per node the two-hop design is past capacity while
        the one-hop designs still queue without loss."""
        assert self.make("hash_partition").point(8.0, FLOWS).saturated
        for design in ("scalebricks", "full_duplication"):
            point = self.make(design).point(8.0, FLOWS)
            assert not point.saturated
            assert point.loss_fraction == 0.0

