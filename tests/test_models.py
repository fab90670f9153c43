"""Tests for the performance models (repro.model)."""

import pytest

from repro.model.cache import (
    CacheHierarchy,
    CacheLevel,
    XEON_E5_2680,
    XEON_E5_2697V2,
)
from repro.model.perf import (
    ForwardingModel,
    LatencyModel,
    SetSepLookupModel,
    chaining_model,
    cuckoo_model,
    rte_hash_model,
)
from repro.model.scaling import (
    crossover_node_count,
    entries_full_duplication,
    entries_hash_partition,
    entries_scalebricks,
    gpt_bits_per_key,
    peak_scaling_factor,
    scaling_curve,
)

MIB = 1024 * 1024


class TestCacheHierarchy:
    def test_hit_fractions_sum_to_one(self):
        for ws in (1024, 10 * MIB, 100 * MIB):
            fractions = XEON_E5_2680.hit_fractions(ws)
            assert sum(f for _, f, _ in fractions) == pytest.approx(1.0)

    def test_latency_monotone_in_working_set(self):
        sizes = [1024, 100 * 1024, MIB, 10 * MIB, 100 * MIB, 1000 * MIB]
        latencies = [XEON_E5_2680.expected_access_ns(s) for s in sizes]
        assert latencies == sorted(latencies)

    def test_tiny_working_set_hits_l1(self):
        assert XEON_E5_2680.expected_access_ns(1024) == pytest.approx(1.5)

    def test_huge_working_set_approaches_dram(self):
        assert XEON_E5_2680.expected_access_ns(10_000 * MIB) > 85

    def test_overlap_reduces_stall(self):
        ws = 100 * MIB
        assert XEON_E5_2680.overlapped_access_ns(
            ws, 16
        ) < XEON_E5_2680.expected_access_ns(ws) / 4

    def test_overlap_floor_is_l1(self):
        assert XEON_E5_2680.overlapped_access_ns(1024, 32) >= 1.4

    def test_batch_of_one_no_overlap(self):
        ws = 50 * MIB
        assert XEON_E5_2680.overlapped_access_ns(ws, 1) == pytest.approx(
            XEON_E5_2680.expected_access_ns(ws)
        )

    def test_with_l3_resizes_last_level(self):
        shrunk = XEON_E5_2697V2.with_l3(15 * MIB)
        assert shrunk.levels[-1].size_bytes == 15 * MIB
        assert XEON_E5_2697V2.levels[-1].size_bytes == 30 * MIB
        assert shrunk.expected_access_ns(20 * MIB) > \
            XEON_E5_2697V2.expected_access_ns(20 * MIB)


class TestSetSepLookupModel:
    def setup_method(self):
        self.model = SetSepLookupModel(XEON_E5_2680, value_bits=2)

    def test_structure_bytes_is_3_5_bits_per_key(self):
        assert self.model.structure_bytes(16_000_000) == int(
            16_000_000 * 3.5 / 8
        )

    def test_batching_helps_large_tables(self):
        n = 64_000_000
        assert self.model.throughput_mops(n, 17) > \
            2 * self.model.throughput_mops(n, 1)

    def test_batching_hurts_small_tables(self):
        """Figure 7: 500 K-entry SetSep is fastest without batching."""
        n = 500_000
        assert self.model.throughput_mops(n, 1) > \
            self.model.throughput_mops(n, 17)

    def test_throughput_drops_when_l3_exceeded(self):
        """Figure 7's cliff between 32 M and 64 M entries (20 MiB L3)."""
        batched_32m = self.model.throughput_mops(32_000_000, 17)
        batched_64m = self.model.throughput_mops(64_000_000, 17)
        assert batched_64m < batched_32m

    def test_very_large_batches_decline(self):
        n = 64_000_000
        assert self.model.throughput_mops(n, 32) < \
            self.model.throughput_mops(n, 17) * 1.05


class TestTableModels:
    def test_rte_hash_bigger_than_cuckoo(self):
        assert rte_hash_model().table_bytes(1_000_000) > \
            cuckoo_model().table_bytes(1_000_000)

    def test_lookup_cost_grows_with_entries(self):
        model = cuckoo_model()
        assert model.lookup_ns(32_000_000, XEON_E5_2697V2) > \
            model.lookup_ns(1_000_000, XEON_E5_2697V2)

    def test_chaining_cost_grows_with_load(self):
        assert chaining_model(load=8).accesses_per_lookup > \
            chaining_model(load=2).accesses_per_lookup

    def test_empty_table_costs_cpu_only(self):
        model = cuckoo_model()
        assert model.lookup_ns(0, XEON_E5_2697V2) == model.cpu_ns


class TestForwardingModel:
    @pytest.mark.parametrize("table", [cuckoo_model(), rte_hash_model()])
    def test_scalebricks_wins_at_scale(self, table):
        """Figure 8: ScaleBricks beats full duplication, more so at size."""
        model = ForwardingModel(XEON_E5_2697V2, table)
        small_gain = model.improvement(1_000_000)
        large_gain = model.improvement(32_000_000)
        assert large_gain > 0.05
        assert large_gain >= small_gain - 0.01

    def test_cuckoo_beats_rte_hash(self):
        """Figure 8's other axis: the extended cuckoo FIB is faster."""
        cuckoo = ForwardingModel(XEON_E5_2697V2, cuckoo_model())
        rte = ForwardingModel(XEON_E5_2697V2, rte_hash_model())
        for flows in (1_000_000, 32_000_000):
            assert cuckoo.full_duplication_mpps(flows) > \
                rte.full_duplication_mpps(flows)

    def test_smaller_cache_lowers_throughput_keeps_ordering(self):
        """Figure 9: the cache bubble hurts everyone, ScaleBricks still wins."""
        full = ForwardingModel(XEON_E5_2697V2, cuckoo_model())
        small = ForwardingModel(
            XEON_E5_2697V2.with_l3(15 * MIB), cuckoo_model()
        )
        flows = 8_000_000
        assert small.full_duplication_mpps(flows) < \
            full.full_duplication_mpps(flows)
        assert small.improvement(flows) > 0

    def test_hash_partition_throughput_below_scalebricks(self):
        model = ForwardingModel(XEON_E5_2697V2, cuckoo_model())
        assert model.hash_partition_mpps(8_000_000) < \
            model.scalebricks_mpps(8_000_000)

    @pytest.mark.parametrize("table", [cuckoo_model(), rte_hash_model()],
                             ids=["cuckoo", "rte_hash"])
    def test_capacity_ordering_matches_the_paper(self, table):
        """Figures 8-10: ScaleBricks > full duplication > hash
        partitioning at 8 M flows (12.42 > 11.09 > 5.19 Mpps on cuckoo)."""
        model = ForwardingModel(XEON_E5_2697V2, table)
        flows = 8_000_000
        assert model.scalebricks_mpps(flows) > \
            model.full_duplication_mpps(flows) > \
            model.hash_partition_mpps(flows)


class TestLatencyModel:
    def shared_cache_model(self, table):
        return LatencyModel(XEON_E5_2697V2.with_l3(15 * MIB), table)

    @pytest.mark.parametrize("table", [cuckoo_model(), rte_hash_model()])
    def test_figure_10_orderings(self, table):
        model = self.shared_cache_model(table)
        flows = 1_000_000
        sb = model.scalebricks_us(flows)
        fd = model.full_duplication_us(flows)
        hp = model.hash_partition_us(flows)
        assert sb < fd          # up to 10% reduction vs baseline
        assert sb < hp          # up to 34% vs hash partitioning
        assert hp > fd or hp > sb  # the extra hop costs

    def test_scalebricks_gain_in_paper_range(self):
        model = self.shared_cache_model(cuckoo_model())
        flows = 1_000_000
        reduction = 1 - model.scalebricks_us(flows) / model.full_duplication_us(flows)
        assert 0.02 < reduction < 0.25


class TestScaling:
    def test_gpt_bits_per_key_values(self):
        assert gpt_bits_per_key(1) == 0.0
        assert gpt_bits_per_key(2) == 2.0
        assert gpt_bits_per_key(4) == 3.5   # the paper's 4-node GPT
        assert gpt_bits_per_key(16) == 6.5
        assert gpt_bits_per_key(4, fractional_bits=True) == 3.5

    def test_full_duplication_flat(self):
        m = 16 * MIB * 8
        assert entries_full_duplication(m) == m / 64

    def test_hash_partition_linear(self):
        m = 16 * MIB * 8
        assert entries_hash_partition(m, 8) == 8 * entries_full_duplication(m)

    def test_scalebricks_between_flat_and_linear(self):
        m = 16 * MIB * 8
        for n in (2, 4, 8, 16, 32):
            sb = entries_scalebricks(m, n)
            assert entries_full_duplication(m) < sb < entries_hash_partition(m, n)

    def test_scalebricks_n1_equals_full_duplication(self):
        m = 16 * MIB * 8
        assert entries_scalebricks(m, 1) == entries_full_duplication(m)

    def test_peak_ratio_matches_paper_magnitude(self):
        """§6.3: 'up to 5.7x more FIB entries'; the ideal formula gives ~6x."""
        n, ratio = peak_scaling_factor()
        assert n == 32
        assert 5.0 < ratio < 7.0

    def test_capacity_turns_down_past_32ish(self):
        """§6.3: 'after 32 nodes, adding more servers decreases capacity'."""
        assert 30 <= crossover_node_count() <= 64

    def test_scaling_curve_rows(self):
        rows = scaling_curve(16 * MIB * 8, max_nodes=8)
        assert len(rows) == 8
        assert rows[0][0] == 1
        # Columns: n, full, hash, scalebricks.
        n, full, hashed, sb = rows[3]
        assert n == 4
        assert full < sb < hashed

    def test_bigger_entries_scale_better(self):
        """§6.3: ScaleBricks scales better with 128-bit FIB entries."""
        m = 16 * MIB * 8
        ratio_64 = entries_scalebricks(m, 16, entry_bits=64) / \
            entries_full_duplication(m, entry_bits=64)
        ratio_128 = entries_scalebricks(m, 16, entry_bits=128) / \
            entries_full_duplication(m, entry_bits=128)
        assert ratio_128 > ratio_64

    def test_invalid_nodes(self):
        with pytest.raises(ValueError):
            gpt_bits_per_key(0)
