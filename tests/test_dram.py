"""Tests for the self-consistent DRAM contention model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.simhw import DramModel, MachineConfig, SegmentDemand
from repro.simhw.dram import DRAM_SOLVE_CACHE, _quantize


@pytest.fixture
def model() -> DramModel:
    return DramModel(MachineConfig(n_cores=12, dram_peak_gbs=12.0))


def _streaming_segment(machine: MachineConfig) -> SegmentDemand:
    """A fully memory-bound segment demanding line_size·freq/ω₀ bytes/s."""
    demand = machine.line_size * machine.freq_hz / machine.base_miss_stall
    return SegmentDemand(mem_fraction=1.0, demand_bytes_per_sec=demand)


class TestSegmentDemand:
    def test_mem_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            SegmentDemand(mem_fraction=1.5, demand_bytes_per_sec=0.0)
        with pytest.raises(ConfigurationError):
            SegmentDemand(mem_fraction=-0.1, demand_bytes_per_sec=0.0)

    def test_negative_demand_rejected(self):
        with pytest.raises(ConfigurationError):
            SegmentDemand(mem_fraction=0.5, demand_bytes_per_sec=-1.0)


class TestScalarCurves:
    def test_queue_factor_is_one_at_zero(self, model):
        assert model.queue_factor(0.0) == 1.0

    def test_queue_factor_monotone_below_saturation(self, model):
        values = [model.queue_factor(u) for u in (0.1, 0.3, 0.5, 0.8, 1.0)]
        assert values == sorted(values)

    def test_queue_factor_clamps_past_saturation(self, model):
        assert model.queue_factor(5.0) == model.queue_factor(1.0)

    def test_utilisation(self, model):
        assert model.utilisation(6.0e9) == pytest.approx(0.5)


class TestStallMultiplier:
    def test_empty_set(self, model):
        assert model.stall_multiplier([]) == 1.0
        assert model.slowdowns([]) == []

    def test_pure_compute_segment_unaffected(self, model):
        seg = SegmentDemand(mem_fraction=0.0, demand_bytes_per_sec=0.0)
        assert model.slowdowns([seg]) == [1.0]

    def test_single_light_segment_near_one(self, model):
        seg = SegmentDemand(mem_fraction=0.2, demand_bytes_per_sec=1e9)
        (s,) = model.slowdowns([seg])
        assert 1.0 <= s < 1.05

    def test_slowdowns_at_least_one(self, model):
        segs = [
            SegmentDemand(mem_fraction=f, demand_bytes_per_sec=d)
            for f, d in [(0.1, 1e9), (0.9, 5e9), (0.5, 3e9)]
        ]
        assert all(s >= 1.0 for s in model.slowdowns(segs))

    def test_more_segments_more_slowdown(self, model):
        machine = model.config
        seg = _streaming_segment(machine)
        results = []
        for n in (1, 2, 4, 8):
            results.append(model.slowdowns([seg] * n)[0])
        assert results == sorted(results)
        assert results[-1] > results[0]

    def test_aggregate_bandwidth_capped_at_peak(self, model):
        machine = model.config
        seg = _streaming_segment(machine)
        for n in (1, 2, 4, 8, 16):
            achieved = model.aggregate_achieved_bandwidth([seg] * n)
            assert achieved <= machine.dram_peak_bytes_per_sec * (1 + 1e-9)

    def test_cap_holds_for_compute_diluted_segments(self, model):
        """The historical bug: compute-diluted segments must not push the
        aggregate over peak bandwidth."""
        seg = SegmentDemand(mem_fraction=0.45, demand_bytes_per_sec=2.7e9)
        achieved = model.aggregate_achieved_bandwidth([seg] * 12)
        assert achieved <= model.config.dram_peak_bytes_per_sec * (1 + 1e-9)
        # And the demand genuinely exceeded peak.
        assert 12 * seg.demand_bytes_per_sec > model.config.dram_peak_bytes_per_sec

    def test_saturated_solve_is_exact(self, model):
        seg = _streaming_segment(model.config)
        achieved = model.aggregate_achieved_bandwidth([seg] * 8)
        assert achieved == pytest.approx(
            model.config.dram_peak_bytes_per_sec, rel=1e-6
        )

    def test_heterogeneous_segments(self, model):
        light = SegmentDemand(mem_fraction=0.1, demand_bytes_per_sec=0.5e9)
        heavy = _streaming_segment(model.config)
        s_light, s_heavy = model.slowdowns([light, heavy])
        # The heavier segment suffers more in absolute slowdown.
        assert s_heavy > s_light >= 1.0

    def test_effective_miss_stall_grows_under_contention(self, model):
        seg = _streaming_segment(model.config)
        alone = model.effective_miss_stall([seg])
        crowded = model.effective_miss_stall([seg] * 8)
        assert crowded > alone
        assert alone >= model.config.base_miss_stall


class TestSolveMemoization:
    def test_cached_matches_uncached(self):
        """Cached and cache-free models agree bit for bit on randomized
        segment sets: a solve is a pure function of the running set."""
        import random

        rng = random.Random(2012)
        machine = MachineConfig(n_cores=12, dram_peak_gbs=12.0)
        cached = DramModel(machine)
        for _ in range(40):
            segs = [
                SegmentDemand(
                    mem_fraction=rng.uniform(0.05, 1.0),
                    demand_bytes_per_sec=rng.uniform(0.1e9, 4.0e9),
                )
                for _ in range(rng.randint(1, 12))
            ]
            # Hit each set twice so the second call exercises the cache.
            a1 = cached.stall_multiplier(segs)
            a2 = cached.stall_multiplier(segs)
            assert a1 == a2
            # A fresh model's first solve is a memo miss: the bisection.
            assert a1 == DramModel(machine).stall_multiplier(segs)
        assert cached.cache_hits >= 40

    def test_order_insensitive_key(self, model):
        segs = [
            SegmentDemand(mem_fraction=0.2 + 0.1 * i, demand_bytes_per_sec=1e9 * i)
            for i in range(1, 5)
        ]
        model.stall_multiplier(segs)
        model.stall_multiplier(list(reversed(segs)))
        assert model.cache_hits == 1 and model.cache_misses == 1

    def test_cache_bound_enforced(self):
        model = DramModel(MachineConfig(n_cores=12, dram_peak_gbs=12.0))
        n = DRAM_SOLVE_CACHE + 20
        for i in range(1, n + 1):
            seg = SegmentDemand(mem_fraction=0.5, demand_bytes_per_sec=1e7 * i)
            model.stall_multiplier([seg])
        info = model.cache_info()
        assert info["size"] == info["maxsize"] == DRAM_SOLVE_CACHE
        assert info["misses"] == n
        # The oldest solves were evicted, the newest kept.
        first = SegmentDemand(mem_fraction=0.5, demand_bytes_per_sec=1e7)
        last = SegmentDemand(mem_fraction=0.5, demand_bytes_per_sec=1e7 * n)
        model.stall_multiplier([last])
        model.stall_multiplier([first])
        assert model.cache_info()["hits"] == 1

    def test_clear_cache(self, model):
        seg = SegmentDemand(mem_fraction=0.8, demand_bytes_per_sec=3e9)
        model.stall_multiplier([seg])
        assert model.cache_info()["size"] == 1
        model.clear_cache()
        assert model.cache_info() == {
            "hits": 0,
            "misses": 0,
            "size": 0,
            "maxsize": model.cache_info()["maxsize"],
        }

    def test_bandwidth_cap_invariant_with_cache(self, model):
        """The paper's physical invariant survives memoized solves."""
        import random

        rng = random.Random(7)
        peak = model.config.dram_peak_bytes_per_sec
        for _ in range(20):
            segs = [
                _streaming_segment(model.config)
                if rng.random() < 0.3
                else SegmentDemand(
                    mem_fraction=rng.uniform(0.1, 0.9),
                    demand_bytes_per_sec=rng.uniform(0.5e9, 3.5e9),
                )
                for _ in range(rng.randint(1, 16))
            ]
            for _ in range(2):  # second pass hits the cache
                assert model.aggregate_achieved_bandwidth(segs) <= peak * (
                    1 + 1e-6
                )


# Running sets straddling the 12 GB/s peak, zero-demand members included.
_segments = st.builds(
    SegmentDemand,
    mem_fraction=st.floats(0.0, 1.0),
    demand_bytes_per_sec=st.one_of(st.just(0.0), st.floats(1e6, 4e10)),
)
_running_sets = st.lists(_segments, min_size=1, max_size=8)


def _key(segs):
    return tuple(
        sorted(
            (_quantize(s.mem_fraction), _quantize(s.demand_bytes_per_sec))
            for s in segs
            if s.demand_bytes_per_sec > 0
        )
    )


class TestSolvePurity:
    """A DRAM solve is a pure function of the running set: no history."""

    @given(history=st.lists(_running_sets, max_size=6), segs=_running_sets)
    @settings(max_examples=150, deadline=None)
    def test_history_never_changes_a_solve(self, history, segs):
        machine = MachineConfig(n_cores=12, dram_peak_gbs=12.0)
        cached = DramModel(machine)
        for other in history:
            if _key(other) != _key(segs):
                cached.stall_multiplier(other)
        expected = DramModel(machine).stall_multiplier(segs)
        assert cached.stall_multiplier(segs) == expected
        assert cached.stall_multiplier(segs) == expected  # memo hit

    @given(lanes=st.lists(_running_sets, min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_solve_batch_lanes_match_scalar(self, lanes):
        machine = MachineConfig(n_cores=12, dram_peak_gbs=12.0)
        width = max(len(segs) for segs in lanes)
        F = np.zeros((len(lanes), width))
        D = np.zeros((len(lanes), width))
        for i, segs in enumerate(lanes):
            for j, s in enumerate(segs):
                F[i, j] = s.mem_fraction
                D[i, j] = s.demand_bytes_per_sec
        ks = DramModel(machine).solve_batch(F, D)
        for i, segs in enumerate(lanes):
            scalar = DramModel(machine).stall_multiplier(segs)
            assert float(ks[i]) == scalar, f"lane {i}"
