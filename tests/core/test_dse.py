"""Unit tests for the two-stage design-space exploration (Fig. 8)."""

import pytest

from repro.core.dse import (
    DesignSpaceExplorer,
    achievable_frequency_hz,
)
from repro.errors import ConfigurationError, DesignSpaceError
from repro.units import mhz


class TestAchievableFrequency:
    def test_small_single_task_hits_peak(self):
        # Table V: 128x128 batch-1 closes at 450 MHz.
        assert achievable_frequency_hz(128, 1) == pytest.approx(mhz(450))

    def test_decreases_with_size(self):
        freqs = [achievable_frequency_hz(m, 1) for m in (128, 256, 512, 1024)]
        assert freqs == sorted(freqs, reverse=True)

    def test_decreases_with_tasks(self):
        assert achievable_frequency_hz(128, 9) < achievable_frequency_hz(128, 1)

    def test_floor_at_310(self):
        # Table V never reports below 310 MHz.
        assert achievable_frequency_hz(1024, 26) == pytest.approx(mhz(310))

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            achievable_frequency_hz(0, 1)


class TestStage1:
    def test_table6_maxima(self):
        dse = DesignSpaceExplorer(256, 256, fixed_iterations=6)
        stage1 = dse.stage1(frequency_hz=mhz(208.3))
        # The paper's Table VI design points.
        assert stage1[2] == 26
        assert stage1[4] == 9
        assert stage1[6] == 4
        assert stage1[8] == 2

    def test_1024_is_uram_bound(self):
        dse = DesignSpaceExplorer(1024, 1024)
        stage1 = dse.stage1()
        assert stage1[8] == 1  # Table V's chosen point

    def test_every_p_eng_has_entry_for_small_sizes(self):
        stage1 = DesignSpaceExplorer(128, 128).stage1()
        assert set(stage1) == set(range(1, 12))


class TestStage2:
    def test_evaluate_returns_complete_point(self):
        dse = DesignSpaceExplorer(256, 256, fixed_iterations=6)
        point = dse.evaluate(4, 2)
        assert point.latency > 0
        assert point.throughput > 0
        assert point.power.total > 0
        assert point.energy_efficiency == pytest.approx(
            point.throughput / point.power.total
        )

    def test_padding_for_non_dividing_p_eng(self):
        dse = DesignSpaceExplorer(128, 128)
        point = dse.evaluate(6, 1)
        assert point.config.n % 6 == 0
        assert point.config.n >= 128

    def test_latency_objective_prefers_high_p_eng(self):
        dse = DesignSpaceExplorer(256, 256, fixed_iterations=6)
        best = dse.best("latency")
        assert best.config.p_eng >= 8
        assert best.config.p_task == 1

    def test_throughput_objective_prefers_high_p_task(self):
        dse = DesignSpaceExplorer(256, 256, fixed_iterations=6)
        best = dse.best("throughput", batch=100)
        assert best.config.p_task >= 9

    def test_tradeoff_matches_table6_narrative(self):
        # Paper: raising P_eng cuts latency; raising P_task lifts
        # throughput but costs power.
        dse = DesignSpaceExplorer(256, 256, fixed_iterations=6)
        freq = mhz(208.3)
        low = dse.evaluate(2, 26, batch=100, frequency_hz=freq)
        high = dse.evaluate(8, 2, batch=100, frequency_hz=freq)
        assert high.latency < low.latency
        assert low.throughput > high.throughput
        assert low.power.total > high.power.total

    def test_power_cap_respected(self):
        dse = DesignSpaceExplorer(256, 256, fixed_iterations=6)
        points = dse.explore("throughput", batch=100, power_cap_w=39.0)
        assert all(p.power.total <= 39.0 for p in points)

    def test_explore_sorted_by_objective(self):
        dse = DesignSpaceExplorer(128, 128, fixed_iterations=6)
        points = dse.explore("latency")
        latencies = [p.latency for p in points]
        assert latencies == sorted(latencies)

    def test_space_size_matches_paper_scale(self):
        # The paper cites 286 candidate points (11 x 26); the feasible
        # subset for a small matrix is near 100.
        points = DesignSpaceExplorer(128, 128, fixed_iterations=6).explore()
        assert 50 <= len(points) <= 286

    def test_unknown_objective_rejected(self):
        dse = DesignSpaceExplorer(128, 128)
        with pytest.raises(ConfigurationError):
            dse.explore("area")

    def test_objective_value_ranking(self):
        dse = DesignSpaceExplorer(128, 128, fixed_iterations=6)
        point = dse.evaluate(8, 1)
        assert point.objective_value("latency") == -point.latency
        assert point.objective_value("throughput") == point.throughput

    def test_infeasible_cap_raises(self):
        dse = DesignSpaceExplorer(256, 256, fixed_iterations=6)
        with pytest.raises(DesignSpaceError):
            dse.explore(power_cap_w=1.0)

    def test_invalid_batch(self):
        with pytest.raises(ConfigurationError):
            DesignSpaceExplorer(128, 128).evaluate(8, 1, batch=0)


class TestPowerModelCacheKey:
    def test_shared_cache_does_not_serve_another_power_model(self):
        """A cache warmed by a default-model sweep must not hand its
        power figures to a sweep with different coefficients."""
        from repro.core.power import PowerModel
        from repro.exec.cache import EvalCache

        cache = EvalCache()
        DesignSpaceExplorer(64, 64).explore(cache=cache)
        custom = DesignSpaceExplorer(
            64, 64, power_model=PowerModel(static_w=100)
        )
        shared = custom.explore(cache=cache)
        fresh = custom.explore()
        assert shared[0].power.total == pytest.approx(fresh[0].power.total)
        assert shared[0].power.total > 100
        assert shared == fresh
