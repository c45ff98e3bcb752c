import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fscontract import (
    FailureParams,
    PeriodGrid,
    brute_force_pm_count,
    expected_failures,
    internal_rate_series,
    optimal_pm_count,
)

from fscontract.failure import FailureCounts, _aging_slopes

from conftest import aging_factor, generated_scenarios, make_scenario, random_rate_scenario


def bathtub_params(**kw):
    defaults = dict(phi0_int=7.5e-3, stage_bounds=(2, 5, 8), k1=0.5, k2=0.5, m=4.0,
                    rho=0.5, ext_mean=7.5e-4, ext_sd=0.0)
    defaults.update(kw)
    return FailureParams(**defaults)


class TestAgingFactor:
    grid = PeriodGrid.uniform(8, 1440.0, 4320.0)

    def test_useful_life_is_flat(self):
        f = bathtub_params()
        assert aging_factor(3, f, self.grid) == 0.0
        assert aging_factor(5, f, self.grid) == 0.0

    def test_run_in_value(self):
        # -(0.5/4) * (1/4)^(-0.5) = -0.25
        f = bathtub_params(k1=0.5, m=4.0)
        assert aging_factor(1, f, self.grid) == pytest.approx(-0.25, rel=1e-12)

    def test_wear_out_value(self):
        # +(0.5/4) * (1/4)^(-0.5) = +0.25 one period past the useful life
        f = bathtub_params(k2=0.5, m=4.0)
        assert aging_factor(6, f, self.grid) == pytest.approx(0.25, rel=1e-12)

    def test_out_of_range_rejected(self):
        f = bathtub_params()
        with pytest.raises(ValueError):
            aging_factor(0, f, self.grid)
        with pytest.raises(ValueError):
            aging_factor(9, f, self.grid)

    def test_run_in_magnitude_shrinks(self):
        f = bathtub_params(stage_bounds=(4, 6, 8))
        g = [aging_factor(j, f, self.grid) for j in (1, 2, 3, 4)]
        assert all(x < 0 for x in g)
        assert all(abs(a) > abs(b) for a, b in zip(g, g[1:]))

    def test_wear_out_nonnegative(self):
        f = bathtub_params(stage_bounds=(2, 4, 8))
        g = [aging_factor(j, f, self.grid) for j in (5, 6, 7, 8)]
        assert all(x >= 0 for x in g)

    def test_series_matches_scalar(self):
        f = bathtub_params()
        slopes = _aging_slopes(f, self.grid.z_periods)
        assert slopes.tolist() == [aging_factor(j, f, self.grid) for j in range(1, 9)]


class TestInternalRateSeries:
    def test_zero_slope_is_constant(self):
        # the whole useful-life stage has g = 0, so the rate freezes exactly
        grid = PeriodGrid.uniform(6, 1000.0, 3000.0)
        f = bathtub_params(stage_bounds=(1, 6, 6), m=1e30, phi0_int=0.004)
        series = internal_rate_series(f, grid)
        assert len(set(series.values[0:])) == 1
        assert series.values[1] == series.values[0]

    def test_one_recursion_step(self):
        # g_1 = -0.5 m^(-1/2) = -1e-6 for m = 2.5e11; phi_1 = phi_0 - 1e-6*1440
        grid = PeriodGrid.uniform(4, 1440.0, 4320.0)
        f = bathtub_params(stage_bounds=(1, 3, 4), k1=0.5, m=2.5e11)
        series = internal_rate_series(f, grid)
        assert series.values[0] == pytest.approx(7.5e-3 - 1.44e-3, rel=1e-12)

    def test_override_returned_verbatim(self, baseline):
        series = internal_rate_series(baseline.failure, baseline.grid)
        assert series.values == baseline.failure.internal_series_override.values
        assert series is baseline.failure.internal_series_override

    def test_floor_warns(self):
        grid = PeriodGrid.uniform(4, 1440.0, 4320.0)
        f = bathtub_params(stage_bounds=(2, 3, 4), k1=0.5, m=4.0, phi0_int=1e-3)
        with pytest.warns(UserWarning, match="floored"):
            series = internal_rate_series(f, grid)
        assert min(series.values) == 0.0

    def test_floor_warns_once_per_undershooting_period(self):
        # run-in is periods 1..3; the rate hits the floor in period 1 and
        # every later run-in step undershoots again from zero
        grid = PeriodGrid.uniform(6, 1440.0, 4320.0)
        f = bathtub_params(stage_bounds=(3, 4, 6), k1=0.5, m=4.0, phi0_int=1e-3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            series = internal_rate_series(f, grid)
        assert [str(w.message).split(" (")[0] for w in caught] == [
            f"internal rate undershoots zero in period {j}" for j in (1, 2, 3)]
        assert series.values[:4] == (0.0, 0.0, 0.0, 0.0)
        assert series.values[4] > 0.0

    @settings(max_examples=150, deadline=None)
    @given(z=st.integers(2, 400), data=st.data(),
           k1=st.floats(0.05, 0.95), k2=st.floats(0.05, 0.95),
           log_m=st.floats(0.0, 12.0), log_phi0=st.floats(-6.0, 0.0),
           log_t=st.floats(-2.0, 4.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_scalar_recursion(self, z, data, k1, k2, log_m, log_phi0, log_t, seed):
        """The vectorised series equals phi_j = max(phi_{j-1} + g_j t_j, 0)
        built period by period from aging_factor, up to the last-ulp
        difference between numpy's and libm's pow, with one warning per
        period the recursion floors beyond the tolerance."""
        z1 = data.draw(st.integers(1, z - 1))
        z2 = data.draw(st.integers(z1 + 1, z))
        t = 10.0 ** log_t * np.random.default_rng(seed).uniform(0.5, 2.0, z)
        grid = PeriodGrid(z, tuple(t.tolist()), tuple((3.0 * t).tolist()))
        f = bathtub_params(stage_bounds=(z1, z2, z), k1=k1, k2=k2, m=10.0 ** log_m,
                           phi0_int=10.0 ** log_phi0)
        want, floors = [], 0
        phi = f.phi0_int
        for j in range(1, z + 1):
            phi = phi + aging_factor(j, f, grid) * grid.t_j.values[j - 1]
            floors += phi < -1e-15
            phi = max(phi, 0.0)
            want.append(phi)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = internal_rate_series(f, grid).values
        assert len(caught) == floors
        scale = max(f.phi0_int, max(abs(x) for x in want))
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-15 * scale

    def test_parametric_series_is_bit_identical_to_the_numpy_sums(self, baseline):
        # the two running sums of the module docstring, read back through a
        # tuple of Python floats
        for z in (20, 300, 2400):
            grid = PeriodGrid.uniform(z, 1440.0, 4320.0)
            f = replace(baseline.failure, stage_bounds=(4, z - 4, z),
                        internal_series_override=None)
            steps = _aging_slopes(f, z) * grid.t_j.as_array()
            run_in = np.cumsum(np.concatenate(([f.phi0_int], steps[:4])))[1:]
            rest = np.cumsum(np.concatenate(([run_in[-1]], steps[4:])))[1:]
            want = tuple(np.concatenate((run_in, rest)).tolist())
            series = internal_rate_series(f, grid)
            assert series.values == want
            assert series.as_array().tobytes() == np.array(want).tobytes()

    def test_bathtub_shape(self, baseline):
        z1, z2, z3 = baseline.failure.stage_bounds
        values = internal_rate_series(baseline.failure, baseline.grid).values
        run_in = values[:z1]
        plateau = values[z1:z2]
        wear_out = values[z2 - 1:]
        assert all(a >= b for a, b in zip(run_in, run_in[1:]))
        assert len(set(plateau)) == 1
        assert all(a <= b for a, b in zip(wear_out, wear_out[1:]))

    def test_parametric_default_is_bathtub(self, baseline):
        parametric = replace(baseline.failure, internal_series_override=None)
        values = internal_rate_series(parametric, baseline.grid).values
        z1, z2, _ = parametric.stage_bounds
        assert all(a > b for a, b in zip(values[:z1], values[1:z1]))
        assert len(set(values[z1:z2])) == 1
        assert all(a < b for a, b in zip(values[z2 - 1:], values[z2:]))
        assert min(values) > 0.0


class TestExpectedFailures:
    def test_flat_series_count(self):
        s = make_scenario(z=1, t=1440.0, phi0=0.003)
        internal = internal_rate_series(s.failure, s.grid)
        assert expected_failures(5, s, internal)[0] == pytest.approx(4.32)

    def test_slope_term_without_maintenance_improvement(self):
        # rho = 0: 0.003*10 + 10^2 * 1e-4 / 2 = 0.035, m drops out
        s = make_scenario(z=1, t=10.0, phi0=0.003, series=(0.003 + 1e-3,), rho=0.0)
        internal = internal_rate_series(s.failure, s.grid)
        for m in (1, 3, 50):
            assert expected_failures(m, s, internal)[0] == pytest.approx(0.035)

    def test_perfect_maintenance_limit(self):
        # rho = 1 with positive slope: approaches phi_hat * t from above
        s = make_scenario(z=1, t=100.0, phi0=0.002, series=(0.004,), rho=1.0)
        internal = internal_rate_series(s.failure, s.grid)
        limit = 0.002 * 100.0
        previous = math.inf
        for m in (1, 2, 10, 100, 10000):
            value = expected_failures(m, s, internal)[0]
            assert limit < value < previous
            previous = value
        assert previous == pytest.approx(limit, rel=1e-3)

    def test_strictly_decreasing_in_m_for_positive_slope(self):
        s = make_scenario(z=2, t=500.0, phi0=0.002, series=(0.003, 0.004), rho=0.6)
        internal = internal_rate_series(s.failure, s.grid)
        values = [expected_failures(m, s, internal)[1] for m in range(1, 8)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_bad_arguments(self, baseline, baseline_rates):
        internal, _ = baseline_rates
        with pytest.raises(ValueError):
            expected_failures(0, baseline, internal)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_dual_form_identity(self, seed, m):
        """Recursive damped-start form equals the expanded telescoped form."""
        s = random_rate_scenario(np.random.default_rng(seed))
        internal = internal_rate_series(s.failure, s.grid)
        got = expected_failures(m, s, internal)

        t = s.grid.t_j.values[0]
        rho = s.failure.rho
        phi0 = s.failure.phi0_int
        phi = np.asarray(internal.values)
        delta = np.diff(np.concatenate(([phi0], phi)))
        g = delta / t
        cumulative = np.concatenate(([0.0], np.cumsum(g)[:-1]))
        expanded = (phi0 * t + rho * t * t * g / (2 * m)
                    + t * t * (1 - rho) / 2 * (g + 2 * cumulative))
        np.testing.assert_allclose(got, expanded, rtol=1e-9)

    def test_counts_and_bills_are_kept_per_maintenance_count(self, baseline):
        for s in [baseline] + generated_scenarios((1,))[::7]:
            internal = internal_rate_series(s.failure, s.grid)
            counts = FailureCounts(s, internal)
            for m in (1, 3, s.cost.m0_os):
                direct = expected_failures(m, s, internal)
                # the shared terms give the counts of a direct call to the bit
                assert counts(m).tobytes() == direct.tobytes()
                bill = counts.repair_bill(m)
                assert bill == float(np.dot(counts.repair_costs, direct))
                assert counts.repair_bill(m) is bill


class TestMaintenanceOptimum:
    def test_flat_series_gives_single_action(self):
        s = make_scenario(z=10, t=1000.0, phi0=0.004)
        internal = internal_rate_series(s.failure, s.grid)
        assert optimal_pm_count(s, internal).m_count == 1
        assert brute_force_pm_count(s, internal, 40).m_count == 1

    def test_single_candidate(self, baseline, baseline_rates):
        internal, _ = baseline_rates
        assert brute_force_pm_count(baseline, internal, 1).m_count == 1

    def test_baseline_optimum_is_three(self, baseline, baseline_rates):
        internal, _ = baseline_rates
        plan = optimal_pm_count(baseline, internal)
        assert plan.m_count == 3
        assert brute_force_pm_count(baseline, internal, 50).m_count == 3

    def test_objective_value_matches_brute_force_at_same_m(self, baseline, baseline_rates):
        internal, _ = baseline_rates
        plan = optimal_pm_count(baseline, internal)
        probe = brute_force_pm_count(baseline, internal, plan.m_count)
        # brute force over 1..3 picks 3 on the baseline, so objectives line up
        assert probe.m_count == plan.m_count
        assert probe.objective_value == pytest.approx(plan.objective_value)

    def test_declining_rate_clamps_to_one(self):
        s = make_scenario(z=5, t=1000.0, phi0=0.006,
                          series=(0.005, 0.004, 0.003, 0.002, 0.001))
        internal = internal_rate_series(s.failure, s.grid)
        assert optimal_pm_count(s, internal).m_count == 1

    def test_overflowing_count_raises_overflow_error(self, baseline, baseline_rates):
        internal, _ = baseline_rates
        tiny = replace(baseline, cost=replace(baseline.cost, avg_maintenance_cost=1e-308))
        with pytest.raises(OverflowError, match="maintenance count overflows"):
            optimal_pm_count(tiny, internal)

    def test_oracle_agreement_randomized(self):
        rng = np.random.default_rng(20240817)
        for _ in range(40):
            s = random_rate_scenario(rng)
            internal = internal_rate_series(s.failure, s.grid)
            closed = optimal_pm_count(s, internal).m_count
            m_max = max(60, 2 * closed + 10)
            brute = brute_force_pm_count(s, internal, m_max).m_count
            assert closed == brute

    def test_exact_argmin_on_generated_bases(self):
        # round(sqrt(K / c_M)) is one too low on market_sweep base 7 (M* = 2)
        for s in generated_scenarios((1,)):
            internal = internal_rate_series(s.failure, s.grid)
            closed = optimal_pm_count(s, internal).m_count
            assert closed == brute_force_pm_count(s, internal, max(60, 2 * closed + 10)).m_count

    @pytest.mark.parametrize("ratio, m_star", [
        (0.0, 1), (2.0, 1), (2.0000001, 2), (5.99, 2), (6.5, 3), (11.9, 3), (12.1, 4),
        (89.9, 9), (90.5, 10)])
    def test_smallest_count_with_m_times_m_plus_one_at_least_k_over_c(self, ratio, m_star):
        # one more action pays while M (M + 1) < K / c_M; at equality (the
        # ratio 2, exact in floats) the tie goes to the smaller count
        s = make_scenario(z=2, t=1000.0, phi0=0.002, series=(0.002, 0.003), rho=1.0,
                          unit_repair_cost=1.0)
        internal = internal_rate_series(s.failure, s.grid)
        k = 0.5 * 1.0 * 0.001 * 1000.0  # rho/2 * c_r * delta_2 * t_2
        s = replace(s, cost=replace(s.cost, avg_maintenance_cost=k / ratio if ratio else 1e300))
        assert optimal_pm_count(s, internal).m_count == m_star
