from dataclasses import replace

import numpy as np
import pytest

from fscontract import (
    CostBreakdown,
    contract_costs,
    internal_rate_series,
    maintenance_cost,
    os_cost_moments,
)
from fscontract.failure import FailureCounts

from conftest import make_scenario


class TestCostBreakdown:
    def test_total_is_exact_sum(self):
        b = CostBreakdown(repair=1.25, maintenance=0.5, delay=0.125, training=2.0)
        assert b.total == 1.25 + 0.5 + 0.125 + 2.0

    def test_scaled(self):
        b = CostBreakdown(100.0, 10.0, 4.0, 6.0).scaled(0.5)
        assert (b.repair, b.maintenance, b.delay, b.training) == (50.0, 5.0, 2.0, 3.0)


class TestExpectedRepairCost:
    def test_zero_unit_cost(self):
        s = make_scenario(z=3, unit_repair_cost=0.0)
        internal = internal_rate_series(s.failure, s.grid)
        assert FailureCounts(s, internal).repair_bill(5) == 0.0

    def test_single_period(self):
        s = make_scenario(z=1, t=1440.0, phi0=0.003, unit_repair_cost=1.0)
        internal = internal_rate_series(s.failure, s.grid)
        assert FailureCounts(s, internal).repair_bill(2) == pytest.approx(4.32)

    def test_linear_in_unit_costs(self, baseline, baseline_rates):
        internal, _ = baseline_rates
        doubled = replace(baseline, cost=replace(baseline.cost, unit_repair_cost=2000.0))
        assert FailureCounts(doubled, internal).repair_bill(3) == pytest.approx(
            2.0 * FailureCounts(baseline, internal).repair_bill(3), rel=1e-15)

    def test_per_period_costs(self):
        s = make_scenario(z=2, t=1000.0, phi0=0.002)
        s = replace(s, cost=replace(s.cost, unit_repair_cost=(100.0, 300.0)))
        internal = internal_rate_series(s.failure, s.grid)
        # flat series: both periods expect 2 failures
        assert FailureCounts(s, internal).repair_bill(1) == pytest.approx(2 * 100 + 2 * 300)

    def test_decreases_with_more_maintenance_under_aging(self, baseline, baseline_rates):
        internal, _ = baseline_rates
        costs = [FailureCounts(baseline, internal).repair_bill(m) for m in (1, 3, 10)]
        assert costs[0] > costs[1] > costs[2]

    def test_optimal_plan_beats_seasonal_plan_net_of_maintenance(self, baseline,
                                                                 baseline_rates):
        # the optimum wins once the extra maintenance bill is accounted for
        from fscontract import optimal_pm_count

        internal, _ = baseline_rates
        m_star = optimal_pm_count(baseline, internal).m_count
        m0 = baseline.cost.m0_os
        c_bar = baseline.cost.avg_maintenance_cost
        counts = FailureCounts(baseline, internal)
        at_star = counts.repair_bill(m_star) + maintenance_cost(m_star, c_bar)
        at_m0 = counts.repair_bill(m0) + maintenance_cost(m0, c_bar)
        assert at_star <= at_m0


class TestMaintenanceCost:
    def test_single_action_free(self):
        assert maintenance_cost(1, 300.0) == 0.0

    def test_three_actions(self):
        assert maintenance_cost(3, 300.0) == 600.0

    def test_seasonal_plan(self):
        assert maintenance_cost(10, 300.0) == 2700.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            maintenance_cost(0, 300.0)


class TestExpectedDelayCost:
    def test_zero_probability(self, baseline, baseline_rates):
        internal, _ = baseline_rates
        s = replace(baseline, cost=replace(baseline.cost, delay_probability=0.0))
        assert contract_costs(3, s, internal).delay == 0.0

    def test_certain_delay_single_period(self):
        s = make_scenario(z=1, t=1000.0, phi0=0.002, p_d=1.0, unit_delay_cost=10000.0)
        internal = internal_rate_series(s.failure, s.grid)
        assert contract_costs(1, s, internal).delay == pytest.approx(20000.0)

    def test_minor_component_on_baseline(self, baseline, baseline_rates):
        from fscontract import optimal_price

        sol = optimal_price(baseline, "full")
        assert sol.breakdown.delay < 0.10 * sol.breakdown.total


class TestOsCostMoments:
    def test_degenerate_zero_cost(self):
        s = make_scenario(z=3, unit_repair_cost=0.0, repair_cost_sd=0.0)
        internal = internal_rate_series(s.failure, s.grid)
        osm = os_cost_moments(s, internal)
        assert osm.repair_mean == 0.0
        assert osm.variance == 0.0

    def test_overflowing_variance_is_inf(self, baseline, baseline_rates):
        internal, _ = baseline_rates
        wide = replace(baseline, cost=replace(baseline.cost, repair_cost_sd=1e308))
        with np.errstate(over="ignore"):
            assert os_cost_moments(wide, internal).variance == np.inf

    def test_hand_example(self):
        # one period, E[N]=4, unit cost 2, no dispersion: mean 8, variance 16
        s = make_scenario(z=1, t=1000.0, phi0=0.004, unit_repair_cost=2.0,
                          repair_cost_sd=0.0, m0_os=1, c_m=300.0)
        internal = internal_rate_series(s.failure, s.grid)
        osm = os_cost_moments(s, internal)
        assert osm.repair_mean == pytest.approx(8.0)
        assert osm.maintenance == 0.0
        assert osm.variance == pytest.approx(16.0)
        assert osm.mean == osm.repair_mean + osm.maintenance

    def test_variance_monotone_in_dispersion(self, baseline, baseline_rates):
        internal, _ = baseline_rates
        variances = []
        for sd in (0.0, 1000.0, 21000.0, 50000.0):
            s = replace(baseline, cost=replace(baseline.cost, repair_cost_sd=sd))
            variances.append(os_cost_moments(s, internal).variance)
        assert all(a < b for a, b in zip(variances, variances[1:]))

    def test_variance_monotone_in_rates(self, baseline):
        from fscontract import scaled_to_mean

        series = internal_rate_series(baseline.failure, baseline.grid)
        lo = scaled_to_mean(baseline, 0.002, series)
        hi = scaled_to_mean(baseline, 0.004, series)
        v_lo = os_cost_moments(lo, internal_rate_series(lo.failure, lo.grid)).variance
        v_hi = os_cost_moments(hi, internal_rate_series(hi.failure, hi.grid)).variance
        assert v_lo < v_hi

    def test_monte_carlo_oracle(self, baseline, baseline_rates):
        """Compound-count simulation agrees with the analytic variance.

        Counts are Poisson per period; conditional on a count, the summed
        repair bill is normal with mean n*c and variance n*sigma^2.
        """
        from fscontract import expected_failures

        internal, _ = baseline_rates
        osm = os_cost_moments(baseline, internal)
        lam = expected_failures(baseline.cost.m0_os, baseline, internal)
        unit = np.asarray(baseline.cost.repair_costs(baseline.grid.z_periods))
        sd = baseline.cost.repair_cost_sd
        rng = np.random.default_rng(1234)
        draws = 30000
        counts = rng.poisson(lam, size=(draws, lam.size))
        noise = rng.standard_normal(size=(draws, lam.size))
        totals = (counts * unit + sd * np.sqrt(counts) * noise).sum(axis=1)
        assert np.var(totals, ddof=1) == pytest.approx(osm.variance, rel=0.05)
