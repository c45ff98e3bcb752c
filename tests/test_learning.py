from dataclasses import replace

import numpy as np
import pytest

from fscontract import (
    InfeasibleTrainingError,
    LearningParams,
    contract_costs,
    fs_cost_lf_derivative,
    internal_rate_series,
    learning_effect,
    lf_problem,
    maintenance_cost,
    reduced_terms,
    simulate_external_rates,
    total_fs_cost,
)
from fscontract.failure import FailureCounts

from conftest import make_scenario


def rates(s):
    return internal_rate_series(s.failure, s.grid), simulate_external_rates(s)


class TestTotalRepairTime:
    """The cumulative repair time t_r is the aggregate Q of the lf problem."""

    def test_zero_rates(self):
        s = make_scenario(z=4, phi0=1e-6, series=(0.0,) * 4)
        assert lf_problem(1, s, *rates(s)).terms.q == 0.0

    def test_single_period(self):
        s = make_scenario(z=1, t=1440.0, phi0=0.003)
        assert lf_problem(1, s, *rates(s)).terms.q == pytest.approx(4.32)

    def test_matches_running_total(self, baseline, baseline_rates):
        internal, _ = baseline_rates
        total = 0.0
        for phi, t in zip(internal.values, baseline.grid.t_j.values):
            total += phi * t
        assert lf_problem(3, baseline, *baseline_rates).terms.q == pytest.approx(total,
                                                                                  rel=1e-12)

    def test_repair_hours_scaling(self, baseline, baseline_rates):
        twice = replace(baseline, learning=replace(baseline.learning, repair_hours=2.0))
        assert lf_problem(3, twice, *baseline_rates).terms.q == pytest.approx(
            2.0 * lf_problem(3, baseline, *baseline_rates).terms.q)

    def test_is_the_repair_time_of_the_state(self, baseline, baseline_rates):
        problem = lf_problem(3, baseline, *baseline_rates)
        assert problem.state(0.005).t_repair == problem.terms.q


class TestTrainingTime:
    def test_linear_in_lf(self, baseline, baseline_rates):
        problem = lf_problem(3, baseline, *baseline_rates)
        one = problem.state(0.005).t_training
        two = problem.state(0.010).t_training
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_vanishes_as_lf_goes_to_zero(self, baseline, baseline_rates):
        # t_l of the time budget: no lf this small is feasible, so the state raises
        assert lf_problem(3, baseline, *baseline_rates)._budget(1e-12)[0] < 1e-6

    def test_matches_reduced_form(self, baseline, baseline_rates):
        internal, external = baseline_rates
        terms = reduced_terms(3, baseline, internal, external)
        direct = lf_problem(3, baseline, internal, external).state(0.005).t_training
        assert direct == pytest.approx(terms.net * 0.005, rel=1e-9)

    def test_infeasible_surplus(self):
        # internal repairs alone exceed the working hours
        s = make_scenario(z=2, t=10.0, phi0=0.2, series=(1.5, 1.5))
        problem = lf_problem(1, s, *rates(s))
        with pytest.raises(InfeasibleTrainingError):
            problem.state(0.01)

    def test_rejects_lf_outside_unit_interval(self, baseline, baseline_rates):
        problem = lf_problem(3, baseline, *baseline_rates)
        with pytest.raises(ValueError):
            problem.state(0.0)
        with pytest.raises(ValueError):
            problem.state(1.0)


class TestForgettingTime:
    def test_zero_interruptions(self):
        # t_f of the time budget: with no repairs t_r = 0, so the state raises
        s = make_scenario(z=2, t=1000.0, phi0=1e-9, series=(0.0, 0.0), ext_mean=0.0)
        s = replace(s, learning=replace(s.learning, maintenance_hours=0.0))
        internal, external = rates(s)
        assert lf_problem(1, s, internal, external)._budget(0.01)[1] == 0.0
        simple = replace(s, learning=replace(s.learning, forgetting_model="simple"))
        assert lf_problem(1, simple, internal, external)._budget(0.01)[1] == 0.0

    def test_revised_vanishes_with_lf(self):
        s = make_scenario(z=2, t=1000.0, phi0=0.003, ext_mean=0.0)
        # t_f of the time budget: no lf this small is feasible, so the state raises
        tiny = lf_problem(1, s, *rates(s))._budget(1e-9)[1]
        assert tiny < 1e-3

    def test_revised_single_period_value(self):
        # 2 * (0.003/2)^0.95 * (1440 * 0.005)^0.9, external part zero
        s = make_scenario(z=1, t=1440.0, phi0=0.003, ext_mean=0.0)
        value = lf_problem(1, s, *rates(s)).state(0.005).t_forgetting
        assert value == pytest.approx(0.0245423383156980, rel=1e-12)

    def test_simple_counts_all_interruptions(self, baseline, baseline_rates):
        internal, external = baseline_rates
        simple = replace(baseline, learning=replace(baseline.learning,
                                                    forgetting_model="simple"))
        terms = reduced_terms(3, simple, internal, external)
        value = lf_problem(3, simple, internal, external).state(0.005).t_forgetting
        assert value == pytest.approx(terms.s + terms.q + terms.u, rel=1e-12)


    @pytest.mark.parametrize("model", ["simple", "revised"])
    def test_rejects_lf_outside_unit_interval(self, baseline, baseline_rates, model):
        # revised forgetting divided by zero at 0 and took a complex power
        # below it; simple forgetting returned S + Q + U for any lf
        s = replace(baseline, learning=replace(baseline.learning, forgetting_model=model))
        problem = lf_problem(3, s, *baseline_rates)
        for lf in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="lf must lie in"):
                problem.state(lf)


class TestLearningEffect:
    def test_no_learning_without_exponents(self):
        lp = LearningParams(alpha_auto=0.0, alpha_indu=0.0, epsilon=0.05, lf=0.005,
                            unit_training_cost=50.0)
        assert learning_effect(123.0, 45.0, lp) == 1.0

    def test_hand_value(self):
        # 100^-0.1 * 50^-0.1 = 5000^-0.1
        lp = LearningParams(alpha_auto=0.1, alpha_indu=0.1, epsilon=0.05, lf=0.005,
                            unit_training_cost=50.0)
        assert learning_effect(100.0, 50.0, lp) == pytest.approx(0.426680700644648, rel=1e-12)

    def test_monotone_in_effective_training(self):
        lp = LearningParams(alpha_auto=0.1, alpha_indu=0.1, epsilon=0.05, lf=0.005,
                            unit_training_cost=50.0)
        values = [learning_effect(100.0, t_eff, lp) for t_eff in (10.0, 50.0, 250.0)]
        assert values[0] > values[1] > values[2]

    def test_below_one_for_long_times(self, baseline, baseline_rates):
        state = lf_problem(3, baseline, *baseline_rates).state(0.005)
        assert state.effective_training > 1.0
        assert state.t_repair > 1.0
        assert 0.0 < state.a_factor < 1.0

    def test_rejects_exhausted_training(self):
        lp = LearningParams(alpha_auto=0.1, alpha_indu=0.1, epsilon=0.05, lf=0.005,
                            unit_training_cost=50.0)
        with pytest.raises(InfeasibleTrainingError):
            learning_effect(100.0, 0.0, lp)
        with pytest.raises(InfeasibleTrainingError):
            learning_effect(0.0, 50.0, lp)


class TestTrainingCost:
    def test_free_training(self, baseline, baseline_rates):
        s = replace(baseline, learning=replace(baseline.learning, unit_training_cost=0.0))
        assert lf_problem(3, s, *baseline_rates).state(0.005).training_cost == 0.0

    def test_linear_in_lf(self, baseline, baseline_rates):
        problem = lf_problem(3, baseline, *baseline_rates)
        one = problem.state(0.004).training_cost
        two = problem.state(0.008).training_cost
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_is_rate_times_hours(self, baseline, baseline_rates):
        problem = lf_problem(3, baseline, *baseline_rates)
        hours = problem.state(0.005).t_training
        assert problem.state(0.005).training_cost == pytest.approx(50.0 * hours, rel=1e-12)


class TestTotalFsCost:
    def test_all_extensions_off(self, baseline, baseline_rates):
        # zero exponents, free training, no delays: the plain benchmark cost
        # (the smallest feasible lf values sit just above the forgetting edge)
        internal, external = baseline_rates
        s = replace(baseline,
                    cost=replace(baseline.cost, delay_probability=0.0),
                    learning=replace(baseline.learning, alpha_auto=0.0, alpha_indu=0.0,
                                     unit_training_cost=0.0))
        breakdown = total_fs_cost(1e-3, 3, s, internal, external)
        plain = FailureCounts(s, internal).repair_bill(3) + maintenance_cost(3, 300.0)
        assert breakdown.total == pytest.approx(plain, rel=1e-9)
        assert lf_problem(3, s, internal, external).state(1e-3).a_factor == 1.0

    def test_learning_lowers_repair_component(self, baseline, baseline_rates):
        internal, external = baseline_rates
        breakdown = total_fs_cost(0.005, 3, baseline, internal, external)
        assert breakdown.repair < FailureCounts(baseline, internal).repair_bill(3)

    def test_total_is_component_sum(self, baseline, baseline_rates):
        internal, external = baseline_rates
        b = total_fs_cost(0.005, 3, baseline, internal, external)
        assert b.total == b.repair + b.maintenance + b.delay + b.training
        assert min(b.repair, b.maintenance, b.delay, b.training) >= 0.0

    def test_unimodal_in_lf(self, baseline, baseline_rates):
        internal, external = baseline_rates
        grid = np.geomspace(0.001, 0.5, 120)
        costs = [total_fs_cost(lf, 3, baseline, internal, external).total for lf in grid]
        rising = np.diff(costs) > 0
        first_rise = int(np.argmax(rising))
        assert 0 < first_rise < len(rising) - 1
        assert rising[first_rise:].all()

    def test_reduction_identity(self, baseline, baseline_rates):
        """Training minus forgetting equals its closed form in the aggregates."""
        internal, external = baseline_rates
        eps = baseline.learning.epsilon
        terms = reduced_terms(3, baseline, internal, external)
        problem = lf_problem(3, baseline, internal, external)
        for lf in (0.002, 0.005, 0.05, 0.3):
            state = problem.state(lf)
            direct = state.t_training - state.t_forgetting
            reduced = terms.net * lf - terms.s - terms.v * lf ** (1 - 2 * eps)
            assert direct == pytest.approx(reduced, rel=1e-9)

    def test_continuity_near_baseline_optimum(self, baseline, baseline_rates):
        internal, external = baseline_rates
        costs = [total_fs_cost(lf, 3, baseline, internal, external).total
                 for lf in (0.0049, 0.0050, 0.0051)]
        spread = max(costs) - min(costs)
        assert spread < 0.01 * min(costs)


class TestDerivative:
    def central_difference(self, s, internal, external, lf):
        h = 1e-6 * lf
        up = total_fs_cost(lf + h, 3, s, internal, external).total
        down = total_fs_cost(lf - h, 3, s, internal, external).total
        return (up - down) / (2 * h)

    def test_matches_finite_differences(self, baseline, baseline_rates):
        internal, external = baseline_rates
        for lf in np.geomspace(0.0012, 0.5, 25):
            analytic = fs_cost_lf_derivative(lf, 3, baseline, internal, external)
            numeric = self.central_difference(baseline, internal, external, lf)
            assert analytic == pytest.approx(numeric, rel=1e-4), lf

    def test_simple_model_matches_too(self, baseline, baseline_rates):
        internal, external = baseline_rates
        simple = replace(baseline, learning=replace(baseline.learning,
                                                    forgetting_model="simple"))
        for lf in (0.01, 0.05, 0.2):
            analytic = fs_cost_lf_derivative(lf, 3, simple, internal, external)
            numeric = self.central_difference(simple, internal, external, lf)
            assert analytic == pytest.approx(numeric, rel=1e-4)

    def test_sign_change_brackets_optimum(self, baseline, baseline_rates):
        internal, external = baseline_rates
        assert fs_cost_lf_derivative(0.002, 3, baseline, internal, external) < 0
        assert fs_cost_lf_derivative(0.02, 3, baseline, internal, external) > 0


class TestLfProblem:
    def test_cost_is_closed_form_in_the_aggregates(self, baseline, baseline_rates):
        internal, external = baseline_rates
        lp = baseline.learning
        problem = lf_problem(3, baseline, internal, external)
        terms = reduced_terms(3, baseline, internal, external)
        t_r = float(np.dot(internal.as_array(), baseline.grid.t_j.as_array()))
        repair = FailureCounts(baseline, internal).repair_bill(3)
        fixed = maintenance_cost(3, 300.0) + contract_costs(3, baseline, internal).delay
        for lf in (0.002, 0.005, 0.05, 0.3):
            t_eff = terms.net * lf - terms.s - terms.v * lf ** (1 - 2 * lp.epsilon)
            closed = (repair * t_r ** -lp.alpha_auto * t_eff ** -lp.alpha_indu + fixed
                      + lp.unit_training_cost * terms.net * lf)
            assert problem.cost(lf) == pytest.approx(closed, rel=1e-12)

    def test_methods_agree_with_the_wrappers(self, baseline, baseline_rates):
        internal, external = baseline_rates
        problem = lf_problem(3, baseline, internal, external)
        lf = 0.005
        assert problem.cost(lf) == total_fs_cost(lf, 3, baseline, internal, external).total
        assert problem.evaluate(lf).total == problem.cost(lf)
        assert problem.state(lf) == lf_problem(3, baseline, internal, external).state(lf)
        assert problem.derivative(lf) == fs_cost_lf_derivative(lf, 3, baseline, internal,
                                                                external)

    def test_feasible_edge_is_the_root_of_effective_training(self, baseline, baseline_rates):
        internal, external = baseline_rates
        problem = lf_problem(3, baseline, internal, external)
        lo, hi = problem.feasible_range()
        assert problem.state(lo).effective_training > 0.0
        below = lo * (1 - 1e-9)
        with pytest.raises(InfeasibleTrainingError, match="exhausted"):
            problem.state(below)  # t_r > 0: it raises where t_l - t_f <= 0
        assert hi < 1.0

    @pytest.mark.parametrize("lf", [5e-324, 1e-300])
    def test_lf_whose_square_underflows_is_infeasible(self, baseline, baseline_rates, lf):
        # the revised model's E'' divided by lf^2, which is 0 here
        problem = lf_problem(3, baseline, *baseline_rates)
        assert problem._budget(lf)[1] == pytest.approx(problem.terms.s)  # t_f
        with pytest.raises(InfeasibleTrainingError, match="exhausted"):
            problem.state(lf)

    def test_short_period_makes_every_lf_infeasible(self):
        s = make_scenario(z=2, t=10.0, phi0=0.2, series=(1.5, 1.5))
        internal, external = rates(s)
        problem = lf_problem(1, s, internal, external)
        assert problem.short_period == 1
        with pytest.raises(InfeasibleTrainingError, match="period 1"):
            problem.cost(0.01)
