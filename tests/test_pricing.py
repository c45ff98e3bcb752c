from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fscontract import (
    INTERNAL_RATE_TABLE_PATH,
    ConvergenceError,
    CostBreakdown,
    CostSide,
    InfeasiblePriceError,
    InfeasibleTrainingError,
    KpiRecord,
    LearningParams,
    LearningState,
    LfProblem,
    LfSolution,
    MaintenancePlan,
    MarketParams,
    OsCostMoments,
    PricingSolution,
    ReducedTerms,
    Violation,
    fs_cost_lf_derivative,
    default_scenario,
    expected_failures,
    internal_rate_series,
    lf_problem,
    load_internal_table,
    optimal_pm_count,
    optimal_price,
    optimize_lf,
    price_bounds,
    simulate_external_rates,
    total_fs_cost,
)
from fscontract.failure import rate_increments
from fscontract.pricing import VARIANTS, market_side

from conftest import (
    count_calls,
    disutility,
    generated_scenarios,
    golden_section,
    market_side_oracle,
)


def market(beta=0.5, alpha_max=1e-3, d=50, ceiling=1e9):
    return MarketParams(beta=beta, alpha_max=alpha_max, d_customers=d, price_ceiling=ceiling)


@pytest.fixture(scope="module")
def generated_problems():
    """The lf problem of every generated base of seeds 1-5, at 1x, 10x and
    100x its hourly training cost."""
    problems = []
    for s in generated_scenarios(range(1, 6)):
        problem = CostSide(s).problem
        for factor in (1.0, 10.0, 100.0):
            learning = replace(s.learning,
                               unit_training_cost=factor * s.learning.unit_training_cost)
            problems.append(LfProblem(problem.terms, problem.base, learning,
                                      problem.short_period))
    return problems


def assert_matches_golden_section(problem: LfProblem) -> None:
    """lf* and its cost against golden section on the same interval."""
    sol = problem.solve()
    lo_edge, hi = sol.feasible_range
    lf, cost, _ = golden_section(problem.cost, lo_edge * (1.0 + 1e-9) + 1e-15, hi, tol=1e-6)
    assert abs(sol.lf_star - lf) <= 1e-6
    assert sol.cost_at_star <= cost * (1.0 + 1e-12)
    assert sol.cost_at_star == problem.cost(sol.lf_star)
    assert 0.0 <= sol.residual <= 1e-8


class TestGoldenSection:
    def test_matches_calculus_on_power_objective(self):
        # min c1 x^-a + c2 x  =>  x* = (a c1 / c2)^(1/(1+a))
        c1, c2, a = 500.0, 20000.0, 0.1
        x, fx, iters = golden_section(lambda x: c1 * x ** -a + c2 * x, 1e-4, 0.5, tol=1e-6)
        assert x == pytest.approx(0.0043101354350429, abs=2e-6)
        assert iters <= 200

    def test_quadratic(self):
        x, fx, _ = golden_section(lambda x: (x - 2.0) ** 2, 0.0, 10.0, tol=1e-8)
        assert x == pytest.approx(2.0, abs=1e-7)


class TestOptimizeLf:
    def test_baseline_inside_documented_interval(self, baseline, baseline_rates):
        internal, external = baseline_rates
        sol = optimize_lf(3, baseline, internal, external)
        assert 0.0031 <= sol.lf_star <= 0.0250
        lo, hi = sol.feasible_range
        assert lo < sol.lf_star < hi
        assert sol.vertex_hint > 0

    def test_matches_grid_search(self, baseline, baseline_rates):
        internal, external = baseline_rates
        sol = optimize_lf(3, baseline, internal, external)
        lo, hi = sol.feasible_range
        grid = np.arange(lo + 1e-4, 1.0, 1e-4)
        costs = [total_fs_cost(lf, 3, baseline, internal, external).total for lf in grid]
        best = int(np.argmin(costs))
        assert abs(sol.lf_star - grid[best]) <= 1e-4 + 1e-9
        assert sol.cost_at_star <= costs[best] * (1 + 1e-6)

    def test_cost_at_star_below_bracket_ends(self, baseline, baseline_rates):
        internal, external = baseline_rates
        sol = optimize_lf(3, baseline, internal, external)
        lo, hi = sol.feasible_range
        for probe in (lo * 1.2, 0.9):
            cost = total_fs_cost(probe, 3, baseline, internal, external).total
            assert sol.cost_at_star <= cost

    def test_pure_cost_training_pushes_to_lower_edge(self, baseline, baseline_rates):
        # without induced learning, training only costs money
        internal, external = baseline_rates
        s = replace(baseline, learning=replace(baseline.learning, alpha_indu=0.0))
        sol = optimize_lf(3, s, internal, external)
        lo, _ = sol.feasible_range
        grid_low = lo + 1e-4
        cost_low = total_fs_cost(grid_low, 3, s, internal, external).total
        assert sol.lf_star <= grid_low + 1e-4
        assert sol.cost_at_star <= cost_low * (1 + 1e-6)

    def test_iteration_budget(self, baseline, baseline_rates, generated_problems):
        internal, external = baseline_rates
        assert optimize_lf(3, baseline, internal, external).iterations <= 40
        assert max(problem.solve().iterations for problem in generated_problems) <= 40

    def test_reports_a_small_residual(self, baseline, baseline_rates):
        internal, external = baseline_rates
        sol = optimize_lf(3, baseline, internal, external)
        assert 0.0 <= sol.residual <= 1e-12
        slope = fs_cost_lf_derivative(sol.lf_star, 3, baseline, internal, external)
        assert sol.residual == pytest.approx(abs(slope) * sol.lf_star / sol.cost_at_star,
                                             rel=1e-6, abs=1e-15)

    def test_simple_forgetting_is_closed_form(self, baseline, baseline_rates):
        internal, external = baseline_rates
        s = replace(baseline, learning=replace(baseline.learning, forgetting_model="simple"))
        problem = lf_problem(3, s, internal, external)
        sol = optimize_lf(3, s, internal, external, problem=problem)
        lp, terms = s.learning, problem.terms
        a = lp.alpha_indu
        scale = problem.base.repair * terms.q ** -lp.alpha_auto
        want = (terms.s + terms.q + terms.u
                + (a * scale / lp.unit_training_cost) ** (1 / (a + 1))) / terms.net
        assert sol.iterations == 0
        assert sol.lf_star == pytest.approx(want, rel=1e-14)

    def test_given_problem_is_not_rebuilt(self, monkeypatch, baseline, baseline_rates):
        internal, external = baseline_rates
        problem = lf_problem(3, baseline, internal, external)
        calls = count_calls(monkeypatch, lf_problem)
        assert optimize_lf(3, baseline, internal, external, problem=problem) \
            == optimize_lf(3, baseline, internal, external)
        assert len(calls["lf_problem"]) == 1

    def test_non_finite_derivative_raises(self, baseline, baseline_rates):
        internal, external = baseline_rates
        problem = lf_problem(3, baseline, internal, external)
        for bad in (float("nan"), float("inf")):
            broken = LfProblem(problem.terms, problem.base._replace(repair=bad),
                               problem.learning, problem.short_period)
            with pytest.raises(ConvergenceError):
                broken.solve()

    def test_optimum_far_above_the_turning_point_hint(self):
        # simple forgetting on table column 1: the hint v/(2 net) is 2.3e-4,
        # below the feasible edge 1.88e-3, and the optimum is near 6.0e-3; a
        # search window around the hint once returned the edge (315 216 $)
        s = default_scenario()
        s = replace(
            s,
            failure=replace(s.failure,
                            internal_series_override=load_internal_table(
                                INTERNAL_RATE_TABLE_PATH, 1),
                            rho=0.5691984275048765, ext_mean=0.0006839082764524418,
                            ext_sd=0.0002477807639667956),
            cost=replace(s.cost, unit_repair_cost=1239.5806735731464,
                         repair_cost_sd=27967.014220172456,
                         avg_maintenance_cost=282.83293360531854,
                         delay_probability=0.005357244299815073),
            learning=replace(s.learning, alpha_auto=0.13004777937789985,
                             alpha_indu=0.06168793763204281, epsilon=0.07317722397877556,
                             unit_training_cost=41.83880618527539, forgetting_model="simple"),
            rng_seed=3123626410,
        )
        internal = internal_rate_series(s.failure, s.grid)
        external = simulate_external_rates(s)
        m = optimal_pm_count(s, internal).m_count
        assert m == 1
        sol = optimize_lf(m, s, internal, external)
        lo, _ = sol.feasible_range
        assert sol.vertex_hint < lo
        grid = np.arange(lo + 1e-5, 0.05, 1e-5)
        costs = [total_fs_cost(lf, m, s, internal, external).total for lf in grid]
        best = int(np.argmin(costs))
        assert grid[best] == pytest.approx(0.006045, abs=2e-5)
        assert abs(sol.lf_star - grid[best]) <= 1e-4
        assert sol.cost_at_star == pytest.approx(95501.08, rel=1e-5)


class TestLfSolverOracle:
    """Closed form and Newton against golden section, which needs no derivative."""

    def test_generated_bases(self, generated_problems):
        assert len(generated_problems) == 420
        assert {p.learning.forgetting_model for p in generated_problems} == {"simple", "revised"}
        for problem in generated_problems:
            assert_matches_golden_section(problem)

    @settings(max_examples=300, deadline=None)
    @given(r=st.floats(1e3, 1e5), q=st.floats(1e-4, 0.05), s=st.floats(0.0, 0.005),
           u=st.floats(0.0, 0.02), v=st.floats(0.0, 3.0),
           repair=st.floats(1e3, 1e7), fixed=st.floats(0.0, 1e5),
           alpha_auto=st.floats(0.0, 0.3),
           alpha_indu=st.one_of(st.just(0.0), st.floats(0.01, 0.5)),
           epsilon=st.floats(0.01, 0.49),
           unit_training_cost=st.one_of(st.just(0.0), st.floats(1.0, 1e3)),
           model=st.sampled_from(("simple", "revised")))
    def test_drawn_problems(self, r, q, s, u, v, repair, fixed, alpha_auto,
                            alpha_indu, epsilon, unit_training_cost, model):
        # q, s and u are shares of R, v a multiple of Q
        terms = ReducedTerms(q=q * r, r=r, s=s * r, u=u * r, v=v * q * r)
        problem = LfProblem(
            terms=terms,
            base=CostBreakdown(repair, fixed, fixed / 2.0, 0.0),
            learning=LearningParams(alpha_auto=alpha_auto, alpha_indu=alpha_indu,
                                    epsilon=epsilon, lf=0.005,
                                    unit_training_cost=unit_training_cost,
                                    forgetting_model=model),
        )
        try:
            problem.feasible_range()
        except InfeasibleTrainingError:
            return
        assert_matches_golden_section(problem)

    @pytest.mark.parametrize("model", ["simple", "revised"])
    def test_edges(self, baseline, baseline_rates, model):
        # a = 0 makes training pure cost (lower edge); l = 0 makes it free (upper edge)
        internal, external = baseline_rates
        problem = lf_problem(3, baseline, internal, external)
        for change, edge in (({"alpha_indu": 0.0}, 0), ({"unit_training_cost": 0.0}, 1)):
            learning = replace(problem.learning, forgetting_model=model, **change)
            edged = LfProblem(problem.terms, problem.base, learning, problem.short_period)
            sol = edged.solve()
            lo_edge, hi = sol.feasible_range
            assert sol.lf_star == (lo_edge * (1.0 + 1e-9) + 1e-15, hi)[edge]
            assert sol.residual == 0.0
            assert_matches_golden_section(edged)

    def test_newton_safeguards(self):
        # a revised-forgetting problem whose Newton start lies outside the
        # bracket, so the search starts at its midpoint, and whose Newton
        # steps leave it, so the search bisects; lf* sits a relative 1e-9
        # above the feasible edge
        terms = ReducedTerms(q=0.5697330592702717, r=93435.08668197475, s=0.11013461381696243,
                             u=0.13170027142272644, v=81826.76401881277)
        problem = LfProblem(
            terms=terms,
            base=CostBreakdown(68.95063681553226, 0.0, 0.0, 0.0),
            learning=LearningParams(alpha_auto=0.2524802475415053,
                                    alpha_indu=0.09203182240066791,
                                    epsilon=0.18442595761914224, lf=0.005,
                                    unit_training_cost=282625.1300454329),
        )
        sol = problem.solve()
        lo_edge, hi = sol.feasible_range
        assert lo_edge < sol.lf_star < hi
        assert sol.iterations > 0
        below = max(sol.lf_star * (1.0 - 1e-6), lo_edge * (1.0 + 1e-9) + 1e-15)
        assert problem.derivative(below) < 0.0 < problem.derivative(sol.lf_star * (1.0 + 1e-6))


class TestDisutility:
    def test_fs_is_price(self):
        osm = OsCostMoments(100.0, 0.0, 40.0)
        assert disutility("FS", 5e-4, 217.0, osm, beta=0.5) == 217.0

    def test_os_risk_neutral(self):
        osm = OsCostMoments(80.0, 20.0, 40.0)
        assert disutility("OS", 0.0, 0.0, osm, beta=0.5) == pytest.approx(150.0)

    def test_os_hand_value(self):
        osm = OsCostMoments(100.0, 0.0, 40.0)
        value = disutility("OS", 1e-3, 0.0, osm, beta=0.5)
        assert value == pytest.approx(150.045, rel=1e-12)

    def test_rejects_negative_aversion(self):
        with pytest.raises(ValueError):
            disutility("OS", -1.0, 0.0, OsCostMoments(1.0, 0.0, 1.0), beta=0.5)


#: No cost at all: the market share does not depend on the cost.
NO_COST = CostBreakdown(0.0, 0.0, 0.0, 0.0)


class TestMarketShare:
    def test_threshold_price_keeps_everyone(self):
        osm, mk = OsCostMoments(100.0, 0.0, 40.0), market()
        assert market_side(NO_COST, osm, mk, mk.beta, 150.0).fs_share == 1.0

    def test_uniform_midpoint(self):
        # tau = alpha_max/2 at price 172.5 for these moments
        osm, mk = OsCostMoments(100.0, 0.0, 40000.0), market()
        assert market_side(NO_COST, osm, mk, mk.beta, 172.5).fs_share == pytest.approx(0.5)

    def test_share_clipped_to_zero(self):
        osm, mk = OsCostMoments(100.0, 0.0, 40.0), market()
        assert market_side(NO_COST, osm, mk, mk.beta, 1e9).fs_share == 0.0

    def test_degenerate_variance_splits_sharply(self):
        osm, mk = OsCostMoments(100.0, 0.0, 0.0), market()
        assert market_side(NO_COST, osm, mk, mk.beta, 150.0).fs_share == 1.0
        assert market_side(NO_COST, osm, mk, mk.beta, 150.0001).fs_share == 0.0

    @settings(max_examples=60, deadline=None)
    @given(p1=st.floats(100.0, 400.0), p2=st.floats(100.0, 400.0),
           var=st.floats(1e3, 1e6))
    def test_nonincreasing_in_price(self, p1, p2, var):
        osm, mk = OsCostMoments(100.0, 10.0, var), market()
        lo, hi = sorted((p1, p2))
        assert (market_side(NO_COST, osm, mk, mk.beta, lo).fs_share
                >= market_side(NO_COST, osm, mk, mk.beta, hi).fs_share)

    def test_nondecreasing_in_variance_above_mean(self):
        mk = market()
        price = 200.0
        shares = [market_side(NO_COST, OsCostMoments(100.0, 10.0, v), mk, mk.beta,
                              price).fs_share
                  for v in (5e3, 5e4, 5e5)]
        assert all(a <= b for a, b in zip(shares, shares[1:]))


class TestExpectedProfit:
    def test_pure_fs_market(self):
        cost = CostBreakdown(100.0, 5.0, 3.0, 2.0)
        osm = OsCostMoments(200.0, 20.0, 1e5)
        mk = market(d=50)
        price = 250.0  # below (1+beta)*mean = 330 -> share 1
        sides = market_side(cost, osm, mk, mk.beta, price)
        assert sides.fs_share == 1.0
        assert sides.profit == pytest.approx(50 * (250.0 - 110.0))

    def test_pure_os_market(self):
        cost = CostBreakdown(100.0, 5.0, 3.0, 2.0)
        osm = OsCostMoments(200.0, 20.0, 1e2)
        mk = market(d=50)
        price = 1e6
        sides = market_side(cost, osm, mk, mk.beta, price)
        assert sides.fs_share == 0.0
        assert sides.profit == pytest.approx(50 * 0.5 * 220.0)

    def test_baseline_magnitude_from_rounded_kpis(self):
        # profit at full share is D * (price - cost); a 50-customer market
        # at rounded price 198 and cost 111 nets within 1% of 4323
        cost = CostBreakdown(111.0, 0.0, 0.0, 0.0)
        osm = OsCostMoments(150.0, 1.33, 1e5)
        mk = market(d=50)
        sides = market_side(cost, osm, mk, mk.beta, 198.0)
        assert sides.fs_share == 1.0
        assert sides.profit == pytest.approx(4323.0, rel=0.01)


class TestPriceBounds:
    def test_zero_markup_floor_is_cost(self):
        cost = CostBreakdown(100.0, 5.0, 3.0, 2.0)
        osm = OsCostMoments(200.0, 20.0, 1e5)
        lower, upper = price_bounds(cost, osm, market(beta=0.0))
        assert lower == pytest.approx(cost.total)

    def test_worthless_device(self):
        cost = CostBreakdown(100.0, 5.0, 3.0, 2.0)
        osm = OsCostMoments(200.0, 20.0, 1e5)
        mk = MarketParams(beta=0.5, alpha_max=1e-3, d_customers=50,
                          price_ceiling=None, tco=600.0, c_lease=400.0, c_ops=200.0)
        lower, upper = price_bounds(cost, osm, mk)
        assert upper == 0.0
        assert lower > upper


#: Kernel inputs (cost, OS moments, alpha_max, ceiling, customers, mark-ups)
#: that between them reach every branch of the market side.
KERNEL_EXAMPLES = [
    # zero variance, every customer at or below the threshold
    ((100.0, 10.0, 4.0, 6.0), (120.0, 20.0, 0.0), 1e-3, 1e9, 50, [0.0, 0.5, 2.0]),
    # zero variance, every customer above it
    ((200.0, 10.0, 4.0, 6.0), (120.0, 20.0, 0.0), 1e-3, 1e9, 50, [0.0, 0.5, 2.0]),
    # an interior price below the marked-up bill: tau <= 0
    ((100.0, 10.0, 4.0, 6.0), (120.0, 20.0, 1e2), 1e-3, 1e9, 50, [0.0, 0.5, 2.0]),
    # a maintenance bill that pushes the interior price below the floor
    ((100.0, 40.0, 4.0, 6.0), (120.0, 20.0, 1e2), 1e-3, 1e9, 50, [0.0, 0.5, 2.0]),
    # a risk premium above the ceiling, then a floor above it
    ((100.0, 10.0, 4.0, 6.0), (120.0, 20.0, 1e6), 5e-3, 400.0, 50, [0.0, 0.05, 0.5, 5.0]),
]


def _kernel_rows(cost, osm, mk, betas):
    """The kernel over an array of mark-ups, one tuple per mark-up, in the
    oracle's field order."""
    sides = market_side(cost, osm, mk, np.array(betas, dtype=float))
    upper = [float(sides.upper)] * len(betas)
    return list(zip(sides.interior.tolist(), sides.lower.tolist(), upper,
                    sides.price.tolist(), sides.fs_share.tolist(), sides.profit.tolist()))


def _kernel_case(cost, osm, alpha_max, ceiling, d, betas):
    """The kernel's inputs as values, and the rows of the kernel and of the
    oracle."""
    cost, osm = CostBreakdown(*cost), OsCostMoments(*osm)
    mk = market(alpha_max=alpha_max, d=d, ceiling=ceiling)
    return cost, osm, mk, _kernel_rows(cost, osm, mk, betas), [
        market_side_oracle(cost, osm, mk, b) for b in betas]


class TestMarketSideKernel:
    """One kernel over an array of mark-ups equals a loop of the formulas."""

    @settings(max_examples=150, deadline=None)
    @given(cost=st.tuples(*[st.floats(0.0, 500.0)] * 4),
           osm=st.tuples(st.floats(0.0, 500.0), st.floats(0.0, 100.0),
                         st.one_of(st.just(0.0), st.floats(1e-3, 1e7))),
           alpha_max=st.floats(1e-9, 1.0), ceiling=st.floats(1.0, 3000.0),
           d=st.integers(1, 500),
           betas=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=12))
    @example(*KERNEL_EXAMPLES[0])
    @example(*KERNEL_EXAMPLES[1])
    @example(*KERNEL_EXAMPLES[2])
    @example(*KERNEL_EXAMPLES[3])
    @example(*KERNEL_EXAMPLES[4])
    def test_array_equals_a_loop_of_the_oracle(self, cost, osm, alpha_max, ceiling, d, betas):
        *_, rows, want = _kernel_case(cost, osm, alpha_max, ceiling, d, betas)
        assert rows == want

    def test_examples_reach_every_branch(self):
        seen = set()
        for case in KERNEL_EXAMPLES:
            _, osm, _, rows, want = _kernel_case(*case)
            assert rows == want
            for beta, (interior, lower, upper, price, _, _) in zip(case[-1], rows):
                seen.add("infeasible" if lower > upper else "floor" if interior < lower
                         else "ceiling" if interior > upper else "interior")
                if osm.variance == 0.0:
                    seen.add("zero variance")
                elif price <= (1.0 + beta) * osm.mean:
                    seen.add("tau <= 0")
        assert seen == {"zero variance", "tau <= 0", "floor", "interior", "ceiling",
                        "infeasible"}

    def test_one_float_is_the_one_element_case(self):
        cost, osm, mk, rows, want = _kernel_case(*KERNEL_EXAMPLES[-1][:-1], [0.05])
        assert tuple(map(float, market_side(cost, osm, mk, 0.05))) == want[0] == rows[0]

    @pytest.mark.parametrize("case", KERNEL_EXAMPLES)
    def test_one_float_gives_python_floats(self, case):
        cost, osm, mk, rows, _ = _kernel_case(*case)
        for beta, row in zip(case[-1], rows):
            sides = market_side(cost, osm, mk, beta)
            assert all(type(x) is float for x in sides)
            assert tuple(sides) == row


class TestCostSideWork:
    """A cost side computes each Z-long array once."""

    def test_every_variant_on_one_cost_side(self, monkeypatch, baseline):
        calls = count_calls(monkeypatch, rate_increments, expected_failures,
                            simulate_external_rates)
        cost_side = CostSide(baseline)
        for variant in ("full", "auto", "bench"):
            cost_side.price(variant)
        cost_side.os_moments
        # M* = 3 and m0_os = 10: one count array each
        assert {name: len(c) for name, c in calls.items()} == {
            "rate_increments": 1, "expected_failures": 2, "simulate_external_rates": 1}

    def test_bench_draws_no_external_rates(self, monkeypatch, baseline):
        calls = count_calls(monkeypatch, rate_increments, expected_failures,
                            simulate_external_rates)
        sol = optimal_price(baseline, "bench")
        assert sol.m_count == baseline.cost.m0_os
        # the bench bills and the cost moments share the counts at m0_os
        assert {name: len(c) for name, c in calls.items()} == {
            "rate_increments": 1, "expected_failures": 1, "simulate_external_rates": 0}

    def test_counts_are_shared_by_the_bills(self, baseline):
        cost_side = CostSide(baseline)
        counts = cost_side.counts
        m_star, m0 = cost_side.plan.m_count, baseline.cost.m0_os
        assert cost_side.plan.objective_value == counts.repair_bill(m_star) + 300.0 * (m_star - 1)
        assert cost_side.problem.base.repair == counts.repair_bill(m_star)
        assert cost_side.os_moments.repair_mean == counts.repair_bill(m0) / 1000.0
        assert counts(m_star) is counts(m_star)
        other = cost_side.with_training_cost(80.0)
        assert other.counts is counts

    @pytest.mark.parametrize("model", ["simple", "revised"])
    def test_with_training_cost_solves_as_a_fresh_lf_problem(self, baseline, model):
        # the lf problem's constants that depend on the training cost are
        # computed again for the new cost, on the held feasible interval
        for base in [baseline] + generated_scenarios((2,))[::9]:
            s = replace(base, learning=replace(base.learning, forgetting_model=model))
            cost_side = CostSide(s)
            cost_side.lf_solution
            for c in (1.0, 80.0, 5000.0):
                s2 = replace(s, learning=replace(s.learning, unit_training_cost=c))
                other = cost_side.with_training_cost(c)
                assert other.scenario == s2
                held = other.problem.solve()
                fresh = lf_problem(cost_side.plan.m_count, s2, cost_side.internal,
                                   cost_side.external).solve()
                for name in LfSolution._fields:
                    assert getattr(held, name) == getattr(fresh, name), name


class TestOptimalPrice:
    def test_interior_hand_value(self):
        # no variance: 100 + 0.5*120 + 10/2 + (1+2*0.5)*20/2 + 4/2 + 6 = 193
        cost = CostBreakdown(repair=100.0, maintenance=10.0, delay=4.0, training=6.0)
        osm = OsCostMoments(repair_mean=120.0, maintenance=20.0, variance=0.0)
        assert market_side(cost, osm, market(beta=0.5), 0.5).interior == pytest.approx(193.0)

    def test_clamps_to_ceiling(self, baseline):
        crowded = replace(baseline, market=replace(baseline.market, beta=5.0))
        sol = optimal_price(crowded, "full")
        assert sol.interior_price > 900.0
        assert sol.price == 900.0

    def test_clamps_to_floor(self, baseline):
        # a tiny risk-aversion bound kills the risk premium, and with no
        # dispersion the posted price would undercut the competitive floor
        timid = replace(baseline,
                        cost=replace(baseline.cost, repair_cost_sd=0.0),
                        market=replace(baseline.market, alpha_max=1e-9))
        sol = optimal_price(timid, "full")
        assert sol.price == sol.lower_bound
        assert sol.interior_price < sol.lower_bound

    def test_no_admissible_price(self, baseline):
        broke = replace(baseline, market=replace(baseline.market, price_ceiling=10.0))
        with pytest.raises(InfeasiblePriceError):
            optimal_price(broke, "full")

    def test_sandwich_on_baseline_variants(self, baseline):
        cost_side = CostSide(baseline)
        for variant in VARIANTS:
            sol = cost_side.price(variant)
            assert sol.lower_bound <= sol.price <= sol.upper_bound

    def test_interior_matches_profit_argmax_benchmark_regime(self, baseline):
        """On benchmark inputs the pricing rule is the profit argmax."""
        sol = optimal_price(baseline, "bench")
        osm_k = _bench_osm(baseline)
        mk = baseline.market
        lo = (1 + mk.beta) * osm_k.mean
        width = mk.alpha_max * (1 + mk.beta) ** 2 * osm_k.variance / 2
        grid = np.arange(lo + 0.01, lo + width - 0.01, 0.01)
        profits = _profit_curve(grid, sol.breakdown, osm_k, mk)
        best = grid[int(np.argmax(profits))]
        assert abs(sol.interior_price - best) <= 0.01 + 1e-9


def _bench_osm(s):
    from fscontract import os_cost_moments
    from fscontract.scenario import DOLLARS_PER_REPORT_UNIT

    internal = internal_rate_series(s.failure, s.grid)
    return os_cost_moments(s, internal).scaled(1.0 / DOLLARS_PER_REPORT_UNIT)


def _profit_curve(prices, cost, osm, mk):
    """Independent piecewise profit: share from the threshold rule."""
    tau = 2.0 * (prices - (1 + mk.beta) * osm.mean) / ((1 + mk.beta) ** 2 * osm.variance)
    share = np.clip(1.0 - tau / mk.alpha_max, 0.0, 1.0)
    share = np.where(tau <= 0, 1.0, share)
    return mk.d_customers * ((prices - cost.total) * share + mk.beta * osm.mean * (1 - share))


class TestPriceVariants:
    def test_variants_coincide_without_learning(self, baseline):
        s = replace(baseline,
                    cost=replace(baseline.cost, m0_os=3),
                    learning=replace(baseline.learning, alpha_auto=0.0, alpha_indu=0.0,
                                     unit_training_cost=0.0))
        cost_side = CostSide(s)
        sols = {v: cost_side.price(v) for v in VARIANTS}
        # with both exponents and the training bill zeroed, and matching
        # maintenance plans, the three prices collapse (up to the training
        # hours carried at zero cost)
        assert sols["bench"].price == pytest.approx(sols["auto"].price, rel=1e-9)
        assert sols["auto"].price == pytest.approx(sols["full"].price, rel=1e-9)

    def test_baseline_ordering(self, baseline):
        cost_side = CostSide(baseline)
        sols = {v: cost_side.price(v) for v in VARIANTS}
        assert sols["full"].price < sols["auto"].price < sols["bench"].price

    def test_full_records_lf_star(self, baseline):
        cost_side = CostSide(baseline)
        sols = {v: cost_side.price(v) for v in VARIANTS}
        assert sols["full"].lf_star is not None
        assert sols["auto"].lf_star is None
        assert sols["bench"].m_count == baseline.cost.m0_os

    def test_share_at_indifference_counts_as_fs(self):
        osm = OsCostMoments(100.0, 0.0, 40.0)
        mk = market()
        threshold = (1 + mk.beta) * osm.mean
        assert market_side(NO_COST, osm, mk, mk.beta, threshold).fs_share == 1.0

    def test_costly_training_inverts_full_vs_auto(self, baseline):
        expensive = replace(baseline,
                            learning=replace(baseline.learning, unit_training_cost=5000.0))
        cost_side = CostSide(expensive)
        sols = {v: cost_side.price(v) for v in ("full", "auto")}
        assert sols["full"].price > sols["auto"].price


class TestResultRecords:
    """The result records are named tuples with fixed fields and reprs."""

    @pytest.mark.parametrize("cls, fields, defaults", [
        (CostBreakdown, ("repair", "maintenance", "delay", "training"), {}),
        (OsCostMoments, ("repair_mean", "maintenance", "variance"), {}),
        (LearningState, ("t_repair", "t_training", "t_forgetting", "effective_training",
                         "a_factor", "training_cost"), {}),
        (LfSolution, ("lf_star", "cost_at_star", "vertex_hint", "iterations",
                      "feasible_range", "residual"), {}),
        (MaintenancePlan, ("m_count", "objective_value"), {}),
        (PricingSolution, ("price", "lower_bound", "upper_bound", "interior_price", "fs_share",
                           "profit", "breakdown", "variant", "m_count", "lf_star"),
         {"lf_star": None}),
        (KpiRecord, ("variant", "swept_param", "swept_value", "price", "cost", "profit",
                     "fs_share"), {}),
        (Violation, ("key", "rule"), {}),
    ])
    def test_fields_defaults_and_repr(self, cls, fields, defaults):
        assert cls._fields == fields
        assert cls._field_defaults == defaults
        values = [0.5 * i for i in range(len(fields))]
        record = cls(*values)
        assert repr(record) == (f"{cls.__name__}("
                                + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")")
        assert record._replace(**{fields[0]: -1.0})[1:] == record[1:]
        with pytest.raises(AttributeError):
            setattr(record, fields[0], 1.0)

    def test_derived_values(self):
        breakdown = CostBreakdown(1.0, 2.0, 3.0, 4.0)
        assert breakdown.total == 10.0
        assert breakdown.scaled(0.5) == CostBreakdown(0.5, 1.0, 1.5, 2.0)
        osm = OsCostMoments(1.0, 2.0, 4.0)
        assert osm.mean == 3.0
        assert osm.scaled(0.5) == OsCostMoments(0.5, 1.0, 1.0)
        assert str(Violation("market.beta", "must be >= 0")) == "market.beta: must be >= 0"
        nan = float("nan")
        assert KpiRecord("full", None, nan, 1.0, 1.0, 1.0, nan).feasible
        flagged = KpiRecord("full", "lf", 0.5, nan, nan, nan, nan)
        assert not flagged.feasible
        with pytest.raises(AttributeError):
            flagged.feasible = True
