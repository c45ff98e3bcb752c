import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from fscontract import (
    CostSide,
    InfeasiblePriceError,
    KpiRecord,
    Scenario,
    ScenarioValidationError,
    SweepSpec,
    compare_models,
    emit_report,
    expected_failures,
    lf_problem,
    optimal_pm_count,
    optimal_price,
    optimize_lf,
    os_cost_moments,
    price_variants,
    read_kpi_csv,
    scaled_to_mean,
    simulate_external_rates,
    sweep,
    validate_scenario,
)

from fscontract import pricing as pricing_module
from fscontract import scenario as scenario_module
from fscontract.failure import rate_increments
from fscontract.pricing import market_side

from conftest import count_calls, generated_scenarios


@pytest.fixture(scope="module")
def comparison(baseline):
    return compare_models(baseline)


@pytest.fixture(scope="module")
def beta_sweep(baseline):
    spec = SweepSpec(param="beta", values=(0.5, 0.6, 0.7, 0.8, 0.9))
    return sweep(spec, baseline)


class TestSweepSpec:
    def test_rejects_unknown_param(self):
        with pytest.raises(ValueError):
            SweepSpec(param="gamma", values=(1.0,))

    def test_rejects_empty_values(self):
        with pytest.raises(ValueError):
            SweepSpec(param="beta", values=())

    def test_rejects_unsorted_values(self):
        with pytest.raises(ValueError):
            SweepSpec(param="beta", values=(0.6, 0.5))


class TestCompareModels:
    def test_three_rows(self, comparison):
        assert [r.variant for r in comparison] == ["full", "auto", "os"]

    def test_os_row(self, baseline, comparison):
        os_row = comparison[2]
        assert math.isnan(os_row.fs_share)
        assert os_row.price == pytest.approx((1 + baseline.market.beta) * os_row.cost)
        assert os_row.profit == pytest.approx(
            baseline.market.d_customers * baseline.market.beta * os_row.cost)

    def test_matches_pricing_layer(self, baseline, comparison):
        sols = price_variants(baseline)
        assert comparison[0].price == sols["full"].price
        assert comparison[1].price == sols["auto"].price

    def test_variants_collapse_without_learning(self, baseline):
        s = replace(baseline,
                    cost=replace(baseline.cost, m0_os=3),
                    learning=replace(baseline.learning, alpha_auto=0.0, alpha_indu=0.0,
                                     unit_training_cost=0.0))
        rows = compare_models(s)
        assert rows[0].price == pytest.approx(rows[1].price, rel=1e-9)
        assert rows[0].cost == pytest.approx(rows[1].cost, rel=1e-9)


class TestSweep:
    def test_output_matches_values_in_order(self, beta_sweep):
        assert [r.swept_value for r in beta_sweep] == [0.5, 0.6, 0.7, 0.8, 0.9]
        assert all(r.swept_param == "beta" for r in beta_sweep)
        assert all(r.feasible for r in beta_sweep)

    def test_lf_sweep_prices_at_given_lf(self, baseline):
        records = sweep(SweepSpec(param="lf", values=(0.004, 0.0250)), baseline)
        # far from the optimum the cost must exceed the near-optimal one
        assert records[1].cost > records[0].cost

    def test_phi_sweep_rescales(self, baseline):
        records = sweep(SweepSpec(param="phi_int_mean", values=(0.0019, 0.0046)), baseline)
        assert records[0].cost < records[1].cost

    def test_invalid_swept_value_raises(self, baseline):
        from fscontract import ScenarioValidationError

        with pytest.raises(ScenarioValidationError) as err:
            sweep(SweepSpec(param="lf", values=(0.005, 1.5)), baseline)
        assert "learning.lf" in str(err.value)

    def test_infeasible_point_flagged_and_sweep_continues(self, baseline):
        # a price ceiling below the cost floor makes pricing infeasible at
        # high unit training cost but not at the baseline one
        squeezed = replace(baseline, market=replace(baseline.market, price_ceiling=170.0))
        records = sweep(SweepSpec(param="unit_training_cost", values=(50.0, 100000.0)),
                        squeezed)
        assert records[0].feasible
        assert not records[1].feasible
        assert math.isnan(records[1].price)
        assert len(records) == 2

    def test_profit_premium_shrinks_with_the_training_cost(self, baseline):
        # the full model's profit over the old model's, per unit training cost
        cost_side = CostSide(baseline)
        auto_profit = cost_side.price("auto", baseline.market).profit
        premiums = []
        for value in (50.0, 100.0, 5000.0):
            s = replace(baseline, learning=replace(baseline.learning, unit_training_cost=value))
            premiums.append(cost_side.with_learning(s).price("full", s.market).profit
                            - auto_profit)
        assert premiums[0] > premiums[2]

    def test_sweep_other_variant(self, baseline):
        records = sweep(SweepSpec(param="beta", values=(0.5, 0.9), variant="auto"), baseline)
        assert [r.variant for r in records] == ["auto", "auto"]
        assert records[0].price < records[1].price
        # training never enters the autonomous-only model, so lf sweeps
        # leave its cost untouched
        lf_records = sweep(SweepSpec(param="lf", values=(0.004, 0.02), variant="auto"),
                           baseline)
        assert lf_records[0].cost == lf_records[1].cost


class TestSweepChecks:
    """A sweep checks every field rule once, then at each point only the
    rules that read the config keys its parameter changes."""

    @pytest.mark.parametrize("param, values, message", [
        ("beta", (0.5, math.inf), "market.beta: must be finite"),
        ("lf", (0.004, 1.0), "learning.lf: must lie in (0, 1)"),
        ("phi_int_mean", (0.0034, math.inf),
         "failure.phi0_int: must be finite; failure.internal_series: must be finite"),
        ("beta", (0.5, 1e308), "market.beta: (1 + beta)^2 must be finite (it overflows)"),
    ])
    def test_bad_later_point_raises(self, baseline, param, values, message):
        with pytest.raises(ScenarioValidationError) as err:
            sweep(SweepSpec(param=param, values=values), baseline)
        assert str(err.value) == message

    @pytest.mark.parametrize("given", [False, True])
    @pytest.mark.parametrize("bad, message", [
        (math.inf, "market.beta: must be finite"),
        (1e308, "market.beta: (1 + beta)^2 must be finite (it overflows)"),
    ])
    def test_bad_beta_after_feasible_and_infeasible_points(self, baseline, given, bad,
                                                            message):
        # 100 puts the floor far above the 900 k$ ceiling: a flagged row, not
        # an error; the bad value after it raises what a per-point check did
        cost_side = CostSide(baseline) if given else None
        records = sweep(SweepSpec(param="beta", values=(0.5, 100.0)), baseline, cost_side)
        assert [r.feasible for r in records] == [True, False]
        assert math.isnan(records[1].price)
        with pytest.raises(ScenarioValidationError) as err:
            sweep(SweepSpec(param="beta", values=(0.5, 100.0, bad)), baseline, cost_side)
        assert str(err.value) == message

    @pytest.mark.parametrize("given", [False, True])
    def test_beta_that_overflows_the_risk_premium(self, baseline, given):
        # the base mark-up passes; at 1e10 alpha_max (1 + beta)^2 Var / 4 overflows
        s = replace(baseline, market=replace(baseline.market, alpha_max=1e300))
        cost_side = CostSide(s) if given else None
        assert all(r.feasible for r in sweep(SweepSpec(param="beta", values=(0.5, 2.0)), s,
                                             cost_side))
        with pytest.raises(ScenarioValidationError) as err:
            sweep(SweepSpec(param="beta", values=(0.5, 2.0, 1e10)), s, cost_side)
        assert str(err.value) == ("market.alpha_max: the risk premium alpha_max "
                                  "(1 + beta)^2 Var / 4 must be finite (it overflows)")

    @pytest.mark.parametrize("given", [False, True])
    def test_negative_rate_mean_breaks_three_rules(self, baseline, given):
        # on a given cost side even the first point gets only the rules that
        # read a swept key; the ext_mean rule is a cross-field rule that
        # reads failure.phi0_int
        cost_side = CostSide(baseline) if given else None
        with pytest.raises(ScenarioValidationError) as err:
            sweep(SweepSpec(param="phi_int_mean", values=(-1.0, 0.0034)), baseline, cost_side)
        assert str(err.value) == ("failure.phi0_int: must be > 0; "
                                  "failure.ext_mean: external rate must stay below phi0_int; "
                                  "failure.internal_series: rates must be >= 0")

    @pytest.mark.parametrize("given", [False, True])
    @pytest.mark.parametrize("param, values, keys", [
        ("beta", (0.5, 0.6, 0.7), ("market.beta",)),
        ("lf", (0.004, 0.005, 0.006), ("learning.lf",)),
        ("unit_training_cost", (20.0, 50.0, 500.0), ("learning.unit_training_cost",)),
        ("phi_int_mean", (0.0025, 0.0034, 0.0046),
         ("failure.phi0_int", "failure.internal_series")),
    ])
    def test_points_check_only_the_swept_keys(self, monkeypatch, baseline, given, param,
                                              values, keys):
        checked = []
        violations = scenario_module._violations

        def recorded(values, keys=None):
            checked.append(keys)
            return violations(values, keys)

        # the beta sweep's checks call pricing's binding of _violations
        for module in (scenario_module, pricing_module):
            monkeypatch.setattr(module, "_violations", recorded)
        cost_side = CostSide(baseline) if given else None
        records = sweep(SweepSpec(param=param, values=values), baseline, cost_side)
        assert all(r.feasible for r in records)
        # a beta sweep checks its values as one array, and builds the
        # messages per value only for a value that fails
        points = [] if param == "beta" else [keys] * 3
        assert checked == (points if given else [None] + points[1:])


class TestCostSideReuse:
    """Work that does not depend on the swept value runs once, not per point."""

    BETAS = tuple(float(b) for b in np.linspace(0.3, 2.3, 41))

    def test_beta_sweep_builds_one_cost_side(self, monkeypatch, baseline):
        calls = count_calls(monkeypatch, optimize_lf, simulate_external_rates,
                            optimal_pm_count)
        records = sweep(SweepSpec(param="beta", values=self.BETAS), baseline)
        assert len(records) == 41
        assert {name: len(c) for name, c in calls.items()} == {
            "optimize_lf": 1, "simulate_external_rates": 1, "optimal_pm_count": 1}

    def test_beta_points_on_a_held_cost_side_build_only_a_market(self, monkeypatch,
                                                                baseline):
        spec = SweepSpec(param="beta", values=self.BETAS)
        cost_side = CostSide(baseline)
        want = sweep(spec, baseline)
        built = []
        for cls in (Scenario, CostSide):
            def counted(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        assert sweep(spec, baseline, cost_side) == want
        assert built == []

    def test_beta_sweep_prices_all_points_in_one_kernel_call(self, monkeypatch, baseline):
        calls = count_calls(monkeypatch, market_side)
        priced = []
        price = CostSide.price

        def counted(self, *args, **kwargs):
            priced.append(1)
            return price(self, *args, **kwargs)

        monkeypatch.setattr(CostSide, "price", counted)
        records = sweep(SweepSpec(param="beta", values=self.BETAS), baseline)
        assert len(records) == 41
        assert len(calls["market_side"]) == 1
        assert priced == []

    @pytest.mark.parametrize("variant", ["full", "auto", "bench"])
    def test_beta_sweep_equals_pricing_each_point(self, baseline, variant):
        # the ceiling makes the last points infeasible
        values = self.BETAS + (10.0, 100.0)
        cost_side = CostSide(baseline)
        want = []
        for value in values:
            try:
                sol = cost_side.price(variant, replace(baseline.market, beta=value))
                want.append((True, sol.price, sol.breakdown.total, sol.profit, sol.fs_share))
            except InfeasiblePriceError:
                want.append((False,))
        records = sweep(SweepSpec(param="beta", values=values, variant=variant), baseline)
        assert [r.swept_value for r in records] == list(values)
        assert [(r.feasible, r.price, r.cost, r.profit, r.fs_share) if r.feasible
                else (r.feasible,) for r in records] == want
        assert want[-1] == (False,)

    def test_lf_sweep_runs_no_lf_search(self, monkeypatch, baseline):
        calls = count_calls(monkeypatch, optimize_lf, optimal_pm_count)
        sweep(SweepSpec(param="lf", values=(0.004, 0.005, 0.02)), baseline)
        assert {name: len(c) for name, c in calls.items()} == {
            "optimize_lf": 0, "optimal_pm_count": 1}

    def test_training_cost_sweep_reuses_rates_plan_and_moments(self, monkeypatch, baseline):
        calls = count_calls(monkeypatch, optimize_lf, simulate_external_rates,
                            optimal_pm_count, os_cost_moments)
        records = sweep(SweepSpec(param="unit_training_cost", values=(20.0, 50.0, 500.0)),
                        baseline)
        assert all(r.feasible for r in records)
        assert {name: len(c) for name, c in calls.items()} == {
            "optimize_lf": 3, "simulate_external_rates": 1, "optimal_pm_count": 1,
            "os_cost_moments": 1}

    def test_profit_premium_reuses_the_cost_side(self, monkeypatch, baseline):
        scenarios = [replace(baseline, learning=replace(baseline.learning, unit_training_cost=v))
                     for v in (20.0, 50.0, 500.0)]
        alone = [optimal_price(s, "full").profit - optimal_price(baseline, "auto").profit
                 for s in scenarios]
        calls = count_calls(monkeypatch, optimize_lf, simulate_external_rates,
                            optimal_pm_count)
        cost_side = CostSide(baseline)
        auto_profit = cost_side.price("auto", baseline.market).profit
        assert [cost_side.with_learning(s).price("full", s.market).profit - auto_profit
                for s in scenarios] == alone
        assert {name: len(c) for name, c in calls.items()} == {
            "optimize_lf": 3, "simulate_external_rates": 1, "optimal_pm_count": 1}

    def test_long_horizon_op_builds_three_lf_problems(self, monkeypatch):
        # the benchmark's long_horizon op: validation, three variant prices
        # and a 3-point training-cost sweep, on a fresh copy of the scenario;
        # bench and auto need no lf problem nor external rates, the full
        # price's lf search takes its cost side's and the sweep derives its
        # points from its first one.  Each of the four cost sides computes
        # the rate increments once, and the failure counts once per
        # maintenance count: at M* and at m0_os, bench at m0_os only
        s = copy.deepcopy(generated_scenarios([1])[-1])
        calls = count_calls(monkeypatch, lf_problem, optimize_lf, rate_increments,
                            expected_failures, simulate_external_rates)
        assert validate_scenario(s) == []
        for variant in ("full", "auto", "bench"):
            optimal_price(s, variant)
        sweep(SweepSpec(param="unit_training_cost", values=(30.0, 300.0, 3000.0)), s)
        assert {name: len(c) for name, c in calls.items()} == {
            "lf_problem": 3, "optimize_lf": 4, "rate_increments": 5, "expected_failures": 9,
            "simulate_external_rates": 3}

    @pytest.mark.parametrize("given", [False, True])
    def test_phi_int_sweep_draws_the_external_rates_once(self, monkeypatch, baseline, given):
        # a point changes neither the seed, the horizon nor the external
        # rate's moments, so it takes the draw of the cost side before it
        cost_side = CostSide(baseline) if given else None
        calls = count_calls(monkeypatch, simulate_external_rates)
        values = tuple(0.0034 * k for k in (0.6, 0.8, 1.0, 1.2, 1.4))
        records = sweep(SweepSpec(param="phi_int_mean", values=values), baseline, cost_side)
        assert all(r.feasible for r in records)
        assert len(calls["simulate_external_rates"]) == 1

    def test_compare_runs_one_lf_search(self, monkeypatch, baseline):
        calls = count_calls(monkeypatch, optimize_lf, simulate_external_rates)
        compare_models(baseline)
        assert {name: len(c) for name, c in calls.items()} == {
            "optimize_lf": 1, "simulate_external_rates": 1}

    @pytest.mark.parametrize("param, values", [
        ("beta", (0.5, 1.7, 4.0)),
        ("lf", (0.004, 0.005, 0.02)),
        ("unit_training_cost", (20.0, 50.0, 500.0)),
        ("phi_int_mean", (0.0025, 0.0034, 0.0046)),
    ])
    def test_rows_equal_pricing_each_point_alone(self, baseline, param, values):
        records = sweep(SweepSpec(param=param, values=values), baseline)
        for r in records:
            if param == "beta":
                s = replace(baseline, market=replace(baseline.market, beta=r.swept_value))
            elif param == "phi_int_mean":
                s = scaled_to_mean(baseline, r.swept_value)
            else:
                s = replace(baseline, learning=replace(baseline.learning,
                                                       **{param: r.swept_value}))
            sol = CostSide(s).price("full", s.market,
                                    r.swept_value if param == "lf" else None)
            assert (r.price, r.cost, r.profit, r.fs_share) == (
                sol.price, sol.breakdown.total, sol.profit, sol.fs_share)


class TestEmission:
    def test_csv_single_record(self, tmp_path):
        record = KpiRecord("full", "beta", 0.5, 198.0, 111.0, 4323.0, 1.0)
        path = tmp_path / "one.csv"
        emit_report([record], "csv", path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == "variant,param,value,price,cost,profit,fs_share"

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], "csv", tmp_path / "none.csv")

    def test_rejects_unknown_format(self, tmp_path):
        record = KpiRecord("full", None, float("nan"), 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            emit_report([record], "latex", tmp_path / "x.tex")

    def test_deterministic_bytes(self, tmp_path, beta_sweep):
        for fmt, name in (("csv", "a.csv"), ("markdown", "a.md"),
                          ("plotdata", "a.dat"), ("svg", "a.svg")):
            p1, p2 = tmp_path / ("1" + name), tmp_path / ("2" + name)
            emit_report(beta_sweep, fmt, p1)
            emit_report(beta_sweep, fmt, p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_csv_round_trip(self, tmp_path, comparison, beta_sweep):
        for records, name in ((comparison, "cmp.csv"), (beta_sweep, "swp.csv")):
            path = tmp_path / name
            emit_report(records, "csv", path)
            loaded = read_kpi_csv(path)
            assert len(loaded) == len(records)
            for got, want in zip(loaded, records):
                assert got.variant == want.variant
                assert got.swept_param == want.swept_param
                for field in ("swept_value", "price", "cost", "profit", "fs_share"):
                    a, b = getattr(got, field), getattr(want, field)
                    if math.isnan(b):
                        assert math.isnan(a)
                    else:
                        # %.6f rounds to half a unit in the 6th decimal; a
                        # value whose 7th decimal is 5 can land one ulp beyond
                        assert a == pytest.approx(b, abs=5e-7 + math.ulp(b))
            again = tmp_path / ("again_" + name)
            emit_report(loaded, "csv", again)
            assert again.read_bytes() == path.read_bytes()

    def test_plotdata_rows(self, tmp_path, beta_sweep):
        path = tmp_path / "sweep.dat"
        emit_report(beta_sweep, "plotdata", path)
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        assert len(lines) == 5
        xs = [float(ln.split()[0]) for ln in lines]
        assert xs == [0.5, 0.6, 0.7, 0.8, 0.9]
        assert all(len(ln.split()) == 5 for ln in lines)

    def test_markdown_table_shape(self, tmp_path, comparison):
        path = tmp_path / "cmp.md"
        emit_report(comparison, "markdown", path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2 + len(comparison)
        assert lines[0].startswith("| variant |")
        assert all(ln.startswith("|") and ln.endswith("|") for ln in lines)

    def test_svg_is_wellformed_and_plots_each_kpi(self, tmp_path, beta_sweep):
        import xml.etree.ElementTree as ET

        path = tmp_path / "sweep.svg"
        emit_report(beta_sweep, "svg", path)
        root = ET.fromstring(path.read_text())
        assert root.tag.endswith("svg")
        polylines = root.iter("{http://www.w3.org/2000/svg}polyline")
        assert len(list(polylines)) == 4
