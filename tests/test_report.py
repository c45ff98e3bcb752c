import copy
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from fscontract import (
    CostSide,
    InfeasiblePriceError,
    InfeasibleTrainingError,
    KpiRecord,
    LfProblem,
    Scenario,
    ScenarioValidationError,
    SweepSpec,
    compare_models,
    emit_report,
    expected_failures,
    internal_rate_series,
    lf_problem,
    optimal_pm_count,
    optimal_price,
    optimize_lf,
    os_cost_moments,
    read_kpi_csv,
    scaled_to_mean,
    simulate_external_rates,
    sweep,
    validate_scenario,
)

from fscontract import pricing as pricing_module
from fscontract import report as report_module
from fscontract import scenario as scenario_module
from fscontract.failure import rate_increments
from fscontract.pricing import market_side
from fscontract.scenario import parse_config, scenario_from_overrides

from conftest import FREE_BILLS, count_calls, generated_scenarios


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

    def test_names_only_the_axis(self):
        # every sweep prices the full model: the spec has no variant
        assert [f.name for f in fields(SweepSpec)] == ["param", "values"]


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
        cost_side = CostSide(baseline)
        assert comparison[0].price == cost_side.price("full").price
        assert comparison[1].price == cost_side.price("auto").price

    def test_readme_baseline_table(self, comparison):
        # the README's table prints each KPI of compare_models(default_scenario())
        # at the digits it shows: price and cost to 0.1 k$, profit to 1 k$
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8").splitlines()
        start = lines.index("| variant | price (k$) | cost (k$) | profit (k$) | FS share |") + 2
        table = {}
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            name, *cells = (cell.strip() for cell in line.strip("|").split("|"))
            table[{"pay-per-repair": "os"}.get(name, name)] = cells

        def printed(value, cell):
            digits = len(cell.partition(".")[2])
            return f"{value:.{digits}f}"

        assert list(table) == [r.variant for r in comparison]
        for row in comparison:
            price, cost, profit, share = table[row.variant]
            assert [printed(row.price, price), printed(row.cost, cost),
                    printed(row.profit, profit)] == [price, cost, profit], row.variant
            if share == "n/a":
                assert math.isnan(row.fs_share)
            else:
                assert printed(100.0 * row.fs_share, share[:-1]) + "%" == share, row.variant

    def test_pay_per_repair_profit_of_free_bills(self):
        # d_customers * (beta * E) is 0 here, where (d_customers * beta) * E is inf * 0
        rows = compare_models(scenario_from_overrides(parse_config(FREE_BILLS)))
        assert all(math.isfinite(x) for row in rows[:2]
                   for x in (row.price, row.cost, row.profit, row.fs_share))
        assert rows[2].profit == 0.0

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

    @pytest.mark.parametrize("param, values", [
        ("beta", (0.5, 100.0)),
        ("lf", (1e-300, 0.005)),
        ("unit_training_cost", (50.0, 100000.0)),
        ("phi_int_mean", (0.0034, 0.05)),
    ])
    def test_every_row_prices_the_full_model(self, baseline, param, values):
        # one value of each axis is infeasible on the baseline
        records = sweep(SweepSpec(param=param, values=values), baseline)
        assert [r.variant for r in records] == ["full", "full"]
        assert sorted(r.feasible for r in records) == [False, True]

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
        auto_profit = cost_side.price("auto").profit
        premiums = []
        for value in (50.0, 100.0, 5000.0):
            premiums.append(cost_side.with_training_cost(value).price("full").profit
                            - auto_profit)
        assert premiums[0] > premiums[2]


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

    @pytest.mark.parametrize("bad, message", [
        (math.inf, "market.beta: must be finite"),
        (1e308, "market.beta: (1 + beta)^2 must be finite (it overflows)"),
    ])
    def test_bad_beta_after_feasible_and_infeasible_points(self, baseline, bad, message):
        # 100 puts the floor far above the 900 k$ ceiling: a flagged row, not
        # an error; the bad value after it raises what a per-point check did
        records = sweep(SweepSpec(param="beta", values=(0.5, 100.0)), baseline)
        assert [r.feasible for r in records] == [True, False]
        assert math.isnan(records[1].price)
        with pytest.raises(ScenarioValidationError) as err:
            sweep(SweepSpec(param="beta", values=(0.5, 100.0, bad)), baseline)
        assert str(err.value) == message

    def test_beta_that_overflows_the_risk_premium(self, baseline):
        # the base mark-up passes; at 1e10 alpha_max (1 + beta)^2 Var / 4 overflows
        s = replace(baseline, market=replace(baseline.market, alpha_max=1e300))
        assert all(r.feasible for r in sweep(SweepSpec(param="beta", values=(0.5, 2.0)), s))
        with pytest.raises(ScenarioValidationError) as err:
            sweep(SweepSpec(param="beta", values=(0.5, 2.0, 1e10)), s)
        assert str(err.value) == ("market.alpha_max: the risk premium alpha_max "
                                  "(1 + beta)^2 Var / 4 must be finite (it overflows)")

    def test_negative_rate_mean_breaks_three_rules(self, baseline):
        # the base is checked whole, so even the first point gets only the
        # rules that read a swept key; the ext_mean rule is a cross-field
        # rule that reads failure.phi0_int
        with pytest.raises(ScenarioValidationError) as err:
            sweep(SweepSpec(param="phi_int_mean", values=(-1.0, 0.0034)), baseline)
        assert str(err.value) == ("failure.phi0_int: must be > 0; "
                                  "failure.ext_mean: external rate must stay below phi0_int; "
                                  "failure.internal_series: rates must be >= 0")

    @pytest.mark.parametrize("param, values, keys", [
        ("beta", (0.5, 0.6, 0.7), ("market.beta",)),
        ("lf", (0.004, 0.005, 0.006), ("learning.lf",)),
        ("unit_training_cost", (20.0, 50.0, 500.0), ("learning.unit_training_cost",)),
        ("phi_int_mean", (0.0025, 0.0034, 0.0046),
         ("failure.phi0_int", "failure.internal_series")),
    ])
    def test_points_check_only_the_swept_keys(self, monkeypatch, baseline, param, values,
                                              keys):
        checked = []
        violations = scenario_module._field_violations

        def recorded(s, keys=None):
            checked.append(keys)
            return violations(s, keys)

        # the whole check (pricing._validated) and the check of a failing
        # mark-up call pricing's binding; the later points call report's
        for module in (scenario_module, pricing_module, report_module):
            monkeypatch.setattr(module, "_field_violations", recorded)
        records = sweep(SweepSpec(param=param, values=values), baseline)
        assert all(r.feasible for r in records)
        # the base is checked whole, once; a beta sweep checks its values as
        # one array, and builds the messages per value only for a value
        # that fails
        assert checked == [None] + ([] if param == "beta" else [keys] * 3)


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
        want = sweep(spec, baseline)
        built = []
        for cls in (Scenario, CostSide):
            def counted(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        # the base's cost side, and nothing per point but the market side
        assert sweep(spec, baseline) == want
        assert built == ["CostSide"]

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

    def test_beta_sweep_equals_pricing_each_point(self, baseline):
        # the ceiling makes the last points infeasible
        values = self.BETAS + (10.0, 100.0)
        want = []
        for value in values:
            try:
                s = replace(baseline, market=replace(baseline.market, beta=value))
                sol = CostSide(s).price("full")
                want.append((True, sol.price, sol.breakdown.total, sol.profit, sol.fs_share))
            except InfeasiblePriceError:
                want.append((False,))
        records = sweep(SweepSpec(param="beta", values=values), baseline)
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

    def test_training_cost_sweep_finds_the_feasible_interval_once(self, monkeypatch,
                                                                 baseline):
        # each point's lf problem takes the feasible interval that the lf
        # search of the point before it found
        found = []
        edges = LfProblem._edges.method

        def counted(problem):
            found.append(problem.learning.unit_training_cost)
            return edges(problem)

        kept = scenario_module._kept(counted)
        kept.name = "_edges"
        monkeypatch.setattr(LfProblem, "_edges", kept)
        sweep(SweepSpec(param="unit_training_cost", values=(20.0, 50.0, 500.0)), baseline)
        assert found == [20.0]

    def test_profit_premium_reuses_the_cost_side(self, monkeypatch, baseline):
        scenarios = [replace(baseline, learning=replace(baseline.learning, unit_training_cost=v))
                     for v in (20.0, 50.0, 500.0)]
        alone = [optimal_price(s, "full").profit - optimal_price(baseline, "auto").profit
                 for s in scenarios]
        calls = count_calls(monkeypatch, optimize_lf, simulate_external_rates,
                            optimal_pm_count)
        cost_side = CostSide(baseline)
        auto_profit = cost_side.price("auto").profit
        assert [cost_side.with_training_cost(s.learning.unit_training_cost).price("full").profit
                - auto_profit for s in scenarios] == alone
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

    def test_phi_int_sweep_draws_the_external_rates_once(self, monkeypatch, baseline):
        # a point changes neither the seed, the horizon nor the external
        # rate's moments, so it takes the base's draw
        calls = count_calls(monkeypatch, simulate_external_rates)
        values = tuple(0.0034 * k for k in (0.6, 0.8, 1.0, 1.2, 1.4))
        records = sweep(SweepSpec(param="phi_int_mean", values=values), baseline)
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
        # the baseline at the given values, and each seed-1 base with
        # Z <= 300 at half, one and two times its own value; a flagged row
        # is one that pricing alone finds infeasible
        assert len(SEED_1_BASES) == 24
        cases = [(baseline, values)] + [
            (s, tuple(k * _own_value(s, param) for k in (0.5, 1.0, 2.0))) for s in SEED_1_BASES]
        for s, values in cases:
            series = internal_rate_series(s.failure, s.grid)
            for r in sweep(SweepSpec(param=param, values=values), s):
                if param == "beta":
                    point = replace(s, market=replace(s.market, beta=r.swept_value))
                elif param == "phi_int_mean":
                    point = scaled_to_mean(s, r.swept_value, series)
                else:
                    point = replace(s, learning=replace(s.learning, **{param: r.swept_value}))
                try:
                    sol = CostSide(point).price("full", r.swept_value if param == "lf" else None)
                except (InfeasibleTrainingError, InfeasiblePriceError):
                    assert not r.feasible
                    continue
                assert (r.price, r.cost, r.profit, r.fs_share) == (
                    sol.price, sol.breakdown.total, sol.profit, sol.fs_share)


SEED_1_BASES = [s for s in generated_scenarios((1,)) if s.grid.z_periods <= 300]


def _own_value(s: Scenario, param: str) -> float:
    """The value of the swept parameter in ``s``."""
    if param == "beta":
        return s.market.beta
    if param == "phi_int_mean":
        return internal_rate_series(s.failure, s.grid).mean
    return getattr(s.learning, param)


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

    def test_close_swept_values_get_distinct_cells(self, tmp_path, baseline):
        # both points below the feasible edge 7.5e-4 differ only in the 7th decimal
        records = sweep(SweepSpec(param="lf", values=(0.0006001, 0.0006002, 0.004)), baseline)
        for fmt, cells in (("csv", lambda ln: ln.split(",")[2]),
                           ("markdown", lambda ln: ln.split(" | ")[2]),
                           ("plotdata", lambda ln: ln.split()[0])):
            path = tmp_path / f"lf.{fmt}"
            emit_report(records, fmt, path)
            rows = path.read_text().splitlines()[-3:]
            assert [cells(row) for row in rows] == ["0.0006001", "0.0006002", "0.004"], fmt

    @pytest.mark.parametrize("param, values", [
        ("lf", (5e-324, 1e-7, 0.5)),
        ("unit_training_cost", (5e-324, 1e-7, 1e308)),
        ("beta", (5e-324, 1e-7, 0.5)),
    ])
    def test_swept_values_read_back_exactly(self, tmp_path, baseline, param, values):
        path = tmp_path / "sweep.csv"
        emit_report(sweep(SweepSpec(param=param, values=values), baseline), "csv", path)
        assert [r.swept_value for r in read_kpi_csv(path)] == list(values)

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

    def test_svg_draws_only_priced_points(self, tmp_path, baseline):
        import xml.etree.ElementTree as ET

        values = (0.0006, 0.004, 0.006, 0.01)
        records = sweep(SweepSpec(param="lf", values=values), baseline)
        assert [r.feasible for r in records] == [False, True, True, True]
        path = tmp_path / "sweep.svg"
        emit_report(records, "svg", path)
        text = path.read_text()
        assert "nan" not in text.lower()
        span = values[-1] - values[0]
        want = [f"{(x - values[0]) / span * 480:.2f}" for x in values[1:]]
        for line in ET.fromstring(text).iter("{http://www.w3.org/2000/svg}polyline"):
            assert [p.split(",")[0] for p in line.get("points").split()] == want

    def test_svg_of_a_comparison_places_rows_at_1_to_n(self, tmp_path, comparison):
        import xml.etree.ElementTree as ET

        path = tmp_path / "cmp.svg"
        emit_report(comparison, "svg", path)
        lines = list(ET.fromstring(path.read_text()).iter("{http://www.w3.org/2000/svg}polyline"))
        xs = [[p.split(",")[0] for p in line.get("points").split()] for line in lines]
        # the pay-per-repair row has no share
        assert xs == [["0.00", "240.00", "480.00"]] * 3 + [["0.00", "240.00"]]

    @pytest.mark.parametrize("text", [
        "",
        "variant,param,value,price,cost,profit\nfull,,,1.0,1.0,1.0\n",
        "variant,param,value,cost,price,profit,fs_share\n",
        "full,,,1.0,1.0,1.0,1.0\n",
    ])
    def test_read_rejects_another_header(self, tmp_path, text):
        path = tmp_path / "other.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="not a KPI csv"):
            read_kpi_csv(path)

    @pytest.mark.parametrize("row", ["full,,,1.0,1.0,1.0", "full,,,1.0,1.0,1.0,1.0,1.0"])
    def test_read_rejects_a_row_of_another_width(self, tmp_path, row):
        path = tmp_path / "short.csv"
        path.write_text(f"variant,param,value,price,cost,profit,fs_share\n{row}\n")
        with pytest.raises(ValueError):
            read_kpi_csv(path)
