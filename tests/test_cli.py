import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import fscontract
from fscontract import (
    CostSide,
    ScenarioValidationError,
    SweepSpec,
    compare_models,
    default_scenario,
    internal_rate_series,
    lf_problem,
    optimal_pm_count,
    optimal_price,
    save_scenario,
    scaled_to_mean,
    simulate_external_rates,
    sweep,
)
from fscontract.cli import main
from fscontract.failure import _aging_slopes
from fscontract.scenario import _FIELDS, _floats, _read_scenario

from conftest import FREE_BILLS, count_calls


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "base.cfg"
    save_scenario(default_scenario(), path)
    return path


@pytest.fixture(scope="module")
def overflow_path(tmp_path_factory):
    # finite, but the bathtub aging terms overflow and the repair and delay
    # bills come out NaN
    path = tmp_path_factory.mktemp("cli") / "overflow.cfg"
    path.write_text("failure.phi0_int = 1e308\n")
    return path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


class TestPriceCommand:
    def test_full_variant(self, capsys, config_path):
        code, out, _ = run(capsys, "price", "--config", str(config_path))
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert values["variant"] == "full"
        assert float(values["lower_bound"]) <= float(values["price"]) <= float(values["upper_bound"])
        assert "lf_star" in values

    def test_bench_variant_has_no_lf(self, capsys, config_path):
        code, out, _ = run(capsys, "price", "--config", str(config_path),
                           "--variant", "bench")
        assert code == 0
        assert "lf_star" not in out

    def test_missing_config_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "price", "--config", str(tmp_path / "nope.cfg"))
        assert code == 3
        assert "i/o" in err

    def test_invalid_config_is_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("learning.lf = 1.5\n")
        code, _, err = run(capsys, "price", "--config", str(bad))
        assert code == 1
        assert "learning.lf" in err

    @pytest.mark.parametrize("line", [
        "failure.phi0_int = nan",
        "failure.ext_sd = nan",
        "market.price_ceiling = nan",
        "cost.repair_cost_sd = nan",
        "learning.unit_training_cost = inf",
        "market.beta = -inf",
    ])
    def test_non_finite_value_is_validation_error(self, capsys, tmp_path, line):
        bad = tmp_path / "nonfinite.cfg"
        bad.write_text(line + "\n")
        code, out, err = run(capsys, "price", "--config", str(bad))
        assert code == 1
        assert out == ""
        assert f"{line.split(' = ')[0]}: must be finite" in err

    def test_conflicting_keys_are_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "conflict.cfg"
        bad.write_text("market.price_ceiling = 900.0\nmarket.tco = 1500.0\n")
        code, out, err = run(capsys, "price", "--config", str(bad))
        assert code == 1
        assert out == ""
        assert err.startswith("validation error:") and "mutually exclusive" in err

    def test_seed_override_validates_once(self, capsys, monkeypatch, config_path):
        # the price reuses the cost side that the validation built
        calls = count_calls(monkeypatch, simulate_external_rates, lf_problem)
        for seed in ((), ("--seed", "7")):
            code, _, _ = run(capsys, "price", "--config", str(config_path), *seed)
            assert code == 0
            assert len(calls["simulate_external_rates"]) == 1
            assert len(calls["lf_problem"]) == 1
            for counted in calls.values():
                counted.clear()

    def test_seed_override_with_the_config_seed_changes_nothing(self, capsys, config_path):
        seed = str(default_scenario().rng_seed)
        plain = run(capsys, "price", "--config", str(config_path))
        seeded = run(capsys, "price", "--config", str(config_path), "--seed", seed)
        assert seeded == plain

    def test_infeasible_model_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "squeezed.cfg"
        bad.write_text("market.price_ceiling = 10.0\n")
        code, _, err = run(capsys, "price", "--config", str(bad))
        assert code == 2
        assert "infeasible" in err


@pytest.mark.parametrize("argv", [
    ("price",), ("optimize-lf",), ("compare", "--out", "{out}"), ("price", "--variant", "auto"),
    ("price", "--variant", "bench"),
    ("sweep", "--param", "phi-int", "--values", "0.002,0.004", "--out", "{out}"),
    ("sweep", "--param", "beta", "--values", "0.5,0.6", "--out", "{out}"),
    ("sweep", "--param", "lf", "--values", "0.004,0.005", "--out", "{out}"),
], ids=["price", "optimize-lf", "compare", "price-auto", "price-bench", "sweep-phi-int",
        "sweep-beta", "sweep-lf"])
@pytest.mark.parametrize("series", ["failure.internal_series = " + ",".join(["0.0"] * 20),
                                    "failure.internal_series = none\nfailure.m = 1e-308\n"
                                    "failure.stage_bounds = 4,20,20"],
                         ids=["zeros", "floored"])
def test_zero_repair_time(capsys, tmp_path, argv, series):
    # no internal failures, given or floored: the expected repair time Q is
    # 0, which the full model cannot price, so every command rejects the
    # config, and no floored-rate warning comes before the error
    config = tmp_path / "zero.cfg"
    config.write_text(series + "\n")
    argv = [arg.format(out=tmp_path) for arg in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run(capsys, argv[0], "--config", str(config), *argv[1:])
    assert got == (1, "", "validation error: failure.internal_series: "
                          "the expected repair time Q must be > 0 (no internal failures)\n")


@pytest.mark.parametrize("via_table", [False, True], ids=["config", "rate-table"])
def test_file_that_is_not_utf8_is_a_validation_error(capsys, tmp_path, via_table):
    binary = tmp_path / "bin.cfg"
    binary.write_bytes(b"\xff\xfe\x00bad")
    config = binary
    if via_table:
        config = tmp_path / "table.cfg"
        config.write_text("failure.internal_table = bin.cfg:1\n")
    assert run(capsys, "price", "--config", str(config)) == (
        1, "", f"validation error: {binary}: not UTF-8 text (byte 0)\n")


class TestOptimizeLfCommand:
    def test_reports_solution(self, capsys, config_path):
        code, out, _ = run(capsys, "optimize-lf", "--config", str(config_path))
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert 0.0031 <= float(values["lf_star"]) <= 0.0250
        assert float(values["feasible_lo"]) < float(values["lf_star"])
        assert int(values["iterations"]) <= 40

    def test_matches_the_library(self, capsys, config_path):
        code, out, _ = run(capsys, "optimize-lf", "--config", str(config_path))
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        sol = CostSide(default_scenario()).lf_solution
        assert values["lf_star"] == f"{sol.lf_star:.8f}"
        assert values["iterations"] == str(sol.iterations)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ("price", "--variant", "full"),
    ("price", "--variant", "auto"),
    ("price", "--variant", "bench"),
    ("optimize-lf",),
])
def test_overflowing_bills_are_validation_error(capsys, overflow_path, argv):
    # any warning fails the test: numpy's overflow warnings are silenced
    code, out, err = run(capsys, *argv, "--config", str(overflow_path))
    assert code == 1
    assert out == ""
    assert err == ("validation error: "
                   "cost.unit_repair_cost: the expected repair bill must be finite (it overflows); "
                   "cost.unit_delay_cost: the expected delay bill must be finite (it overflows)\n")


def test_overflow_prints_one_stderr_line_in_a_process(overflow_path):
    env = dict(os.environ, PYTHONPATH=str(Path(fscontract.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "fscontract.cli", "price",
                           "--config", str(overflow_path)],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("validation error: cost.unit_repair_cost:")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [("price",), ("optimize-lf",)])
@pytest.mark.parametrize("text, message", [
    ("cost.avg_maintenance_cost = 1e-308\n",
     "cost.avg_maintenance_cost: the optimal maintenance count must be finite (it overflows)"),
    ("failure.m = 5e-324\nfailure.internal_series = none\n",
     "failure.internal_series: the parametric series must be finite (it overflows)"),
    ("cost.repair_cost_sd = 1e308\n",
     "cost.repair_cost_sd: the pay-per-repair cost variance must be finite (it overflows)"),
])
def test_overflowing_cost_side_is_validation_error(capsys, tmp_path, argv, text, message):
    # finite inputs whose maintenance count, parametric series or
    # pay-per-repair variance overflows
    path = tmp_path / "extreme.cfg"
    path.write_text(text)
    code, out, err = run(capsys, *argv, "--config", str(path))
    assert code == 1
    assert out == ""
    assert err == f"validation error: {message}\n"


_BETA_OVERFLOWS = "market.beta: (1 + beta)^2 must be finite (it overflows)"


@pytest.mark.parametrize("text, message", [
    ("market.beta = 1e308\n", _BETA_OVERFLOWS),
    ("market.beta = 1e200\n", _BETA_OVERFLOWS),
    ("failure.stage_bounds = 4,16\n", "failure.stage_bounds: need three bounds z1, z2, z3"),
    ("failure.stage_bounds = 4,16,20,24\n",
     "failure.stage_bounds: need three bounds z1, z2, z3"),
    # too long to index; a horizon that fits an index would be allocated
    ("grid.z_periods = 99999999999999999999\n",
     f"grid.z_periods: must be at most {sys.maxsize}"),
    # indexable, but numpy refuses to allocate the hours before it tries
    (f"grid.z_periods = {sys.maxsize}\n", "grid.z_periods: too long to hold one value per period"),
    (f"grid.z_periods = {2**62}\n", "grid.z_periods: too long to hold one value per period"),
])
def test_extreme_config_is_validation_error(capsys, tmp_path, text, message):
    path = tmp_path / "extreme.cfg"
    path.write_text(text)
    code, out, err = run(capsys, "price", "--config", str(path))
    assert code == 1
    assert out == ""
    assert err == f"validation error: {message}\n"


def test_overflowing_beta_sweep_value_is_validation_error(capsys, config_path, tmp_path):
    code, out, err = run(capsys, "sweep", "--config", str(config_path), "--param", "beta",
                         "--values", "0.5,1e308", "--out", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err == f"validation error: {_BETA_OVERFLOWS}\n"


_PREMIUM_OVERFLOWS = ("market.alpha_max: the risk premium alpha_max (1 + beta)^2 Var / 4 "
                      "must be finite (it overflows)")
#: A market whose risk premium overflows to inf, and one where it comes out
#: NaN (inf times a zero variance).
_ALPHA_MAX_CONFIGS = [
    "market.alpha_max = 1e308\n",
    "market.alpha_max = 1e308\nmarket.beta = 1\ncost.repair_cost_sd = 0\n"
    "cost.unit_repair_cost = 0\n",
]


@pytest.mark.parametrize("argv", [
    ("price",),
    ("price", "--variant", "bench"),
    ("compare", "--format", "csv"),
    ("sweep", "--param", "beta", "--values", "0.5,0.6"),
])
@pytest.mark.parametrize("text", _ALPHA_MAX_CONFIGS)
def test_overflowing_risk_premium_is_validation_error(capsys, tmp_path, argv, text):
    path = tmp_path / "extreme.cfg"
    path.write_text(text)
    out = ("--out", str(tmp_path)) if argv[0] != "price" else ()
    code, stdout, err = run(capsys, *argv, "--config", str(path), *out)
    assert code == 1
    assert stdout == ""
    assert err == f"validation error: {_PREMIUM_OVERFLOWS}\n"


#: A finite config whose pay-per-repair maintenance bill m0_os * c_M overflows.
_MAINTENANCE_BILL_OVERFLOWS = ("market.price_ceiling = 1178.2205688837782\n"
                               "cost.delay_probability = 1e-300\n"
                               "cost.avg_maintenance_cost = 1e308\n")
_MAINTENANCE_BILL = ("cost.avg_maintenance_cost: the pay-per-repair maintenance bill must be "
                     "finite (it overflows)")


@pytest.mark.parametrize("argv", [
    ("price", "--variant", "full"),
    ("price", "--variant", "bench"),
    ("optimize-lf",),
    ("compare", "--format", "csv"),
    ("sweep", "--param", "beta", "--values", "0.5,0.6"),
])
def test_overflowing_maintenance_bill_is_validation_error(capsys, tmp_path, argv):
    path = tmp_path / "extreme.cfg"
    path.write_text(_MAINTENANCE_BILL_OVERFLOWS)
    out = ("--out", str(tmp_path)) if argv[0] in ("compare", "sweep") else ()
    code, stdout, err = run(capsys, *argv, "--config", str(path), *out)
    assert code == 1
    assert stdout == ""
    assert err == f"validation error: {_MAINTENANCE_BILL}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("variant", ["full", "bench"])
@pytest.mark.parametrize("text, code, err", [
    # the pay-per-repair maintenance bill overflows; before it was checked,
    # the floor overflowed to inf
    (_MAINTENANCE_BILL_OVERFLOWS, 1, f"validation error: {_MAINTENANCE_BILL}"),
    # the floor overflows to inf at a finite bill
    ("market.beta = 1e10\ncost.avg_maintenance_cost = 1e305\ncost.delay_probability = 1e-300\n",
     2, "infeasible model: price floor inf exceeds"),
    # tau / alpha_max overflows, at an infeasible and at a feasible price
    ("market.price_ceiling = 883.9985833487726\nmarket.alpha_max = 5e-324\n"
     "cost.delay_probability = 0.5\n", 2, "infeasible model: price floor"),
    ("market.alpha_max = 5e-324\n", 0, ""),
])
def test_market_side_overflow_prints_no_warning(capsys, tmp_path, variant, text, code, err):
    # any warning fails the test: numpy's warnings inside the kernel are silenced
    path = tmp_path / "extreme.cfg"
    path.write_text(text)
    got, out, stderr = run(capsys, "price", "--config", str(path), "--variant", variant)
    assert got == code
    assert stderr.startswith(err) and len(stderr.splitlines()) == (1 if code else 0)
    values = dict(line.split(" = ") for line in out.splitlines())
    assert all(math.isfinite(float(v)) for k, v in values.items() if k != "variant")


def test_beta_sweep_value_that_overflows_the_risk_premium(capsys, tmp_path):
    # the config's own mark-up passes; the swept 1e10 does not
    path = tmp_path / "averse.cfg"
    path.write_text("market.alpha_max = 1e300\n")
    code, _, _ = run(capsys, "price", "--config", str(path))
    assert code == 0
    code, out, err = run(capsys, "sweep", "--config", str(path), "--param", "beta",
                         "--values", "0.5,2,1e10", "--out", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err == f"validation error: {_PREMIUM_OVERFLOWS}\n"


_REVENUE = ("market.d_customers: d_customers * price ceiling must stay below half the "
            "largest float (the profit can overflow)")


@pytest.mark.parametrize("argv", [
    ("price",),
    ("compare", "--format", "csv"),
    ("sweep", "--param", "beta", "--values", "0.5,2,1e10"),
])
@pytest.mark.parametrize("customers", [10**308, 10**309])
def test_overflowing_market_size_is_validation_error(capsys, tmp_path, argv, customers):
    # the profit came out inf, and a count too large for a float ended in
    # a traceback
    path = tmp_path / "market.cfg"
    path.write_text(f"market.d_customers = {customers}\n")
    out = ("--out", str(tmp_path)) if argv[0] != "price" else ()
    code, stdout, err = run(capsys, *argv, "--config", str(path), *out)
    assert code == 1
    assert stdout == ""
    assert err == f"validation error: {_REVENUE}\n"


def test_beta_sweep_in_the_largest_market_keeps_profits_finite(capsys, tmp_path):
    # 10^305 customers under an 800 k$ ceiling pass the revenue bound, and
    # no mark-up then takes a profit past it
    path = tmp_path / "market.cfg"
    path.write_text(f"market.d_customers = {10**305}\nmarket.price_ceiling = 800\n")
    code, _, err = run(capsys, "sweep", "--config", str(path), "--param", "beta",
                       "--values", "0,0.5,1,3,1e3,1e10,1e150", "--out", str(tmp_path))
    assert code == 0, err
    rows = [line.split(",") for line in
            (tmp_path / "sweep_beta.csv").read_text().splitlines()[1:]]
    feasible = [row for row in rows if row[3] != "NA"]
    assert 0 < len(feasible) < len(rows)
    assert all(math.isfinite(float(x)) for row in feasible for x in row[3:])
    assert max(float(row[5]) for row in feasible) > 1e306


def test_pay_per_repair_profit_of_free_bills_is_finite(capsys, tmp_path):
    # free repairs under a huge mark-up: compare prices what price prices,
    # and the pay-per-repair profit d_customers * (beta * E) is 0, not inf * 0
    path = tmp_path / "market.cfg"
    path.write_text(FREE_BILLS)
    code, out, _ = run(capsys, "price", "--config", str(path))
    assert code == 0
    assert all(math.isfinite(float(line.split(" = ")[1])) for line in out.splitlines()[1:])
    code, out, err = run(capsys, "compare", "--config", str(path), "--out", str(tmp_path))
    assert code == 0
    assert err == ""
    rows = [line.split(",") for line in
            (tmp_path / "compare.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["full", "auto", "os"]
    assert all(math.isfinite(float(x)) for row in rows for x in row[3:6])
    assert rows[2][5] == "0.000000"


def test_floored_rates_of_an_invalid_config_print_no_warning(capsys, tmp_path):
    # the parametric series floors, then validation fails: one stderr line
    path = tmp_path / "floored.cfg"
    path.write_text("failure.internal_series = none\nfailure.m = 1e-308\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "price", "--config", str(path))
    assert code == 1
    assert out == "" and caught == []
    assert err == ("validation error: learning.lf: no surplus time is left for training "
                   "(R-S-Q-U <= 0)\n")


@pytest.mark.parametrize("text", [
    # the CI smoke run's configs that parse: a risk premium that overflows
    # to inf and to NaN, a pay-per-repair maintenance bill that overflows,
    # markets of 10^308 and 10^309 customers, a floored series that fails
    # the cost-side checks, an all-zero series
    "market.alpha_max = 1e308\n",
    "market.alpha_max = 1e308\nmarket.beta = 1\ncost.repair_cost_sd = 0\n"
    "cost.unit_repair_cost = 0\n",
    "cost.avg_maintenance_cost = 1e308\ncost.delay_probability = 1e-300\n"
    "market.price_ceiling = 1178.22\n",
    "market.d_customers = 1" + "0" * 308 + "\n",
    "market.d_customers = 1" + "0" * 309 + "\n",
    "failure.internal_series = none\nfailure.m = 1e-308\n",
    "failure.internal_series = " + ",".join(["0"] * 20) + "\n",
    # an lf outside (0, 1), which a lf sweep replaces at every point; a
    # floored series that fails a field rule
    "learning.lf = 2\n",
    "failure.internal_series = none\nfailure.m = 1e8\nmarket.beta = -1\n",
], ids=["inf", "nan", "maintenance", "customers308", "customers309", "floored", "zero", "lf",
        "floored-beta"])
def test_library_rejects_what_the_cli_rejects(capsys, tmp_path, text):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    code, out, err = run(capsys, "compare", "--config", str(path), "--out", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("validation error: ")
    message = err[len("validation error: "):-1]
    s = _read_scenario(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ScenarioValidationError) as compared:
            compare_models(s)
        with pytest.raises(ScenarioValidationError) as swept:
            sweep(SweepSpec("lf", (0.01, 0.02)), s)
    assert str(compared.value) == str(swept.value) == message
    assert caught == []


def test_floored_rates_of_a_valid_config_still_warn(capsys, tmp_path):
    path = tmp_path / "floored.cfg"
    path.write_text("failure.internal_series = none\nfailure.m = 1e8\n")
    with pytest.warns(UserWarning, match="internal rate undershoots zero") as caught:
        code, _, _ = run(capsys, "price", "--config", str(path))
    assert code == 0
    # one per floored run-in period, issued once the checks pass
    assert [w.message.args[0].split(" (")[0] for w in caught] == [
        f"internal rate undershoots zero in period {j}" for j in (1, 2, 3, 4)]


def test_floored_invalid_config_prints_one_stderr_line_in_a_process(tmp_path):
    path = tmp_path / "floored.cfg"
    path.write_text("failure.internal_series = none\nfailure.m = 1e-308\n")
    env = dict(os.environ, PYTHONPATH=str(Path(fscontract.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "fscontract.cli", "price",
                           "--config", str(path)],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "validation error: learning.lf: no surplus time is left for training (R-S-Q-U <= 0)"]


def test_phi_int_sweep_of_a_floored_base_warns_only_at_load_in_a_process(tmp_path):
    # the base's four floored-rate warnings (one line each) once its checks
    # pass; the points scale its series, so they warn no more; then the error
    path = tmp_path / "floored.cfg"
    path.write_text("failure.internal_series = none\nfailure.m = 1e6\n")
    env = dict(os.environ, PYTHONPATH=str(Path(fscontract.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "fscontract.cli", "sweep",
                           "--config", str(path), "--param", "phi-int",
                           "--values", "0.002,0.004", "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 5
    assert [line.split(" (")[0] for line in lines[:-1]] == [
        f"warning: internal rate undershoots zero in period {j}" for j in (1, 2, 3, 4)]
    assert lines[-1] == ("validation error: failure.ext_mean: external rate must stay "
                         "below phi0_int")


def test_phi_int_sweep_scales_the_held_internal_series(monkeypatch):
    # a parametric base: the points scale the base's series, so only the
    # base builds the aging slopes, and each record prices what pricing
    # the rescaled scenario on its own does
    d = default_scenario()
    s = replace(d, failure=replace(d.failure, internal_series_override=None))
    series = internal_rate_series(s.failure, s.grid)
    mean = series.mean
    spec = SweepSpec(param="phi_int_mean",
                     values=tuple(mean * k for k in (0.6, 0.8, 1.0, 1.2, 1.4)))
    want = [optimal_price(scaled_to_mean(s, value, series)) for value in spec.values]
    calls = count_calls(monkeypatch, _aging_slopes)
    records = sweep(spec, s)
    assert len(calls["_aging_slopes"]) == 1
    assert [(r.price, r.cost, r.profit, r.fs_share) for r in records] == [
        (w.price, w.breakdown.total, w.profit, w.fs_share) for w in want]


def test_usage_errors_exit_2_and_negative_values_need_the_equals_form(capsys, config_path,
                                                                      tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["price", "--config"])
    assert exc.value.code == 2
    # a value list that starts with a minus sign reads as an option
    argv = ["sweep", "--config", str(config_path), "--param", "beta", "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--values", "-1,0.5"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, _, err = run(capsys, *argv, "--values=-1,0.5")
    assert code == 1
    assert err == "validation error: market.beta: must be >= 0\n"


@pytest.mark.parametrize("argv", [
    ("optimize-lf",),
    ("compare", "--format", "csv"),
    ("sweep", "--param", "beta", "--values", "0.5,0.6,0.7"),
    ("sweep", "--param", "lf", "--values", "0.004,0.006"),
    ("sweep", "--param", "unit-training-cost", "--values", "40,60"),
])
def test_each_command_builds_one_cost_side(capsys, monkeypatch, config_path, tmp_path, argv):
    calls = count_calls(monkeypatch, simulate_external_rates, internal_rate_series,
                        optimal_pm_count)
    out = ("--out", str(tmp_path)) if argv[0] != "optimize-lf" else ()
    code, _, _ = run(capsys, *argv, "--config", str(config_path), *out)
    assert code == 0
    assert {name: len(c) for name, c in calls.items()} == {
        "simulate_external_rates": 1, "internal_rate_series": 1, "optimal_pm_count": 1}


def test_phi_int_sweep_draws_the_external_rates_once(capsys, monkeypatch, config_path,
                                                     tmp_path):
    # the validation draws them; a point changes neither the seed, the
    # horizon nor the external rate's moments, so it takes that draw
    calls = count_calls(monkeypatch, simulate_external_rates)
    code, _, _ = run(capsys, "sweep", "--config", str(config_path), "--param", "phi-int",
                     "--values", "0.0025,0.003,0.0034,0.004,0.0046", "--out", str(tmp_path))
    assert code == 0
    assert len(calls["simulate_external_rates"]) == 1


class TestCompareCommand:
    def test_writes_csv(self, capsys, config_path, tmp_path):
        code, out, _ = run(capsys, "compare", "--config", str(config_path),
                           "--out", str(tmp_path), "--format", "csv")
        assert code == 0
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        assert len(lines) == 4

    def test_writes_markdown(self, capsys, config_path, tmp_path):
        code, _, _ = run(capsys, "compare", "--config", str(config_path),
                         "--out", str(tmp_path), "--format", "markdown")
        assert code == 0
        assert (tmp_path / "compare.md").exists()


class TestSweepCommand:
    def test_beta_csv(self, capsys, config_path, tmp_path):
        code, _, _ = run(capsys, "sweep", "--config", str(config_path),
                         "--param", "beta", "--values", "0.5,0.6,0.7",
                         "--out", str(tmp_path), "--format", "csv")
        assert code == 0
        lines = (tmp_path / "sweep_beta.csv").read_text().splitlines()
        assert len(lines) == 4

    def test_phi_int_svg(self, capsys, config_path, tmp_path):
        code, _, _ = run(capsys, "sweep", "--config", str(config_path),
                         "--param", "phi-int", "--values", "0.0019,0.0034,0.0046",
                         "--out", str(tmp_path), "--format", "svg")
        assert code == 0
        assert (tmp_path / "sweep_phi_int_mean.svg").read_text().startswith("<?xml")

    def test_unsorted_values_rejected(self, capsys, config_path, tmp_path):
        code, _, err = run(capsys, "sweep", "--config", str(config_path),
                           "--param", "lf", "--values", "0.02,0.01",
                           "--out", str(tmp_path))
        assert code == 1
        assert "increasing" in err

    def test_seed_override_changes_training_costs(self, capsys, config_path):
        code, out_a, _ = run(capsys, "price", "--config", str(config_path),
                             "--seed", "1")
        assert code == 0
        code, out_b, _ = run(capsys, "price", "--config", str(config_path),
                             "--seed", "2")
        assert code == 0
        cost_a = dict(l.split(" = ") for l in out_a.strip().splitlines())["cost_training"]
        cost_b = dict(l.split(" = ") for l in out_b.strip().splitlines())["cost_training"]
        assert cost_a != cost_b

    def test_point_the_model_cannot_price_is_a_flagged_row(self, capsys, config_path, tmp_path):
        # at a training cost of 1e308 the lf solve meets a non-finite cost
        code, _, err = run(capsys, "sweep", "--config", str(config_path),
                           "--param", "unit-training-cost", "--values", "50,1e308",
                           "--out", str(tmp_path))
        assert (code, err) == (0, "")
        priced, flagged = _csv_rows(tmp_path / "sweep_unit_training_cost.csv")
        assert all(math.isfinite(float(x)) for x in priced[3:])
        assert flagged[3:] == ["NA"] * 4


@pytest.fixture(scope="module")
def costly_training_path(tmp_path_factory):
    # the baseline whose lf solve meets a non-finite cost: the model cannot
    # price its full variant
    path = tmp_path_factory.mktemp("cli") / "costly.cfg"
    path.write_text("learning.unit_training_cost = 1e308\n")
    return path


@pytest.mark.parametrize("param, values", [
    ("beta", "0.1,0.2"), ("phi-int", "0.002,0.004"), ("lf", "0.004,0.3")])
def test_sweep_of_a_base_the_model_cannot_price_flags_every_row(capsys, costly_training_path,
                                                                tmp_path, param, values):
    code, _, err = run(capsys, "sweep", "--config", str(costly_training_path),
                       "--param", param, "--values", values, "--out", str(tmp_path))
    assert (code, err) == (0, "")
    rows = _csv_rows(next(tmp_path.glob("*.csv")))
    assert len(rows) == 2
    assert all(row[3:] == ["NA"] * 4 for row in rows)


def test_base_the_model_cannot_price_is_infeasible(capsys, costly_training_path, tmp_path):
    errors = []
    for argv in (("price",), ("compare", "--out", str(tmp_path))):
        code, out, err = run(capsys, *argv, "--config", str(costly_training_path))
        assert (code, out) == (2, "")
        errors.append(err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("infeasible model: non-finite cost or derivative at lf = ")
    assert errors[0].count("\n") == 1


#: The config keys whose parser reads floats.
FLOAT_KEYS = [key for key, _, name, parse in _FIELDS if name and parse in (float, _floats)]


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_negative_zero_prints_as_zero(capsys, tmp_path, key):
    base = tmp_path / "base.cfg"
    save_scenario(default_scenario(), base)
    lines = dict(line.split(" = ", 1) for line in base.read_text().splitlines()[1:])
    if key in ("market.tco", "market.c_lease", "market.c_ops"):
        # the price ceiling and the TCO triple exclude each other
        lines.pop("market.price_ceiling")
    config, out = tmp_path / "c.cfg", tmp_path / "out"

    def outcomes(value: str) -> list:
        lines[key] = value
        config.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        found = []
        for argv in (("price",), ("compare", "--out", str(out))):
            found.append(run(capsys, *argv, "--config", str(config)))
            written = out / "compare.csv"
            found.append(written.read_bytes() if written.exists() else None)
            written.unlink(missing_ok=True)
        return found

    assert outcomes("-0.0") == outcomes("0.0")
