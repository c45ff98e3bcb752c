"""Robustness property: every config either prices to finite KPIs with exit 0
or exits with its documented code (1 validation, 2 infeasible) and one line
on stderr, never with a traceback.  A sweep that argparse accepts exits 0
or 1, never 2: a point that the model cannot price is a flagged row of
``NA`` KPIs.  One judge decides validity: on a config that parses,
``price``, ``compare`` and ``optimize-lf`` exit 1 exactly when
``validate_scenario`` returns violations, and a sweep exits 1 on those too
(and on a swept point that breaks a rule).  A sweep rejects a swept point exactly when
``validate_scenario`` rejects that point's scenario, with the same
message.  The one warning a run may print is the model's floored-rate
warning, at most once per text, and only for a config that passed its
checks: a config that fails them prints its one validation error alone.

Each example takes a base config (the shipped baseline or a generated
benchmark base) and sets one to three fields to an extreme value or to a
value next to the bound of a field rule, then runs one CLI command in
process.  Horizons stay small: a horizon that fits an index is allocated.
Two more properties draw the swept values of a sweep from the same kind of
extremes, in the CLI and in the library, and one edits the command line into
an argparse usage error, which exits 2 with argparse's usage text.
"""

import contextlib
import io
import math
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fscontract import (
    ScenarioValidationError,
    SweepSpec,
    default_scenario,
    internal_rate_series,
    save_scenario,
    scaled_to_mean,
    sweep,
    validate_scenario,
)
from fscontract.cli import main
from fscontract.report import SWEEP_PARAMS
from fscontract.scenario import (
    _FIELDS,
    ConfigError,
    _floats,
    _read_scenario,
    parse_config,
    scenario_from_overrides,
)

from conftest import FREE_BILLS, generated_scenarios

#: The extremes every float field is tried at.
EXTREMES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308, 5e-324, 1e-308)
#: Values next to the float rules' bounds (0, 1/2 and 1).
NEAR_BOUNDS = (-5e-324, math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0),
               math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0))
#: Config text for the integer fields: next to their rules' bounds, and
#: extremes that do not parse as integers.
INT_VALUES = {
    "grid.z_periods": ("-1", "0", "1", "2", "nan", "1e308"),
    "failure.stage_bounds": ("4,16", "0,16,20", "4,4,20", "4,16,19", "4,16,21", "1,2,3"),
    "cost.m0_os": ("0", "1", "2", "inf"),
    "market.d_customers": ("0", "1", "2", "-inf", str(10**308), str(10**309)),
    "rng_seed": ("-1", "0", str(2**64 - 1), str(2**64)),
}
#: The float keys, and those among them that take one value per period.
FLOAT_KEYS = tuple(key for key, _, name, parse in _FIELDS if name and parse in (float, _floats))
PER_PERIOD_KEYS = tuple(key for key, _, name, parse in _FIELDS if name and parse is _floats)
TCO_KEYS = {"market.tco", "market.c_lease", "market.c_ops"}

COMMANDS = (
    ("price", "--variant", "full"),
    ("price", "--variant", "auto"),
    ("price", "--variant", "bench"),
    ("optimize-lf",),
    ("compare", "--format", "csv"),
    ("sweep", "--param", "beta", "--values", "0.2,0.5,2"),
    ("sweep", "--param", "lf", "--values", "0.004,0.3"),
    ("sweep", "--param", "unit-training-cost", "--values", "1,1e6"),
    ("sweep", "--param", "phi-int", "--values", "0.002,0.004"),
)


def _config_lines(s) -> dict[str, str]:
    """The saved config text of a scenario, by key."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "base.cfg"
        save_scenario(s, path)
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return dict(line.split(" = ", 1) for line in lines)


_GENERATED = generated_scenarios((1,))
#: The baseline; the same with repair costs per period; a cli_cold base
#: priced under a TCO triple; market_sweep bases 0 and 7 (M* = 2 on base 7);
#: and the 300-period long_horizon base.  All but the baseline and
#: market_sweep base 0 use the parametric internal series.
BASES = [_config_lines(s) for s in [
    default_scenario(),
    replace(default_scenario(), cost=replace(default_scenario().cost, unit_repair_cost=tuple(
        900.0 + 10.0 * j for j in range(20)))),
    _GENERATED[3], _GENERATED[8], _GENERATED[15], _GENERATED[23]]]


@st.composite
def edits(draw):
    """One to three (key, config text) edits of a base, and the base."""
    base = draw(st.integers(0, len(BASES) - 1))
    keys = draw(st.lists(st.sampled_from(FLOAT_KEYS + tuple(INT_VALUES)), min_size=1,
                         max_size=3, unique=True))
    out = {}
    for key in keys:
        if key in INT_VALUES:
            out[key] = draw(st.sampled_from(INT_VALUES[key]))
            continue
        value = repr(draw(st.sampled_from(EXTREMES + NEAR_BOUNDS)))
        given = BASES[base].get(key, "")
        if key in PER_PERIOD_KEYS and "," in given and draw(st.booleans()):
            # one period of a per-period list
            cells = given.split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = value
            value = ",".join(cells)
        out[key] = value
    return base, out


def _finite_kpis(argv, stdout: str, out_dir: Path) -> bool:
    """Whether every KPI that the command printed or wrote is finite (a
    flagged infeasible sweep row is all NA, the pay-per-repair row has no
    market share)."""
    if argv[0] in ("price", "optimize-lf"):
        values = dict(line.split(" = ") for line in stdout.splitlines())
        return all(math.isfinite(float(v)) for k, v in values.items() if k != "variant")
    path = next(out_dir.glob("*.csv"))
    for row in path.read_text(encoding="utf-8").splitlines()[1:]:
        variant, _, _, *kpis = row.split(",")
        if variant == "os":
            kpis = kpis[:3]
        if kpis != ["NA"] * len(kpis) and not all(math.isfinite(float(x)) for x in kpis):
            return False
    return True


def _run(tmp_path_factory, base: int, changes: dict, argv) -> None:
    lines = dict(BASES[base])
    lines.update(changes)
    # the price ceiling and the TCO triple exclude each other: an edit of
    # one drops the other
    if TCO_KEYS & changes.keys():
        lines.pop("market.price_ceiling", None)
    if "market.price_ceiling" in changes:
        for key in TCO_KEYS:
            lines.pop(key, None)
    work = tmp_path_factory.mktemp("robust")
    path = work / "c.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()), encoding="utf-8")
    out = ("--out", str(work / "out")) if argv[0] in ("compare", "sweep") else ()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, "--config", str(path), *out])
    # the model's only warning is a floored parametric rate, which a process
    # prints on stderr before the outcome; numpy's warnings are silenced
    messages = [str(w.message) for w in caught]
    assert all(m.startswith("internal rate undershoots zero") for m in messages), messages
    assert len(set(messages)) == len(messages), messages
    try:
        scenario = _read_scenario(path)
    except ConfigError:
        assert code == 1 and not caught, (code, messages)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            violations = validate_scenario(scenario)
        # only a sweep may also reject a config that passes, at a swept point
        if violations or argv[0] != "sweep":
            assert (code == 1) == bool(violations), (code, violations)
        # the warning comes only once the config passed its checks
        assert not (violations and caught), messages
    err = stderr.getvalue().splitlines()
    if code == 0:
        assert err == []
        assert _finite_kpis(argv, stdout.getvalue(), work / "out"), stdout.getvalue()
    else:
        # a sweep flags a point that the model cannot price
        assert code in ((1,) if argv[0] == "sweep" else (1, 2)), err
        assert len(err) == 1, err
        assert err[0].startswith(("validation error:", "error:", "infeasible model:")), err


@settings(max_examples=250, deadline=None, derandomize=True)
@given(edit=edits(), argv=st.sampled_from(COMMANDS))
# the risk premium overflows to inf, and to NaN times a zero variance
@example(edit=(0, {"market.alpha_max": "1e+308"}), argv=COMMANDS[0])
@example(edit=(0, {"market.alpha_max": "1e+308", "cost.repair_cost_sd": "0.0",
                   "cost.unit_repair_cost": "0.0"}), argv=COMMANDS[4])
# the price ceiling derived from the TCO triple overflows
@example(edit=(2, {"market.c_lease": "-1e+308", "market.c_ops": "-1e+308"}), argv=COMMANDS[0])
# a zero internal series cannot be rescaled by a phi-int sweep
@example(edit=(0, {"failure.internal_series": "0.0"}), argv=COMMANDS[8])
# the pay-per-repair maintenance bill overflows
@example(edit=(0, {"cost.avg_maintenance_cost": "1e+308", "cost.delay_probability": "1e-300",
                   "market.price_ceiling": "1178.2205688837782"}), argv=COMMANDS[2])
# the profit of 10^308 customers overflows, and 10^309 do not fit a float
@example(edit=(0, {"market.d_customers": str(10**308)}), argv=COMMANDS[0])
@example(edit=(3, {"market.d_customers": str(10**309)}), argv=COMMANDS[5])
# a floored parametric series whose config then fails its checks
@example(edit=(2, {"failure.m": "1e-308"}), argv=COMMANDS[0])
# an sd of -0.0 passes the sd >= 0 rule, and numpy refused it as a scale
@example(edit=(0, {"failure.ext_sd": "-0.0"}), argv=COMMANDS[0])
# free bills under a huge mark-up: the pay-per-repair profit was inf times 0
@example(edit=(0, dict(line.split(" = ") for line in FREE_BILLS.splitlines())),
         argv=COMMANDS[4])
# the lf solve of the base meets a non-finite cost: a sweep flags every row
@example(edit=(0, {"learning.unit_training_cost": "1e+308"}), argv=COMMANDS[5])
def test_finite_kpis_or_a_documented_exit(tmp_path_factory, edit, argv):
    base, changes = edit
    _run(tmp_path_factory, base, changes, argv)


def test_zero_variance_market_at_an_overflowing_premium(tmp_path_factory):
    # alpha_max, beta and a zero variance together: the NaN premium of the
    # ROADMAP's robustness item, on every command
    changes = {"market.alpha_max": "1e+308", "market.beta": "1.0",
               "cost.repair_cost_sd": "0.0", "cost.unit_repair_cost": "0.0"}
    for argv in COMMANDS:
        _run(tmp_path_factory, 0, changes, argv)


#: Swept values: extremes, zero, a negative value and the values next to 1.
SWEPT = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e308, -1e308, 5e-324, 1e300, 1e-300,
         math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0))


@st.composite
def swept_values(draw):
    """One to three distinct swept values, increasing (NaN last), as the
    text of ``--values=``."""
    values = draw(st.lists(st.sampled_from(SWEPT), min_size=1, max_size=3, unique_by=repr))
    values.sort(key=lambda v: (math.isnan(v), v))
    return ",".join(map(repr, values))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(base=st.integers(0, len(BASES) - 1),
       param=st.sampled_from(("beta", "phi-int", "lf", "unit-training-cost")),
       values=swept_values())
# lf^2 underflows to zero: the revised model's E'' divided by it
@example(base=0, param="lf", values="5e-324,nan")
# the lf solve at this training cost meets a non-finite cost
@example(base=0, param="unit-training-cost", values="1.0,1e+308")
def test_swept_values_give_finite_kpis_or_a_documented_exit(tmp_path_factory, base, param,
                                                            values):
    _run(tmp_path_factory, base, {}, ("sweep", "--param", param, f"--values={values}"))


#: The scenarios of the bases.
_BASE_SCENARIOS = [scenario_from_overrides(parse_config(
    "".join(f"{k} = {v}\n" for k, v in lines.items()))) for lines in BASES]


def _point(s, param: str, value: float):
    """The scenario of one swept point, built as the ``report`` module
    docstring says."""
    if param == "phi_int_mean":
        return scaled_to_mean(s, value, internal_rate_series(s.failure, s.grid))
    section = "market" if param == "beta" else "learning"
    return replace(s, **{section: replace(getattr(s, section), **{param: value})})


@settings(max_examples=100, deadline=None, derandomize=True)
@given(base=st.integers(0, len(BASES) - 1), param=st.sampled_from(tuple(SWEEP_PARAMS)),
       value=st.sampled_from(SWEPT))
def test_a_sweep_rejects_a_point_exactly_when_validate_scenario_does(base, param, value):
    s = _BASE_SCENARIOS[base]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            point = _point(s, param, value)
        except ScenarioValidationError:
            return
        violations = validate_scenario(point)
        try:
            sweep(SweepSpec(param, (value,)), s)
        except ScenarioValidationError as exc:
            assert violations and str(exc) == "; ".join(map(str, violations)), (exc, violations)
        else:
            assert violations == []


@st.composite
def usage_errors(draw):
    """A command with one edit that argparse refuses: an option left with no
    value, a negative value list given without ``=``, or an unknown flag."""
    kind = draw(st.sampled_from(("missing", "negative", "unknown")))
    sweeps = [c for c in COMMANDS if c[0] == "sweep"]
    argv = list(draw(st.sampled_from(sweeps if kind == "negative" else COMMANDS)))
    if kind == "missing":
        # followed by another option: the config path comes last
        argv.insert(1, draw(st.sampled_from(("--config", "--seed"))))
    elif kind == "negative":
        i = argv.index("--values") + 1
        argv[i] = "-1," + argv[i]
    else:
        argv.insert(draw(st.integers(1, len(argv))), "--bogus")
    return argv


@settings(max_examples=30, deadline=None, derandomize=True)
@given(argv=usage_errors())
def test_usage_errors_exit_2(tmp_path_factory, argv):
    work = tmp_path_factory.mktemp("usage")
    path = work / "c.cfg"
    save_scenario(default_scenario(), path)
    out = ("--out", str(work / "out")) if argv[0] in ("compare", "sweep") else ()
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr), \
            pytest.raises(SystemExit) as exc:
        main([*argv, "--config", str(path), *out])
    assert exc.value.code == 2
    err = stderr.getvalue().splitlines()
    assert err[0].startswith("usage: fscontract"), err
    assert err[-1].startswith("fscontract") and ": error: " in err[-1], err
