"""Command-line interface.

    fscontract price --config scenario.cfg [--variant full|auto|bench]
    fscontract optimize-lf --config scenario.cfg
    fscontract compare --config scenario.cfg --out DIR --format csv|markdown
    fscontract sweep --config scenario.cfg --param beta|phi-int|lf|unit-training-cost \
        --values 0.5,0.6,0.7 --out DIR --format csv|plotdata|svg

Exit codes: 0 success, 1 validation error, 2 infeasible model (a sweep writes
a point the model cannot price as an ``NA`` row), 3 I/O error.
argparse also exits 2 on a usage error (a missing or unknown option, an
option with no value).  A ``--values`` list that starts with a minus sign
reads as an option: give negative sweep values as ``--values=-1,0.5``.
A config that does not parse fails first; ``sweep`` then checks its
``--values`` list, and only then the scenario.  Each floored internal rate
prints one ``warning: <text>`` line on stderr, after the checks pass.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import replace
from pathlib import Path

from .pricing import INFEASIBLE, VARIANTS, _validated
from .report import FORMATS, SWEEP_PARAMS, SweepSpec, compare_models, emit_report, sweep
from .scenario import ConfigError, Scenario, ScenarioValidationError, _read_scenario

_PARAM_BY_FLAG = {flag: param for param, (flag, _) in SWEEP_PARAMS.items()}

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3


def _load(args) -> Scenario:
    """The config's scenario with the ``--seed`` override; each command
    checks it once, on the cost side it prices with."""
    scenario = _read_scenario(args.config)
    if args.seed is not None:
        scenario = replace(scenario, rng_seed=args.seed)
    return scenario


def _cmd_price(args) -> int:
    cost_side = _validated(_load(args))
    sol = cost_side.price(args.variant)
    print(f"variant = {sol.variant}")
    print(f"price = {sol.price:.6f}")
    print(f"interior_price = {sol.interior_price:.6f}")
    print(f"lower_bound = {sol.lower_bound:.6f}")
    print(f"upper_bound = {sol.upper_bound:.6f}")
    print(f"fs_share = {sol.fs_share:.6f}")
    print(f"profit = {sol.profit:.6f}")
    print(f"m_count = {sol.m_count}")
    if sol.lf_star is not None:
        print(f"lf_star = {sol.lf_star:.8f}")
    print(f"cost_repair = {sol.breakdown.repair:.6f}")
    print(f"cost_maintenance = {sol.breakdown.maintenance:.6f}")
    print(f"cost_delay = {sol.breakdown.delay:.6f}")
    print(f"cost_training = {sol.breakdown.training:.6f}")
    print(f"cost_total = {sol.breakdown.total:.6f}")
    return EXIT_OK


def _cmd_optimize_lf(args) -> int:
    cost_side = _validated(_load(args))
    sol = cost_side.lf_solution
    m = cost_side.plan.m_count
    print(f"lf_star = {sol.lf_star:.8f}")
    print(f"cost_at_star = {sol.cost_at_star:.6f}")
    print(f"vertex_hint = {sol.vertex_hint:.8f}")
    print(f"iterations = {sol.iterations}")
    print(f"feasible_lo = {sol.feasible_range[0]:.8f}")
    print(f"feasible_hi = {sol.feasible_range[1]:.8f}")
    print(f"m_count = {m}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    return _write(compare_models(_load(args)), args, "compare")


def _cmd_sweep(args) -> int:
    s = _load(args)
    try:
        values = tuple(float(x) for x in args.values.split(","))
    except ValueError:
        print("error: --values must be a comma-separated list of numbers", file=sys.stderr)
        return EXIT_VALIDATION
    param = _PARAM_BY_FLAG[args.param]
    try:
        spec = SweepSpec(param=param, values=values)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return _write(sweep(spec, s), args, f"sweep_{param}")


def _write(records, args, stem: str) -> int:
    """Emit the records to ``--out``/``stem`` in ``--format``, with its extension."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{stem}.{FORMATS[args.format][0]}"
    emit_report(records, args.format, path)
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fscontract",
                                     description="Full-service repair contract pricing")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario config file")
        p.add_argument("--seed", type=int, default=None, help="override the scenario RNG seed")

    p = sub.add_parser("price", help="price one model variant")
    common(p)
    p.add_argument("--variant", choices=VARIANTS, default="full")
    p.set_defaults(func=_cmd_price)

    p = sub.add_parser("optimize-lf", help="optimize the training frequency")
    common(p)
    p.set_defaults(func=_cmd_optimize_lf)

    p = sub.add_parser("compare", help="three-way model comparison table")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sweep", help="KPI sweep over one parameter")
    common(p)
    p.add_argument("--param", choices=tuple(_PARAM_BY_FLAG), required=True)
    p.add_argument("--values", required=True, help="comma-separated sweep values")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=("csv", "plotdata", "svg"), default="csv")
    p.set_defaults(func=_cmd_sweep)
    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    """``warning: <text>``, in place of Python's two lines with the source."""
    return f"warning: {message}\n"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        return args.func(args)
    except (ConfigError, ScenarioValidationError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except INFEASIBLE as exc:
        print(f"infeasible model: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    raise SystemExit(main())
