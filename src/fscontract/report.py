"""Model comparisons, parameter sweeps and report emission.

KPI tables compare the full model ("new"), the autonomous-learning-only
model ("old") and pure pay-per-repair service, or trace one KPI set along a
swept parameter.  Emitters produce CSV, markdown, plain x/y plot data and a
dependency-free SVG line chart; all outputs are byte-deterministic for
identical inputs.

A comparison prices every row from one :class:`~fscontract.pricing.CostSide`,
so the rates, maintenance plan, cost moments and lf search are computed
once.  A sweep checks every field rule once, at its first point (not at
all when it is handed a checked cost side), and at each later point only
the rules that read the config keys its parameter changes.  It shares the
cost side between points wherever the swept value leaves it unchanged.  The
mark-up ``beta`` and a fixed ``lf`` leave it whole: the sweep builds it
once, checks the optimizer's assumptions on it once, and reruns only the
market side.  A ``beta`` sweep checks and prices its whole array of
mark-ups at once: the ``market.beta`` rules and the risk premium on the
array, then one call of the market-side kernel on the held cost side, with
no new scenario or market per point.
``unit_training_cost`` enters only the lf problem: each point shares the
previous point's rates, maintenance plan and cost moments, the assumptions
are checked once, and only the lf search and the market side rerun.
``phi_int_mean`` rescales the rates, so it builds one cost side per point,
shared by that point's checks and its price.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .pricing import (
    CostSide,
    InfeasiblePriceError,
    InfeasibleTrainingError,
    PricingSolution,
    market_side,
)
from .scenario import (
    Scenario,
    ScenarioValidationError,
    _checked_cost_side,
    _field_violations,
    _swept_beta_violations,
    scaled_to_mean,
)

SWEEP_PARAMS = ("beta", "phi_int_mean", "lf", "unit_training_cost")
FORMATS = ("csv", "markdown", "plotdata", "svg")

CSV_HEADER = "variant,param,value,price,cost,profit,fs_share"


class KpiRecord(NamedTuple):
    """One row of a comparison or sweep table (prices in thousands of $)."""

    variant: str
    swept_param: str | None
    swept_value: float
    price: float
    cost: float
    profit: float
    fs_share: float
    feasible: bool = True


@dataclass(frozen=True)
class SweepSpec:
    """A sweep axis: which parameter, which values, which model variant."""

    param: str
    values: tuple[float, ...]
    variant: str = "full"

    def __post_init__(self):
        if self.param not in SWEEP_PARAMS:
            raise ValueError(f"unknown sweep parameter {self.param!r}")
        if not self.values:
            raise ValueError("sweep needs at least one value")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("sweep values must be strictly increasing")


def _record(sol: PricingSolution, param: str | None, value: float) -> KpiRecord:
    return KpiRecord(
        variant=sol.variant,
        swept_param=param,
        swept_value=value,
        price=sol.price,
        cost=sol.breakdown.total,
        profit=sol.profit,
        fs_share=sol.fs_share,
    )


def compare_models(s: Scenario, cost_side: CostSide | None = None) -> list[KpiRecord]:
    """The three-way KPI comparison: full model, old model, pay-per-repair.

    The pay-per-repair row prices at cost plus mark-up; its market share is
    not applicable and reported as NaN.  ``cost_side`` is a cost side of
    ``s`` that the caller already holds.
    """
    if cost_side is None:
        cost_side = CostSide(s)
    full = cost_side.price("full", s.market)
    auto = cost_side.price("auto", s.market)
    osm = cost_side.os_moments
    beta = s.market.beta
    os_row = KpiRecord(
        variant="os",
        swept_param=None,
        swept_value=float("nan"),
        price=(1.0 + beta) * osm.mean,
        cost=osm.mean,
        profit=s.market.d_customers * beta * osm.mean,
        fs_share=float("nan"),
    )
    return [_record(full, None, float("nan")), _record(auto, None, float("nan")), os_row]


#: The config keys whose values each sweep parameter but ``beta`` changes.
_CHANGED_KEYS = {
    "phi_int_mean": ("failure.phi0_int", "failure.internal_series"),
    "lf": ("learning.lf",),
    "unit_training_cost": ("learning.unit_training_cost",),
}


def _swept_scenario(s: Scenario, param: str, value: float) -> Scenario:
    if param == "beta":
        return replace(s, market=replace(s.market, beta=value))
    if param == "phi_int_mean":
        return scaled_to_mean(s, value)
    if param == "lf":
        return replace(s, learning=replace(s.learning, lf=value))
    return replace(s, learning=replace(s.learning, unit_training_cost=value))


def _raise_on(violations) -> None:
    if violations:
        raise ScenarioValidationError(violations)


def sweep(spec: SweepSpec, s: Scenario, cost_side: CostSide | None = None) -> list[KpiRecord]:
    """Evaluate the KPI set at each swept value, everything else held fixed.

    An lf sweep prices the full model at the given training frequency
    instead of re-optimizing it.  A swept value that breaks a scenario
    invariant raises :class:`ScenarioValidationError`; a value that is
    merely infeasible (training exhausted, empty price interval) yields a
    flagged NaN record and the sweep continues.  ``cost_side`` is a cost
    side of ``s`` that the caller already holds and has checked; the
    sweep starts from it wherever the swept value leaves it whole.
    """
    if spec.param == "beta":
        return _beta_sweep(spec, s, cost_side)
    records = []
    for value in spec.values:
        # once a checked cost side is held, only rules that read a swept key can fail
        keys = None if cost_side is None else _CHANGED_KEYS[spec.param]
        scenario = _swept_scenario(s, spec.param, value)
        if cost_side is None or spec.param == "phi_int_mean":
            violations, cost_side = _checked_cost_side(scenario, keys=keys)
            _raise_on(violations)
        else:
            # a fixed lf keeps the cost side whole (see the module docstring)
            _raise_on(_field_violations(scenario, keys))
            if spec.param == "unit_training_cost":
                cost_side = cost_side.with_learning(scenario)
        lf = value if spec.param == "lf" and spec.variant == "full" else None
        try:
            sol = cost_side.price(spec.variant, scenario.market, lf)
            records.append(_record(sol, spec.param, value))
        except (InfeasibleTrainingError, InfeasiblePriceError):
            records.append(_infeasible(spec, value))
    return records


def _infeasible(spec: SweepSpec, value: float) -> KpiRecord:
    nan = float("nan")
    return KpiRecord(spec.variant, spec.param, value, nan, nan, nan, nan, feasible=False)


def _beta_sweep(spec: SweepSpec, s: Scenario, cost_side: CostSide | None) -> list[KpiRecord]:
    """A mark-up sweep: one checked cost side, its market side over the
    whole array of mark-ups (see the module docstring)."""
    if cost_side is None:
        violations, cost_side = _checked_cost_side(_swept_scenario(s, "beta", spec.values[0]))
        _raise_on(violations)
    osm = cost_side.os_moments
    betas = np.array(spec.values, dtype=float)
    _raise_on(_swept_beta_violations(s, betas, osm.variance))
    try:
        breakdown = cost_side.variant_cost(spec.variant)[0]
    except InfeasibleTrainingError:
        return [_infeasible(spec, value) for value in spec.values]
    sides = market_side(breakdown, osm, s.market, betas)
    cost = breakdown.total
    return [_infeasible(spec, value) if infeasible
            else KpiRecord(spec.variant, "beta", value, price, cost, profit, share)
            for value, infeasible, price, profit, share in zip(
                spec.values, (sides.lower > sides.upper).tolist(), sides.price.tolist(),
                sides.profit.tolist(), sides.fs_share.tolist())]


def profit_premium_sweep(s: Scenario, values: tuple[float, ...]) -> list[tuple[float, float]]:
    """Full-model profit advantage over the old model per unit training cost.

    The old model never trains, so its profit is evaluated once at the base
    scenario.  The training cost enters only the lf problem, so every value
    shares the base scenario's rates, maintenance plan and cost moments.
    """
    cost_side = CostSide(s)
    auto_profit = cost_side.price("auto", s.market).profit
    out = []
    for value in values:
        scenario = replace(s, learning=replace(s.learning, unit_training_cost=value))
        full = cost_side.with_learning(scenario).price("full", scenario.market)
        out.append((value, full.profit - auto_profit))
    return out


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _num(x: float) -> str:
    return "NA" if math.isnan(x) else f"{x:.6f}"


def _csv_lines(records: list[KpiRecord]) -> list[str]:
    lines = [CSV_HEADER]
    for r in records:
        param = r.swept_param or ""
        value = "" if math.isnan(r.swept_value) else f"{r.swept_value:.6f}"
        lines.append(",".join([r.variant, param, value, _num(r.price), _num(r.cost),
                               _num(r.profit), _num(r.fs_share)]))
    return lines


def _markdown_lines(records: list[KpiRecord]) -> list[str]:
    header = CSV_HEADER.split(",")
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join(["---"] * len(header)) + "|"]
    for row in _csv_lines(records)[1:]:
        lines.append("| " + " | ".join(row.split(",")) + " |")
    return lines


def _plotdata_lines(records: list[KpiRecord]) -> list[str]:
    lines = ["# value price cost profit fs_share"]
    for r in records:
        x = "nan" if math.isnan(r.swept_value) else f"{r.swept_value:.6f}"
        lines.append(" ".join([x, _num(r.price), _num(r.cost), _num(r.profit),
                               _num(r.fs_share)]))
    return lines


_SVG_KPIS = ("price", "cost", "profit", "fs_share")
_PANEL_W, _PANEL_H, _MARGIN = 480, 120, 46


def _svg_polyline(points: list[tuple[float, float]]) -> str:
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return f'<polyline fill="none" stroke="#1f6fb2" stroke-width="1.5" points="{coords}"/>'


def _svg_text(records: list[KpiRecord]) -> str:
    xs = [r.swept_value for r in records]
    if any(math.isnan(x) for x in xs):
        xs = list(range(1, len(records) + 1))
    height = _MARGIN + len(_SVG_KPIS) * (_PANEL_H + _MARGIN)
    width = _PANEL_W + 2 * _MARGIN
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    x_lo, x_hi = min(xs), max(xs)
    x_span = (x_hi - x_lo) or 1.0
    for i, kpi in enumerate(_SVG_KPIS):
        ys = [getattr(r, kpi) for r in records]
        clean = [y for y in ys if not math.isnan(y)]
        y_lo = min(clean) if clean else 0.0
        y_hi = max(clean) if clean else 1.0
        y_span = (y_hi - y_lo) or 1.0
        top = _MARGIN + i * (_PANEL_H + _MARGIN)
        parts.append(f'<g transform="translate({_MARGIN},{top})">')
        parts.append(f'<rect width="{_PANEL_W}" height="{_PANEL_H}" fill="none" '
                     'stroke="#888" stroke-width="1"/>')
        parts.append(f'<text x="0" y="-8" font-family="monospace" font-size="12">{kpi}</text>')
        parts.append(f'<text x="{_PANEL_W}" y="-8" text-anchor="end" font-family="monospace" '
                     f'font-size="10">min={y_lo:.6g} max={y_hi:.6g}</text>')
        points = []
        for x, y in zip(xs, ys):
            if math.isnan(y):
                continue
            px = (x - x_lo) / x_span * _PANEL_W
            py = _PANEL_H - (y - y_lo) / y_span * _PANEL_H
            points.append((px, py))
        if points:
            parts.append(_svg_polyline(points))
        parts.append(f'<text x="0" y="{_PANEL_H + 14}" font-family="monospace" '
                     f'font-size="10">{x_lo:.6g}</text>')
        parts.append(f'<text x="{_PANEL_W}" y="{_PANEL_H + 14}" text-anchor="end" '
                     f'font-family="monospace" font-size="10">{x_hi:.6g}</text>')
        parts.append('</g>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"


def emit_report(records: list[KpiRecord], fmt: str, path: str | Path) -> None:
    """Write the records in the requested format (deterministic bytes)."""
    if not records:
        raise ValueError("no records to emit")
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    if fmt == "csv":
        text = "\n".join(_csv_lines(records)) + "\n"
    elif fmt == "markdown":
        text = "\n".join(_markdown_lines(records)) + "\n"
    elif fmt == "plotdata":
        text = "\n".join(_plotdata_lines(records)) + "\n"
    else:
        text = _svg_text(records)
    Path(path).write_text(text, encoding="utf-8")


def read_kpi_csv(path: str | Path) -> list[KpiRecord]:
    """Parse a CSV emitted by :func:`emit_report` back into records."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: not a KPI csv")
    records = []
    for line in lines[1:]:
        variant, param, value, price, cost, profit, share = line.split(",")

        def num(cell: str) -> float:
            return float("nan") if cell in ("NA", "") else float(cell)

        records.append(KpiRecord(
            variant=variant,
            swept_param=param or None,
            swept_value=num(value),
            price=num(price),
            cost=num(cost),
            profit=num(profit),
            fs_share=num(share),
            feasible=not math.isnan(num(price)),
        ))
    return records
