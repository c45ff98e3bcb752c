"""Model comparisons, parameter sweeps and report emission.

KPI tables compare the full model ("new"), the autonomous-learning-only
model ("old") and pure pay-per-repair service, or trace one KPI set along a
swept parameter.  Emitters produce CSV, markdown, plain x/y plot data and a
dependency-free SVG line chart; all outputs are byte-deterministic for
identical inputs.  Each text row is the swept value, exactly (its ``repr``),
then the KPI columns (``_KPIS``) to 6 decimals, ``NA`` where not priced.

A comparison and a sweep check the scenario they are given with the CLI's
check (:func:`~fscontract.pricing._validated`): what
:func:`~fscontract.scenario.validate_scenario` rejects raises
:class:`~fscontract.scenario.ScenarioValidationError`, and floored-rate
warnings come only once the check passes.  A comparison prices every row
on that one checked :class:`~fscontract.pricing.CostSide`, so the rates,
maintenance plan, cost moments and lf search are computed once.

A sweep prices the full model.  It checks the base at its own values, and
each point only against the rules that read the config keys its parameter
changes.  The mark-up ``beta`` and a fixed ``lf`` leave the base's cost
side whole, and only the market side reruns.  A ``beta`` sweep checks and
prices its whole array of mark-ups at once: the ``market.beta`` rules and
the risk premium on the array, then one call of the market-side kernel.
``unit_training_cost`` enters only the lf problem: each point shares the
base's rates, maintenance plan and cost moments and the previous point's
feasible lf interval, and reruns the lf search and the market side.
``phi_int_mean`` rescales the rates: each point builds one cost side on the
base's internal series, scaled, and the base's external draw (a point
changes neither the seed, the horizon nor the external moments), checks the
optimizer's assumptions on it and prices on it.
A point the model cannot price (:data:`~fscontract.pricing.INFEASIBLE`)
is a flagged row of NaN KPIs, whatever the cause; so is every row of a
``beta`` sweep whose base's ``full`` cost cannot be solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .failure import scaled_to_mean
from .pricing import (
    INFEASIBLE,
    CostSide,
    PricingSolution,
    _swept_beta_violations,
    _validated,
    market_side,
)
from .scenario import Scenario, _field_violations, _raise_on

#: One row per sweep parameter: its command-line flag, and the config keys
#: whose values its points change.
SWEEP_PARAMS = {
    "beta": ("beta", ("market.beta",)),
    "phi_int_mean": ("phi-int", ("failure.phi0_int", "failure.internal_series")),
    "lf": ("lf", ("learning.lf",)),
    "unit_training_cost": ("unit-training-cost", ("learning.unit_training_cost",)),
}

#: The KPI columns of every report, in order; each names a field of
#: :class:`KpiRecord`.
_KPIS = ("price", "cost", "profit", "fs_share")
CSV_HEADER = ",".join(("variant", "param", "value") + _KPIS)


class KpiRecord(NamedTuple):
    """One row of a comparison or sweep table (prices in thousands of $)."""

    variant: str
    swept_param: str | None
    swept_value: float
    price: float
    cost: float
    profit: float
    fs_share: float

    @property
    def feasible(self) -> bool:
        """Whether the model priced this row: a flagged row's KPIs are NaN."""
        return not math.isnan(self.price)


@dataclass(frozen=True)
class SweepSpec:
    """A sweep axis: which parameter and which values; sweeps price ``full``."""

    param: str
    values: tuple[float, ...]

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


def compare_models(s: Scenario) -> list[KpiRecord]:
    """The three-way KPI comparison: full model, old model, pay-per-repair.

    ``s`` is checked first (see the module docstring).  The pay-per-repair
    row prices at cost plus mark-up; its market share is not applicable and
    reported as NaN.  Its profit, d_customers (beta E), is finite: once
    ``full`` has priced, its floor (a total cost of at least 0, plus beta E)
    is at most the price ceiling, so beta E is too, and the
    ``market.d_customers`` rule keeps d_customers times the ceiling below
    half the largest float.
    """
    cost_side = _validated(s)
    full = cost_side.price("full")
    auto = cost_side.price("auto")
    osm = cost_side.os_moments
    beta = s.market.beta
    os_row = KpiRecord(
        variant="os",
        swept_param=None,
        swept_value=float("nan"),
        price=(1.0 + beta) * osm.mean,
        cost=osm.mean,
        profit=s.market.d_customers * (beta * osm.mean),
        fs_share=float("nan"),
    )
    return [_record(full, None, float("nan")), _record(auto, None, float("nan")), os_row]


def sweep(spec: SweepSpec, s: Scenario) -> list[KpiRecord]:
    """The full model's KPI set at each swept value, all else held fixed.

    ``s`` is checked first, at its own values (see the module docstring).
    An lf sweep prices the full model at the given training frequency
    instead of re-optimizing it.  A swept value that breaks a scenario
    invariant raises :class:`~fscontract.scenario.ScenarioValidationError`;
    a value that the model cannot price (see the module docstring) yields a
    flagged NaN record and the sweep continues.
    """
    base = _validated(s)
    if spec.param == "beta":
        return _beta_sweep(spec, base)
    records = []
    cost_side = base
    for value in spec.values:
        if spec.param == "phi_int_mean":
            scenario = scaled_to_mean(s, value, base.internal)
        elif spec.param == "lf":
            scenario = replace(s, learning=replace(s.learning, lf=value))
        else:
            # from the point before, whose lf search found the feasible interval
            cost_side = cost_side.with_training_cost(value)
            scenario = cost_side.scenario
        # only rules that read a swept key can fail; a fixed lf keeps the
        # cost side whole (see the module docstring)
        _raise_on(_field_violations(scenario, SWEEP_PARAMS[spec.param][1]))
        if spec.param == "phi_int_mean":
            # new rates; the seed, horizon and external moments stay
            cost_side = CostSide(scenario, external=base.external)
            _raise_on(cost_side.violations())
        lf = value if spec.param == "lf" else None
        try:
            records.append(_record(cost_side.price("full", lf), spec.param, value))
        except INFEASIBLE:
            records.append(_infeasible(spec.param, value))
    return records


def _infeasible(param: str, value: float) -> KpiRecord:
    return KpiRecord("full", param, value, *[math.nan] * len(_KPIS))


def _beta_sweep(spec: SweepSpec, cost_side: CostSide) -> list[KpiRecord]:
    """A mark-up sweep: the base's checked cost side, its market side over
    the whole array of mark-ups (see the module docstring)."""
    s = cost_side.scenario
    osm = cost_side.os_moments
    betas = np.array(spec.values, dtype=float)
    _raise_on(_swept_beta_violations(s, betas, osm.variance))
    try:
        breakdown = cost_side.variant_cost("full")[0]
    except INFEASIBLE:
        return [_infeasible("beta", value) for value in spec.values]
    sides = market_side(breakdown, osm, s.market, betas)
    cost = breakdown.total
    return [_infeasible("beta", value) if infeasible
            else KpiRecord("full", "beta", value, price, cost, profit, share)
            for value, infeasible, price, profit, share in zip(
                spec.values, (sides.lower > sides.upper).tolist(), sides.price.tolist(),
                sides.profit.tolist(), sides.fs_share.tolist())]


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _num(x: float) -> str:
    return "NA" if math.isnan(x) else f"{x:.6f}"


def _cells(r: KpiRecord, no_value: str) -> list[str]:
    """A row's swept-value cell, exact (``repr``) or ``no_value`` where the
    row has none, then its KPI cells."""
    value = no_value if math.isnan(r.swept_value) else repr(float(r.swept_value))
    return [value] + [_num(getattr(r, kpi)) for kpi in _KPIS]


def _csv_lines(records: list[KpiRecord]) -> list[str]:
    return [CSV_HEADER] + [",".join([r.variant, r.swept_param or ""] + _cells(r, ""))
                           for r in records]


def _markdown_lines(records: list[KpiRecord]) -> list[str]:
    header = CSV_HEADER.split(",")
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join(["---"] * len(header)) + "|"]
    for row in _csv_lines(records)[1:]:
        lines.append("| " + " | ".join(row.split(",")) + " |")
    return lines


def _plotdata_lines(records: list[KpiRecord]) -> list[str]:
    return [" ".join(("# value",) + _KPIS)] + [" ".join(_cells(r, "nan")) for r in records]


_PANEL_W, _PANEL_H, _MARGIN = 480, 120, 46


def _svg_polyline(points: list[tuple[float, float]]) -> str:
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return f'<polyline fill="none" stroke="#1f6fb2" stroke-width="1.5" points="{coords}"/>'


def _svg_lines(records: list[KpiRecord]) -> list[str]:
    xs = [r.swept_value for r in records]
    if any(math.isnan(x) for x in xs):
        xs = list(range(1, len(records) + 1))
    height = _MARGIN + len(_KPIS) * (_PANEL_H + _MARGIN)
    width = _PANEL_W + 2 * _MARGIN
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    x_lo, x_hi = min(xs), max(xs)
    x_span = (x_hi - x_lo) or 1.0
    for i, kpi in enumerate(_KPIS):
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
    return parts


#: One row per output format: its file extension, and the function that
#: returns the lines of its text.
FORMATS = {
    "csv": ("csv", _csv_lines),
    "markdown": ("md", _markdown_lines),
    "plotdata": ("dat", _plotdata_lines),
    "svg": ("svg", _svg_lines),
}


def emit_report(records: list[KpiRecord], fmt: str, path: str | Path) -> None:
    """Write the records in the requested format (deterministic bytes)."""
    if not records:
        raise ValueError("no records to emit")
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    lines = FORMATS[fmt][1](records)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_kpi_csv(path: str | Path) -> list[KpiRecord]:
    """Parse a CSV emitted by :func:`emit_report` back into records."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: not a KPI csv")
    records = []
    for line in lines[1:]:
        variant, param, *cells = line.split(",")
        value, *kpis = (float("nan") if c in ("NA", "") else float(c) for c in cells)
        records.append(KpiRecord(variant, param or None, value,
                                 **dict(zip(_KPIS, kpis, strict=True))))
    return records
