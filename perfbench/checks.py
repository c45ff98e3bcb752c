"""Output checks for the benchmark, run outside the timed region.

``classify`` sorts one CLI run into ``ok``, ``rejected`` (a documented exit
1/2/3 with its message) or ``failed``.  The remaining functions return a
list of problems (empty when the output is right) so a run can report
every miss, not just the first.
"""

from __future__ import annotations

import math

#: README/PAPER comparison table for the shipped baseline scenario:
#: variant -> (price, cost, profit, FS share), in k$ and as a fraction.
DOCUMENTED_TABLE = {
    "full": (189.7, 74.7, 5749.0, 1.000),
    "auto": (236.8, 121.8, 5727.0, 0.988),
    "os": (235.8, 157.2, 3931.0, None),
}
#: Half a unit in the last printed digit of each table column.
TABLE_TOLERANCE = (0.05, 0.05, 0.5, 0.0005)

#: First words of the documented error messages, per exit code.
REJECTION_PREFIXES = {
    1: ("validation error:", "error:"),
    2: ("infeasible model:",),
    3: ("i/o error:",),
}

#: Half-width of the lf window in which the cost derivative must change sign
#: (the grid resolution acceptance criterion 03 holds lf* to).
LF_TOLERANCE = 1e-4


def classify(returncode: int, stdout: str, stderr: str) -> tuple[str, str]:
    """Outcome of one CLI run: ``(ok|rejected|failed, reason)``.

    An uncaught exception also exits with 1, so the traceback in stderr
    decides, not the exit code.  Exit 0 must print only finite numbers.
    """
    if "Traceback (most recent call last)" in stderr:
        return "failed", "traceback: " + (stderr.strip().splitlines() or [""])[-1]
    if returncode == 0:
        for key, value in printed_values(stdout).items():
            if not math.isfinite(value):
                return "failed", f"non-finite {key} with exit 0"
        return "ok", ""
    last = (stderr.strip().splitlines() or [""])[-1]
    if last.startswith(REJECTION_PREFIXES.get(returncode, ())):
        return "rejected", last
    return "failed", f"exit {returncode}: {last}"


def printed_values(stdout: str) -> dict[str, float]:
    """The numeric ``key = value`` lines of a CLI run."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            try:
                out[key.strip()] = float(value)
            except ValueError:
                pass
    return out


def close(a: float, b: float, rel: float = 1e-6) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def check_rows(records) -> list[str]:
    """Feasible rows are finite with a share in [0, 1]; infeasible rows are
    all NaN.  The pay-per-repair row has no share (NaN by definition)."""
    problems = []
    for r in records:
        kpis = (r.price, r.cost, r.profit)
        where = f"{r.variant} {r.swept_param}={r.swept_value!r}"
        if r.feasible:
            if not all(math.isfinite(x) for x in kpis):
                problems.append(f"{where}: feasible row with non-finite KPI")
            if r.variant != "os" and not 0.0 <= r.fs_share <= 1.0:
                problems.append(f"{where}: fs_share {r.fs_share!r} outside [0, 1]")
        elif not all(math.isnan(x) for x in kpis + (r.fs_share,)):
            problems.append(f"{where}: infeasible row with finite KPIs")
    return problems


def check_documented_table(records) -> list[str]:
    """The baseline comparison matches the documented table to its printed
    digits and keeps acceptance criterion 06's orderings."""
    rows = {r.variant: r for r in records}
    problems = []
    for variant, expected in DOCUMENTED_TABLE.items():
        row = rows.get(variant)
        if row is None:
            problems.append(f"table: no {variant} row")
            continue
        got = (row.price, row.cost, row.profit, row.fs_share)
        for name, g, e, tol in zip(("price", "cost", "profit", "fs_share"), got, expected,
                                   TABLE_TOLERANCE):
            if e is not None and not abs(g - e) <= tol:
                problems.append(f"table: {variant} {name} {g!r} != {e}")
    if problems:
        return problems
    full, auto, os_ = rows["full"], rows["auto"], rows["os"]
    if not (full.price < os_.price < auto.price and full.cost < auto.cost < os_.cost
            and full.profit > auto.profit > os_.profit
            and full.fs_share == 1.0 and 0.90 <= auto.fs_share < 1.0):
        problems.append("table: criterion 06 orderings broken")
    return problems


def check_solution(sol, where: str) -> list[str]:
    """A pricing solution is finite and its price lies within its bounds."""
    values = (sol.price, sol.profit, sol.fs_share, sol.breakdown.total, sol.lower_bound)
    if not all(math.isfinite(x) for x in values):
        return [f"{where}: non-finite pricing solution"]
    if not sol.lower_bound - 1e-9 <= sol.price <= sol.upper_bound + 1e-9:
        return [f"{where}: price {sol.price!r} outside its bounds"]
    return []


def check_base(fc, s, where: str) -> list[str]:
    """Oracle checks on one base scenario.

    M* is within 1 of the brute-force count (acceptance criterion 02's
    tolerance: rounding the square root is not always the integer argmin);
    every variant's price lies within ``price_bounds``; the cost derivative
    changes sign within LF_TOLERANCE of lf* (so |d cost/d lf| at lf* is as
    small as the criterion-03 resolution allows).
    """
    from fscontract.scenario import DOLLARS_PER_REPORT_UNIT

    problems = []
    internal = fc.internal_rate_series(s.failure, s.grid)
    external = fc.simulate_external_rates(s)
    m = fc.optimal_pm_count(s, internal).m_count
    brute = fc.brute_force_pm_count(s, internal, max(60, 2 * m + 10)).m_count
    if abs(m - brute) > 1:
        problems.append(f"{where}: M* {m} differs from brute force {brute} by more than 1")
    osm = fc.os_cost_moments(s, internal).scaled(1.0 / DOLLARS_PER_REPORT_UNIT)
    for variant in ("full", "auto", "bench"):
        sol = fc.optimal_price(s, variant)
        lower, upper = fc.price_bounds(sol.breakdown, osm, s.market)
        if not (close(lower, sol.lower_bound) and lower - 1e-9 <= sol.price <= upper + 1e-9):
            problems.append(f"{where}: {variant} price {sol.price!r} outside "
                            f"price_bounds [{lower!r}, {upper!r}]")
        problems += check_solution(sol, f"{where} {variant}")
    lf_sol = fc.optimize_lf(m, s, internal, external)
    lo_edge, hi_edge = lf_sol.feasible_range
    left = max(lf_sol.lf_star - LF_TOLERANCE, lo_edge * (1.0 + 1e-6))
    right = min(lf_sol.lf_star + LF_TOLERANCE, hi_edge)
    d_left = fc.fs_cost_lf_derivative(left, m, s, internal, external)
    d_right = fc.fs_cost_lf_derivative(right, m, s, internal, external)
    if not d_left <= 0.0 <= d_right:
        problems.append(f"{where}: d cost/d lf does not change sign within "
                        f"{LF_TOLERANCE} of lf* = {lf_sol.lf_star!r}")
    return problems
