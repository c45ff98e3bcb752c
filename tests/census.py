"""Print every number of the README's "Where the abstract's claims hold",
on the 72 generated bases with Z <= 300 of seeds 1-3: the full model
against ``auto``, M* against the full cost's own argmin, the ``lf`` and
``phi-int`` sweep census, and the profit argmax on a price grid.  Exits 1
where a number it prints is missing from that section of the README.

Run from the root of a checkout: ``PYTHONPATH=src python tests/census.py``.
pytest does not collect it.
"""

import math
import re
import statistics
import sys
from pathlib import Path

import numpy as np

from fscontract import (
    CostSide,
    InfeasibleTrainingError,
    SweepSpec,
    default_scenario,
    lf_problem,
    sweep,
)
from fscontract.pricing import market_side

from conftest import generated_scenarios

#: Points of the price grid between floor and ceiling.
GRID_POINTS = 200_001
README = Path(__file__).resolve().parent.parent / "README.md"
SECTION = "## Where the abstract's claims hold"


def full_cost_by_m(cost_side: CostSide) -> dict[int, float]:
    """The full model's cost at lf* (dollars) for each maintenance count
    up to 2 M* + 10 whose lf problem has a feasible lf."""
    s = cost_side.scenario
    costs = {}
    for m in range(1, 2 * cost_side.plan.m_count + 11):
        try:
            problem = lf_problem(m, s, cost_side.internal, cost_side.external)
            costs[m] = problem.solve().cost_at_star
        except InfeasibleTrainingError:
            pass
    return costs


def m_star_gap(cost_side: CostSide) -> tuple[int, float]:
    """The full cost's own argmin over M, and how much lower the full cost
    is there than at M*, as a share of the cost at M*."""
    costs = full_cost_by_m(cost_side)
    at_star = costs[cost_side.plan.m_count]
    best = min(costs, key=costs.get)
    return best, (at_star - costs[best]) / at_star


def lf_spread(cost_side: CostSide) -> float:
    """Profit's max - min over the largest |profit| on ``tests/test_claims.py``'s
    lf grid: 9 geometric points over [max(1.01 edge, lf*/4), min(0.99, 4 lf*)]."""
    sol = cost_side.lf_solution
    lo = max(1.01 * sol.feasible_range[0], sol.lf_star / 4)
    hi = min(0.99, 4 * sol.lf_star)
    records = sweep(SweepSpec("lf", tuple(np.geomspace(lo, hi, 9).tolist())),
                    cost_side.scenario)
    assert all(r.feasible for r in records)
    profits = [r.profit for r in records]
    return (max(profits) - min(profits)) / max(map(abs, profits))


def rises(series: list[float]) -> bool:
    return series == sorted(series)


def phi_int_census(cost_side: CostSide, top: float, points: int) -> dict[str, bool]:
    """What a ``phi-int`` sweep over 0.6-``top`` times the base mean
    (``points`` geometric points) does: each key holds on this base or
    not."""
    s = cost_side.scenario
    mean = cost_side.internal.mean
    values = tuple(np.geomspace(0.6 * mean, top * mean, points).tolist())
    records = sweep(SweepSpec("phi_int_mean", values), s)
    feasible = [r for r in records if r.feasible]
    ceiling = s.market.resolved_ceiling()
    at_ceiling = [r.price == ceiling for r in feasible]
    first = at_ceiling.index(True) if any(at_ceiling) else len(feasible) - 1
    profits = [r.profit for r in feasible]
    return {
        "all feasible": len(feasible) == len(records),
        "price rises": rises([r.price for r in feasible]),
        "reaches the ceiling": any(at_ceiling),
        "profit rises": rises(profits),
        "profit rises to the ceiling": rises(profits[:first + 1]),
        "profit falls after the ceiling": any(at_ceiling) and not rises(profits[first:]),
    }


def grid_gain(cost_side: CostSide, variant: str) -> float:
    """How much the best profit on a grid of prices between floor and
    ceiling beats the rule's, as a share of the rule's profit."""
    sol = cost_side.price(variant)
    grid = np.linspace(sol.lower_bound, sol.upper_bound, GRID_POINTS)
    mk = cost_side.scenario.market
    profits = market_side(sol.breakdown, cost_side.os_moments, mk, mk.beta, grid).profit
    return (float(profits.max()) - sol.profit) / sol.profit


def percent(x: float, digits: int = 1) -> str:
    return f"{100 * x:.{digits}f}%"


def numbers(text: str) -> set[str]:
    """The numbers written in ``text``, with the digit groups that a space
    splits joined ("200 001" is 200001)."""
    return set(re.findall(r"\d+(?:\.\d+)?", re.sub(r"(?<=\d) (?=\d{3}(?!\d))", "", text)))


def census() -> list[str]:
    """The lines the script prints."""
    bases = [s for s in generated_scenarios((1, 2, 3)) if s.grid.z_periods <= 300]
    n = len(bases)
    ties, below, gaps, spreads = [], [], [], []
    wide, narrow = [], []
    gains = {"full": [], "auto": [], "bench": []}
    for s in bases:
        cost_side = CostSide(s)
        full = cost_side.price("full")
        auto = cost_side.price("auto")
        if auto.fs_share < 1.0:
            below.append(full.profit > auto.profit)
        elif (full.fs_share == 1.0 and full.price < full.upper_bound
              and auto.price < auto.upper_bound):
            scale = max(abs(full.profit), abs(auto.profit))
            ties.append(abs(full.profit - auto.profit) / math.ulp(scale))
        _, gap = m_star_gap(cost_side)
        if gap > 0.0:
            gaps.append(gap)
        spreads.append(lf_spread(cost_side))
        wide.append(phi_int_census(cost_side, 6.0, 25))
        narrow.append(phi_int_census(cost_side, 1.5, 10))
        for variant, found in gains.items():
            found.append(grid_gain(cost_side, variant))
    baseline = CostSide(default_scenario())
    best, gap = m_star_gap(baseline)

    def count(census: list[dict[str, bool]], key: str) -> int:
        return sum(c[key] for c in census)

    lines = [
        f"full and auto tie on {len(ties)} of {n} bases (both shares 1, no price at the "
        f"ceiling; profits {max(ties):.0f} ulps apart at most); auto's share is below 1 on "
        f"{len(below)}, and full earns more on {sum(below)} of them",
        f"M* is not the argmin over M of the full cost on {len(gaps)} of {n} bases (lower "
        f"there by a median {percent(statistics.median(gaps), 2)}, {percent(max(gaps), 2)} "
        f"at most); baseline: M = {best} costs {percent(gap, 2)} less than "
        f"M* = {baseline.plan.m_count}",
        f"lf sweep: profit within 1% on {sum(x <= 0.01 for x in spreads)} of {n} bases; "
        f"median spread {percent(statistics.median(spreads))}, largest "
        f"{percent(max(spreads))}",
        f"phi-int sweep over 0.6-6x: price nondecreasing on {count(wide, 'price rises')}, "
        f"reaches the ceiling on {count(wide, 'reaches the ceiling')}; infeasible points "
        f"on {n - count(wide, 'all feasible')}; profit nondecreasing on "
        f"{count(wide, 'profit rises')}, up to the first ceiling point on "
        f"{count(wide, 'profit rises to the ceiling')}, falls after the ceiling binds on "
        f"{count(wide, 'profit falls after the ceiling')}",
    ]
    both = sum(c["all feasible"] and c["price rises"] and c["profit rises"] for c in narrow)
    lines.append(f"phi-int sweep over 0.6-1.5x: price and profit rise on {both} of {n} bases")
    for variant, found in gains.items():
        beaten = [g for g in found if g > 0.0]
        line = f"{GRID_POINTS}-point price grid, {variant}: beats the rule on {len(beaten)} of {n}"
        if beaten:
            line += (f" bases, by a median {percent(statistics.median(found))} of the rule's "
                     f"profit ({percent(max(found))} at most)")
        lines.append(line)
    return lines


def main() -> int:
    lines = census()
    print("\n".join(lines))
    section = README.read_text(encoding="utf-8").split(SECTION, 1)[1].split("\n## ", 1)[0]
    missing = numbers("\n".join(lines)) - numbers(section)
    if missing:
        print(f"README.md, {SECTION[3:]!r}, lacks: {', '.join(sorted(missing, key=float))}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
