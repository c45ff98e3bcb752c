"""Print the census lines of the README's "Where the abstract's claims hold"
that compare the full model with ``auto`` and M* with the full cost's
own argmin, on the 72 generated bases with Z <= 300 of seeds 1-3.

Run from the root of a checkout: ``PYTHONPATH=src python tests/census.py``.
pytest does not collect it.
"""

import math
import statistics

from fscontract import CostSide, InfeasibleTrainingError, default_scenario, lf_problem

from conftest import generated_scenarios


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


def main() -> None:
    bases = [s for s in generated_scenarios((1, 2, 3)) if s.grid.z_periods <= 300]
    ties, below, gaps = [], [], []
    for s in bases:
        cost_side = CostSide(s)
        full = cost_side.price("full", s.market)
        auto = cost_side.price("auto", s.market)
        if auto.fs_share < 1.0:
            below.append(full.profit > auto.profit)
        elif (full.fs_share == 1.0 and full.price < full.upper_bound
              and auto.price < auto.upper_bound):
            scale = max(abs(full.profit), abs(auto.profit))
            ties.append(abs(full.profit - auto.profit) / math.ulp(scale))
        _, gap = m_star_gap(cost_side)
        if gap > 0.0:
            gaps.append(gap)
    baseline = CostSide(default_scenario())
    best, gap = m_star_gap(baseline)
    print(f"full and auto tie on {len(ties)} of {len(bases)} bases (both shares 1, no price "
          f"at the ceiling; profits {max(ties):.0f} ulps apart at most); auto's share is "
          f"below 1 on {len(below)}, and full earns more on {sum(below)} of them")
    print(f"M* is not the argmin over M of the full cost on {len(gaps)} of {len(bases)} "
          f"bases (lower there by a median {100 * statistics.median(gaps):.2f}%, "
          f"{100 * max(gaps):.2f}% at most); baseline: M = {best} costs {100 * gap:.2f}% "
          f"less than M* = {baseline.plan.m_count}")


if __name__ == "__main__":
    main()
