"""Training-frequency optimization, customer choice and contract pricing.

Customers pick the contract with the smaller disutility: a fixed-price
contract costs exactly its price, while pay-per-repair costs
(1 + beta) * (expected repairs + maintenance) plus a risk penalty
alpha_i (1 + beta)^2 Var / 2 that grows with the customer's risk aversion
alpha_i ~ U[0, alpha_max].  The indifference threshold

    tau(P) = 2 [P - (1 + beta) (E + C_M)] / ((1 + beta)^2 Var)

makes the fixed-price market share 1 - tau/alpha_max (clipped to [0, 1];
the customer exactly at the threshold signs the fixed-price contract).

The posted price follows the closed-form pricing rule

    P = repair*A + beta E_os + C_M/2 + (1 + 2 beta) C_M_os / 2 + delay/2
        + alpha_max (1 + beta)^2 Var / 4 + training

clamped between the competitive floor (total cost plus the pay-per-repair
margin) and the ownership-cost ceiling.  With the benchmark inputs (no
learning, shared maintenance plan, no training) this rule is exactly the
argmax of the quadratic market-profit objective; with learning it passes
cost changes through one-for-one, which is what keeps total profit flat
across training frequencies.

Cost side and market side
-------------------------
Pricing one scenario splits in two.  The cost side (:class:`CostSide`) is
all that does not depend on the market parameters: the internal and
external rate series, the maintenance plan, the pay-per-repair cost
moments, the scalar lf problem with its optimum lf*, and each variant's
cost breakdown.  Its parts are computed on first use and kept for the life
of the object (one pricing call, one comparison or one sweep), so a
``bench`` price never runs the lf search and a second variant reuses the
first one's work.  The market side is one kernel over an array of
mark-ups (:func:`market_side`): numpy expressions that turn one cost
breakdown and the cost moments into the interior price, the floor, the
ceiling, the clamped price, the market share and the profit at every
mark-up at once.  Every formula above lives there and nowhere else.
:meth:`CostSide.price` is its one-mark-up case, and a sweep over the
mark-up prices all its points in one call.

This module works in report units (thousands of dollars); cost-side inputs
are converted once on entry.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .costs import CostBreakdown, OsCostMoments, contract_costs, os_cost_moments
from .failure import MaintenancePlan, internal_rate_series, optimal_pm_count
from .learning import (
    ConvergenceError,
    InfeasibleTrainingError,
    LfProblem,
    LfSolution,
    lf_problem,
)
from .scenario import (
    DOLLARS_PER_REPORT_UNIT,
    MarketParams,
    RateSeries,
    Scenario,
    simulate_external_rates,
)

VARIANTS = ("bench", "auto", "full")


class InfeasiblePriceError(ValueError):
    """No admissible price: the floor exceeds the ceiling."""

    def __init__(self, lower: float, upper: float):
        self.lower = lower
        self.upper = upper
        super().__init__(f"price floor {lower:.3f} exceeds ceiling {upper:.3f}")


class PricingSolution(NamedTuple):
    """Posted price with bounds, market share, profit and cost breakdown.

    Monetary fields are in thousands of dollars.  ``lf_star`` is set for the
    full variant only.
    """

    price: float
    lower_bound: float
    upper_bound: float
    interior_price: float
    fs_share: float
    profit: float
    breakdown: CostBreakdown
    variant: str
    m_count: int
    lf_star: float | None = None


def optimize_lf(m: int, s: Scenario, internal: RateSeries, external: RateSeries,
                problem: LfProblem | None = None) -> LfSolution:
    """Minimize total contract cost over the feasible training frequencies.

    Solves c'(lf) = 0 on the scalar cost of :class:`LfProblem`: in closed
    form under simple forgetting, by safeguarded Newton steps in ln lf under
    revised forgetting (see :meth:`LfProblem.solve`).  ``problem`` is the lf
    problem of these inputs where the caller already holds it.  The
    turning-point hint v / (2 (r - s - q - u)) is reported in the solution
    but does not steer the search.
    """
    if problem is None:
        problem = lf_problem(m, s, internal, external)
    return problem.solve()


def disutility(choice: str, alpha_i: float, price: float, osm: OsCostMoments,
               beta: float) -> float:
    """Customer disutility of one contract choice ('FS' or 'OS').

    A fixed-price contract costs its price; pay-per-repair costs the marked-
    up expected bill plus the variance penalty weighted by alpha_i.
    """
    if alpha_i < 0:
        raise ValueError("risk aversion must be >= 0")
    if choice == "FS":
        return price
    if choice == "OS":
        up = 1.0 + beta
        return up * osm.mean + alpha_i * (up * up) * osm.variance / 2.0
    raise ValueError(f"unknown contract choice {choice!r}")


class MarketSide(NamedTuple):
    """The market side of one cost breakdown at each mark-up: arrays over an
    array of mark-ups, numpy scalars at one.  Monetary fields are in
    thousands of dollars."""

    interior: np.ndarray
    lower: np.ndarray
    upper: float
    price: np.ndarray
    fs_share: np.ndarray
    profit: np.ndarray


#: No cost at all: the market share does not depend on the cost.
_NO_COST = CostBreakdown(0.0, 0.0, 0.0, 0.0)


def _risk_premium(alpha_max: float, beta, variance: float):
    """alpha_max (1 + beta)^2 Var / 4: what the pricing rule charges for the
    customers' risk aversion."""
    up = 1.0 + beta
    return alpha_max * (up * up) * variance / 4.0


@np.errstate(over="ignore", invalid="ignore")
def market_side(fs_cost: CostBreakdown, osm: OsCostMoments, mk: MarketParams, beta,
                price=None) -> MarketSide:
    """Every formula of the market side, at each mark-up of ``beta`` (an
    array, or a float) in place of ``mk.beta``.

    The interior price follows the pricing rule.  The floor makes the
    fixed-price margin at least the pay-per-repair margin; the ceiling is
    what ownership minus leasing and operations leaves for service.  The
    market share and the profit are taken at ``price`` where it is given,
    else at the interior price clamped to [floor, ceiling] (the ceiling
    where the floor is above it).  Fixed-price customers contribute price
    minus total cost, the rest stay on pay-per-repair and contribute the
    mark-up margin.  A zero-variance market splits sharply: everyone signs
    at or below the marked-up expected bill, nobody above it.

    numpy's overflow and invalid-value warnings are silenced: the checks
    and the floor-above-ceiling test report such inputs.
    """
    up = 1.0 + beta
    interior = (fs_cost.repair
                + beta * osm.repair_mean
                + 0.5 * fs_cost.maintenance
                + 0.5 * (1.0 + 2.0 * beta) * osm.maintenance
                + 0.5 * fs_cost.delay
                + _risk_premium(mk.alpha_max, beta, osm.variance)
                + fs_cost.training)
    total, mean = fs_cost.total, osm.mean
    lower = total + beta * mean
    upper = mk.resolved_ceiling()
    if price is None:
        price = np.minimum(np.maximum(interior, lower), upper)
    threshold = up * mean
    if osm.variance <= 0.0:
        share = np.where(price <= threshold, 1.0, 0.0)
    else:
        # alpha_max > 0, so tau <= 0 clips to a share of 1
        tau = 2.0 * (price - threshold) / (up * up * osm.variance)
        share = np.minimum(np.maximum(1.0 - tau / mk.alpha_max, 0.0), 1.0)
    profit = mk.d_customers * ((price - total) * share + beta * mean * (1.0 - share))
    return MarketSide(interior, lower, upper, price, share, profit)


def fs_market_share(price: float, osm: OsCostMoments, mk: MarketParams) -> float:
    """Fraction of customers whose risk aversion favors the fixed price."""
    return float(market_side(_NO_COST, osm, mk, mk.beta, price).fs_share)


def expected_profit(price: float, fs_cost: CostBreakdown, osm: OsCostMoments,
                    mk: MarketParams) -> float:
    """Market-wide expected profit at a posted price."""
    return float(market_side(fs_cost, osm, mk, mk.beta, price).profit)


def price_bounds(fs_cost: CostBreakdown, osm: OsCostMoments,
                 mk: MarketParams) -> tuple[float, float]:
    """Admissible price interval: the floor and the ceiling."""
    sides = market_side(fs_cost, osm, mk, mk.beta)
    return float(sides.lower), float(sides.upper)


class CostSide:
    """The market-independent half of pricing one scenario.

    The rate series are drawn on construction, or taken as given.  The
    maintenance plan, cost moments, lf problem, lf search and variant costs
    are computed on first use and then kept.  Nothing outlives the object.
    """

    def __init__(self, s: Scenario, internal: RateSeries | None = None,
                 external: RateSeries | None = None):
        self.scenario = s
        self.internal = internal_rate_series(s.failure, s.grid) if internal is None else internal
        self.external = simulate_external_rates(s) if external is None else external
        self._variant_costs: dict = {}

    @cached_property
    def plan(self) -> MaintenancePlan:
        return optimal_pm_count(self.scenario, self.internal)

    @cached_property
    def os_moments(self) -> OsCostMoments:
        """Pay-per-repair cost moments, in report units."""
        return os_cost_moments(self.scenario, self.internal).scaled(1.0 / DOLLARS_PER_REPORT_UNIT)

    @cached_property
    def problem(self) -> LfProblem:
        """The lf problem at the optimal maintenance count."""
        return lf_problem(self.plan.m_count, self.scenario, self.internal, self.external)

    @cached_property
    def lf_solution(self) -> LfSolution:
        return optimize_lf(self.plan.m_count, self.scenario, self.internal, self.external,
                           problem=self.problem)

    def with_learning(self, s: Scenario) -> "CostSide":
        """The cost side of ``s``, a scenario that differs from this one's
        only in learning parameters that stay out of the lf problem's
        aggregates (the training cost, the learning exponents; not the hours
        per repair or per maintenance visit, nor the rework exponent).

        The rates, maintenance plan and cost moments are shared, the lf
        problem keeps its aggregates and takes the new parameters, and lf*
        and the variant costs are computed afresh.
        """
        other = CostSide(s, self.internal, self.external)
        other.plan = self.plan
        other.os_moments = self.os_moments
        other.problem = replace(self.problem, learning=s.learning)
        return other

    def variant_cost(self, variant: str,
                     lf: float | None = None) -> tuple[CostBreakdown, int, float | None]:
        """One variant's cost breakdown (report units), maintenance count
        and training frequency.

        ``bench`` prices with no learning, the pay-per-repair maintenance
        plan and no training; ``auto`` applies the cumulative experience
        multiplier Z^(-alpha_auto) at the optimized maintenance count;
        ``full`` adds training at the optimized (or given) frequency lf.
        """
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        key = (variant, lf)
        if key not in self._variant_costs:
            s = self.scenario
            lf_star = None
            if variant == "bench":
                m = s.cost.m0_os
                breakdown = contract_costs(m, s, self.internal)
            elif variant == "auto":
                m = self.plan.m_count
                base = self.problem.base
                breakdown = base._replace(repair=base.repair
                                          * s.grid.z_periods ** -s.learning.alpha_auto)
            else:
                m = self.plan.m_count
                lf_star = self.lf_solution.lf_star if lf is None else lf
                breakdown = self.problem.evaluate(lf_star).breakdown
            self._variant_costs[key] = (breakdown.scaled(1.0 / DOLLARS_PER_REPORT_UNIT), m,
                                        lf_star)
        return self._variant_costs[key]

    def price(self, variant: str, mk: MarketParams, lf: float | None = None) -> PricingSolution:
        """The market side: price one variant's cost in the market ``mk``
        (the one-mark-up case of :func:`market_side`)."""
        breakdown, m, lf_star = self.variant_cost(variant, lf)
        sides = market_side(breakdown, self.os_moments, mk, mk.beta)
        lower, upper = float(sides.lower), float(sides.upper)
        if lower > upper:
            raise InfeasiblePriceError(lower, upper)
        return PricingSolution(
            price=float(sides.price),
            lower_bound=lower,
            upper_bound=upper,
            interior_price=float(sides.interior),
            fs_share=float(sides.fs_share),
            profit=float(sides.profit),
            breakdown=breakdown,
            variant=variant,
            m_count=m,
            lf_star=lf_star,
        )


def optimal_price(s: Scenario, variant: str = "full",
                  internal: RateSeries | None = None,
                  external: RateSeries | None = None,
                  lf: float | None = None) -> PricingSolution:
    """Price one model variant (see :meth:`CostSide.variant_cost`).

    ``lf`` fixes the full model's training frequency instead of optimizing
    it.
    """
    return CostSide(s, internal, external).price(variant, s.market, lf)


def price_variants(s: Scenario) -> dict[str, PricingSolution]:
    """Price all three model variants on one shared cost side."""
    cost_side = CostSide(s)
    return {v: cost_side.price(v, s.market) for v in VARIANTS}
