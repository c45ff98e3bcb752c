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
external rate series, the expected failure counts, the maintenance plan,
the pay-per-repair cost moments, and the scalar lf problem with its
optimum lf*.  Its parts are computed on first use and kept for the life of
the object (one pricing call, one comparison or one sweep), so neither a
``bench`` nor an ``auto`` price draws the external rates or builds the lf
problem, and a second variant reuses the first one's work.  The
optimizer's standing assumptions are checked on these parts
(:meth:`CostSide.violations`), which pricing then reuses.  The lf problem
computes the scalar constants of its cost once (see
:mod:`fscontract.learning`), not at each evaluation of the lf search.
Each Z-long array is computed once per cost side: the rate
increments, the per-period repair costs, and the failure counts and repair
bill at each maintenance count (at M*, shared by the plan objective and the
bills before learning that ``auto`` and the lf problem share; at the
pay-per-repair count, shared by the cost moments and the ``bench`` bills).

The market side is one kernel over an array of
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

import math
import warnings
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .costs import CostBreakdown, OsCostMoments, contract_costs, os_cost_moments
from .failure import FailureCounts, MaintenancePlan, internal_rate_series, optimal_pm_count
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
    PeriodValues,
    Scenario,
    Violation,
    _beta_fails,
    _field_violations,
    _kept,
    _raise_on,
    simulate_external_rates,
)

VARIANTS = ("full", "auto", "bench")


class InfeasiblePriceError(ValueError):
    """No admissible price: the floor exceeds the ceiling."""

    def __init__(self, lower: float, upper: float):
        self.lower = lower
        self.upper = upper
        super().__init__(f"price floor {lower:.3f} exceeds ceiling {upper:.3f}")


#: What pricing a checked scenario raises where the model cannot price it:
#: no feasible training, an empty price interval, or an lf solve that fails.
#: The CLI exits 2 on these, and a sweep flags the point instead.
INFEASIBLE = (InfeasibleTrainingError, InfeasiblePriceError, ConvergenceError)


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


def optimize_lf(m: int, s: Scenario, internal: PeriodValues, external: PeriodValues,
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


class MarketSide(NamedTuple):
    """The market side of one cost breakdown at each mark-up: arrays over an
    array of mark-ups, floats at one.  Monetary fields are in thousands of
    dollars."""

    interior: np.ndarray
    lower: np.ndarray
    upper: float
    price: np.ndarray
    fs_share: np.ndarray
    profit: np.ndarray


def _risk_premium(alpha_max: float, beta, variance: float):
    """alpha_max (1 + beta)^2 Var / 4: what the pricing rule charges for the
    customers' risk aversion."""
    up = 1.0 + beta
    return alpha_max * (up * up) * variance / 4.0


def _clip(x, lower, upper):
    """x clamped to [lower, upper]: elementwise on an array, and in Python
    floats on a float, where a numpy call would cost more than the
    arithmetic."""
    if isinstance(x, np.ndarray):
        return np.minimum(np.maximum(x, lower), upper)
    return min(max(x, lower), upper)


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

    At one mark-up every result is a Python float.  Over an array, numpy's
    overflow and invalid-value warnings are silenced: the checks and the
    floor-above-ceiling test report such inputs.
    """
    if isinstance(beta, np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):
            return _market_side(fs_cost, osm, mk, beta, price)
    return _market_side(fs_cost, osm, mk, beta, price)


def _market_side(fs_cost: CostBreakdown, osm: OsCostMoments, mk: MarketParams, beta,
                 price) -> MarketSide:
    """:func:`market_side`, with numpy's error state left as it is."""
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
        price = _clip(interior, lower, upper)
    threshold = up * mean
    if osm.variance <= 0.0:
        share = 1.0 * (price <= threshold)
    else:
        # alpha_max > 0, so tau <= 0 clips to a share of 1
        tau = 2.0 * (price - threshold) / (up * up * osm.variance)
        share = _clip(1.0 - tau / mk.alpha_max, 0.0, 1.0)
    profit = mk.d_customers * ((price - total) * share + beta * mean * (1.0 - share))
    return MarketSide(interior, lower, upper, price, share, profit)


def price_bounds(fs_cost: CostBreakdown, osm: OsCostMoments,
                 mk: MarketParams) -> tuple[float, float]:
    """Admissible price interval: the floor and the ceiling."""
    sides = market_side(fs_cost, osm, mk, mk.beta)
    return float(sides.lower), float(sides.upper)


class CostSide:
    """The market-independent half of pricing one scenario.

    The internal rates are built on construction, or taken as given, and so
    are the external rates where they are given.  The external draw, the
    failure counts, maintenance plan, cost moments, lf problem and lf search
    are computed on first use and then kept.  Nothing outlives the object.
    It does not check its scenario; :func:`_validated` does.  It prices in
    its scenario's own market: a checked cost side prices what was checked.
    """

    def __init__(self, s: Scenario, internal: PeriodValues | None = None,
                 external: PeriodValues | None = None):
        self.scenario = s
        self.internal = internal_rate_series(s.failure, s.grid) if internal is None else internal
        if external is not None:
            self.external = external

    @_kept
    def external(self) -> PeriodValues:
        return simulate_external_rates(self.scenario)

    @_kept
    def counts(self) -> FailureCounts:
        """The expected failure counts, one array per maintenance count."""
        return FailureCounts(self.scenario, self.internal)

    @_kept
    def plan(self) -> MaintenancePlan:
        return optimal_pm_count(self.scenario, self.internal, self.counts)

    @_kept
    def os_moments(self) -> OsCostMoments:
        """Pay-per-repair cost moments, in report units."""
        return os_cost_moments(self.scenario, self.internal,
                               self.counts).scaled(1.0 / DOLLARS_PER_REPORT_UNIT)

    @_kept
    def base(self) -> CostBreakdown:
        """The bills at the optimal maintenance count before learning, with
        no training, in dollars: the ``auto`` variant's and the lf
        problem's."""
        return contract_costs(self.plan.m_count, self.scenario, self.internal, self.counts)

    @_kept
    def problem(self) -> LfProblem:
        """The lf problem at the optimal maintenance count."""
        return lf_problem(self.plan.m_count, self.scenario, self.internal, self.external,
                          self.base)

    @_kept
    def lf_solution(self) -> LfSolution:
        return optimize_lf(self.plan.m_count, self.scenario, self.internal, self.external,
                           problem=self.problem)

    @np.errstate(over="ignore", invalid="ignore")
    def violations(self) -> list[Violation]:
        """The optimizer's standing assumptions on this cost side's rates,
        plan and lf problem: a finite series, maintenance count, time budget
        and bills (finite inputs can overflow), a positive expected repair
        time Q (the full model's experience), surplus time R-S-Q-U > 0 that
        dominates the external time S, a finite pay-per-repair variance and
        bill, and a finite risk premium in the scenario's market.  numpy's
        overflow and invalid-value warnings are silenced."""
        if not np.isfinite(self.internal.as_array()).all():
            return [Violation("failure.internal_series",
                              "the parametric series must be finite (it overflows)")]
        try:
            self.plan
        except OverflowError:
            return [Violation("cost.avg_maintenance_cost",
                              "the optimal maintenance count must be finite (it overflows)")]
        problem = self.problem
        terms = problem.terms
        if not all(map(math.isfinite, terms)):
            return [Violation("learning.lf", "the time budget R, S, Q, U, V must be finite")]
        v = [Violation(key, f"the expected {name} bill must be finite (it overflows)")
             for key, name in _BILLS if not math.isfinite(getattr(problem.base, name))]
        if v:
            return v
        if terms.q <= 0:
            return [Violation("failure.internal_series",
                              "the expected repair time Q must be > 0 (no internal failures)")]
        net = terms.net
        if net <= 0:
            return [Violation("learning.lf",
                              "no surplus time is left for training (R-S-Q-U <= 0)")]
        if net < _DOMINANCE * terms.s:
            return [Violation(
                "failure.ext_mean",
                f"external interruptions too large: R-S-Q-U = {net:.3f} "
                f"< {_DOMINANCE} * S = {_DOMINANCE * terms.s:.3f}",
            )]
        variance = self.os_moments.variance
        if not math.isfinite(variance):
            sd = self.scenario.cost.repair_cost_sd
            key = "cost.unit_repair_cost" if math.isfinite(sd * sd) else "cost.repair_cost_sd"
            return [Violation(key,
                              "the pay-per-repair cost variance must be finite (it overflows)")]
        if not math.isfinite(self.os_moments.mean):
            return [Violation("cost.avg_maintenance_cost",
                              "the pay-per-repair maintenance bill must be finite (it overflows)")]
        market = self.scenario.market
        if not math.isfinite(_risk_premium(market.alpha_max, market.beta, variance)):
            return [_PREMIUM_OVERFLOWS]
        return []

    def with_training_cost(self, cost: float) -> "CostSide":
        """This cost side at the hourly training cost ``cost``, unchecked.
        The rates, counts, plan, bills and cost moments are shared, the lf
        problem keeps its aggregates and feasible interval
        (:meth:`~fscontract.learning.LfProblem.with_training_cost`), and lf*
        is solved afresh."""
        problem = self.problem.with_training_cost(cost)
        other = CostSide(replace(self.scenario, learning=problem.learning), self.internal,
                         self.external)
        other.counts = self.counts
        other.plan = self.plan
        other.base = self.base
        other.os_moments = self.os_moments
        other.problem = problem
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
        s = self.scenario
        lf_star = None
        if variant == "bench":
            m = s.cost.m0_os
            breakdown = contract_costs(m, s, self.internal, self.counts)
        elif variant == "auto":
            m = self.plan.m_count
            base = self.base
            breakdown = base._replace(repair=base.repair
                                      * s.grid.z_periods ** -s.learning.alpha_auto)
        else:
            m = self.plan.m_count
            lf_star = self.lf_solution.lf_star if lf is None else lf
            breakdown = self.problem.evaluate(lf_star)
        return breakdown.scaled(1.0 / DOLLARS_PER_REPORT_UNIT), m, lf_star

    def price(self, variant: str, lf: float | None = None) -> PricingSolution:
        """The market side: price one variant's cost in this scenario's own
        market, the one :meth:`violations` checks (the one-mark-up case of
        :func:`market_side`)."""
        breakdown, m, lf_star = self.variant_cost(variant, lf)
        mk = self.scenario.market
        sides = market_side(breakdown, self.os_moments, mk, mk.beta)
        lower, upper = float(sides.lower), float(sides.upper)
        if lower > upper:
            raise InfeasiblePriceError(lower, upper)
        # positional: a NamedTuple takes keywords at twice the cost
        return PricingSolution(float(sides.price), lower, upper, float(sides.interior),
                               float(sides.fs_share), float(sides.profit), breakdown, variant,
                               m, lf_star)


#: R-S-Q-U must be at least this many times the external interruption time S.
_DOMINANCE = 10

#: Config key of each bill before learning, and its :class:`CostBreakdown` field.
_BILLS = (("cost.unit_repair_cost", "repair"), ("cost.avg_maintenance_cost", "maintenance"),
          ("cost.unit_delay_cost", "delay"))

#: The pricing rule's risk premium alpha_max (1 + beta)^2 Var / 4 is not
#: finite.  It names alpha_max, the one factor that no other check bounds:
#: the field rules bound (1 + beta)^2 and the cost-side checks the variance.
_PREMIUM_OVERFLOWS = Violation(
    "market.alpha_max",
    "the risk premium alpha_max (1 + beta)^2 Var / 4 must be finite (it overflows)")


def _validated(s: Scenario) -> CostSide:
    """The cost side of ``s``, checked by its field invariants and then by
    :meth:`CostSide.violations`; raises
    :class:`~fscontract.scenario.ScenarioValidationError` on the first that
    fails.  The internal series is built with numpy's overflow and
    invalid-value warnings silenced, since the checks report the overflow;
    each floored internal rate warns once they pass."""
    _raise_on(_field_violations(s))
    undershoots: list[str] = []
    with np.errstate(over="ignore", invalid="ignore"):
        cost_side = CostSide(s, internal_rate_series(s.failure, s.grid, undershoots))
    _raise_on(cost_side.violations())
    for message in undershoots:
        warnings.warn(message, stacklevel=2)
    return cost_side


def _swept_beta_violations(s: Scenario, betas: np.ndarray, variance: float) -> list[Violation]:
    """The violations of the first mark-up in ``betas`` that breaks a
    ``market.beta`` rule or overflows the risk premium at the pay-per-repair
    ``variance`` in the market of ``s``: what checking each value on its
    own reports.  The ``market.beta`` checks run once, on the whole array;
    the messages are built for the first failing mark-up alone."""
    with np.errstate(over="ignore", invalid="ignore"):
        bad = _beta_fails(s, betas) | ~np.isfinite(_risk_premium(s.market.alpha_max, betas,
                                                                  variance))
    if not bad.any():
        return []
    first = replace(s, market=replace(s.market, beta=float(betas[bad.argmax()])))
    return _field_violations(first, ("market.beta",)) or [_PREMIUM_OVERFLOWS]


def optimal_price(s: Scenario, variant: str = "full") -> PricingSolution:
    """Price one model variant (see :meth:`CostSide.variant_cost`).

    Does not check ``s``; call :func:`~fscontract.scenario.validate_scenario`
    first."""
    return CostSide(s).price(variant)
