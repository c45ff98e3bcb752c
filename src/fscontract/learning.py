"""Dynamic learning and forgetting: repair/training/forgetting time budgets,
the efficiency multiplier A, training cost, and total contract cost as a
function of the training frequency lf.

Time budget
-----------
Repair time is one block of ``repair_hours`` per expected failure, so the
cumulative repair time is t_r = sum_j phi_j t_j * repair_hours.  Each period
also loses time to external failures and to maintenance visits; what is
left is surplus, and the fraction lf of it goes to training:

    t_l = [R - S - Q - U] * lf

with R = sum t_j, Q/S the internal/external repair-time sums and U the
per-period maintenance time allocation (m/Z visits of
``maintenance_hours`` each).  Interruptions erode the benefit of training;
the revised forgetting model lets technicians claw part of it back through
on-site practice (exponent epsilon), giving

    t_f = S + V * lf^(1-2 eps),
    V   = 2 sum_j (phi_j / 2)^(1-eps) (t_j - phi_j^ext t_j r)^(1-2 eps)

while the simple variant forgets all interrupted time: t_f = S + Q + U.

Efficiency multiplier
---------------------
A = t_r^(-alpha_auto) * (t_l - t_f)^(-alpha_indu) scales the repair bill:
experience (alpha_auto) and net effective training (alpha_indu) both follow
power laws.  A candidate lf with t_l - t_f <= 0 is infeasible, not clamped;
silently flooring it would corrupt the optimizer.

Total contract cost
-------------------
cost(lf) = repair(m) * A(lf) + c_M (m - 1) + delay(m) + l * t_l(lf).
Once the maintenance count m and the rate series are fixed, everything but
lf is a constant: the aggregates R - S - Q - U, S, Q, U and V, the
cumulative repair time, and the repair, maintenance and delay bills before
learning.  :class:`LfProblem` collects them once, and cost, time budget,
derivative and feasible interval become scalar functions of lf.  The
feasible interval is (edge, 1), where the edge is the root of t_l - t_f.
On it the A-term falls in lf while the training bill rises linearly, so the
cost has an interior minimum, which the optimizer finds by golden section
over the whole interval.  The lf-derivative has a closed form that serves
as the optimality oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .costs import CostBreakdown, contract_costs
from .scenario import PeriodGrid, LearningParams, RateSeries, Scenario


class InfeasibleTrainingError(ValueError):
    """Training at this lf is impossible (no surplus, or forgetting wins)."""


class ReducedTerms(NamedTuple):
    """Aggregates of the time budget: q, r, s, u and the forgetting scale v."""

    q: float
    r: float
    s: float
    u: float
    v: float

    @property
    def net(self) -> float:
        """Trainable-hours coefficient R - S - Q - U."""
        return self.r - self.s - self.q - self.u


@dataclass(frozen=True)
class LearningState:
    """Realised time budget and efficiency multiplier at one lf."""

    t_repair: float
    t_training: float
    t_forgetting: float
    effective_training: float
    a_factor: float
    training_cost: float


@dataclass(frozen=True)
class FsCostResult:
    """Total contract cost with its learning state."""

    breakdown: CostBreakdown
    state: LearningState


def total_repair_time(internal: RateSeries, grid: PeriodGrid, repair_hours: float = 1.0) -> float:
    """Cumulative repair hours: sum_j phi_j t_j, scaled by hours per repair."""
    return float(np.dot(internal.as_array(), grid.t_array)) * repair_hours


def maintenance_allocation(m: int, grid: PeriodGrid, maintenance_hours: float) -> np.ndarray:
    """Per-period maintenance hours: m/Z visits per period of fixed length."""
    per_period = (m / grid.z_periods) * maintenance_hours
    return np.full(grid.z_periods, per_period)


def learning_effect(t_r: float, t_eff: float, lp: LearningParams) -> float:
    """Efficiency multiplier t_r^(-alpha_auto) * t_eff^(-alpha_indu).

    Both times must be positive; exhausted effective training signals an
    infeasible lf.
    """
    if t_r <= 0.0:
        raise InfeasibleTrainingError("cumulative repair time must be > 0")
    if t_eff <= 0.0:
        raise InfeasibleTrainingError("effective training time exhausted by forgetting")
    return t_r ** -lp.alpha_auto * t_eff ** -lp.alpha_indu


@dataclass(frozen=True)
class LfProblem:
    """Total contract cost as a scalar function of lf, for one maintenance
    count and one pair of rate series (see the module docstring).

    ``base`` holds the repair, maintenance and delay bills before learning,
    with no training.  ``short_period`` is the first period (1-based) that
    has no surplus time left for training, or 0 if every period has some.
    """

    terms: ReducedTerms
    t_repair: float
    base: CostBreakdown
    learning: LearningParams
    short_period: int = 0

    @property
    def vertex_hint(self) -> float:
        """Turning-point guess v / (2 (r - s - q - u)); reported, not searched."""
        net = self.terms.net
        return self.terms.v / (2.0 * net) if net > 0 else float("nan")

    def t_training(self, lf: float) -> float:
        """Total training hours: surplus time times lf."""
        if not 0.0 < lf < 1.0:
            raise ValueError("lf must lie in (0, 1)")
        if self.short_period:
            raise InfeasibleTrainingError(
                f"no surplus time left for training in period {self.short_period}")
        return self.terms.net * lf

    def t_forgetting(self, lf: float) -> float:
        """Training hours lost to forgetting: S + Q + U, or S + V lf^(1-2 eps)."""
        terms = self.terms
        if self.learning.forgetting_model == "simple":
            return terms.s + terms.q + terms.u
        return terms.s + terms.v * lf ** (1.0 - 2.0 * self.learning.epsilon)

    def state(self, lf: float) -> LearningState:
        """The time budget and efficiency multiplier at lf."""
        t_l = self.t_training(lf)
        t_f = self.t_forgetting(lf)
        t_eff = t_l - t_f
        return LearningState(
            t_repair=self.t_repair,
            t_training=t_l,
            t_forgetting=t_f,
            effective_training=t_eff,
            a_factor=learning_effect(self.t_repair, t_eff, self.learning),
            training_cost=self.learning.unit_training_cost * t_l,
        )

    def evaluate(self, lf: float) -> FsCostResult:
        """Cost breakdown (dollars) and learning state at lf."""
        state = self.state(lf)
        base = self.base
        breakdown = CostBreakdown(base.repair * state.a_factor, base.maintenance, base.delay,
                                  state.training_cost)
        return FsCostResult(breakdown, state)

    def cost(self, lf: float) -> float:
        """Total contract cost in dollars at lf: the optimizer's objective."""
        return self.evaluate(lf).breakdown.total

    def derivative(self, lf: float) -> float:
        """Analytic d(cost)/d(lf); see :func:`fs_cost_lf_derivative`."""
        lp, net = self.learning, self.terms.net
        state = self.state(lf)
        if lp.forgetting_model == "simple":
            d_eff = net
        else:
            d_eff = net - (1.0 - 2.0 * lp.epsilon) * self.terms.v * lf ** (-2.0 * lp.epsilon)
        d_repair = self.base.repair * state.t_repair ** -lp.alpha_auto * (-lp.alpha_indu) \
            * state.effective_training ** (-lp.alpha_indu - 1.0) * d_eff
        return d_repair + lp.unit_training_cost * net

    def feasible_range(self) -> tuple[float, float]:
        """Open interval of lf values with positive effective training time.

        The lower edge is the root of t_l(lf) - t_f(lf) = 0, found by
        geometric bisection; the upper edge is the lf < 1 limit.  Raises
        :class:`InfeasibleTrainingError` when forgetting exceeds training
        everywhere.
        """
        net = self.terms.net

        def effective(lf: float) -> float:
            return net * lf - self.t_forgetting(lf)

        hi = 1.0 - 1e-12
        if net <= 0.0 or effective(hi) <= 0.0:
            raise InfeasibleTrainingError("forgetting exceeds training for every lf in (0, 1)")
        lo = 1e-15
        if effective(lo) > 0.0:
            return lo, hi
        root = hi
        for _ in range(200):
            mid = math.sqrt(lo * root)
            if effective(mid) > 0.0:
                root = mid
            else:
                lo = mid
            if root / lo < 1.0 + 1e-12:
                break
        return root, hi


def lf_problem(m: int, s: Scenario, internal: RateSeries, external: RateSeries) -> LfProblem:
    """Collect the lf-independent part of the contract cost for m
    maintenance actions and the given rate series."""
    lp = s.learning
    t = s.grid.t_array
    phi = internal.as_array()
    internal_h = phi * t * lp.repair_hours
    external_h = external.as_array() * t * lp.repair_hours
    maint_h = maintenance_allocation(m, s.grid, lp.maintenance_hours)
    short = np.flatnonzero(t - internal_h - external_h - maint_h <= 0.0)
    eps = lp.epsilon
    terms = ReducedTerms(
        q=float(np.sum(internal_h)),
        r=float(np.sum(t)),
        s=float(np.sum(external_h)),
        u=float(np.sum(maint_h)),
        v=2.0 * float(np.sum((phi / 2.0) ** (1.0 - eps) * (t - external_h) ** (1.0 - 2.0 * eps))),
    )
    return LfProblem(
        terms=terms,
        t_repair=total_repair_time(internal, s.grid, lp.repair_hours),
        base=contract_costs(m, s, internal),
        learning=lp,
        short_period=int(short[0]) + 1 if short.size else 0,
    )


def reduced_terms(m: int, s: Scenario, internal: RateSeries, external: RateSeries) -> ReducedTerms:
    """The q/r/s/u/v aggregates for m maintenance actions."""
    return lf_problem(m, s, internal, external).terms


def training_time(lf: float, m: int, s: Scenario, internal: RateSeries,
                  external: RateSeries) -> float:
    """Total training hours: surplus time times lf.

    Raises :class:`InfeasibleTrainingError` if any period has no surplus
    left after repairs and maintenance.
    """
    return lf_problem(m, s, internal, external).t_training(lf)


def forgetting_time(lf: float, s: Scenario, internal: RateSeries, external: RateSeries,
                    m: int) -> float:
    """Training hours lost to forgetting.

    The simple variant forgets every interrupted hour (repairs internal and
    external plus maintenance).  The revised variant keeps the external term
    but lets on-site rework recover part of the internally interrupted
    training, leaving S + V lf^(1-2 eps).
    """
    return lf_problem(m, s, internal, external).t_forgetting(lf)


def training_cost(lf: float, m: int, s: Scenario, internal: RateSeries,
                  external: RateSeries) -> float:
    """Training bill in dollars: hourly cost times total training hours."""
    return s.learning.unit_training_cost * training_time(lf, m, s, internal, external)


def learning_state(lf: float, m: int, s: Scenario, internal: RateSeries,
                   external: RateSeries) -> LearningState:
    """Evaluate the full time budget and multiplier at one lf."""
    return lf_problem(m, s, internal, external).state(lf)


def total_fs_cost(lf: float, m: int, s: Scenario, internal: RateSeries,
                  external: RateSeries) -> FsCostResult:
    """Total full-service contract cost (dollars) at training frequency lf."""
    return lf_problem(m, s, internal, external).evaluate(lf)


def fs_cost_lf_derivative(lf: float, m: int, s: Scenario, internal: RateSeries,
                          external: RateSeries) -> float:
    """Analytic d(total cost)/d(lf) at a feasible lf.

    With T = R - S - Q - U the training bill contributes l T, and the repair
    term contributes via the chain rule through the effective training time
    t_eff(lf) = T lf - t_f(lf):

        repair * q^(-a_auto) * (-a_indu) * t_eff^(-a_indu - 1) * t_eff'(lf)

    where t_eff' = T - (1 - 2 eps) V lf^(-2 eps) for the revised forgetting
    model and T for the simple one.
    """
    return lf_problem(m, s, internal, external).derivative(lf)
