"""Dynamic learning and forgetting: repair/training/forgetting time budgets,
the efficiency multiplier A, training cost, and total contract cost as a
function of the training frequency lf.

Time budget
-----------
Repair time is one block of ``repair_hours`` per expected failure, so the
cumulative repair time is t_r = Q = sum_j phi_j t_j * repair_hours.  Each
period also loses time to external failures and to maintenance visits; what
is left is surplus, and the fraction lf of it goes to training:

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
lf is a constant: the aggregates R - S - Q - U, S, Q (the cumulative
repair time), U and V, and the repair, maintenance and delay bills before
learning.  :class:`LfProblem` collects them once, and cost, time budget,
derivative and feasible interval become scalar functions of lf.  It also
holds the scalar constants those functions share (T = R - S - Q - U,
S + Q + U, 1 - 2 eps, l T and B K below), each computed once per problem.
The feasible interval is (edge, 1), where the edge is the root of t_l - t_f.
On it the A-term falls in lf while the training bill rises linearly, so the
cost has an interior minimum, where the closed-form lf-derivative

    c'(lf) = l T - a B K E^(-a-1) E'(lf),   E = t_l - t_f,

changes sign (a = alpha_indu, B the repair bill before learning,
K = Q^(-alpha_auto), T = R - S - Q - U, l the hourly training cost).
:meth:`LfProblem.solve` finds that root on scalar floats.  Under simple
forgetting E = T lf - F with F = S + Q + U, so

    lf* = (F + (a B K / l)^(1/(a+1))) / T;

under revised forgetting a safeguarded Newton iteration in ln lf uses the
closed-form second derivative, keeps a bracket on the sign of c' and
bisects whenever a step would leave it.  Both clamp lf* to the interval
[edge (1 + 1e-9) + 1e-15, 1 - 1e-12].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .costs import CostBreakdown, contract_costs
from .scenario import LearningParams, PeriodValues, Scenario, _kept


#: Newton step in ln lf (or bracket width) below which the solve has converged.
_X_TOL = 1e-12
#: Newton or bisection steps allowed before the solve gives up.
_MAX_STEPS = 100


class InfeasibleTrainingError(ValueError):
    """Training at this lf is impossible (no surplus, or forgetting wins)."""


class ConvergenceError(RuntimeError):
    """The lf solve met a non-finite derivative or ran out of steps."""


class ReducedTerms(NamedTuple):
    """Aggregates of the time budget: q (the cumulative repair time t_r), r,
    s, u and the forgetting scale v."""

    q: float
    r: float
    s: float
    u: float
    v: float

    @property
    def net(self) -> float:
        """Trainable-hours coefficient R - S - Q - U."""
        return self.r - self.s - self.q - self.u


class LearningState(NamedTuple):
    """Realised time budget and efficiency multiplier at one lf."""

    t_repair: float
    t_training: float
    t_forgetting: float
    effective_training: float
    a_factor: float
    training_cost: float


class FsCostResult(NamedTuple):
    """Total contract cost with its learning state."""

    breakdown: CostBreakdown
    state: LearningState


class LfSolution(NamedTuple):
    """Optimized training frequency and how the solve went.

    ``iterations`` counts Newton (or bisection) steps; it is 0 where lf*
    is closed form or sits on an edge of the interval.  ``residual`` is
    |c'(lf*)| lf* / c(lf*), the derivative scaled to a relative cost
    change; it is 0 where lf* sits on an edge that the derivative points
    out of.
    """

    lf_star: float
    cost_at_star: float
    vertex_hint: float
    iterations: int
    feasible_range: tuple[float, float]
    residual: float


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

    The scalar constants of the cost are computed once, on construction,
    and so again by :func:`dataclasses.replace`: T = R - S - Q - U, the
    simple model's forgetting S + Q + U, the rework exponent 1 - 2 eps and
    the training slope l T.  B K (:attr:`_repair_scale`) is computed on
    first use, as Q^(-alpha_auto) raises where Q is not positive.
    """

    terms: ReducedTerms
    base: CostBreakdown
    learning: LearningParams
    short_period: int = 0

    def __post_init__(self):
        terms, lp = self.terms, self.learning
        net = terms.net
        object.__setattr__(self, "_net", net)
        object.__setattr__(self, "_interrupted", terms.s + terms.q + terms.u)
        object.__setattr__(self, "_p", 1.0 - 2.0 * lp.epsilon)
        object.__setattr__(self, "_training_slope", lp.unit_training_cost * net)

    def state(self, lf: float) -> LearningState:
        """The time budget and efficiency multiplier at lf: the repair time
        t_r = Q, the training time t_l = T lf, the forgetting t_f (S + Q + U,
        or S + V lf^(1-2 eps)) and their difference E."""
        self._check(lf)
        t_l, t_f, t_eff, _, _ = self._budget(lf)
        t_r = self.terms.q
        return LearningState(t_r, t_l, t_f, t_eff, learning_effect(t_r, t_eff, self.learning),
                             self.learning.unit_training_cost * t_l)

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
        self.state(lf)  # raises where lf is infeasible
        return self._slopes(lf)[0]

    def _check(self, lf: float) -> None:
        """Raise where lf is outside (0, 1) or a period has no surplus time."""
        if not 0.0 < lf < 1.0:
            raise ValueError("lf must lie in (0, 1)")
        if self.short_period:
            raise InfeasibleTrainingError(
                f"no surplus time left for training in period {self.short_period}")

    def _slopes(self, lf: float) -> tuple[float, float]:
        """c'(lf) and c''(lf) at a feasible lf, unchecked.

        With E the effective training time and G = a B K E^(-a-1):
        c' = l T - G E' and c'' = G ((a + 1) E'^2 / E - E'').
        """
        a = self.learning.alpha_indu
        _, _, eff, d_eff, dd_eff = self._budget(lf)
        g = a * self._repair_scale * eff ** (-a - 1.0)
        return (self._training_slope - g * d_eff,
                g * ((a + 1.0) * d_eff * d_eff / eff - dd_eff))

    def _budget(self, lf: float) -> tuple[float, float, float, float, float]:
        """t_l, t_f and E = t_l - t_f at lf, with the first two
        lf-derivatives of E; unchecked."""
        net = self._net
        t_l = net * lf
        if self.learning.forgetting_model == "simple":
            t_f, d_eff, dd_eff = self._interrupted, net, 0.0
        else:
            p = self._p
            w = self.terms.v * lf ** p
            t_f, d_eff = self.terms.s + w, net - p * w / lf
            # lf^2 underflows to 0 below about 1e-162, where E'' is +inf
            dd_eff = p * (1.0 - p) * w / (lf * lf) if lf * lf else math.inf
        return t_l, t_f, t_l - t_f, d_eff, dd_eff

    @_kept
    def _repair_scale(self) -> float:
        """B K: the repair bill before learning times Q^(-alpha_auto)."""
        return self.base.repair * self.terms.q ** -self.learning.alpha_auto

    def solve(self) -> LfSolution:
        """The cost-minimising lf on the feasible interval (see the module
        docstring).

        Raises :class:`InfeasibleTrainingError` where no lf is feasible and
        :class:`ConvergenceError` where the derivative is not finite.
        """
        lo_edge, hi = self.feasible_range()
        lo = lo_edge * (1.0 + 1e-9) + 1e-15
        try:
            lf, iterations, slope = self._root(lo_edge, lo, hi)
            cost = self.cost(lf)
        except ArithmeticError as exc:
            raise ConvergenceError(f"lf solve overflowed: {exc}") from exc
        if not (math.isfinite(slope) and math.isfinite(cost)):
            raise ConvergenceError(f"non-finite cost or derivative at lf = {lf!r}")
        on_edge = (lf <= lo and slope >= 0.0) or (lf >= hi and slope <= 0.0)
        return LfSolution(
            lf_star=lf,
            cost_at_star=cost,
            # the turning-point guess v / (2 (r - s - q - u)): reported, not searched
            vertex_hint=self.terms.v / (2.0 * self._net),
            iterations=iterations,
            feasible_range=(lo_edge, hi),
            residual=0.0 if on_edge else abs(slope) * lf / cost,
        )

    def _root(self, lo_edge: float, lo: float, hi: float) -> tuple[float, int, float]:
        """(lf*, steps taken, c'(lf*)) on [lo, hi]."""
        slope = self.derivative(hi)  # raises where no lf is feasible
        if not slope > 0.0:
            if math.isnan(slope):
                raise ConvergenceError(f"non-finite derivative at lf = {hi!r}")
            return hi, 0, slope
        lp = self.learning
        a = lp.alpha_indu
        if a == 0.0:
            return lo, 0, self._slopes(lo)[0]
        # the simple model's optimum effective training time E*, and the lf
        # that reaches it with forgetting as at the feasible edge: lf* under
        # simple forgetting, the Newton start under revised forgetting
        e_star = (a * self._repair_scale / lp.unit_training_cost) ** (1.0 / (a + 1.0))
        start = (self._budget(lo_edge)[1] + e_star) / self._net
        if lp.forgetting_model == "simple":
            lf = min(max(start, lo), hi)
            return lf, 0, self._slopes(lf)[0]
        slope = self._slopes(lo)[0]
        if not slope < 0.0:
            if math.isnan(slope):
                raise ConvergenceError(f"non-finite derivative at lf = {lo!r}")
            return lo, 0, slope
        # Newton on c'(e^x) in x = ln lf, bracketed by the sign of c'
        x_lo, x_hi = math.log(lo), math.log(hi)
        x = math.log(start)
        if not x_lo < x < x_hi:
            x = 0.5 * (x_lo + x_hi)
        iterations = 0
        converged = False
        while True:
            lf = math.exp(x)
            slope, curvature = self._slopes(lf)
            if not (math.isfinite(slope) and math.isfinite(curvature)):
                raise ConvergenceError(f"non-finite derivative at lf = {lf!r}")
            if converged or slope == 0.0:
                return lf, iterations, slope
            if iterations == _MAX_STEPS:
                raise ConvergenceError(f"no convergence after {_MAX_STEPS} steps")
            if slope < 0.0:
                x_lo = x
            else:
                x_hi = x
            step = -slope / (lf * curvature) if curvature > 0.0 else math.inf
            # a step that meets the tolerance is still taken where it moves x:
            # its error is of the order of its square
            converged = abs(step) <= _X_TOL or x_hi - x_lo <= _X_TOL
            if x_lo < x + step < x_hi:
                x += step
            elif converged:
                return lf, iterations, slope
            else:
                x = 0.5 * (x_lo + x_hi)
            iterations += 1

    def feasible_range(self) -> tuple[float, float]:
        """Open interval of lf values with positive effective training time.

        The lower edge is the root of E(lf) = t_l(lf) - t_f(lf), to a
        relative 1e-12: the smallest lf found with E > 0, within that ratio
        of an lf with E <= 0.  E is convex in lf, so Newton steps from the
        upper edge fall monotonically onto the root; a step that would leave
        the bracket bisects it geometrically, and one shorter than the
        tolerance probes just below the current edge.  The upper edge is the
        lf < 1 limit.  Raises :class:`InfeasibleTrainingError` when
        forgetting exceeds training everywhere.  Computed on first use and
        kept.
        """
        return self._edges

    def with_learning(self, learning: LearningParams) -> "LfProblem":
        """This problem under other learning parameters, with the same
        aggregates.  E(lf) depends on the learning parameters only through
        the rework exponent and the forgetting model: where both stay, the
        new problem shares this one's feasible interval, if it is known."""
        other = replace(self, learning=learning)
        if ("_edges" in vars(self) and learning.epsilon == self.learning.epsilon
                and learning.forgetting_model == self.learning.forgetting_model):
            # where :class:`_kept` keeps it
            vars(other)["_edges"] = self._edges
        return other

    @_kept
    def _edges(self) -> tuple[float, float]:
        """:meth:`feasible_range`, computed."""
        hi = 1.0 - 1e-12
        _, _, eff, d_eff, _ = self._budget(hi)
        if self._net <= 0.0 or eff <= 0.0:
            raise InfeasibleTrainingError("forgetting exceeds training for every lf in (0, 1)")
        lo = 1e-15
        if self._budget(lo)[2] > 0.0:
            return lo, hi
        root = hi
        for _ in range(200):
            if root / lo < 1.0 + 1e-12:
                break
            lf = min(root - eff / d_eff, root * (1.0 - 5e-13))
            if not lo < lf < root:
                lf = math.sqrt(lo * root)
            _, _, e, d, _ = self._budget(lf)
            if e > 0.0:
                root, eff, d_eff = lf, e, d
            else:
                lo = lf
        return root, hi


def lf_problem(m: int, s: Scenario, internal: PeriodValues, external: PeriodValues,
               base: CostBreakdown | None = None) -> LfProblem:
    """Collect the lf-independent part of the contract cost for m
    maintenance actions and the given rate series.  ``base`` is the
    :func:`contract_costs` bill of these inputs where the caller holds it."""
    lp = s.learning
    t = s.grid.t_j.as_array()
    phi = internal.as_array()
    internal_h = phi * t * lp.repair_hours
    external_h = external.as_array() * t * lp.repair_hours
    # m/Z maintenance visits in each period
    maint_h = np.full(s.grid.z_periods, (m / s.grid.z_periods) * lp.maintenance_hours)
    short = t - internal_h - external_h - maint_h <= 0.0
    eps = lp.epsilon
    total = np.add.reduce
    terms = ReducedTerms(
        q=float(total(internal_h)),
        r=float(total(t)),
        s=float(total(external_h)),
        u=float(total(maint_h)),
        v=2.0 * float(total((phi / 2.0) ** (1.0 - eps) * (t - external_h) ** (1.0 - 2.0 * eps))),
    )
    return LfProblem(
        terms=terms,
        base=contract_costs(m, s, internal) if base is None else base,
        learning=lp,
        short_period=int(np.flatnonzero(short)[0]) + 1 if short.any() else 0,
    )


def reduced_terms(m: int, s: Scenario, internal: PeriodValues,
                  external: PeriodValues) -> ReducedTerms:
    """The q/r/s/u/v aggregates for m maintenance actions."""
    return lf_problem(m, s, internal, external).terms


def total_fs_cost(lf: float, m: int, s: Scenario, internal: PeriodValues,
                  external: PeriodValues) -> FsCostResult:
    """Total full-service contract cost (dollars) at training frequency lf."""
    return lf_problem(m, s, internal, external).evaluate(lf)


def fs_cost_lf_derivative(lf: float, m: int, s: Scenario, internal: PeriodValues,
                          external: PeriodValues) -> float:
    """Analytic d(total cost)/d(lf) at a feasible lf.

    With T = R - S - Q - U the training bill contributes l T, and the repair
    term contributes via the chain rule through the effective training time
    t_eff(lf) = T lf - t_f(lf):

        repair * q^(-a_auto) * (-a_indu) * t_eff^(-a_indu - 1) * t_eff'(lf)

    where t_eff' = T - (1 - 2 eps) V lf^(-2 eps) for the revised forgetting
    model and T for the simple one.
    """
    return lf_problem(m, s, internal, external).derivative(lf)
