"""Bathtub failure model and preventive-maintenance optimization.

The internal failure rate evolves linearly within each period with a
piecewise aging slope g_j shaped like a bathtub: negative with shrinking
magnitude during run-in, zero during useful life, positive during wear-out.
Expected failures per period combine the start-of-period rate with the
within-period growth, both damped by preventive maintenance: a maintenance
improvement factor rho removes the fraction rho of accumulated aging, and
splitting the contract's M maintenance actions across the horizon shrinks
the within-period growth term to (1 - rho) + rho/M of its unmaintained
value.

The per-period count under M maintenance actions is

    E[N_j] = [phi_0 + (1 - rho) (phi_{j-1} - phi_0)] t_j
             + (t_j^2 g_j / 2) [(1 - rho) + rho / M]

which, on a uniform grid, telescopes into the equivalent expanded form
phi_0 t + rho t^2 g_j / (2M) + t^2 (1 - rho)/2 (g_j + 2 sum_{k<j} g_k).
Both forms are exercised by the test suite.

The rate series itself is the recursion phi_j = max(phi_{j-1} + g_j t_j, 0)
from phi_0, evaluated as one running sum over [phi_0, g_1 t_1, ...].  Only
run-in slopes are negative (k1, k2 in (0, 1) and m > 0 make every other
slope >= 0), so the zero floor can bind only in run-in, and once it binds
every later run-in rate stays at zero.  Where no run-in rate of the sum is
negative, the floor never binds and the sum is the series.  Otherwise the
run-in rates are that sum floored at zero, and the remaining rates a second
running sum that starts from the last run-in rate.  A running sum adds its
terms left to right, in the order of the period-by-period recursion, so
either way the rates are those of the recursion to the bit; the tests'
scalar oracle, ``aging_factor`` in ``tests/conftest.py``, checks it.

The optimal maintenance count minimizes expected repair plus maintenance
cost.  Only the within-period growth depends on M, so the trade-off is
K/M + c_M (M - 1) with K = rho/2 * sum_j c_rj g_j t_j^2.  One more action
pays while K/M - K/(M + 1) > c_M, that is while M (M + 1) < K / c_M, so the
exact integer argmin is the closed form

    M* = ceil((sqrt(1 + 4 K / c_M) - 1) / 2),

clamped to at least one (ties go to the smaller count).  Free maintenance
(c_M = 0) leaves K/M no minimum: it gets one action per period, M* = Z (one
where K <= 0).  A brute-force search over the same objective is the oracle.

A cost side needs the expected failure counts at two maintenance counts
(M* and the pay-per-repair count), each for several bills.
:class:`FailureCounts` computes the rate increments once and the counts
once per maintenance count, and holds the per-period repair costs that
price them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .scenario import (
    FailureParams,
    PeriodGrid,
    PeriodValues,
    Scenario,
    Violation,
    _raise_on,
)

#: Internal rates are floored at zero; undershoot beyond this tolerance is
#: reported as a model warning.
_FLOOR_TOLERANCE = 1e-15


class MaintenancePlan(NamedTuple):
    """A maintenance count with its expected repair+maintenance cost."""

    m_count: int
    objective_value: float


def _aging_slopes(f: FailureParams, z: int) -> np.ndarray:
    """The Z aging slopes g_j (j = 1..Z) as one array.

    Run-in (j <= z1): -(k1/m) (j/m)^(k1-1); useful life (z1 < j <= z2): 0;
    wear-out (z2 < j): +(k2/m) ((j-z2)/m)^(k2-1).
    """
    z1, z2, _ = f.stage_bounds
    g = np.zeros(z)
    run_in = min(max(z1, 0), z)
    j = np.arange(1.0, run_in + 1.0)
    g[:run_in] = -(f.k1 / f.m) * (j / f.m) ** (f.k1 - 1.0)
    wear_out = min(max(z1, z2, 0), z)
    j = np.arange(wear_out + 1.0, z + 1.0)
    g[wear_out:] = (f.k2 / f.m) * ((j - z2) / f.m) ** (f.k2 - 1.0)
    return g


def internal_rate_series(f: FailureParams, grid: PeriodGrid,
                         undershoots: list[str] | None = None) -> PeriodValues:
    """Internal failure rate at the end of each period.

    With an override the stored series itself is returned.  Otherwise the
    rate follows phi_j = phi_{j-1} + g_j t_j from phi_0, floored at zero
    (aggressive run-in parameters can undershoot; each undershooting period
    is reported as a warning, not an error).  ``undershoots``, a list where
    given, takes the text of each such warning in place of the warning.
    """
    if f.internal_series_override is not None:
        return f.internal_series_override
    slopes = _aging_slopes(f, grid.z_periods)
    # the steps g_j t_j, written behind phi_0 for the running sum
    sums = np.empty(grid.z_periods + 1)
    sums[0] = f.phi0_int
    steps = np.multiply(slopes, grid.t_j.as_array(), out=sums[1:])
    rates = np.add.accumulate(sums)[1:]
    n = min(max(f.stage_bounds[0], 0), grid.z_periods)
    run_in = rates[:n]
    below = run_in < 0.0
    if below.any():
        floored = np.flatnonzero(below)
        # from the first floored period on, each run-in period starts at zero
        raw = np.concatenate((run_in[:floored[0] + 1], steps[floored[0] + 1:n]))
        for j in np.flatnonzero(raw < -_FLOOR_TOLERANCE):
            message = f"internal rate undershoots zero in period {j + 1} ({raw[j]:.3e}); floored"
            if undershoots is None:
                warnings.warn(message, stacklevel=2)
            else:
                undershoots.append(message)
        run_in = np.maximum(run_in, 0.0)
        rest = np.add.accumulate(np.concatenate((run_in[-1:], steps[n:])))[1:]
        rates = np.concatenate((run_in, rest))
    return PeriodValues(rates)


def scaled_to_mean(s: Scenario, target_mean: float, series: PeriodValues) -> Scenario:
    """Rescale the internal failure-rate series to a target mean.

    The realised series (override or parametric) is scaled linearly together
    with the installation rate, preserving the bathtub shape; everything
    else stays at the scenario values.  A series of mean zero has no shape
    to scale: :class:`ScenarioValidationError`.  ``series`` is the
    scenario's internal series (:func:`internal_rate_series`).
    """
    current = series.mean
    if current <= 0:
        _raise_on([Violation(
            "failure.internal_series", "a series of mean 0 cannot be rescaled to a target mean")])
    factor = target_mean / current
    f = replace(s.failure, phi0_int=s.failure.phi0_int * factor,
                internal_series_override=series.as_array() * factor)
    return replace(s, failure=f)


def rate_increments(f: FailureParams, internal: PeriodValues) -> np.ndarray:
    """Per-period rate changes phi_j - phi_{j-1} realised by the series.

    Derived from the series itself so that overrides and floored series stay
    consistent with the failure arithmetic (g_j t_j equals the increment).
    """
    phi = internal.as_array()
    prev = np.concatenate(([f.phi0_int], phi[:-1]))
    return phi - prev


def _count_terms(s: Scenario, internal: PeriodValues,
                 increments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two per-period terms of :func:`expected_failures` that do not
    depend on the maintenance count: the start-of-period count
    [phi_0 + (1 - rho) (phi_{j-1} - phi_0)] t_j, and the within-period
    growth t_j^2 g_j / 2 (= t_j delta_j / 2) before the maintenance split."""
    f = s.failure
    t = s.grid.t_j.as_array()
    start_rate = f.phi0_int + (1.0 - f.rho) * (internal.as_array() - increments - f.phi0_int)
    return start_rate * t, t * increments / 2.0


def expected_failures(m: int, s: Scenario, internal: PeriodValues,
                      terms: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Expected failure counts for all periods under m maintenance actions.

    The start-of-period rate keeps only (1 - rho) of the aging accumulated
    so far (maintenance restores the fraction rho), and the within-period
    growth term carries the (1 - rho) + rho/m split.  Results are floored
    at zero.  ``terms`` are the :func:`_count_terms` of these inputs where
    the caller holds them.
    """
    if m < 1:
        raise ValueError("maintenance count must be >= 1")
    if terms is None:
        terms = _count_terms(s, internal, rate_increments(s.failure, internal))
    start, growth = terms
    rho = s.failure.rho
    return np.maximum(start + growth * ((1.0 - rho) + rho / m), 0.0)


class FailureCounts:
    """The expected failure counts of one scenario and internal series, one
    array per maintenance count, each computed on first use and kept, and
    so are their repair bills.

    The rate increments and the count terms that do not depend on the
    maintenance count are computed once, on construction, and so are the
    per-period repair costs (``repair_costs``, a constant broadcast to one
    value per period) that the bills weigh the counts with.
    """

    def __init__(self, s: Scenario, internal: PeriodValues):
        self.scenario = s
        self.internal = internal
        self.increments = rate_increments(s.failure, internal)
        self._terms = _count_terms(s, internal, self.increments)
        self.repair_costs = s.cost.repair_costs(s.grid.z_periods)
        self._by_count: dict[int, np.ndarray] = {}
        self._bills: dict[int, float] = {}

    def __call__(self, m: int) -> np.ndarray:
        """The expected failure counts under m maintenance actions."""
        counts = self._by_count.get(m)
        if counts is None:
            counts = self._by_count[m] = expected_failures(m, self.scenario, self.internal,
                                                           self._terms)
        return counts

    def repair_bill(self, m: int) -> float:
        """Per-period unit repair cost times expected failures, summed; each
        computed on first use and kept."""
        bill = self._bills.get(m)
        if bill is None:
            bill = self._bills[m] = float(np.dot(self.repair_costs, self(m)))
        return bill


def maintenance_cost(m: int, c_bar: float) -> float:
    """Preventive maintenance cost c_bar * (m - 1).

    The first action is part of commissioning, so a single-action plan
    costs nothing extra.
    """
    if m < 1:
        raise ValueError("maintenance count must be >= 1")
    return c_bar * (m - 1)


def _plan(m: int, s: Scenario, counts: FailureCounts) -> MaintenancePlan:
    """m actions with their expected repair plus maintenance cost."""
    return MaintenancePlan(m, counts.repair_bill(m)
                           + maintenance_cost(m, s.cost.avg_maintenance_cost))


def optimal_pm_count(s: Scenario, internal: PeriodValues,
                     counts: FailureCounts | None = None) -> MaintenancePlan:
    """Closed-form optimal number of preventive maintenance actions.

    M* = ceil((sqrt(1 + 4 K / c_M) - 1) / 2) with
    K = rho/2 * sum_j c_rj g_j t_j^2, clamped to >= 1: the exact integer
    argmin of K/M + c_M (M - 1) (see the module docstring).  A nonpositive
    radicand (net-declining rate over the horizon) clamps to a single
    action.  Free maintenance (c_M = 0) gets one action per period, Z.  A
    radicand that overflows (or is NaN) raises :class:`OverflowError`.
    ``counts`` are the failure counts of these inputs where the caller holds
    them; the objective is taken from the counts at M*.
    """
    if counts is None:
        counts = FailureCounts(s, internal)
    # g_j t_j^2 = delta_j t_j
    aging_cost = float(np.dot(counts.repair_costs, counts.increments * s.grid.t_j.as_array()))
    c_m = s.cost.avg_maintenance_cost
    if c_m <= 0:
        m_star = 1 if aging_cost <= 0 else s.grid.z_periods
    else:
        radicand = s.failure.rho * aging_cost / (2.0 * c_m)
        # sqrt(1/4 + r) - 1/2 is (sqrt(1 + 4r) - 1) / 2 to the bit (the
        # factors are powers of two), and does not overflow for finite r
        root = math.sqrt(0.25 + max(radicand, 0.0)) - 0.5
        if not math.isfinite(root):
            raise OverflowError(f"the optimal maintenance count overflows (K / c_M = {radicand})")
        m_star = max(1, math.ceil(root))
    return _plan(m_star, s, counts)


def brute_force_pm_count(s: Scenario, internal: PeriodValues, m_max: int) -> MaintenancePlan:
    """Exhaustive integer argmin of expected repair + maintenance cost.

    Ties break toward the smaller count.  Serves as the oracle for
    :func:`optimal_pm_count`.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    counts = FailureCounts(s, internal)
    best = MaintenancePlan(1, math.inf)
    for m in range(1, m_max + 1):
        plan = _plan(m, s, counts)
        if plan.objective_value < best.objective_value:
            best = plan
    return best
