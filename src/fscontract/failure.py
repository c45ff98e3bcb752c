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
from phi_0, evaluated in two vectorised segments.  Only run-in slopes are
negative (k1, k2 in (0, 1) and m > 0 make every other slope >= 0), so the
zero floor can bind only in run-in, and once it binds every later run-in
rate stays at zero.  Run-in rates are therefore a running sum from phi_0
floored at zero, and the remaining rates a running sum that starts from the
last run-in rate.  Both sums add the same terms in the same order as the
period-by-period recursion; :func:`aging_factor` is the scalar reference.

The optimal maintenance count minimizes expected repair plus maintenance
cost.  Only the within-period growth depends on M, so the trade-off is
K/M + c_M (M - 1) with K = rho/2 * sum_j c_rj g_j t_j^2, giving the closed
form M* = round(sqrt(K / c_M)), clamped to at least one.  A brute-force
integer search over the same objective acts as the oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .scenario import FailureParams, PeriodGrid, RateSeries, Scenario

#: Internal rates are floored at zero; undershoot beyond this tolerance is
#: reported as a model warning.
_FLOOR_TOLERANCE = 1e-15


@dataclass(frozen=True)
class MaintenancePlan:
    """A maintenance count with its expected repair+maintenance cost."""

    m_count: int
    is_optimal: bool
    objective_value: float


def aging_factor(j: int, f: FailureParams, grid: PeriodGrid) -> float:
    """Aging slope g_j for period j (1-based).

    Run-in (j <= z1): -(k1/m) (j/m)^(k1-1); useful life (z1 < j <= z2): 0;
    wear-out (z2 < j <= z3): +(k2/m) ((j-z2)/m)^(k2-1).
    """
    z1, z2, z3 = f.stage_bounds
    if not 1 <= j <= grid.z_periods:
        raise ValueError(f"period index {j} outside 1..{grid.z_periods}")
    if j <= z1:
        return -(f.k1 / f.m) * (j / f.m) ** (f.k1 - 1.0)
    if j <= z2:
        return 0.0
    return (f.k2 / f.m) * ((j - z2) / f.m) ** (f.k2 - 1.0)


def _aging_slopes(f: FailureParams, z: int) -> np.ndarray:
    """The Z aging slopes of :func:`aging_factor` as one array."""
    z1, z2, _ = f.stage_bounds
    j = np.arange(1.0, z + 1.0)
    g = np.zeros(z)
    run_in = min(max(z1, 0), z)
    g[:run_in] = -(f.k1 / f.m) * (j[:run_in] / f.m) ** (f.k1 - 1.0)
    wear_out = min(max(z1, z2, 0), z)
    g[wear_out:] = (f.k2 / f.m) * ((j[wear_out:] - z2) / f.m) ** (f.k2 - 1.0)
    return g


def aging_series(f: FailureParams, grid: PeriodGrid) -> RateSeries:
    """All Z aging slopes as a series."""
    return RateSeries("aging", tuple(_aging_slopes(f, grid.z_periods).tolist()))


def internal_rate_series(f: FailureParams, grid: PeriodGrid) -> RateSeries:
    """Internal failure rate at the end of each period.

    With an override the stored series is returned verbatim.  Otherwise the
    rate follows phi_j = phi_{j-1} + g_j t_j from phi_0, floored at zero
    (aggressive run-in parameters can undershoot; each undershooting period
    is reported as a warning, not an error).
    """
    if f.internal_series_override is not None:
        return RateSeries("internal", tuple(float(x) for x in f.internal_series_override))
    steps = _aging_slopes(f, grid.z_periods) * grid.t_array
    n = min(max(f.stage_bounds[0], 0), grid.z_periods)
    run_in = np.cumsum(np.concatenate(([f.phi0_int], steps[:n])))[1:]
    floored = np.flatnonzero(run_in < 0.0)
    if floored.size:
        # from the first floored period on, each run-in period starts at zero
        raw = np.concatenate((run_in[:floored[0] + 1], steps[floored[0] + 1:n]))
        for j in np.flatnonzero(raw < -_FLOOR_TOLERANCE):
            warnings.warn(
                f"internal rate undershoots zero in period {j + 1} ({raw[j]:.3e}); floored",
                stacklevel=2,
            )
        run_in = np.maximum(run_in, 0.0)
    last = run_in[-1] if n else f.phi0_int
    rest = np.cumsum(np.concatenate(([last], steps[n:])))[1:]
    return RateSeries("internal", tuple(np.concatenate((run_in, rest)).tolist()))


def rate_increments(f: FailureParams, grid: PeriodGrid, internal: RateSeries) -> np.ndarray:
    """Per-period rate changes phi_j - phi_{j-1} realised by the series.

    Derived from the series itself so that overrides and floored series stay
    consistent with the failure arithmetic (g_j t_j equals the increment).
    """
    phi = internal.as_array()
    prev = np.concatenate(([f.phi0_int], phi[:-1]))
    return phi - prev


def expected_failures(m: int, s: Scenario, internal: RateSeries) -> np.ndarray:
    """Expected failure counts for all periods under m maintenance actions.

    The start-of-period rate keeps only (1 - rho) of the aging accumulated
    so far (maintenance restores the fraction rho), and the within-period
    growth term carries the (1 - rho) + rho/m split.  Results are floored
    at zero.
    """
    if m < 1:
        raise ValueError("maintenance count must be >= 1")
    f = s.failure
    t = s.grid.t_array
    delta = rate_increments(f, s.grid, internal)
    prev = internal.as_array() - delta
    start_rate = f.phi0_int + (1.0 - f.rho) * (prev - f.phi0_int)
    counts = start_rate * t + (t * delta / 2.0) * ((1.0 - f.rho) + f.rho / m)
    return np.maximum(counts, 0.0)


def expected_failures_in_period(j: int, m: int, s: Scenario, internal: RateSeries) -> float:
    """Expected failures in period j (1-based) under m maintenance actions."""
    if not 1 <= j <= s.grid.z_periods:
        raise ValueError(f"period index {j} outside 1..{s.grid.z_periods}")
    return float(expected_failures(m, s, internal)[j - 1])


def _repair_plus_maintenance(m: int, s: Scenario, internal: RateSeries) -> float:
    from .costs import expected_repair_cost, maintenance_cost  # costs imports this module

    return expected_repair_cost(m, s, internal) + maintenance_cost(m, s.cost.avg_maintenance_cost)


def optimal_pm_count(s: Scenario, internal: RateSeries) -> MaintenancePlan:
    """Closed-form optimal number of preventive maintenance actions.

    M* = round(sqrt(rho * sum_j c_rj g_j t_j^2 / (2 c_M))), clamped to >= 1;
    a nonpositive radicand (net-declining rate over the horizon) clamps to
    a single action.  Halves round up for determinism.  A radicand that
    overflows (or is NaN) raises :class:`OverflowError`.
    """
    costs = s.repair_cost_array
    t = s.grid.t_array
    delta = rate_increments(s.failure, s.grid, internal)
    # g_j t_j^2 = delta_j t_j
    aging_cost = float(np.dot(costs, delta * t))
    c_m = s.cost.avg_maintenance_cost
    if c_m <= 0:
        m_star = 1 if aging_cost <= 0 else s.grid.z_periods
    else:
        radicand = s.failure.rho * aging_cost / (2.0 * c_m)
        root = math.sqrt(max(radicand, 0.0))
        if not math.isfinite(root):
            raise OverflowError(f"the optimal maintenance count overflows (K / c_M = {radicand})")
        m_star = max(1, int(math.floor(root + 0.5)))
    return MaintenancePlan(m_star, True, _repair_plus_maintenance(m_star, s, internal))


def brute_force_pm_count(s: Scenario, internal: RateSeries, m_max: int) -> MaintenancePlan:
    """Exhaustive integer argmin of expected repair + maintenance cost.

    Ties break toward the smaller count.  Serves as the oracle for
    :func:`optimal_pm_count`.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    best_m, best_value = 1, math.inf
    for m in range(1, m_max + 1):
        value = _repair_plus_maintenance(m, s, internal)
        if value < best_value:
            best_m, best_value = m, value
    return MaintenancePlan(best_m, False, best_value)
