"""Expected repair, maintenance and delay costs, and the pay-per-repair
cost moments used by the customer-choice model.

All amounts here are in dollars (the cost-side unit); the pricing layer
converts to thousands of dollars for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .failure import expected_failures
from .scenario import RateSeries, Scenario


@dataclass(frozen=True)
class CostBreakdown:
    """Repair/maintenance/delay/training components of one contract cost."""

    repair: float
    maintenance: float
    delay: float
    training: float

    @property
    def total(self) -> float:
        return self.repair + self.maintenance + self.delay + self.training

    def scaled(self, factor: float) -> "CostBreakdown":
        return CostBreakdown(self.repair * factor, self.maintenance * factor,
                             self.delay * factor, self.training * factor)


@dataclass(frozen=True)
class OsCostMoments:
    """Mean and variance of the customer's pay-per-repair contract cost.

    ``repair_mean`` is the expected repair bill over the horizon,
    ``maintenance`` the deterministic seasonal-maintenance bill, and
    ``variance`` the repair-bill variance under the compound-count model
    (failure counts treated as Poisson, so Var[N] = E[N] per period).
    """

    repair_mean: float
    maintenance: float
    variance: float

    @property
    def mean(self) -> float:
        return self.repair_mean + self.maintenance

    def scaled(self, factor: float) -> "OsCostMoments":
        return OsCostMoments(self.repair_mean * factor, self.maintenance * factor,
                             self.variance * factor * factor)


def _repair_bill(s: Scenario, counts: np.ndarray) -> float:
    """Per-period unit repair cost times expected failures, summed."""
    return float(np.dot(s.repair_cost_array, counts))


def _delay_bill(s: Scenario, counts: np.ndarray) -> float:
    """Delay probability times expected failures times the unit delay cost."""
    return s.cost.delay_probability * float(np.sum(counts)) * s.cost.unit_delay_cost


def expected_repair_cost(m: int, s: Scenario, internal: RateSeries) -> float:
    """Expected repair cost over the horizon under m maintenance actions.

    Sum of per-period unit repair cost times expected failures; the learning
    multiplier is applied downstream, not here.
    """
    return _repair_bill(s, expected_failures(m, s, internal))


def maintenance_cost(m: int, c_bar: float) -> float:
    """Preventive maintenance cost c_bar * (m - 1).

    The first action is part of commissioning, so a single-action plan
    costs nothing extra.
    """
    if m < 1:
        raise ValueError("maintenance count must be >= 1")
    return c_bar * (m - 1)


def expected_delay_cost(m: int, s: Scenario, internal: RateSeries) -> float:
    """Expected delay reimbursements: p_d * E[total failures] * unit cost.

    Delays are rare, externally driven events; ``delay_probability``
    keeps them a minor cost component.
    """
    return _delay_bill(s, expected_failures(m, s, internal))


def contract_costs(m: int, s: Scenario, internal: RateSeries) -> CostBreakdown:
    """Repair, maintenance and delay bills under m maintenance actions, from
    one set of expected failure counts: no learning multiplier, no training."""
    counts = expected_failures(m, s, internal)
    return CostBreakdown(
        repair=_repair_bill(s, counts),
        maintenance=maintenance_cost(m, s.cost.avg_maintenance_cost),
        delay=_delay_bill(s, counts),
        training=0.0,
    )


def os_cost_moments(s: Scenario, internal: RateSeries) -> OsCostMoments:
    """Cost moments of the pay-per-repair alternative.

    Repairs run at the same expected rates (maintained m0_os times); the
    variance follows the compound-count identity
    Var = sum_j E[N_j] (c_rj^2 + sigma_r^2).
    """
    counts = expected_failures(s.cost.m0_os, s, internal)
    costs = s.repair_cost_array
    # numpy's scalar power overflows to inf where Python's float power raises
    variance = float(np.dot(counts, costs**2 + np.float64(s.cost.repair_cost_sd)**2))
    return OsCostMoments(
        repair_mean=_repair_bill(s, counts),
        maintenance=maintenance_cost(s.cost.m0_os, s.cost.avg_maintenance_cost),
        variance=variance,
    )
