"""Expected repair, maintenance and delay costs, and the pay-per-repair
cost moments used by the customer-choice model.

All amounts here are in dollars (the cost-side unit); the pricing layer
converts to thousands of dollars for reporting.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .failure import FailureCounts, maintenance_cost
from .scenario import PeriodValues, Scenario


class CostBreakdown(NamedTuple):
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


class OsCostMoments(NamedTuple):
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


def contract_costs(m: int, s: Scenario, internal: PeriodValues,
                   counts: FailureCounts | None = None) -> CostBreakdown:
    """Repair, maintenance and delay bills under m maintenance actions, from
    one set of expected failure counts: no learning multiplier, no training.

    The repair bill sums the per-period unit repair cost times the expected
    failures; the delay bill is p_d * E[total failures] * unit delay cost
    (delays are rare, externally driven events, and ``delay_probability``
    keeps them a minor cost component).  ``counts`` are the failure counts
    of these inputs where the caller holds them."""
    if counts is None:
        counts = FailureCounts(s, internal)
    return CostBreakdown(
        repair=counts.repair_bill(m),
        maintenance=maintenance_cost(m, s.cost.avg_maintenance_cost),
        delay=s.cost.delay_probability * float(np.add.reduce(counts(m))) * s.cost.unit_delay_cost,
        training=0.0,
    )


def os_cost_moments(s: Scenario, internal: PeriodValues,
                    counts: FailureCounts | None = None) -> OsCostMoments:
    """Cost moments of the pay-per-repair alternative.

    Repairs run at the same expected rates (maintained m0_os times); the
    variance follows the compound-count identity
    Var = sum_j E[N_j] (c_rj^2 + sigma_r^2).  ``counts`` are the failure
    counts of these inputs where the caller holds them.
    """
    if counts is None:
        counts = FailureCounts(s, internal)
    m = s.cost.m0_os
    costs = counts.repair_costs
    # numpy's scalar power overflows to inf where Python's float power raises
    variance = float(np.dot(counts(m), costs**2 + np.float64(s.cost.repair_cost_sd)**2))
    return OsCostMoments(
        repair_mean=counts.repair_bill(m),
        maintenance=maintenance_cost(m, s.cost.avg_maintenance_cost),
        variance=variance,
    )
