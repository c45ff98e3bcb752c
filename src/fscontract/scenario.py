"""Scenario definition: the full parameter space for a repair contract study.

A :class:`Scenario` bundles the contract grid, failure-rate parameters, cost
parameters, learning/training parameters and market parameters, plus an RNG
seed.  Every downstream quantity (rates, costs, prices, reports) is a pure
function of the scenario, so equal scenarios produce bit-identical results.

Money conventions
-----------------
The model mixes two natural scales and keeps both explicit:

* cost-side parameters (``cost.*``, ``learning.unit_training_cost``) are in
  dollars per event/hour, e.g. a maintenance action costs $300;
* market-side parameters (``market.price_ceiling``, ``market.tco`` ...) and
  every reported KPI (price, cost, profit) are in thousands of dollars, the
  usual convention for contract-level figures.  ``market.alpha_max`` is a
  risk-aversion bound per (thousand dollars)^2.

The pricing layer converts once (``DOLLARS_PER_REPORT_UNIT``).

Config files are flat ``dotted.key = value`` text (see :func:`load_scenario`),
chosen so that scenarios round-trip losslessly and diff cleanly.

Scenario values are immutable after construction and safe to share across
workers; RNGs are created per call from the seed and never shared.  A
:class:`RateSeries` holds its rates as one read-only float array, which
the model computes on directly (:meth:`RateSeries.as_array`); the tuple
view (:attr:`RateSeries.values`) is built only when asked for.  The config
values keep tuples, and the arrays derived from them
(:attr:`PeriodGrid.t_array`, :attr:`Scenario.repair_cost_array`) are built
once per value object, on first use, and are read-only.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import FrozenInstanceError, dataclass, replace
from functools import cache, cached_property
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

DOLLARS_PER_REPORT_UNIT = 1000.0

#: Packaged internal failure-rate table: ten bathtub-shaped series (one per
#: column, header phi1..phi10) over a 20-period horizon.  See
#: :func:`load_internal_table`.
INTERNAL_RATE_TABLE_PATH = Path(
    str(resources.files("fscontract").joinpath("assets/internal_rate_table.csv")))

#: Calibrated baseline internal failure-rate series (failures/hour, per
#: period).  Bathtub-shaped: run-in decline over periods 1-4, a flat useful
#: life over 5-16, accelerating wear-out over 17-20.  Mean is exactly 0.0034
#: and the net change from the installation rate (7.5e-3) is +7.5e-3, which
#: together with the default unit repair cost puts the optimal number of
#: preventive maintenance actions at 3.
BASELINE_INTERNAL_SERIES: tuple[float, ...] = (
    0.0054, 0.0038, 0.0026, 0.0017,
    0.0017, 0.0017, 0.0017, 0.0017, 0.0017, 0.0017,
    0.0017, 0.0017, 0.0017, 0.0017, 0.0017, 0.0017,
    0.0031, 0.0060, 0.0100, 0.0150,
)


class ConfigError(ValueError):
    """Malformed config text: bad line, unknown key or unparseable value."""


class ScenarioValidationError(ValueError):
    """A scenario failed validation; carries the individual violations."""

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


class Violation(NamedTuple):
    """One violated rule, keyed by the config name of the offending field."""

    key: str
    rule: str

    def __str__(self) -> str:
        return f"{self.key}: {self.rule}"


class RateSeries:
    """Per-period series over the contract horizon.

    ``kind`` is one of ``internal`` / ``external`` (failures per hour) or
    ``aging`` (rate slope per hour^2).  The rates are held as one read-only
    float array, copied from ``values`` (any sequence of floats or a numpy
    array).  Series are immutable and compare and hash by kind and rates.
    """

    __slots__ = ("kind", "_array")

    def __init__(self, kind: str, values):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "_array", _read_only(values))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return RateSeries, (self.kind, self._array)

    def __eq__(self, other):
        if not isinstance(other, RateSeries):
            return NotImplemented
        return self.kind == other.kind and np.array_equal(self._array, other._array)

    def __hash__(self) -> int:
        return hash((self.kind, self.values))

    def __repr__(self) -> str:
        return f"RateSeries(kind={self.kind!r}, values={self.values!r})"

    @property
    def values(self) -> tuple[float, ...]:
        """The rates as a tuple of floats, built on each call."""
        return tuple(self._array.tolist())

    def as_array(self) -> np.ndarray:
        """The rates as the stored read-only float array."""
        return self._array

    @property
    def mean(self) -> float:
        return float(np.mean(self._array))


def _read_only(values) -> np.ndarray:
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class PeriodGrid:
    """Contract horizon split into Z periods.

    ``t_j`` are operating hours per period (e.g. 8 h/day over 180 days);
    ``t_jm`` are the matching calendar hours (24 h/day), kept for reference
    as the maintenance-interval length.
    """

    z_periods: int
    t_j: tuple[float, ...]
    t_jm: tuple[float, ...]

    @classmethod
    def uniform(cls, z_periods: int, hours: float, calendar_hours: float) -> "PeriodGrid":
        return cls(z_periods, (float(hours),) * z_periods, (float(calendar_hours),) * z_periods)

    @cached_property
    def t_array(self) -> np.ndarray:
        """Operating hours per period as a read-only array, built once."""
        return _read_only(self.t_j)

    @property
    def contract_length_b(self) -> float:
        """Total operating hours over the contract (sum of t_j)."""
        return float(sum(self.t_j))


@dataclass(frozen=True)
class FailureParams:
    """Failure-rate model: bathtub aging plus an external accident rate.

    ``stage_bounds`` = (z1, z2, z3) split the horizon into run-in
    (1..z1), useful life (z1..z2) and wear-out (z2..z3 = Z).  ``k1``/``k2``
    are hazard shape parameters in (0, 1) and ``m`` the scale.  ``rho`` is
    the restorative power of one preventive maintenance action (0 = bad as
    old, 1 = good as new).  ``internal_series_override``, when set, replaces
    the parametric series verbatim (this is how table-based series and the
    shipped baseline enter).
    """

    phi0_int: float
    stage_bounds: tuple[int, int, int]
    k1: float
    k2: float
    m: float
    rho: float
    ext_mean: float
    ext_sd: float
    internal_series_override: tuple[float, ...] | None = None


@dataclass(frozen=True)
class CostParams:
    """Cost-side parameters, in dollars.

    ``unit_repair_cost`` is the expected cost of one repair, either constant
    or one value per period; ``repair_cost_sd`` its per-repair dispersion.
    ``delay_probability`` is the chance that a repair incurs the contractual
    delay reimbursement ``unit_delay_cost``.  ``m0_os`` is the seasonal
    maintenance count used on the pay-per-repair side.
    """

    unit_repair_cost: float | tuple[float, ...]
    repair_cost_sd: float
    avg_maintenance_cost: float
    unit_delay_cost: float
    delay_probability: float
    m0_os: int

    def repair_costs(self, z_periods: int) -> tuple[float, ...]:
        """Per-period expected repair costs, broadcasting a constant."""
        return _per_period(self.unit_repair_cost, z_periods)


def _per_period(value, z: int) -> tuple:
    """A per-period tuple as given, or a constant broadcast to z periods."""
    return value if isinstance(value, tuple) else (float(value),) * z


@dataclass(frozen=True)
class LearningParams:
    """Learning-by-doing, off-work training and forgetting parameters.

    ``alpha_auto``/``alpha_indu`` are the power-law exponents for autonomous
    and induced (training-driven) learning; ``epsilon`` is the small rework
    exponent governing how on-site practice partially offsets forgetting.
    ``lf`` is the fraction of surplus working time spent training and
    ``unit_training_cost`` its hourly cost in dollars.  ``repair_hours`` and
    ``maintenance_hours`` convert event counts into hours wherever the time
    budget needs them (defaults: 1 h per repair, 8 h per maintenance visit).
    """

    alpha_auto: float
    alpha_indu: float
    epsilon: float
    lf: float
    unit_training_cost: float
    forgetting_model: str = "revised"
    repair_hours: float = 1.0
    maintenance_hours: float = 8.0


@dataclass(frozen=True)
class MarketParams:
    """Market-side parameters, in thousands of dollars.

    ``beta`` is the pay-per-repair mark-up, ``alpha_max`` the upper bound of
    the customers' uniformly distributed risk aversion (per k$^2) and
    ``d_customers`` the market size.  The admissible price ceiling is either
    given directly (``price_ceiling``) or derived as ``tco - c_lease -
    c_ops``.
    """

    beta: float
    alpha_max: float
    d_customers: int
    price_ceiling: float | None = 900.0
    tco: float | None = None
    c_lease: float | None = None
    c_ops: float | None = None

    def resolved_ceiling(self) -> float:
        ceiling = _ceiling(self.price_ceiling, self.tco, self.c_lease, self.c_ops)
        if ceiling is None:
            raise ValueError("market: need price_ceiling or the (tco, c_lease, c_ops) triple")
        return ceiling


def _ceiling(price_ceiling, tco, c_lease, c_ops) -> float | None:
    """The price ceiling, given or derived from the TCO triple (None if neither)."""
    if price_ceiling is not None:
        return float(price_ceiling)
    if None in (tco, c_lease, c_ops):
        return None
    return float(tco - c_lease - c_ops)


@dataclass(frozen=True)
class Scenario:
    """Complete, immutable parameter set driving every computation."""

    grid: PeriodGrid
    failure: FailureParams
    cost: CostParams
    learning: LearningParams
    market: MarketParams
    rng_seed: int

    @cached_property
    def repair_cost_array(self) -> np.ndarray:
        """Per-period expected repair costs as a read-only array, built once."""
        return _read_only(self.cost.repair_costs(self.grid.z_periods))


def default_scenario() -> Scenario:
    """The shipped, calibrated baseline scenario.

    Twenty half-year periods of 1440 operating hours (4320 calendar hours)
    over a ten-year horizon; mark-up 0.5; maintenance improvement 0.5;
    learning exponents 0.1; rework exponent 0.05; $50/h training; $300 per
    maintenance; $10,000 per delayed repair; 50 customers; 10 seasonal
    maintenance visits on the pay-per-repair side; installation failure rate
    7.5e-3/h with the bundled mean-0.0034 bathtub series; risk aversion
    uniform on [0, 1e-3] per k$^2 and a 900 k$ price ceiling.  Unit repair
    cost ($1000), repair cost dispersion ($21,000) and delay probability
    (0.004) are calibrated so the baseline reproduces the documented model
    comparison orderings.
    """
    return Scenario(
        grid=PeriodGrid.uniform(20, 1440.0, 4320.0),
        failure=FailureParams(
            phi0_int=7.5e-3,
            stage_bounds=(4, 16, 20),
            k1=0.5,
            k2=0.45,
            m=1e11,
            rho=0.5,
            ext_mean=7.5e-4,
            ext_sd=2.5e-4,
            internal_series_override=BASELINE_INTERNAL_SERIES,
        ),
        cost=CostParams(
            unit_repair_cost=1000.0,
            repair_cost_sd=21000.0,
            avg_maintenance_cost=300.0,
            unit_delay_cost=10000.0,
            delay_probability=0.004,
            m0_os=10,
        ),
        learning=LearningParams(
            alpha_auto=0.1,
            alpha_indu=0.1,
            epsilon=0.05,
            lf=0.005,
            unit_training_cost=50.0,
        ),
        market=MarketParams(beta=0.5, alpha_max=1e-3, d_customers=50, price_ceiling=900.0),
        rng_seed=42,
    )


def simulate_external_rates(s: Scenario) -> RateSeries:
    """Draw the per-period external failure rates.

    Z normal draws (mean ``ext_mean``, sd ``ext_sd``) truncated below at
    zero, seeded from ``rng_seed``: identical seeds give identical series.
    """
    rng = np.random.default_rng(s.rng_seed)
    draws = rng.normal(s.failure.ext_mean, s.failure.ext_sd, s.grid.z_periods)
    return RateSeries("external", np.maximum(draws, 0.0))


def validate_scenario(s: Scenario, dominance_factor: float = 10.0) -> list[Violation]:
    """Check every field invariant plus the standing assumptions of the
    training-frequency optimizer.

    Returns an empty list iff the scenario is valid.  Every numeric field
    must be finite.  The optimizer assumptions require the rate series, the
    maintenance count, the time-budget aggregates, the bills before
    learning and the pay-per-repair variance to be finite, and the net
    trainable-time coefficient R-S-Q-U to be positive and to dominate the
    external interruption time S by ``dominance_factor``; they are checked
    only once the fields are valid.
    """
    return _checked_cost_side(s, dominance_factor)[0]


def _checked_cost_side(s: Scenario, dominance_factor: float = 10.0,
                       keys: tuple[str, ...] | None = None):
    """The violations of :func:`validate_scenario` and the cost side they
    were checked on (``None`` where a field invariant fails first).

    ``keys`` limits the field checks to those that read one of these config
    keys, for a scenario that differs from a valid one only there.  numpy's
    overflow and invalid-value warnings are silenced while the cost side is
    built and checked: the checks report the overflow.
    """
    v = _field_violations(s, keys)
    if v:
        return v, None
    from .pricing import CostSide

    with np.errstate(over="ignore", invalid="ignore"):
        cost_side = CostSide(s)
        return _cost_side_violations(cost_side, dominance_factor), cost_side


# ---------------------------------------------------------------------------
# Config schema: one row per key, one row per field check
# ---------------------------------------------------------------------------

def _ints(raw: str) -> tuple[int, ...]:
    """A comma-separated list of integers."""
    return tuple(int(x.strip()) for x in raw.split(","))


def _floats(raw: str) -> float | tuple[float, ...]:
    """One float, or a tuple of the floats of a comma-separated list."""
    parts = [float(x.strip()) for x in raw.split(",")]
    return parts[0] if len(parts) == 1 else tuple(parts)


#: One row per config key, in the order config text is written: the key,
#: the :class:`Scenario` section and field it sets (section "" for a field
#: of the scenario itself, no field for a key that only feeds another one),
#: and the parser of its value.
_FIELDS = (
    ("grid.z_periods", "grid", "z_periods", int),
    ("grid.t_j", "grid", "t_j", _floats),
    ("grid.t_jM", "grid", "t_jm", _floats),
    ("failure.phi0_int", "failure", "phi0_int", float),
    ("failure.stage_bounds", "failure", "stage_bounds", _ints),
    ("failure.k1", "failure", "k1", float),
    ("failure.k2", "failure", "k2", float),
    ("failure.m", "failure", "m", float),
    ("failure.rho", "failure", "rho", float),
    ("failure.ext_mean", "failure", "ext_mean", float),
    ("failure.ext_sd", "failure", "ext_sd", float),
    ("failure.internal_series", "failure", "internal_series_override", _floats),
    ("failure.internal_table", "failure", None, str),
    ("cost.unit_repair_cost", "cost", "unit_repair_cost", _floats),
    ("cost.repair_cost_sd", "cost", "repair_cost_sd", float),
    ("cost.avg_maintenance_cost", "cost", "avg_maintenance_cost", float),
    ("cost.unit_delay_cost", "cost", "unit_delay_cost", float),
    ("cost.delay_probability", "cost", "delay_probability", float),
    ("cost.m0_os", "cost", "m0_os", int),
    ("learning.alpha_auto", "learning", "alpha_auto", float),
    ("learning.alpha_indu", "learning", "alpha_indu", float),
    ("learning.epsilon", "learning", "epsilon", float),
    ("learning.lf", "learning", "lf", float),
    ("learning.unit_training_cost", "learning", "unit_training_cost", float),
    ("learning.forgetting_model", "learning", "forgetting_model", str),
    ("learning.repair_hours", "learning", "repair_hours", float),
    ("learning.maintenance_hours", "learning", "maintenance_hours", float),
    ("market.beta", "market", "beta", float),
    ("market.alpha_max", "market", "alpha_max", float),
    ("market.d_customers", "market", "d_customers", int),
    ("market.price_ceiling", "market", "price_ceiling", float),
    ("market.tco", "market", "tco", float),
    ("market.c_lease", "market", "c_lease", float),
    ("market.c_ops", "market", "c_ops", float),
    ("rng_seed", "", "rng_seed", int),
)
#: The parser of each config key's value.
_PARSERS = {key: parse for key, _, _, parse in _FIELDS}
#: The scenario value of each key that sets a field.
_GETTERS = {key: operator.attrgetter(f"{section}.{name}" if section else name)
            for key, section, name, _ in _FIELDS if name}

#: The keys the price ceiling is resolved from (see :func:`_ceiling`).
_CEILING_KEYS = ("market.price_ceiling", "market.tco", "market.c_lease", "market.c_ops")


def _stages_out_of_order(bounds) -> bool:
    """Whether three stage bounds z1, z2, z3 break 1 <= z1 < z2 <= z3 (any
    other count is reported on its own)."""
    if len(bounds) != 3:
        return False
    z1, z2, z3 = bounds
    return not 1 <= z1 < z2 <= z3


def _square_overflows(x):
    """Whether x * x overflows, as the market side computes (1 + beta)^2; on
    a float or elementwise on an array."""
    return np.isinf(x * x)


def _own(key: str, fails, message: str) -> tuple:
    """A rule that reads only the key it reports."""
    return key, (key,), fails, message


#: One row per field check, in report order: the key it reports, the keys
#: it reads, the predicate on their values (in that order) that flags a
#: violation, and the message.  Every value is finite when a predicate runs.
_RULES = (
    _own("grid.z_periods", lambda z: z < 1, "must be >= 1"),
    _own("grid.z_periods", lambda z: z > sys.maxsize, f"must be at most {sys.maxsize}"),
    ("grid.t_j", ("grid.z_periods", "grid.t_j", "grid.t_jM"),
     lambda z, t, tm: len(t) != z or len(tm) != z, "length must equal z_periods"),
    _own("grid.t_j", lambda t: min(t, default=1.0) <= 0, "every period length must be > 0"),
    ("grid.t_jM", ("grid.t_j", "grid.t_jM"), lambda t, tm: any(map(operator.lt, tm, t)),
     "calendar hours must be >= operating hours"),
    _own("failure.stage_bounds", lambda bounds: len(bounds) != 3,
         "need three bounds z1, z2, z3"),
    _own("failure.stage_bounds", _stages_out_of_order, "need 1 <= z1 < z2 <= z3"),
    ("failure.stage_bounds", ("grid.z_periods", "failure.stage_bounds"),
     lambda z, bounds: len(bounds) == 3 and bounds[2] != z, "z3 must equal z_periods"),
    _own("failure.k1", lambda k1: not 0.0 < k1 < 1.0, "must lie in (0, 1)"),
    _own("failure.k2", lambda k2: not 0.0 < k2 < 1.0, "must lie in (0, 1)"),
    _own("failure.m", lambda m: m <= 0, "must be > 0"),
    _own("failure.rho", lambda rho: not 0.0 <= rho <= 1.0, "must lie in [0, 1]"),
    _own("failure.phi0_int", lambda phi0: phi0 <= 0, "must be > 0"),
    ("failure.ext_mean", ("failure.ext_mean", "failure.phi0_int"), operator.ge,
     "external rate must stay below phi0_int"),
    ("failure.ext_mean", ("failure.ext_mean", "failure.ext_sd"),
     lambda mean, sd: mean < 0 or sd < 0, "external rate moments must be >= 0"),
    ("failure.internal_series", ("grid.z_periods", "failure.internal_series"),
     lambda z, series: series is not None and len(series) != z, "length must equal z_periods"),
    _own("failure.internal_series", lambda series: min(series or (), default=0.0) < 0,
         "rates must be >= 0"),
    # a constant repair cost stands for max(z, 0) periods, and is not
    # broadcast: z may be too large to index
    ("cost.unit_repair_cost", ("grid.z_periods", "cost.unit_repair_cost"),
     lambda z, c: len(c) != z if isinstance(c, tuple) else z < 0,
     "length must equal z_periods"),
    ("cost.unit_repair_cost", ("grid.z_periods", "cost.unit_repair_cost"),
     lambda z, c: min(c, default=0.0) < 0 if isinstance(c, tuple) else z >= 1 and c < 0,
     "must be >= 0"),
    _own("cost.repair_cost_sd", lambda sd: sd < 0, "must be >= 0"),
    _own("cost.avg_maintenance_cost", lambda c: c < 0, "must be >= 0"),
    _own("cost.unit_delay_cost", lambda c: c < 0, "must be >= 0"),
    _own("cost.delay_probability", lambda p: not 0.0 <= p <= 1.0, "must lie in [0, 1]"),
    _own("cost.m0_os", lambda m: m < 1, "must be >= 1"),
    _own("learning.alpha_auto", lambda a: not 0.0 <= a < 1.0, "must lie in [0, 1)"),
    _own("learning.alpha_indu", lambda a: not 0.0 <= a < 1.0, "must lie in [0, 1)"),
    _own("learning.epsilon", lambda eps: not 0.0 < eps < 0.5, "must lie in (0, 0.5)"),
    _own("learning.lf", lambda lf: not 0.0 < lf < 1.0, "must lie in (0, 1)"),
    _own("learning.unit_training_cost", lambda c: c < 0, "must be >= 0"),
    _own("learning.forgetting_model", lambda model: model not in ("simple", "revised"),
         "must be 'simple' or 'revised'"),
    _own("learning.repair_hours", lambda h: h <= 0, "must be > 0"),
    _own("learning.maintenance_hours", lambda h: h < 0, "must be >= 0"),
    _own("rng_seed", lambda seed: not 0 <= seed < 2**64, "must be a 64-bit unsigned integer"),
    _own("market.beta", lambda beta: beta < 0, "must be >= 0"),
    _own("market.beta", lambda beta: _square_overflows(1.0 + beta),
         "(1 + beta)^2 must be finite (it overflows)"),
    _own("market.alpha_max", lambda a: a <= 0, "must be > 0"),
    _own("market.d_customers", lambda d: d < 1, "must be >= 1"),
    ("market.price_ceiling", _CEILING_KEYS,
     lambda *m: _ceiling(*m) is not None and _ceiling(*m) <= 0, "must be > 0"),
    ("market.price_ceiling", _CEILING_KEYS, lambda *m: _ceiling(*m) is None,
     "need price_ceiling or (tco, c_lease, c_ops)"),
)


@cache
def _checks(keys: tuple[str, ...] | None):
    """The keys checked for finiteness, the rules and every key they read:
    all of them, or only those that read one of ``keys``."""
    finite = tuple(key for key in _GETTERS if keys is None or key in keys)
    rules = tuple(rule for rule in _RULES if keys is None or not set(rule[1]).isdisjoint(keys))
    return finite, rules, frozenset(finite).union(*(rule[1] for rule in rules))


def _non_finite(value) -> bool:
    """A float, or a tuple through its sum, that is NaN or +-inf.  The sum is
    non-finite if any element is, or if it overflows, as the model's own
    sums over the tuple would."""
    if isinstance(value, tuple):
        value = sum(value)
    return isinstance(value, float) and not math.isfinite(value)


def _field_violations(s: Scenario, keys: tuple[str, ...] | None = None) -> list[Violation]:
    """The field invariants of :func:`validate_scenario`, or only those
    that read one of ``keys``: no rate series, maintenance plan or lf
    problem is needed to check them.  Non-finite values are reported alone."""
    return _violations({key: _GETTERS[key](s) for key in _checks(keys)[2]}, keys)


def _violations(values: dict, keys: tuple[str, ...] | None = None) -> list[Violation]:
    """:func:`_field_violations` on config values given by key: ``values``
    holds every key that the checks of ``keys`` read (for ``market.beta``,
    that key alone)."""
    finite, rules, _ = _checks(keys)
    v = [Violation(key, "must be finite") for key in finite if _non_finite(values[key])]
    if v:
        return v
    for key, reads, fails, message in rules:
        if fails(*[values[read] for read in reads]):
            v.append(Violation(key, message))
    return v


#: The pricing rule's risk premium alpha_max (1 + beta)^2 Var / 4 is not
#: finite.  It names alpha_max, the one factor that no other check bounds:
#: the field rules bound (1 + beta)^2 and the cost-side checks the variance.
_PREMIUM_OVERFLOWS = Violation(
    "market.alpha_max",
    "the risk premium alpha_max (1 + beta)^2 Var / 4 must be finite (it overflows)")


def _swept_beta_violations(s: Scenario, betas: np.ndarray, variance: float) -> list[Violation]:
    """The violations of the first mark-up in ``betas`` that breaks a
    ``market.beta`` rule or overflows the risk premium at the pay-per-repair
    ``variance`` in the market of ``s``: what checking each value on its
    own reports.  The ``market.beta`` predicates run once, on the whole
    array (non-finite values included, which are flagged anyway)."""
    from .pricing import _risk_premium

    keys = ("market.beta",)
    _, rules, reads = _checks(keys)
    values = {key: _GETTERS[key](s) for key in reads}
    values["market.beta"] = betas
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~np.isfinite(betas) | ~np.isfinite(_risk_premium(s.market.alpha_max, betas,
                                                                variance))
        for _, read, fails, _ in rules:
            bad |= fails(*[values[key] for key in read])
    if not bad.any():
        return []
    values["market.beta"] = float(betas[bad.argmax()])
    return _violations(values, keys) or [_PREMIUM_OVERFLOWS]


#: Config key of each bill before learning, and its :class:`CostBreakdown` field.
_BILLS = (("cost.unit_repair_cost", "repair"), ("cost.avg_maintenance_cost", "maintenance"),
          ("cost.unit_delay_cost", "delay"))


def _cost_side_violations(cost_side, dominance_factor: float = 10.0) -> list[Violation]:
    """The optimizer's standing assumptions, on the cost side's actual rate
    series, maintenance plan and lf problem: a finite series, maintenance
    count, time budget and bills (finite inputs can still overflow), enough
    trainable time, a finite pay-per-repair variance, and a finite risk
    premium in the scenario's own market."""
    if not np.isfinite(cost_side.internal.as_array()).all():
        return [Violation("failure.internal_series",
                          "the parametric series must be finite (it overflows)")]
    try:
        cost_side.plan
    except OverflowError:
        return [Violation("cost.avg_maintenance_cost",
                          "the optimal maintenance count must be finite (it overflows)")]
    problem = cost_side.problem
    terms = problem.terms
    if not all(map(math.isfinite, terms)):
        return [Violation("learning.lf", "the time budget R, S, Q, U, V must be finite")]
    v = [Violation(key, f"the expected {name} bill must be finite (it overflows)")
         for key, name in _BILLS if not math.isfinite(getattr(problem.base, name))]
    if v:
        return v
    net = terms.net
    if net <= 0:
        return [Violation("learning.lf", "no surplus time is left for training (R-S-Q-U <= 0)")]
    if net < dominance_factor * terms.s:
        return [Violation(
            "failure.ext_mean",
            f"external interruptions too large: R-S-Q-U = {net:.3f} "
            f"< {dominance_factor:g} * S = {dominance_factor * terms.s:.3f}",
        )]
    variance = cost_side.os_moments.variance
    if not math.isfinite(variance):
        sd = cost_side.scenario.cost.repair_cost_sd
        key = "cost.unit_repair_cost" if math.isfinite(sd * sd) else "cost.repair_cost_sd"
        return [Violation(key, "the pay-per-repair cost variance must be finite (it overflows)")]
    from .pricing import _risk_premium

    market = cost_side.scenario.market
    if not math.isfinite(_risk_premium(market.alpha_max, market.beta, variance)):
        return [_PREMIUM_OVERFLOWS]
    return []


# ---------------------------------------------------------------------------
# Internal-rate table (packaged asset or user CSV)
# ---------------------------------------------------------------------------

def load_internal_table(path: str | Path, column: str | int) -> tuple[float, ...]:
    """Load one column of an internal-rate table CSV.

    The table has a ``phi1..phi10`` header and one row per period.  The
    column may be given by name (``phi6``) or 1-based position (``6``).
    """
    path = Path(path)
    lines = [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    if not lines:
        raise ConfigError(f"{path}: empty internal-rate table")
    header = [h.strip() for h in lines[0].split(",")]
    if isinstance(column, int) or column.isdigit():
        name = f"phi{int(column)}"
    else:
        name = str(column)
    if name not in header:
        raise ConfigError(f"{path}: no column {name!r} (have {', '.join(header)})")
    idx = header.index(name)
    out = []
    for ln in lines[1:]:
        cells = ln.split(",")
        try:
            out.append(float(cells[idx]))
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"{path}: bad row {ln!r}") from exc
    return tuple(out)


def scaled_to_mean(s: Scenario, target_mean: float) -> Scenario:
    """Rescale the internal failure-rate series to a target mean.

    The realised series (override or parametric) is scaled linearly together
    with the installation rate, preserving the bathtub shape; everything
    else stays at the scenario values.
    """
    from . import failure as failure_model

    series = failure_model.internal_rate_series(s.failure, s.grid)
    current = series.mean
    if current <= 0:
        raise ValueError("cannot rescale a zero internal-rate series")
    factor = target_mean / current
    f = replace(
        s.failure,
        phi0_int=s.failure.phi0_int * factor,
        internal_series_override=tuple((series.as_array() * factor).tolist()),
    )
    return replace(s, failure=f)


# ---------------------------------------------------------------------------
# Config file parsing / writing
# ---------------------------------------------------------------------------

def parse_config(text: str) -> dict:
    """Parse ``dotted.key = value`` lines into a key/value mapping.

    A key given twice is an error, not last-wins.
    """
    out: dict = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first given on line {first_line[key]})")
        first_line[key] = lineno
        if key == "failure.internal_series" and raw == "none":
            out[key] = None
            continue
        try:
            out[key] = _PARSERS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: non-numeric value for {key}: {raw!r}") from exc
    return out


#: Config keys that may not be given together: each pair names one quantity
#: twice, and only one of the two would survive a save/load round trip.
_CONFLICTS = (
    ("failure.internal_series", "failure.internal_table"),
    ("market.price_ceiling", "market.tco"),
    ("market.price_ceiling", "market.c_lease"),
    ("market.price_ceiling", "market.c_ops"),
)
#: The TCO triple: any key of it replaces the default price ceiling.
_TCO_KEYS = set(_CEILING_KEYS[1:])


def scenario_from_overrides(overrides: dict, base_dir: Path | None = None) -> Scenario:
    """Build a scenario from parsed config values on top of the defaults.

    Raises :class:`ConfigError` for a pair of keys that set the same
    quantity two ways (an internal series and a rate table, or a price
    ceiling and the TCO triple), and for a horizon too long to hold one
    value per period.
    """
    for a, b in _CONFLICTS:
        if a in overrides and b in overrides:
            raise ConfigError(f"{a} and {b} are mutually exclusive; give one of them")
    d = default_scenario()
    # The default hours broadcast to an overridden horizon.  The default
    # internal series is the baseline one; `none` clears it so that the
    # parametric bathtub takes effect.
    values = {"grid.t_j": d.grid.t_j[0], "grid.t_jM": d.grid.t_jm[0]}
    if _TCO_KEYS & overrides.keys():
        values["market.price_ceiling"] = None
    values.update(overrides)
    z = values["grid.z_periods"] = int(values.get("grid.z_periods", d.grid.z_periods))
    if z > sys.maxsize:
        raise ConfigError(f"grid.z_periods: must be at most {sys.maxsize}")
    for key in ("grid.t_j", "grid.t_jM", "failure.internal_series"):
        if values.get(key) is not None:
            values[key] = _per_period(values[key], z)
    if "failure.internal_table" in values:
        ref = values["failure.internal_table"]
        if ":" not in ref:
            raise ConfigError("failure.internal_table must be '<path>:<column>'")
        raw_path, column = ref.rsplit(":", 1)
        table_path = Path(raw_path)
        if not table_path.is_absolute() and base_dir is not None:
            table_path = base_dir / table_path
        values["failure.internal_series"] = load_internal_table(table_path, column)
    changes: dict = {}
    for key, section, name, _ in _FIELDS:
        if name and key in values:
            changes.setdefault(section, {})[name] = values[key]
    return replace(d, **changes.pop("", {}), **{
        section: replace(getattr(d, section), **fields) for section, fields in changes.items()})


def _read_scenario(path: str | Path) -> Scenario:
    """Parse a scenario config file and complete it from the defaults,
    without validating it."""
    path = Path(path)
    return scenario_from_overrides(parse_config(path.read_text(encoding="utf-8")),
                                   base_dir=path.parent)


def _validated(s: Scenario):
    """The cost side of ``s`` that its checks were run on; raises
    :class:`ScenarioValidationError` if ``s`` is invalid."""
    violations, cost_side = _checked_cost_side(s)
    if violations:
        raise ScenarioValidationError(violations)
    return cost_side


def load_scenario(path: str | Path) -> Scenario:
    """Load, complete (from defaults) and validate a scenario config file.

    Raises :class:`ConfigError` on parse problems and
    :class:`ScenarioValidationError` when any field invariant fails.
    """
    return _validated(_read_scenario(path)).scenario


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_fmt(x) for x in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def save_scenario(s: Scenario, path: str | Path) -> None:
    """Write a scenario as config text that reloads to an identical value.

    Floats are written with ``repr`` so the round-trip is exact; a realised
    internal series override is written out explicitly, uniform period
    hours as one value, and the price ceiling or else the TCO triple.
    """
    skipped = _TCO_KEYS if s.market.price_ceiling is not None else {"market.price_ceiling"}
    lines = ["# fscontract scenario"]
    for key, getter in _GETTERS.items():
        if key in skipped:
            continue
        value = getter(s)
        if key in ("grid.t_j", "grid.t_jM") and len(set(value)) <= 1:
            value = value[0]
        elif key == "failure.internal_series" and value is None:
            value = "none"
        lines.append(f"{key} = {_fmt(value)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
