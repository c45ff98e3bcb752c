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
  risk-aversion bound per thousand dollars: the risk premium
  alpha_max (1 + beta)^2 Var / 4 is in thousands of dollars, and the
  variance Var in (thousands of dollars)^2.

The pricing layer converts once (``DOLLARS_PER_REPORT_UNIT``).

Config files are flat ``dotted.key = value`` text (see :func:`load_scenario`),
chosen so that scenarios round-trip losslessly and diff cleanly.

Scenario values are immutable after construction and safe to share across
workers; RNGs are created per call from the seed and never shared.  Every
per-period value, the config's (the period hours, per-period repair costs,
an internal-rate override) and the model's rate series alike, is a
:class:`PeriodValues`: one read-only float array, converted from a tuple or
an array on construction, which the model and the field checks compute on
directly (:meth:`PeriodValues.as_array`).  The tuple view
(:attr:`PeriodValues.values`) is built only when asked for, to hash or to
write config text.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import FrozenInstanceError, dataclass, replace
from functools import cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

DOLLARS_PER_REPORT_UNIT = 1000.0

#: Packaged internal failure-rate table: ten bathtub-shaped series (one per
#: column, header phi1..phi10) over a 20-period horizon.  See
#: :func:`load_internal_table`.
INTERNAL_RATE_TABLE_PATH = Path(__file__).with_name("assets") / "internal_rate_table.csv"

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


def _raise_on(violations: list["Violation"]) -> None:
    """Raise :class:`ScenarioValidationError` if there is any violation."""
    if violations:
        raise ScenarioValidationError(violations)


class Violation(NamedTuple):
    """One violated rule, keyed by the config name of the offending field."""

    key: str
    rule: str

    def __str__(self) -> str:
        return f"{self.key}: {self.rule}"


class PeriodValues:
    """One float per period of the contract horizon.

    The config values given per period (operating and calendar hours, repair
    costs, an internal-rate override) are held as this type, and so is every
    rate series of the model, internal and external alike.  The floats are
    held as one read-only float array, copied from ``values`` (any sequence
    of floats or a numpy array), which the model computes on directly
    (:meth:`as_array`); a series that the model builds takes its own array
    without a copy (:meth:`_taking`).  Values are immutable and compare by
    value; they hash as the tuple of their floats (:attr:`values`), which is
    built only when asked for.
    """

    __slots__ = ("_array",)

    def __init__(self, values):
        object.__setattr__(self, "_array", _read_only(values))

    @classmethod
    def of(cls, values) -> "PeriodValues":
        """``values`` as per-period values: itself if it already is one."""
        return values if isinstance(values, PeriodValues) else cls(values)

    @classmethod
    def _taking(cls, array: np.ndarray) -> "PeriodValues":
        """Values that take ``array``, a float array that nothing else writes
        to, as their own: made read-only, not copied."""
        array.flags.writeable = False
        values = object.__new__(cls)
        object.__setattr__(values, "_array", array)
        return values

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self._array,)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self._array, other._array)

    def __hash__(self) -> int:
        return hash(self.values)

    def __len__(self) -> int:
        return self._array.size

    def __repr__(self) -> str:
        return f"PeriodValues({self.values!r})"

    @property
    def values(self) -> tuple[float, ...]:
        """The floats as a tuple, built on each call."""
        return tuple(self._array.tolist())

    def as_array(self) -> np.ndarray:
        """The floats as the stored read-only array."""
        return self._array

    @property
    def mean(self) -> float:
        return float(np.mean(self._array))


class _kept:
    """A method computed on first use and kept in the instance's
    ``__dict__``, as :func:`functools.cached_property` does, without the
    lock that it takes on each first use before Python 3.12 (about 3% of a
    ``long_horizon`` op under Python 3.11 on a 2-vCPU x86-64 host).  An
    assignment to the name sets the kept value."""

    def __init__(self, method):
        self.method = method
        self.__doc__ = method.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.method(instance)
        return value


def _read_only(values) -> np.ndarray:
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class PeriodGrid:
    """Contract horizon split into Z periods.

    ``t_j`` are operating hours per period (e.g. 8 h/day over 180 days);
    ``t_jm`` are the matching calendar hours (24 h/day), kept for reference
    as the maintenance-interval length: checked and saved, but nothing
    prices with them.  Both are held as :class:`PeriodValues` (a tuple or
    an array given here is converted).
    """

    z_periods: int
    t_j: PeriodValues
    t_jm: PeriodValues

    def __post_init__(self):
        object.__setattr__(self, "t_j", PeriodValues.of(self.t_j))
        object.__setattr__(self, "t_jm", PeriodValues.of(self.t_jm))

    @classmethod
    def uniform(cls, z_periods: int, hours: float, calendar_hours: float) -> "PeriodGrid":
        return cls(z_periods, _constant(hours, z_periods), _constant(calendar_hours, z_periods))


@dataclass(frozen=True)
class FailureParams:
    """Failure-rate model: bathtub aging plus an external accident rate.

    ``stage_bounds`` = (z1, z2, z3) split the horizon into run-in
    (1..z1), useful life (z1..z2) and wear-out (z2..z3 = Z).  ``k1``/``k2``
    are hazard shape parameters in (0, 1) and ``m`` the scale.  ``rho`` is
    the restorative power of one preventive maintenance action (0 = bad as
    old, 1 = good as new).  ``internal_series_override``, when set, replaces
    the parametric series verbatim (this is how table-based series and the
    shipped baseline enter); it is held as :class:`PeriodValues`.
    """

    phi0_int: float
    stage_bounds: tuple[int, int, int]
    k1: float
    k2: float
    m: float
    rho: float
    ext_mean: float
    ext_sd: float
    internal_series_override: PeriodValues | None = None

    def __post_init__(self):
        if self.internal_series_override is not None:
            object.__setattr__(self, "internal_series_override",
                               PeriodValues.of(self.internal_series_override))


@dataclass(frozen=True)
class CostParams:
    """Cost-side parameters, in dollars.

    ``unit_repair_cost`` is the expected cost of one repair, either constant
    (a float) or one value per period (held as :class:`PeriodValues`);
    ``repair_cost_sd`` its per-repair dispersion.
    ``delay_probability`` is the chance that a repair incurs the contractual
    delay reimbursement ``unit_delay_cost``.  ``m0_os`` is the seasonal
    maintenance count used on the pay-per-repair side.
    """

    unit_repair_cost: float | PeriodValues
    repair_cost_sd: float
    avg_maintenance_cost: float
    unit_delay_cost: float
    delay_probability: float
    m0_os: int

    def __post_init__(self):
        if not isinstance(self.unit_repair_cost, (float, int)):
            object.__setattr__(self, "unit_repair_cost", PeriodValues.of(self.unit_repair_cost))

    def repair_costs(self, z_periods: int) -> np.ndarray:
        """Per-period expected repair costs as a read-only array: the stored
        one, or a constant broadcast to z periods (a new array)."""
        c = self.unit_repair_cost
        return c.as_array() if isinstance(c, PeriodValues) else _constant(c, z_periods)


def _constant(value: float, z: int) -> np.ndarray:
    """A read-only array of ``value`` in each of the z periods (none if z < 1)."""
    array = np.full(max(z, 0), float(value))
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class LearningParams:
    """Learning-by-doing, off-work training and forgetting parameters.

    ``alpha_auto``/``alpha_indu`` are the power-law exponents for autonomous
    and induced (training-driven) learning; ``epsilon`` is the small rework
    exponent governing how on-site practice partially offsets forgetting.
    ``lf`` is the fraction of surplus working time spent training, checked
    and saved but priced with nowhere (``full`` optimises lf, and an lf
    sweep sets the value it prices at), and ``unit_training_cost`` its
    hourly cost in dollars.  ``repair_hours`` and
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
    the customers' uniformly distributed risk aversion (per k$) and
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


def default_scenario() -> Scenario:
    """The shipped, calibrated baseline scenario.

    Twenty half-year periods of 1440 operating hours (4320 calendar hours)
    over a ten-year horizon; mark-up 0.5; maintenance improvement 0.5;
    learning exponents 0.1; rework exponent 0.05; $50/h training; $300 per
    maintenance; $10,000 per delayed repair; 50 customers; 10 seasonal
    maintenance visits on the pay-per-repair side; installation failure rate
    7.5e-3/h with the bundled mean-0.0034 bathtub series; risk aversion
    uniform on [0, 1e-3] per k$ and a 900 k$ price ceiling.  Unit repair
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


def simulate_external_rates(s: Scenario) -> PeriodValues:
    """Draw the per-period external failure rates.

    Z normal draws (mean ``ext_mean``, sd ``ext_sd``) truncated below at
    zero, seeded from ``rng_seed``: identical seeds give identical series.
    An sd of ``-0.0`` (a config reads it as ``0.0``) draws as ``0.0``.
    """
    rng = np.random.default_rng(s.rng_seed)
    draws = rng.normal(s.failure.ext_mean, abs(s.failure.ext_sd), s.grid.z_periods)
    return PeriodValues._taking(np.maximum(draws, 0.0, out=draws))


def validate_scenario(s: Scenario) -> list[Violation]:
    """Check every field invariant plus the standing assumptions of the
    training-frequency optimizer.

    Returns an empty list iff the scenario is valid.  Every numeric field
    must be finite.  The optimizer assumptions, among them surplus time
    R-S-Q-U that is positive and at least ten times the external
    interruption time S, are checked on the scenario's cost side once the
    fields are valid (:meth:`~fscontract.pricing.CostSide.violations`).
    """
    # the checks live in pricing, beside the cost side they read; pricing
    # imports this module, so this import runs at call time
    from .pricing import _validated

    try:
        _validated(s)
    except ScenarioValidationError as exc:
        return exc.violations
    return []


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


def _calendar_short(t: PeriodValues, tm: PeriodValues) -> bool:
    """Whether some period has fewer calendar hours than operating hours,
    over the periods that both give."""
    t, tm = t.as_array(), tm.as_array()
    if t.size != tm.size:
        n = min(t.size, tm.size)
        t, tm = t[:n], tm[:n]
    return np.less(tm, t).any()


def _least(values: PeriodValues, default: float) -> float:
    """The smallest of the values and ``default``."""
    return np.minimum.reduce(values.as_array(), initial=default)


def _square_overflows(x):
    """Whether x * x overflows, as the market side computes (1 + beta)^2; on
    a float or elementwise on an array (a square is never -inf)."""
    return x * x == math.inf


#: The largest market revenue bound d_customers * price ceiling allowed.
#: Every priced profit, at any mark-up, is at most that bound (the price
#: stays at or below the ceiling, the margin at or below the price), up to a
#: few roundings, which half the largest float leaves room for.
_MAX_REVENUE = sys.float_info.max / 2.0


def _revenue_too_large(d: int, *market) -> bool:
    """Whether d_customers times a finite, positive price ceiling exceeds
    :data:`_MAX_REVENUE` (any other ceiling, and d < 1, are reported on
    their own); d need not fit a float."""
    ceiling = _ceiling(*market)
    if d < 1 or ceiling is None or not 0.0 < ceiling < math.inf:
        return False
    return d > _MAX_REVENUE or d * ceiling > _MAX_REVENUE


def _own(key: str, fails, message: str) -> tuple:
    """A rule that reads only the key it reports."""
    return key, (key,), fails, message


#: One row per field check, in report order: the key it reports, the keys
#: it reads, the predicate on their values (in that order) that flags a
#: violation, and the message.  Every value is finite when a predicate runs,
#: and a per-period value is a :class:`PeriodValues`.
_RULES = (
    _own("grid.z_periods", lambda z: z < 1, "must be >= 1"),
    _own("grid.z_periods", lambda z: z > sys.maxsize, f"must be at most {sys.maxsize}"),
    ("grid.t_j", ("grid.z_periods", "grid.t_j", "grid.t_jM"),
     lambda z, t, tm: len(t) != z or len(tm) != z, "length must equal z_periods"),
    _own("grid.t_j", lambda t: _least(t, 1.0) <= 0, "every period length must be > 0"),
    ("grid.t_jM", ("grid.t_j", "grid.t_jM"), _calendar_short,
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
    _own("failure.internal_series",
         lambda series: series is not None and _least(series, 0.0) < 0, "rates must be >= 0"),
    # a constant repair cost stands for max(z, 0) periods, and is not
    # broadcast: z may be too large to index
    ("cost.unit_repair_cost", ("grid.z_periods", "cost.unit_repair_cost"),
     lambda z, c: len(c) != z if isinstance(c, PeriodValues) else z < 0,
     "length must equal z_periods"),
    ("cost.unit_repair_cost", ("grid.z_periods", "cost.unit_repair_cost"),
     lambda z, c: _least(c, 0.0) < 0 if isinstance(c, PeriodValues) else z >= 1 and c < 0,
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
    ("market.d_customers", ("market.d_customers", *_CEILING_KEYS), _revenue_too_large,
     "d_customers * price ceiling must stay below half the largest float "
     "(the profit can overflow)"),
    ("market.price_ceiling", _CEILING_KEYS,
     lambda *m: _ceiling(*m) is not None and _ceiling(*m) <= 0, "must be > 0"),
    # finite inputs: only the derived ceiling can overflow
    ("market.price_ceiling", _CEILING_KEYS, lambda *m: not math.isfinite(_ceiling(*m) or 0.0),
     "tco - c_lease - c_ops must be finite (it overflows)"),
    ("market.price_ceiling", _CEILING_KEYS, lambda *m: _ceiling(*m) is None,
     "need price_ceiling or (tco, c_lease, c_ops)"),
)


@cache
def _checks(keys: tuple[str, ...] | None):
    """The keys checked for finiteness, the rules and every key they read:
    all of them, or only those that read one of ``keys``.  Each rule comes
    as (key, reads, fails, message) with ``reads`` the one key it reads, or
    a getter of the tuple of the values it reads."""
    finite = tuple(key for key in _GETTERS if keys is None or key in keys)
    rules = tuple(rule for rule in _RULES if keys is None or not set(rule[1]).isdisjoint(keys))
    compiled = tuple((key, reads[0] if len(reads) == 1 else operator.itemgetter(*reads),
                      fails, message) for key, reads, fails, message in rules)
    return finite, compiled, frozenset(finite).union(*(rule[1] for rule in rules))


def _non_finite(value) -> bool:
    """A float, or per-period values through their sum, that is NaN or
    +-inf.  The sum is non-finite if any value is, or if it overflows, as
    the model's own sums over the values would."""
    if value.__class__ is PeriodValues:
        value = np.add.reduce(value.as_array())
    return isinstance(value, float) and not math.isfinite(value)


@np.errstate(over="ignore", invalid="ignore")
def _field_violations(s: Scenario, keys: tuple[str, ...] | None = None) -> list[Violation]:
    """The field invariants of :func:`validate_scenario`, or only those
    that read one of ``keys``: no rate series, maintenance plan or lf
    problem is needed to check them.  Non-finite values are reported alone,
    and a sum that overflows is one: numpy's overflow warning is silenced."""
    finite, rules, reads = _checks(keys)
    values = {key: _GETTERS[key](s) for key in reads}
    v = [Violation(key, "must be finite") for key in finite if _non_finite(values[key])]
    if v:
        return v
    for key, read, fails, message in rules:
        if fails(values[read]) if read.__class__ is str else fails(*read(values)):
            v.append(Violation(key, message))
    return v


def _beta_fails(s: Scenario, betas: np.ndarray) -> np.ndarray:
    """Whether each mark-up of ``betas``, in place of the one of ``s``, is
    not finite or breaks a ``market.beta`` rule (a huge mark-up overflows:
    the caller silences numpy's warnings)."""
    _, rules, reads = _checks(("market.beta",))
    values = {key: _GETTERS[key](s) for key in reads}
    values["market.beta"] = betas
    bad = ~np.isfinite(betas)
    for _, read, fails, _ in rules:
        bad |= fails(values[read]) if read.__class__ is str else fails(*read(values))
    return bad


# ---------------------------------------------------------------------------
# Internal-rate table (packaged asset or user CSV)
# ---------------------------------------------------------------------------

def _read_text(path: Path) -> str:
    """A config file's or rate table's text; :class:`ConfigError` if not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def load_internal_table(path: str | Path, column: str | int) -> tuple[float, ...]:
    """Load one column of an internal-rate table CSV.

    The table has a ``phi1..phi10`` header and one row per period.  The
    column may be given by name (``phi6``) or 1-based position (``6``).
    """
    path = Path(path)
    lines = [ln.strip() for ln in _read_text(path).splitlines() if ln.strip()]
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


# ---------------------------------------------------------------------------
# Config file parsing / writing
# ---------------------------------------------------------------------------

def parse_config(text: str) -> dict:
    """Parse ``dotted.key = value`` lines into a key/value mapping.

    A key given twice is an error, not last-wins, and ``-0.0`` reads as ``0.0``.
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
        cleared = key == "failure.internal_series" and raw == "none"
        try:
            value = None if cleared else _PARSERS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: non-numeric value for {key}: {raw!r}") from exc
        # -0.0, alone or in a list, reads as 0.0: adding 0.0 changes no other float
        if isinstance(value, tuple) and isinstance(value[0], float):
            value = tuple(x + 0.0 for x in value)
        out[key] = value + 0.0 if isinstance(value, float) else value
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
    value per period: one above ``sys.maxsize``, or one that numpy refuses
    to allocate.
    """
    for a, b in _CONFLICTS:
        if a in overrides and b in overrides:
            raise ConfigError(f"{a} and {b} are mutually exclusive; give one of them")
    d = default_scenario()
    # The default hours broadcast to an overridden horizon.  The default
    # internal series is the baseline one; `none` clears it so that the
    # parametric bathtub takes effect.
    values = {"grid.t_j": float(d.grid.t_j.as_array()[0]),
              "grid.t_jM": float(d.grid.t_jm.as_array()[0])}
    if _TCO_KEYS & overrides.keys():
        values["market.price_ceiling"] = None
    values.update(overrides)
    z = values["grid.z_periods"] = int(values.get("grid.z_periods", d.grid.z_periods))
    if z > sys.maxsize:
        raise ConfigError(f"grid.z_periods: must be at most {sys.maxsize}")
    for key in ("grid.t_j", "grid.t_jM", "failure.internal_series"):
        if isinstance(values.get(key), float):
            try:
                values[key] = _constant(values[key], z)
            except (ValueError, MemoryError) as exc:
                raise ConfigError("grid.z_periods: too long to hold one value per period") from exc
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
    return scenario_from_overrides(parse_config(_read_text(path)), base_dir=path.parent)


def load_scenario(path: str | Path) -> Scenario:
    """Load, complete (from defaults) and validate a scenario config file.

    Raises :class:`ConfigError` on parse problems and
    :class:`ScenarioValidationError` when :func:`validate_scenario` finds
    any violation.
    """
    s = _read_scenario(path)
    _raise_on(validate_scenario(s))
    return s


def _fmt(value) -> str:
    if isinstance(value, PeriodValues):
        value = value.values
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
        if key in ("grid.t_j", "grid.t_jM") and len(set(value.values)) <= 1:
            value = value.values[0]
        elif key == "failure.internal_series" and value is None:
            value = "none"
        lines.append(f"{key} = {_fmt(value)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
