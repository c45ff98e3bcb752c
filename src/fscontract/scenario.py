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
workers; RNGs are created per call from the seed and never shared.  The
per-period arrays that the model computes on (:meth:`RateSeries.as_array`,
:attr:`PeriodGrid.t_array`, :attr:`Scenario.repair_cost_array`) are derived
from the tuples once per value object, on first use, and are read-only.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields, replace
from functools import cached_property
from importlib import resources
from pathlib import Path

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


@dataclass(frozen=True)
class Violation:
    """One violated rule, keyed by the config name of the offending field."""

    key: str
    rule: str

    def __str__(self) -> str:
        return f"{self.key}: {self.rule}"


@dataclass(frozen=True)
class RateSeries:
    """Per-period series over the contract horizon.

    ``kind`` is one of ``internal`` / ``external`` (failures per hour) or
    ``aging`` (rate slope per hour^2).
    """

    kind: str
    values: tuple[float, ...]

    def as_array(self) -> np.ndarray:
        """The values as a read-only float array, built once."""
        return self._array

    @cached_property
    def _array(self) -> np.ndarray:
        return _read_only(self.values)

    @property
    def mean(self) -> float:
        return float(np.mean(self.as_array()))


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
        if isinstance(self.unit_repair_cost, tuple):
            return self.unit_repair_cost
        return (float(self.unit_repair_cost),) * z_periods


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
        if self.price_ceiling is not None:
            return float(self.price_ceiling)
        if None in (self.tco, self.c_lease, self.c_ops):
            raise ValueError("market: need price_ceiling or the (tco, c_lease, c_ops) triple")
        return float(self.tco - self.c_lease - self.c_ops)


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
    return RateSeries("external", tuple(np.maximum(draws, 0.0).tolist()))


def validate_scenario(s: Scenario, dominance_factor: float = 10.0) -> list[Violation]:
    """Check every field invariant plus the standing assumptions of the
    training-frequency optimizer.

    Returns an empty list iff the scenario is valid.  Every numeric field
    must be finite.  The optimizer assumptions require the net
    trainable-time coefficient R-S-Q-U to be positive and to dominate the
    external interruption time S by ``dominance_factor``; they are checked
    only once the fields are valid.
    """
    v = _field_violations(s)
    if v:
        return v
    from .pricing import CostSide

    return _cost_side_violations(CostSide(s).problem.terms, dominance_factor)


#: Config keys of the dataclass fields whose key differs from the field name.
_CONFIG_NAMES = {"t_jm": "t_jM", "internal_series_override": "internal_series"}
#: (section, field, config key) of every parameter field.
_PARAM_FIELDS = tuple(
    (section, f.name, f"{section}.{_CONFIG_NAMES.get(f.name, f.name)}")
    for section, params in (("grid", PeriodGrid), ("failure", FailureParams),
                            ("cost", CostParams), ("learning", LearningParams),
                            ("market", MarketParams))
    for f in fields(params)
)


def _non_finite_violations(s: Scenario) -> list[Violation]:
    """One violation per numeric field (or tuple field) holding NaN or +-inf.

    A tuple is checked through its sum, which is non-finite if any element
    is (or if it overflows, as the model's own sums over it would).
    """
    v = []
    for section, name, key in _PARAM_FIELDS:
        value = getattr(getattr(s, section), name)
        if isinstance(value, tuple):
            value = sum(value)
        if isinstance(value, float) and not math.isfinite(value):
            v.append(Violation(key, "must be finite"))
    return v


def _field_violations(s: Scenario) -> list[Violation]:
    """The field invariants of :func:`validate_scenario`: no rate series,
    maintenance plan or lf problem is needed to check them."""
    v = _non_finite_violations(s)
    if v:
        return v
    g, f, c, lp, mk = s.grid, s.failure, s.cost, s.learning, s.market
    z = g.z_periods

    if z < 1:
        v.append(Violation("grid.z_periods", "must be >= 1"))
    if len(g.t_j) != z or len(g.t_jm) != z:
        v.append(Violation("grid.t_j", "length must equal z_periods"))
    if g.t_j and min(g.t_j) <= 0:
        v.append(Violation("grid.t_j", "every period length must be > 0"))
    if any(map(operator.lt, g.t_jm, g.t_j)):
        v.append(Violation("grid.t_jM", "calendar hours must be >= operating hours"))

    z1, z2, z3 = f.stage_bounds
    if not (1 <= z1 < z2 <= z3):
        v.append(Violation("failure.stage_bounds", "need 1 <= z1 < z2 <= z3"))
    if z3 != z:
        v.append(Violation("failure.stage_bounds", "z3 must equal z_periods"))
    if not 0.0 < f.k1 < 1.0:
        v.append(Violation("failure.k1", "must lie in (0, 1)"))
    if not 0.0 < f.k2 < 1.0:
        v.append(Violation("failure.k2", "must lie in (0, 1)"))
    if f.m <= 0:
        v.append(Violation("failure.m", "must be > 0"))
    if not 0.0 <= f.rho <= 1.0:
        v.append(Violation("failure.rho", "must lie in [0, 1]"))
    if f.phi0_int <= 0:
        v.append(Violation("failure.phi0_int", "must be > 0"))
    if f.ext_mean >= f.phi0_int:
        v.append(Violation("failure.ext_mean", "external rate must stay below phi0_int"))
    if f.ext_mean < 0 or f.ext_sd < 0:
        v.append(Violation("failure.ext_mean", "external rate moments must be >= 0"))
    if f.internal_series_override is not None:
        if len(f.internal_series_override) != z:
            v.append(Violation("failure.internal_series", "length must equal z_periods"))
        if f.internal_series_override and min(f.internal_series_override) < 0:
            v.append(Violation("failure.internal_series", "rates must be >= 0"))

    costs = c.repair_costs(z)
    if len(costs) != z:
        v.append(Violation("cost.unit_repair_cost", "length must equal z_periods"))
    if costs and min(costs) < 0:
        v.append(Violation("cost.unit_repair_cost", "must be >= 0"))
    if c.repair_cost_sd < 0:
        v.append(Violation("cost.repair_cost_sd", "must be >= 0"))
    if c.avg_maintenance_cost < 0:
        v.append(Violation("cost.avg_maintenance_cost", "must be >= 0"))
    if c.unit_delay_cost < 0:
        v.append(Violation("cost.unit_delay_cost", "must be >= 0"))
    if not 0.0 <= c.delay_probability <= 1.0:
        v.append(Violation("cost.delay_probability", "must lie in [0, 1]"))
    if c.m0_os < 1:
        v.append(Violation("cost.m0_os", "must be >= 1"))

    if not 0.0 <= lp.alpha_auto < 1.0:
        v.append(Violation("learning.alpha_auto", "must lie in [0, 1)"))
    if not 0.0 <= lp.alpha_indu < 1.0:
        v.append(Violation("learning.alpha_indu", "must lie in [0, 1)"))
    if not 0.0 < lp.epsilon < 0.5:
        v.append(Violation("learning.epsilon", "must lie in (0, 0.5)"))
    if not 0.0 < lp.lf < 1.0:
        v.append(Violation("learning.lf", "must lie in (0, 1)"))
    if lp.unit_training_cost < 0:
        v.append(Violation("learning.unit_training_cost", "must be >= 0"))
    if lp.forgetting_model not in ("simple", "revised"):
        v.append(Violation("learning.forgetting_model", "must be 'simple' or 'revised'"))
    if lp.repair_hours <= 0:
        v.append(Violation("learning.repair_hours", "must be > 0"))
    if lp.maintenance_hours < 0:
        v.append(Violation("learning.maintenance_hours", "must be >= 0"))

    if not 0 <= s.rng_seed < 2**64:
        v.append(Violation("rng_seed", "must be a 64-bit unsigned integer"))

    if mk.beta < 0:
        v.append(Violation("market.beta", "must be >= 0"))
    if mk.alpha_max <= 0:
        v.append(Violation("market.alpha_max", "must be > 0"))
    if mk.d_customers < 1:
        v.append(Violation("market.d_customers", "must be >= 1"))
    try:
        if mk.resolved_ceiling() <= 0:
            v.append(Violation("market.price_ceiling", "must be > 0"))
    except ValueError:
        v.append(Violation("market.price_ceiling", "need price_ceiling or (tco, c_lease, c_ops)"))
    return v


def _cost_side_violations(terms, dominance_factor: float = 10.0) -> list[Violation]:
    """The optimizer's standing assumptions, on the reduced terms of the
    actual rate series at the optimal maintenance count."""
    net = terms.net
    if net <= 0:
        return [Violation("learning.lf", "no surplus time is left for training (R-S-Q-U <= 0)")]
    if net < dominance_factor * terms.s:
        return [Violation(
            "failure.ext_mean",
            f"external interruptions too large: R-S-Q-U = {net:.3f} "
            f"< {dominance_factor:g} * S = {dominance_factor * terms.s:.3f}",
        )]
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
        internal_series_override=tuple(x * factor for x in series.values),
    )
    return replace(s, failure=f)


# ---------------------------------------------------------------------------
# Config file parsing / writing
# ---------------------------------------------------------------------------

_INT_KEYS = {"grid.z_periods", "cost.m0_os", "market.d_customers", "rng_seed"}
_FLOAT_LIST_KEYS = {"grid.t_j", "grid.t_jM", "cost.unit_repair_cost", "failure.internal_series"}
_STR_KEYS = {"learning.forgetting_model", "failure.internal_table"}
_INT_LIST_KEYS = {"failure.stage_bounds"}

_ALL_KEYS = _INT_KEYS | _FLOAT_LIST_KEYS | _STR_KEYS | _INT_LIST_KEYS | {
    "failure.phi0_int", "failure.k1", "failure.k2", "failure.m", "failure.rho",
    "failure.ext_mean", "failure.ext_sd",
    "cost.repair_cost_sd", "cost.avg_maintenance_cost", "cost.unit_delay_cost",
    "cost.delay_probability",
    "learning.alpha_auto", "learning.alpha_indu", "learning.epsilon", "learning.lf",
    "learning.unit_training_cost", "learning.repair_hours", "learning.maintenance_hours",
    "market.beta", "market.alpha_max", "market.price_ceiling",
    "market.tco", "market.c_lease", "market.c_ops",
}


def _parse_value(key: str, raw: str, lineno: int):
    try:
        if key in _STR_KEYS:
            return raw
        if key in _INT_KEYS:
            return int(raw)
        if key in _INT_LIST_KEYS:
            return tuple(int(x.strip()) for x in raw.split(","))
        if key in _FLOAT_LIST_KEYS:
            if key == "failure.internal_series" and raw.strip() == "none":
                return None
            parts = [float(x.strip()) for x in raw.split(",")]
            return parts[0] if len(parts) == 1 else tuple(parts)
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: non-numeric value for {key}: {raw!r}") from exc


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
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first given on line {first_line[key]})")
        first_line[key] = lineno
        out[key] = _parse_value(key, raw, lineno)
    return out


def _grid_tuple(value, z: int) -> tuple[float, ...]:
    if isinstance(value, tuple):
        return value
    return (float(value),) * z


#: Config keys that may not be given together: each pair names one quantity
#: twice, and only one of the two would survive a save/load round trip.
_CONFLICTS = (
    ("failure.internal_series", "failure.internal_table"),
    ("market.price_ceiling", "market.tco"),
    ("market.price_ceiling", "market.c_lease"),
    ("market.price_ceiling", "market.c_ops"),
)
#: The TCO triple: any key of it replaces the default price ceiling.
_TCO_KEYS = {"market.tco", "market.c_lease", "market.c_ops"}


def scenario_from_overrides(overrides: dict, base_dir: Path | None = None) -> Scenario:
    """Build a scenario from parsed config values on top of the defaults.

    Raises :class:`ConfigError` for a pair of keys that set the same
    quantity two ways (an internal series and a rate table, or a price
    ceiling and the TCO triple).
    """
    for a, b in _CONFLICTS:
        if a in overrides and b in overrides:
            raise ConfigError(f"{a} and {b} are mutually exclusive; give one of them")
    d = default_scenario()
    z = int(overrides.get("grid.z_periods", d.grid.z_periods))

    grid = PeriodGrid(
        z_periods=z,
        t_j=_grid_tuple(overrides.get("grid.t_j", d.grid.t_j[0]), z),
        t_jm=_grid_tuple(overrides.get("grid.t_jM", d.grid.t_jm[0]), z),
    )

    # The default carries the baseline series; `failure.internal_series = none`
    # clears it so the parametric bathtub takes effect.
    override_series = d.failure.internal_series_override
    if "failure.internal_series" in overrides:
        val = overrides["failure.internal_series"]
        if val is None:
            override_series = None
        else:
            override_series = val if isinstance(val, tuple) else (float(val),) * z
    if "failure.internal_table" in overrides:
        ref = overrides["failure.internal_table"]
        if ":" not in ref:
            raise ConfigError("failure.internal_table must be '<path>:<column>'")
        raw_path, column = ref.rsplit(":", 1)
        table_path = Path(raw_path)
        if not table_path.is_absolute() and base_dir is not None:
            table_path = base_dir / table_path
        override_series = load_internal_table(table_path, column)

    failure = FailureParams(
        phi0_int=overrides.get("failure.phi0_int", d.failure.phi0_int),
        stage_bounds=overrides.get("failure.stage_bounds", d.failure.stage_bounds),
        k1=overrides.get("failure.k1", d.failure.k1),
        k2=overrides.get("failure.k2", d.failure.k2),
        m=overrides.get("failure.m", d.failure.m),
        rho=overrides.get("failure.rho", d.failure.rho),
        ext_mean=overrides.get("failure.ext_mean", d.failure.ext_mean),
        ext_sd=overrides.get("failure.ext_sd", d.failure.ext_sd),
        internal_series_override=override_series,
    )
    cost = CostParams(
        unit_repair_cost=overrides.get("cost.unit_repair_cost", d.cost.unit_repair_cost),
        repair_cost_sd=overrides.get("cost.repair_cost_sd", d.cost.repair_cost_sd),
        avg_maintenance_cost=overrides.get("cost.avg_maintenance_cost", d.cost.avg_maintenance_cost),
        unit_delay_cost=overrides.get("cost.unit_delay_cost", d.cost.unit_delay_cost),
        delay_probability=overrides.get("cost.delay_probability", d.cost.delay_probability),
        m0_os=overrides.get("cost.m0_os", d.cost.m0_os),
    )
    learning = LearningParams(
        alpha_auto=overrides.get("learning.alpha_auto", d.learning.alpha_auto),
        alpha_indu=overrides.get("learning.alpha_indu", d.learning.alpha_indu),
        epsilon=overrides.get("learning.epsilon", d.learning.epsilon),
        lf=overrides.get("learning.lf", d.learning.lf),
        unit_training_cost=overrides.get("learning.unit_training_cost", d.learning.unit_training_cost),
        forgetting_model=overrides.get("learning.forgetting_model", d.learning.forgetting_model),
        repair_hours=overrides.get("learning.repair_hours", d.learning.repair_hours),
        maintenance_hours=overrides.get("learning.maintenance_hours", d.learning.maintenance_hours),
    )
    market = MarketParams(
        beta=overrides.get("market.beta", d.market.beta),
        alpha_max=overrides.get("market.alpha_max", d.market.alpha_max),
        d_customers=overrides.get("market.d_customers", d.market.d_customers),
        price_ceiling=overrides.get(
            "market.price_ceiling",
            None if _TCO_KEYS & overrides.keys() else d.market.price_ceiling),
        tco=overrides.get("market.tco", d.market.tco),
        c_lease=overrides.get("market.c_lease", d.market.c_lease),
        c_ops=overrides.get("market.c_ops", d.market.c_ops),
    )
    return Scenario(
        grid=grid,
        failure=failure,
        cost=cost,
        learning=learning,
        market=market,
        rng_seed=overrides.get("rng_seed", d.rng_seed),
    )


def _read_scenario(path: str | Path) -> Scenario:
    """Parse a scenario config file and complete it from the defaults,
    without validating it."""
    path = Path(path)
    return scenario_from_overrides(parse_config(path.read_text(encoding="utf-8")),
                                   base_dir=path.parent)


def _validated(s: Scenario) -> Scenario:
    """The scenario itself; raises :class:`ScenarioValidationError` if invalid."""
    violations = validate_scenario(s)
    if violations:
        raise ScenarioValidationError(violations)
    return s


def load_scenario(path: str | Path) -> Scenario:
    """Load, complete (from defaults) and validate a scenario config file.

    Raises :class:`ConfigError` on parse problems and
    :class:`ScenarioValidationError` when any field invariant fails.
    """
    return _validated(_read_scenario(path))


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_fmt(x) for x in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def save_scenario(s: Scenario, path: str | Path) -> None:
    """Write a scenario as config text that reloads to an identical value.

    Floats are written with ``repr`` so the round-trip is exact; a realised
    internal series override is written out explicitly.
    """
    g, f, c, lp, mk = s.grid, s.failure, s.cost, s.learning, s.market
    lines = ["# fscontract scenario"]
    lines.append(f"grid.z_periods = {g.z_periods}")
    lines.append(f"grid.t_j = {_fmt(g.t_j if len(set(g.t_j)) > 1 else g.t_j[0])}")
    lines.append(f"grid.t_jM = {_fmt(g.t_jm if len(set(g.t_jm)) > 1 else g.t_jm[0])}")
    lines.append(f"failure.phi0_int = {_fmt(f.phi0_int)}")
    lines.append(f"failure.stage_bounds = {_fmt(f.stage_bounds)}")
    lines.append(f"failure.k1 = {_fmt(f.k1)}")
    lines.append(f"failure.k2 = {_fmt(f.k2)}")
    lines.append(f"failure.m = {_fmt(f.m)}")
    lines.append(f"failure.rho = {_fmt(f.rho)}")
    lines.append(f"failure.ext_mean = {_fmt(f.ext_mean)}")
    lines.append(f"failure.ext_sd = {_fmt(f.ext_sd)}")
    if f.internal_series_override is not None:
        lines.append(f"failure.internal_series = {_fmt(f.internal_series_override)}")
    else:
        lines.append("failure.internal_series = none")
    lines.append(f"cost.unit_repair_cost = {_fmt(c.unit_repair_cost)}")
    lines.append(f"cost.repair_cost_sd = {_fmt(c.repair_cost_sd)}")
    lines.append(f"cost.avg_maintenance_cost = {_fmt(c.avg_maintenance_cost)}")
    lines.append(f"cost.unit_delay_cost = {_fmt(c.unit_delay_cost)}")
    lines.append(f"cost.delay_probability = {_fmt(c.delay_probability)}")
    lines.append(f"cost.m0_os = {c.m0_os}")
    lines.append(f"learning.alpha_auto = {_fmt(lp.alpha_auto)}")
    lines.append(f"learning.alpha_indu = {_fmt(lp.alpha_indu)}")
    lines.append(f"learning.epsilon = {_fmt(lp.epsilon)}")
    lines.append(f"learning.lf = {_fmt(lp.lf)}")
    lines.append(f"learning.unit_training_cost = {_fmt(lp.unit_training_cost)}")
    lines.append(f"learning.forgetting_model = {lp.forgetting_model}")
    lines.append(f"learning.repair_hours = {_fmt(lp.repair_hours)}")
    lines.append(f"learning.maintenance_hours = {_fmt(lp.maintenance_hours)}")
    lines.append(f"market.beta = {_fmt(mk.beta)}")
    lines.append(f"market.alpha_max = {_fmt(mk.alpha_max)}")
    lines.append(f"market.d_customers = {mk.d_customers}")
    if mk.price_ceiling is not None:
        lines.append(f"market.price_ceiling = {_fmt(mk.price_ceiling)}")
    else:
        lines.append(f"market.tco = {_fmt(mk.tco)}")
        lines.append(f"market.c_lease = {_fmt(mk.c_lease)}")
        lines.append(f"market.c_ops = {_fmt(mk.c_ops)}")
    lines.append(f"rng_seed = {s.rng_seed}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
