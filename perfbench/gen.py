"""Seeded input generator for the fscontract benchmark.

Inputs are plain dicts of config keys (the flat ``dotted.key = value``
format the program documents) drawn from ``random.Random`` seeded by the
workload name and the ``--seed`` argument.  Nothing here imports the
program: it only ever sees the config files written from these specs, so
the same seed gives byte-identical inputs on any commit.

Parameter ranges keep every well-formed scenario valid and priceable.  The
mark-up grids run past the ceiling on purpose: a flagged infeasible row is a
correct outcome that the sweeps must handle.
"""

from __future__ import annotations

import math
import random

#: Placeholder in ``failure.internal_table`` values, replaced by the path of
#: the packaged rate table when a spec is written.
TABLE = "{table}"

#: Total operating hours of every contract (20 half-year periods of 1440 h);
#: long horizons split the same hours into more, shorter periods.
CONTRACT_HOURS = 28800.0

#: The long_horizon scenarios: (horizon, forgetting model, price ceiling
#: rather than a TCO triple), one scenario each.  The seed draws the numbers
#: but not these kinds: a revised-forgetting scenario takes about a fifth
#: longer to price than a simple one, so a seeded model moved the median
#: operation (the 1200-period one) by that much from seed to seed.
LONG_HORIZONS = (
    (300, "simple", True),
    (600, "revised", False),
    (1200, "revised", True),
    (1800, "simple", False),
    (2400, "revised", True),
)

#: Malformed config edits for cli_cold.  The first family puts non-finite
#: numbers into numeric fields; the second uses unknown keys, unparseable or
#: out-of-range values.  Each must end in a documented rejection (exit 1 or
#: 2 with its message); anything else counts as a failed operation.
NONFINITE_EDITS = (
    ("failure.phi0_int", "nan"),
    ("failure.ext_sd", "nan"),
    ("cost.repair_cost_sd", "nan"),
    ("market.price_ceiling", "nan"),
)
REJECT_EDITS = (
    ("cost.unit_repair_costs", "1000.0"),
    ("market.beta", "high"),
    ("cost.avg_maintenance_cost", "-300.0"),
    ("learning.unit_training_cost", "inf"),
    ("learning.lf", "1.5"),
)

#: One cli_cold cycle: (command, variant or format) per operation.  Fifteen
#: operations, of which the last two use malformed configs.  The three
#: sweeps are the slowest commands and a fifth of the cycle, so the 90th
#: percentile falls in the middle of their cluster.
CLI_CYCLE = (
    ("price", "full"),
    ("price", "auto"),
    ("price", "bench"),
    ("optimize-lf", None),
    ("compare", "csv"),
    ("compare", "markdown"),
    ("sweep", "csv"),
    ("sweep", "svg"),
    ("baseline", "full"),
    ("price", "full"),
    ("price", "auto"),
    ("optimize-lf", None),
    ("sweep", "svg"),
    ("nonfinite", "full"),
    ("reject", "full"),
)

#: Points of each cli_cold sweep command: enough for the sweeps to stand
#: clear of the next-slowest commands instead of blending with them.
CLI_SWEEP_POINTS = 21

# Cycle lengths are odd multiples of five (5, 15 or 25 operations).  Operations
# of one kind on one base take nearly the same time, so the sorted latencies
# of a run form one cluster per cycle position; with these lengths the
# median and the 90th percentile fall inside a cluster instead of on the
# gap between two, where they would swing with a single slow operation.


def rng_for(workload: str, seed: int | str) -> random.Random:
    """The generator's RNG: string seeding is stable across processes."""
    return random.Random(f"fscontract-bench:{workload}:{seed}")


def _geom(lo: float, hi: float, n: int) -> tuple[float, ...]:
    ratio = (hi / lo) ** (1.0 / (n - 1))
    return tuple(lo * ratio**i for i in range(n))


def _lin(lo: float, hi: float, n: int) -> tuple[float, ...]:
    step = (hi - lo) / (n - 1)
    return tuple(lo + step * i for i in range(n))


def _bathtub(rng: random.Random, z: int) -> dict:
    """Parametric bathtub keys for a z-period horizon of CONTRACT_HOURS."""
    t = CONTRACT_HOURS / z
    z1 = max(1, round(z * rng.uniform(0.15, 0.25)))
    z2 = max(z1 + 1, round(z * rng.uniform(0.7, 0.85)))
    return {
        "grid.z_periods": z,
        "grid.t_j": t,
        "grid.t_jM": 3.0 * t,
        "failure.internal_series": "none",
        "failure.stage_bounds": (z1, z2, z),
        "failure.phi0_int": rng.uniform(7.5e-3, 9.5e-3),
        "failure.k1": rng.uniform(0.5, 0.6),
        "failure.k2": rng.uniform(0.45, 0.55),
        "failure.m": rng.uniform(1e11, 3e11),
    }


def _market_side(rng: random.Random, ceiling: bool | None = None) -> dict:
    """Mark-up, risk aversion and a price ceiling or a TCO triple; the
    choice between the last two is drawn unless ``ceiling`` fixes it."""
    spec = {
        "market.beta": rng.uniform(0.3, 0.8),
        "market.alpha_max": rng.uniform(5e-4, 2e-3),
    }
    use_ceiling = rng.random() < 0.5
    if ceiling is not None:
        use_ceiling = ceiling
    if use_ceiling:
        spec["market.price_ceiling"] = rng.uniform(800.0, 1200.0)
    else:
        spec["market.tco"] = rng.uniform(1800.0, 2500.0)
        spec["market.c_lease"] = rng.uniform(400.0, 700.0)
        spec["market.c_ops"] = rng.uniform(200.0, 400.0)
    return spec


def base_spec(rng: random.Random, z: int = 20, series: str | None = None,
              market_rng: random.Random | None = None, forgetting: str | None = None,
              ceiling: bool | None = None) -> dict:
    """One well-formed scenario: a seeded variation of the baseline.

    ``series`` picks the internal failure rates: ``baseline`` (the shipped
    series), ``table`` (a column of the packaged rate table) or ``bathtub``
    (the parametric model); long horizons are always parametric.  The
    market side is drawn from ``market_rng`` when given.  ``forgetting``
    and ``ceiling`` fix the forgetting model and the kind of market limit
    instead of drawing them (the draws are still made, so the numbers that
    follow are the same either way).
    """
    if series is None:
        series = rng.choice(("baseline", "table", "bathtub")) if z == 20 else "bathtub"
    spec: dict = {}
    if series == "table":
        spec["failure.internal_table"] = f"{TABLE}:{rng.randint(1, 10)}"
    elif series == "bathtub":
        spec.update(_bathtub(rng, z))
    unit = rng.uniform(600.0, 1500.0)
    spec.update({
        "failure.rho": rng.uniform(0.3, 0.7),
        "failure.ext_mean": rng.uniform(5e-4, 8e-4),
        "failure.ext_sd": rng.uniform(1e-4, 3e-4),
        "cost.unit_repair_cost": unit,
        "cost.repair_cost_sd": unit * rng.uniform(15.0, 30.0),
        "cost.avg_maintenance_cost": rng.uniform(150.0, 600.0),
        "cost.delay_probability": rng.uniform(0.002, 0.006),
        "cost.m0_os": rng.randint(6, 14),
        "learning.alpha_auto": rng.uniform(0.05, 0.15),
        "learning.alpha_indu": rng.uniform(0.05, 0.15),
        "learning.epsilon": rng.uniform(0.03, 0.08),
        "learning.unit_training_cost": rng.uniform(30.0, 80.0),
        "learning.forgetting_model": rng.choice(("revised", "simple")),
        "rng_seed": rng.randrange(2**32),
    })
    if forgetting is not None:
        spec["learning.forgetting_model"] = forgetting
    spec.update(_market_side(market_rng or rng, ceiling))
    return spec


def market_sweep(seed: int) -> list[dict]:
    """Fifteen Z=20 bases, each with 41 increasing mark-up values.

    The seed draws the market side and the mark-up grid; the cost side of
    the fifteen bases is the same for every seed.  This workload varies the
    market only, and the cost side sets how much work a point repeats: one
    lf search takes 24 to 35 objective evaluations depending on the base,
    so seeded cost sides moved the median operation by up to a fifth from
    seed to seed.
    """
    rng = rng_for("market_sweep", seed)
    cost_rng = rng_for("market_sweep", "cost side")
    jobs = []
    for _ in range(15):
        spec = base_spec(cost_rng, market_rng=rng)
        betas = _lin(rng.uniform(0.1, 0.4), rng.uniform(3.0, 6.0), 41)
        jobs.append({"spec": spec, "betas": betas})
    return jobs


def long_horizon(seed: int) -> list[dict]:
    """One parametric-bathtub scenario per entry of LONG_HORIZONS."""
    rng = rng_for("long_horizon", seed)
    jobs = []
    for z, forgetting, ceiling in LONG_HORIZONS:
        spec = base_spec(rng, z=z, forgetting=forgetting, ceiling=ceiling)
        lo = rng.uniform(20.0, 60.0)
        jobs.append({"spec": spec, "unit_training_cost": (lo, 10.0 * lo, 100.0 * lo)})
    return jobs


def cli_cold(seed: int) -> list[dict]:
    """Eight bases plus malformed variants, laid out as CLI_CYCLE operations.

    Every cycle runs the same well-formed operations on the same bases, so
    counts per cycle repeat exactly; the two malformed operations rotate
    through the edit lists and the bases, which takes 20 cycles.  Each op is
    ``{"command", "option", "base", "spec", "edit", "values"}``: ``base``
    indexes the well-formed bases (-1 and a ``None`` spec for the shipped
    baseline, an empty config) and malformed ops carry one raw
    ``(key, text)`` edit of their base.
    """
    rng = rng_for("cli_cold", seed)
    bases = [base_spec(rng) for _ in range(8)]
    beta_values = _lin(rng.uniform(0.2, 0.5), rng.uniform(0.9, 1.5), CLI_SWEEP_POINTS)
    phi_values = _lin(rng.uniform(0.0019, 0.0025), rng.uniform(0.0037, 0.0046),
                      CLI_SWEEP_POINTS)
    ops = []
    for cycle in range(len(NONFINITE_EDITS) * len(REJECT_EDITS)):
        for k, (command, option) in enumerate(CLI_CYCLE):
            base = k % len(bases)
            edit = None
            if command == "baseline":
                base = -1
            elif command == "nonfinite":
                base = cycle % len(bases)
                edit = NONFINITE_EDITS[cycle % len(NONFINITE_EDITS)]
            elif command == "reject":
                base = (cycle + 1) % len(bases)
                edit = REJECT_EDITS[cycle % len(REJECT_EDITS)]
            values = None
            if command == "sweep":
                values = ("beta", beta_values) if option == "csv" else ("phi-int", phi_values)
            ops.append({"command": command, "option": option, "base": base,
                        "spec": bases[base] if base >= 0 else None, "edit": edit,
                        "values": values})
    return ops


GENERATORS = {
    "cli_cold": cli_cold,
    "market_sweep": market_sweep,
    "long_horizon": long_horizon,
}


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_fmt(x) for x in value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("well-formed specs hold finite numbers only")
        return repr(value)
    return str(value)


def config_text(spec: dict | None, table_path: str, edit: tuple[str, str] | None = None) -> str:
    """Render a spec as config text; ``edit`` overrides one key verbatim."""
    lines = ["# generated by perfbench/gen.py"]
    for key, value in (spec or {}).items():
        if edit is not None and key == edit[0]:
            continue
        lines.append(f"{key} = {_fmt(value).replace(TABLE, table_path)}")
    if edit is not None:
        lines.append(f"{edit[0]} = {edit[1]}")
    return "\n".join(lines) + "\n"
