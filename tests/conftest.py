import functools
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from fscontract import (
    INTERNAL_RATE_TABLE_PATH,
    CostParams,
    FailureParams,
    LearningParams,
    MarketParams,
    PeriodGrid,
    Scenario,
    default_scenario,
    internal_rate_series,
    simulate_external_rates,
)
from fscontract.scenario import parse_config, scenario_from_overrides

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@pytest.fixture(scope="session")
def baseline():
    return default_scenario()


@pytest.fixture(scope="session")
def baseline_rates(baseline):
    internal = internal_rate_series(baseline.failure, baseline.grid)
    external = simulate_external_rates(baseline)
    return internal, external


def make_scenario(z=1, t=1000.0, phi0=0.003, series=None, rho=0.5, unit_repair_cost=1000.0,
                  repair_cost_sd=0.0, c_m=300.0, unit_delay_cost=10000.0, p_d=0.0,
                  m0_os=10, beta=0.5, alpha_max=1e-3, d_customers=50, ceiling=1e9,
                  ext_mean=None, ext_sd=0.0, stage_bounds=None, epsilon=0.05,
                  alpha_auto=0.1, alpha_indu=0.1, lf=0.005, unit_training_cost=50.0,
                  forgetting_model="revised", seed=7) -> Scenario:
    """Small scenario factory for focused unit tests."""
    if series is None:
        series = (phi0,) * z
    if stage_bounds is None:
        stage_bounds = (1, max(2, z - 1), z) if z >= 3 else (1, z, z) if z == 2 else (1, 1, 1)
    if ext_mean is None:
        ext_mean = phi0 / 10
    return Scenario(
        grid=PeriodGrid.uniform(z, t, 3 * t),
        failure=FailureParams(
            phi0_int=phi0,
            stage_bounds=stage_bounds,
            k1=0.5,
            k2=0.45,
            m=1e11,
            rho=rho,
            ext_mean=ext_mean,
            ext_sd=ext_sd,
            internal_series_override=tuple(series),
        ),
        cost=CostParams(
            unit_repair_cost=unit_repair_cost,
            repair_cost_sd=repair_cost_sd,
            avg_maintenance_cost=c_m,
            unit_delay_cost=unit_delay_cost,
            delay_probability=p_d,
            m0_os=m0_os,
        ),
        learning=LearningParams(
            alpha_auto=alpha_auto,
            alpha_indu=alpha_indu,
            epsilon=epsilon,
            lf=lf,
            unit_training_cost=unit_training_cost,
            forgetting_model=forgetting_model,
        ),
        market=MarketParams(beta=beta, alpha_max=alpha_max, d_customers=d_customers,
                            price_ceiling=ceiling),
        rng_seed=seed,
    )


def random_rate_scenario(rng: np.random.Generator) -> Scenario:
    """Random uniform-grid scenario with a well-behaved internal series.

    Rates stay within [phi0/2, 2 phi0] so expected failure counts never hit
    the zero floor and both failure-count forms stay exactly comparable.
    """
    z = int(rng.integers(4, 25))
    t = float(rng.uniform(100.0, 3000.0))
    phi0 = float(rng.uniform(5e-4, 2e-2))
    rho = float(rng.uniform(0.0, 1.0))
    steps = rng.uniform(-phi0 / 10, phi0 / 10, z)
    series = []
    phi = phi0
    for step in steps:
        phi = float(np.clip(phi + step, phi0 / 2, 2 * phi0))
        series.append(phi)
    return make_scenario(z=z, t=t, phi0=phi0, series=series, rho=rho,
                         unit_repair_cost=float(rng.uniform(100.0, 5000.0)),
                         c_m=float(rng.uniform(50.0, 2000.0)),
                         seed=int(rng.integers(0, 2**32)))


def count_calls(monkeypatch, *functions) -> dict[str, list]:
    """Count calls of package functions, at every module attribute bound to them."""
    calls = {}
    for fn in functions:
        seen = calls[fn.__name__] = []

        def counted(*args, _fn=fn, _seen=seen, **kwargs):
            _seen.append(1)
            return _fn(*args, **kwargs)

        functools.update_wrapper(counted, fn)
        for name, module in list(sys.modules.items()):
            if name == "fscontract" or name.startswith("fscontract."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted)
    return calls


def market_side_oracle(fs_cost, osm, mk, beta: float) -> tuple[float, ...]:
    """The market side at one float mark-up, one formula at a time in
    Python floats: (interior price, floor, ceiling, clamped price, FS share,
    profit).  The oracle of :func:`fscontract.pricing.market_side`; it
    squares as x * x, as the kernel does."""
    up = 1.0 + beta
    interior = (fs_cost.repair + beta * osm.repair_mean + 0.5 * fs_cost.maintenance
                + 0.5 * (1.0 + 2.0 * beta) * osm.maintenance + 0.5 * fs_cost.delay
                + mk.alpha_max * (up * up) * osm.variance / 4.0 + fs_cost.training)
    lower = fs_cost.total + beta * osm.mean
    upper = mk.resolved_ceiling()
    price = min(max(interior, lower), upper)
    threshold = up * osm.mean
    if osm.variance <= 0.0:
        share = 1.0 if price <= threshold else 0.0
    else:
        tau = 2.0 * (price - threshold) / (up * up * osm.variance)
        share = 1.0 if tau <= 0.0 else min(max(1.0 - tau / mk.alpha_max, 0.0), 1.0)
    per_customer = (price - fs_cost.total) * share + beta * osm.mean * (1.0 - share)
    return interior, lower, upper, price, share, mk.d_customers * per_customer


def golden_section(f, lo: float, hi: float, tol: float = 1e-6,
                   max_iter: int = 200) -> tuple[float, float, int]:
    """Minimize a unimodal function on [lo, hi] to absolute x-tolerance tol.

    Returns (argmin, minimum, iterations).  The lf solver's oracle: it uses
    only cost values, no derivative.
    """
    a, b = float(lo), float(hi)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    iterations = 0
    while b - a > tol:
        if iterations >= max_iter:
            raise RuntimeError(f"no convergence after {max_iter} iterations")
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
        iterations += 1
    x = (a + b) / 2.0
    return x, f(x), iterations


def generated_scenarios(seeds) -> list[Scenario]:
    """The benchmark's generated bases (``perfbench/gen.py``) of every
    workload for the given seeds, loaded from their config text."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    scenarios = []
    for seed in seeds:
        for name, generate in gen.GENERATORS.items():
            specs = [job["spec"] for job in generate(seed)]
            if name == "cli_cold":
                specs = list({id(s): s for s in specs if s is not None}.values())
            for base in specs:
                text = gen.config_text(base, str(INTERNAL_RATE_TABLE_PATH))
                scenarios.append(scenario_from_overrides(parse_config(text)))
    return scenarios
