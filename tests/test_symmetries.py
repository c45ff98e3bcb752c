"""Symmetries of the model, checked end to end: each one crosses every layer
at once and needs no reference.  They run on the baseline and the generated
bases of seeds 1-3, exactly where the arithmetic is exact and within stated
relative tolerances where it rounds."""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from fscontract import (
    CostSide,
    PeriodValues,
    SweepSpec,
    compare_models,
    default_scenario,
    sweep,
)
from fscontract.pricing import VARIANTS

from conftest import generated_scenarios

BASES = [default_scenario()] + generated_scenarios((1, 2, 3))


def variant_prices(s):
    """Every variant's price, on one cost side of ``s``."""
    cost_side = CostSide(s)
    return {v: cost_side.price(v) for v in VARIANTS}


def in_money_units(s, k: float):
    """``s`` with every dollar input, the price ceiling and the TCO triple
    times k, and the risk-aversion bound alpha_max (per k$) divided by k."""
    cost, market = s.cost, s.market
    unit = cost.unit_repair_cost
    unit = unit.as_array() * k if isinstance(unit, PeriodValues) else unit * k

    def times(x):
        return None if x is None else x * k

    return replace(
        s,
        cost=replace(cost, unit_repair_cost=unit, repair_cost_sd=cost.repair_cost_sd * k,
                     avg_maintenance_cost=cost.avg_maintenance_cost * k,
                     unit_delay_cost=cost.unit_delay_cost * k),
        learning=replace(s.learning, unit_training_cost=s.learning.unit_training_cost * k),
        market=replace(market, alpha_max=market.alpha_max / k,
                       price_ceiling=times(market.price_ceiling), tco=times(market.tco),
                       c_lease=times(market.c_lease), c_ops=times(market.c_ops)))


def test_money_units_scale_every_price_cost_and_profit():
    # k = 2 is a power of two: every product and quotient scales exactly
    assert len(BASES) == 85
    for index, s in enumerate(BASES):
        before, after = variant_prices(s), variant_prices(in_money_units(s, 2.0))
        for variant, sol in before.items():
            doubled = after[variant]
            assert (doubled.price, doubled.breakdown.total, doubled.profit) == (
                2.0 * sol.price, 2.0 * sol.breakdown.total, 2.0 * sol.profit), (index, variant)
            assert (doubled.fs_share, doubled.m_count, doubled.lf_star) == (
                sol.fs_share, sol.m_count, sol.lf_star), (index, variant)


@pytest.mark.parametrize("k", [3.0, 0.1, 1000.0])
def test_money_units_scale_within_rounding(k):
    # at a k that is not a power of two each product rounds on its own: on
    # the 85 bases price, cost and profit scaled within 1.8e-15 relative,
    # the share within 3e-15 absolute and lf* within 1.1e-15 relative
    for index, s in enumerate(BASES):
        before, after = variant_prices(s), variant_prices(in_money_units(s, k))
        for variant, sol in before.items():
            scaled = after[variant]
            assert (scaled.price, scaled.breakdown.total, scaled.profit) == pytest.approx(
                (k * sol.price, k * sol.breakdown.total, k * sol.profit), rel=1e-14,
                abs=0.0), (index, variant)
            assert scaled.fs_share == pytest.approx(sol.fs_share, rel=0.0, abs=1e-13), (
                index, variant)
            assert scaled.m_count == sol.m_count, (index, variant)
            if sol.lf_star is not None:
                assert scaled.lf_star == pytest.approx(sol.lf_star, rel=1e-13, abs=0.0), index


def test_market_size_scales_only_the_profit():
    # d_customers multiplies the profit and nothing else: price, cost and
    # share are equal, and the profit triples within 1e-15 relative (2.4e-16
    # at most on the 85 bases)
    for index, s in enumerate(BASES):
        tripled = replace(s, market=replace(s.market, d_customers=3 * s.market.d_customers))
        for before, after in zip(compare_models(s), compare_models(tripled)):
            assert repr(after._replace(profit=0.0)) == repr(before._replace(profit=0.0)), index
            assert after.profit == pytest.approx(3 * before.profit, rel=1e-15, abs=0.0), index


def test_seed_moves_only_the_full_model():
    # only the full model prices with the external draw
    def rows(s):
        _, auto, os_row = compare_models(s)
        return repr((auto, os_row, CostSide(s).price("bench")))

    for index, s in enumerate(BASES):
        assert rows(replace(s, rng_seed=s.rng_seed + 1)) == rows(s), index


def test_threads_do_not_matter():
    # the README: scenarios and sweep points can be evaluated concurrently.
    # A comparison, a beta sweep and a training-cost sweep of each seed-1
    # base with Z <= 300, on a pool of four threads, as on one
    bases = [s for s in generated_scenarios((1,)) if s.grid.z_periods <= 300]
    assert len(bases) == 24
    jobs = []
    for s in bases:
        cost = s.learning.unit_training_cost
        jobs += [(compare_models, s),
                 (sweep, SweepSpec("beta", (0.3, 0.5, 0.7, 0.9)), s),
                 (sweep, SweepSpec("unit_training_cost", (0.5 * cost, cost, 4.0 * cost)), s)]

    def run(job):
        fn, *args = job
        return repr(fn(*args))

    serial = [run(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        assert list(pool.map(run, jobs)) == serial
