"""Exact symmetries of the model, checked end to end: each one crosses every
layer at once and needs no reference.  They run on the baseline and the
generated bases of seeds 1-3."""

from dataclasses import replace

import pytest

from fscontract import CostSide, PeriodValues, compare_models, default_scenario, price_variants

from conftest import generated_scenarios

BASES = [default_scenario()] + generated_scenarios((1, 2, 3))


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
        before, after = price_variants(s), price_variants(in_money_units(s, 2.0))
        for variant, sol in before.items():
            doubled = after[variant]
            assert (doubled.price, doubled.breakdown.total, doubled.profit) == (
                2.0 * sol.price, 2.0 * sol.breakdown.total, 2.0 * sol.profit), (index, variant)
            assert (doubled.fs_share, doubled.m_count, doubled.lf_star) == (
                sol.fs_share, sol.m_count, sol.lf_star), (index, variant)


def test_seed_moves_only_the_full_model():
    # only the full model prices with the external draw
    def rows(s):
        cost_side = CostSide(s)
        _, auto, os_row = compare_models(s, cost_side)
        return repr((auto, os_row, cost_side.price("bench", s.market)))

    for index, s in enumerate(BASES):
        assert rows(replace(s, rng_seed=s.rng_seed + 1)) == rows(s), index
