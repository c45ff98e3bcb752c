"""The input generator is a pure function of (workload, seed)."""

import pytest

import gen


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_same_seed_same_inputs(workload):
    make = gen.GENERATORS[workload]
    assert make(7) == make(7)
    assert make(7) != make(8)


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_config_text_is_deterministic(workload):
    def texts(seed):
        return [gen.config_text(job["spec"], "t.csv", job.get("edit"))
                for job in gen.GENERATORS[workload](seed)]

    assert texts(3) == texts(3)


def test_cli_cycle_has_a_fixed_malformed_share():
    ops = gen.cli_cold(11)
    per_cycle = len(gen.CLI_CYCLE)
    assert len(ops) % per_cycle == 0
    for start in range(0, len(ops), per_cycle):
        cycle = ops[start:start + per_cycle]
        assert [op["command"] for op in cycle] == [c for c, _ in gen.CLI_CYCLE]
        assert sum(op["edit"] is not None for op in cycle) == 2


def test_market_sweep_varies_only_the_market_side():
    def split(jobs):
        cost = [{k: v for k, v in j["spec"].items() if not k.startswith("market.")} for j in jobs]
        market = [{k: v for k, v in j["spec"].items() if k.startswith("market.")} for j in jobs]
        return cost, market, [j["betas"] for j in jobs]

    cost_a, market_a, betas_a = split(gen.market_sweep(1))
    cost_b, market_b, betas_b = split(gen.market_sweep(2))
    assert cost_a == cost_b
    assert market_a != market_b and betas_a != betas_b
    for betas in betas_a:
        assert len(betas) == 41 and all(b > a for a, b in zip(betas, betas[1:]))


def test_long_horizon_fixes_the_kinds_that_set_the_work():
    for seed in (1, 2, 3):
        jobs = gen.long_horizon(seed)
        kinds = [(j["spec"]["grid.z_periods"], j["spec"]["learning.forgetting_model"],
                  "market.price_ceiling" in j["spec"]) for j in jobs]
        assert kinds == list(gen.LONG_HORIZONS)
        assert all(("market.tco" in j["spec"]) != ceiling
                   for j, (_, _, ceiling) in zip(jobs, gen.LONG_HORIZONS))
    assert gen.long_horizon(1) != gen.long_horizon(2)


def test_well_formed_specs_reject_non_finite_numbers():
    with pytest.raises(ValueError):
        gen.config_text({"market.beta": float("nan")}, "t.csv")
