import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fscontract import (
    BASELINE_INTERNAL_SERIES,
    INTERNAL_RATE_TABLE_PATH,
    ConfigError,
    ScenarioValidationError,
    Violation,
    default_scenario,
    internal_rate_series,
    load_internal_table,
    load_scenario,
    save_scenario,
    scaled_to_mean,
    simulate_external_rates,
    validate_scenario,
)


class TestDefaults:
    def test_table2_values(self, baseline):
        assert baseline.market.beta == 0.5
        assert baseline.grid.z_periods == 20
        assert baseline.grid.t_j == (1440.0,) * 20
        assert baseline.grid.t_jm == (4320.0,) * 20
        assert baseline.failure.phi0_int == 7.5e-3
        assert baseline.failure.rho == 0.5
        assert baseline.learning.alpha_auto == 0.1
        assert baseline.learning.alpha_indu == 0.1
        assert baseline.learning.epsilon == 0.05
        assert baseline.learning.lf == 0.005
        assert baseline.learning.unit_training_cost == 50.0
        assert baseline.cost.avg_maintenance_cost == 300.0
        assert baseline.cost.unit_delay_cost == 10000.0
        assert baseline.cost.m0_os == 10
        assert baseline.market.alpha_max == 1e-3
        assert baseline.market.d_customers == 50
        assert baseline.market.resolved_ceiling() == 900.0

    def test_baseline_series_mean(self, baseline):
        series = internal_rate_series(baseline.failure, baseline.grid)
        assert series.mean == pytest.approx(0.0034, abs=1e-12)

    def test_contract_length(self, baseline):
        assert baseline.grid.contract_length_b == sum(baseline.grid.t_j)

    def test_default_passes_validation(self, baseline):
        assert validate_scenario(baseline) == []


class TestValidation:
    def test_ext_mean_at_phi0_flagged(self, baseline):
        bad = replace(baseline, failure=replace(baseline.failure,
                                                ext_mean=baseline.failure.phi0_int))
        keys = [v.key for v in validate_scenario(bad)]
        assert "failure.ext_mean" in keys

    def test_stage_bound_ordering_flagged(self, baseline):
        bad = replace(baseline, failure=replace(baseline.failure, stage_bounds=(16, 4, 20)))
        keys = [v.key for v in validate_scenario(bad)]
        assert "failure.stage_bounds" in keys

    def test_lf_range_flagged(self, baseline):
        bad = replace(baseline, learning=replace(baseline.learning, lf=1.5))
        keys = [v.key for v in validate_scenario(bad)]
        assert "learning.lf" in keys

    def test_violations_are_not_exceptions(self, baseline):
        bad = replace(baseline, market=replace(baseline.market, beta=-1.0))
        violations = validate_scenario(bad)
        assert violations and all(str(v) for v in violations)


NON_FINITE = (math.nan, math.inf, -math.inf)


def _poisoned(s, section, name, bad):
    """The scenario with one field (or one element of a tuple field) set to bad."""
    params = getattr(s, section)
    value = getattr(params, name)
    if isinstance(value, tuple):
        value = value[:1] + (bad,) + value[2:]
    else:
        value = bad
    return replace(s, **{section: replace(params, **{name: value})})


def _assert_rejected(s, section, name, key, bad):
    assert Violation(key, "must be finite") in validate_scenario(_poisoned(s, section, name, bad))


@pytest.mark.parametrize("bad", NON_FINITE)
class TestNonFiniteFields:
    """Every numeric field, scalar or tuple, must be finite."""

    @pytest.mark.parametrize("name, key", [("t_j", "grid.t_j"), ("t_jm", "grid.t_jM")])
    def test_grid(self, baseline, bad, name, key):
        _assert_rejected(baseline, "grid", name, key, bad)

    @pytest.mark.parametrize("name", ["phi0_int", "k1", "k2", "m", "rho", "ext_mean", "ext_sd"])
    def test_failure(self, baseline, bad, name):
        _assert_rejected(baseline, "failure", name, f"failure.{name}", bad)

    def test_internal_series(self, baseline, bad):
        _assert_rejected(baseline, "failure", "internal_series_override",
                         "failure.internal_series", bad)

    @pytest.mark.parametrize("name", ["unit_repair_cost", "repair_cost_sd",
                                      "avg_maintenance_cost", "unit_delay_cost",
                                      "delay_probability"])
    def test_cost(self, baseline, bad, name):
        _assert_rejected(baseline, "cost", name, f"cost.{name}", bad)

    def test_per_period_repair_costs(self, baseline, bad):
        per_period = replace(baseline, cost=replace(baseline.cost,
                                                    unit_repair_cost=(1000.0,) * 20))
        _assert_rejected(per_period, "cost", "unit_repair_cost", "cost.unit_repair_cost", bad)

    @pytest.mark.parametrize("name", ["alpha_auto", "alpha_indu", "epsilon", "lf",
                                      "unit_training_cost", "repair_hours",
                                      "maintenance_hours"])
    def test_learning(self, baseline, bad, name):
        _assert_rejected(baseline, "learning", name, f"learning.{name}", bad)

    @pytest.mark.parametrize("name", ["beta", "alpha_max", "price_ceiling", "tco", "c_lease",
                                      "c_ops"])
    def test_market(self, baseline, bad, name):
        _assert_rejected(baseline, "market", name, f"market.{name}", bad)


class TestConfigIO:
    def test_single_override(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("market.beta = 0.9\n")
        s = load_scenario(cfg)
        d = default_scenario()
        assert s.market.beta == 0.9
        assert s.grid == d.grid
        assert s.failure == d.failure

    def test_out_of_range_value_raises_with_key(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("learning.lf = 1.5\n")
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(cfg)
        assert "learning.lf" in str(err.value)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("market.gamma = 1\n")
        with pytest.raises(ConfigError):
            load_scenario(cfg)

    def test_non_numeric_rejected(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("market.beta = high\n")
        with pytest.raises(ConfigError):
            load_scenario(cfg)

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("market.beta 0.9\n")
        with pytest.raises(ConfigError):
            load_scenario(cfg)

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("# comment\n\nmarket.beta = 0.6  # inline\n")
        assert load_scenario(cfg).market.beta == 0.6

    def test_round_trip_default(self, tmp_path, baseline):
        path = tmp_path / "base.cfg"
        save_scenario(baseline, path)
        assert load_scenario(path) == baseline

    def test_round_trip_parametric_series(self, tmp_path, baseline):
        parametric = replace(baseline,
                             failure=replace(baseline.failure, internal_series_override=None))
        path = tmp_path / "p.cfg"
        save_scenario(parametric, path)
        assert load_scenario(path) == parametric

    def test_round_trip_tco_triple(self, tmp_path, baseline):
        s = replace(baseline, market=replace(baseline.market, price_ceiling=None,
                                             tco=1500.0, c_lease=400.0, c_ops=200.0))
        path = tmp_path / "t.cfg"
        save_scenario(s, path)
        loaded = load_scenario(path)
        assert loaded == s
        assert loaded.market.resolved_ceiling() == 900.0

    @settings(max_examples=40, deadline=None)
    @given(beta=st.floats(0.0, 5.0, allow_nan=False),
           lf=st.floats(1e-4, 0.5, exclude_min=False),
           seed=st.integers(0, 2**63 - 1))
    def test_round_trip_random_fields(self, tmp_path_factory, baseline, beta, lf, seed):
        s = replace(baseline,
                    learning=replace(baseline.learning, lf=lf),
                    market=replace(baseline.market, beta=beta),
                    rng_seed=seed)
        path = tmp_path_factory.mktemp("cfg") / "s.cfg"
        save_scenario(s, path)
        assert load_scenario(path) == s

    def test_internal_table_reference(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"failure.internal_table = {INTERNAL_RATE_TABLE_PATH}:1\n")
        s = load_scenario(cfg)
        column = load_internal_table(INTERNAL_RATE_TABLE_PATH, 1)
        assert s.failure.internal_series_override == column


class TestConflictingKeys:
    """A quantity set twice in one config is an error, not last-wins."""

    def test_duplicate_key_names_both_lines(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("market.beta = 0.6\n# note\nlearning.lf = 0.01\nmarket.beta = 0.7\n")
        with pytest.raises(ConfigError, match=r"line 4: duplicate key 'market.beta' "
                                              r"\(first given on line 1\)"):
            load_scenario(cfg)

    def test_internal_series_with_table(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("failure.internal_series = none\n"
                       f"failure.internal_table = {INTERNAL_RATE_TABLE_PATH}:1\n")
        with pytest.raises(ConfigError, match="failure.internal_series and "
                                              "failure.internal_table are mutually exclusive"):
            load_scenario(cfg)

    @pytest.mark.parametrize("key", ["tco", "c_lease", "c_ops"])
    def test_price_ceiling_with_tco_triple(self, tmp_path, key):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"market.price_ceiling = 900.0\nmarket.{key} = 100.0\n")
        with pytest.raises(ConfigError, match=f"market.price_ceiling and market.{key} "
                                              "are mutually exclusive"):
            load_scenario(cfg)

    def test_partial_tco_triple_has_no_default_ceiling(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("market.c_lease = 400.0\n")
        with pytest.raises(ScenarioValidationError, match="market.price_ceiling"):
            load_scenario(cfg)


class TestCachedArrays:
    def test_built_once_and_read_only(self, baseline):
        s = replace(baseline, cost=replace(baseline.cost, unit_repair_cost=(1.0,) * 20))
        series = simulate_external_rates(s)
        for array, values in ((series.as_array(), series.values),
                              (s.grid.t_array, s.grid.t_j),
                              (s.repair_cost_array, s.cost.unit_repair_cost)):
            assert array.tolist() == list(values)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        assert series.as_array() is series.as_array()
        assert s.grid.t_array is s.grid.t_array
        assert s.repair_cost_array is s.repair_cost_array


class TestInternalTable:
    def test_shape(self):
        for col in range(1, 11):
            assert len(load_internal_table(INTERNAL_RATE_TABLE_PATH, col)) == 20

    def test_column_by_name_and_number_agree(self):
        assert load_internal_table(INTERNAL_RATE_TABLE_PATH, "phi6") == load_internal_table(INTERNAL_RATE_TABLE_PATH, 6)

    def test_unknown_column(self):
        with pytest.raises(ConfigError):
            load_internal_table(INTERNAL_RATE_TABLE_PATH, "phi11")

    def test_column_loads_verbatim(self, baseline):
        column = load_internal_table(INTERNAL_RATE_TABLE_PATH, 1)
        s = replace(baseline, failure=replace(baseline.failure,
                                              internal_series_override=column))
        assert internal_rate_series(s.failure, s.grid).values == column


class TestExternalRates:
    def test_zero_sd_is_constant(self, baseline):
        s = replace(baseline, failure=replace(baseline.failure, ext_sd=0.0))
        series = simulate_external_rates(s)
        assert set(series.values) == {baseline.failure.ext_mean}

    def test_determinism(self, baseline):
        a = simulate_external_rates(baseline)
        b = simulate_external_rates(baseline)
        assert a == b

    def test_seed_changes_series(self, baseline):
        other = replace(baseline, rng_seed=baseline.rng_seed + 1)
        assert simulate_external_rates(other) != simulate_external_rates(baseline)

    def test_truncation_at_zero(self, baseline):
        s = replace(baseline,
                    failure=replace(baseline.failure, ext_mean=1e-5, ext_sd=1e-3))
        assert all(x >= 0.0 for x in simulate_external_rates(s).values)

    def test_pooled_mean_close_to_ext_mean(self, baseline):
        # 5000 periods x 20 seeds ~ 1e5 draws; truncation bias is negligible
        # three sigmas from zero.
        total, count = 0.0, 0
        big = replace(baseline, grid=replace(baseline.grid,
                                             z_periods=5000,
                                             t_j=(1440.0,) * 5000,
                                             t_jm=(4320.0,) * 5000))
        for seed in range(20):
            s = replace(big, rng_seed=seed)
            values = simulate_external_rates(s).values
            total += sum(values)
            count += len(values)
        assert total / count == pytest.approx(baseline.failure.ext_mean, rel=0.01)


class TestScaledToMean:
    def test_hits_target_mean(self, baseline):
        for target in (0.0019, 0.0046):
            scaled = scaled_to_mean(baseline, target)
            series = internal_rate_series(scaled.failure, scaled.grid)
            assert series.mean == pytest.approx(target, rel=1e-12)

    def test_shape_preserved(self, baseline):
        scaled = scaled_to_mean(baseline, 0.0046)
        factor = 0.0046 / 0.0034
        expected = np.asarray(BASELINE_INTERNAL_SERIES) * factor
        np.testing.assert_allclose(
            np.asarray(internal_rate_series(scaled.failure, scaled.grid).values), expected)
        assert scaled.failure.phi0_int == pytest.approx(7.5e-3 * factor)
