import copy
import math
import pickle
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fscontract import (
    BASELINE_INTERNAL_SERIES,
    INTERNAL_RATE_TABLE_PATH,
    ConfigError,
    CostParams,
    FailureParams,
    LearningParams,
    MarketParams,
    PeriodGrid,
    PeriodValues,
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
from fscontract.scenario import _FIELDS, _RULES, parse_config, scenario_from_overrides

from conftest import generated_scenarios


class TestDefaults:
    def test_table2_values(self, baseline):
        assert baseline.market.beta == 0.5
        assert baseline.grid.z_periods == 20
        assert baseline.grid.t_j.values == (1440.0,) * 20
        assert baseline.grid.t_jm.values == (4320.0,) * 20
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

    @pytest.mark.parametrize("market, cost", [
        ({"alpha_max": 1e308}, {}),
        # inf times a zero variance: NaN
        ({"alpha_max": 1e308, "beta": 1.0}, {"repair_cost_sd": 0.0, "unit_repair_cost": 0.0}),
    ])
    def test_overflowing_risk_premium_flagged(self, baseline, market, cost):
        bad = replace(baseline, market=replace(baseline.market, **market),
                      cost=replace(baseline.cost, **cost))
        assert [str(v) for v in validate_scenario(bad)] == [
            "market.alpha_max: the risk premium alpha_max (1 + beta)^2 Var / 4 "
            "must be finite (it overflows)"]

    def test_overflowing_maintenance_bill_flagged(self, baseline):
        # m0_os * c_M overflows the pay-per-repair bill; the plan's own
        # maintenance bill stays finite (M* = 1 costs nothing extra)
        bad = replace(baseline, cost=replace(baseline.cost, avg_maintenance_cost=1e308,
                                             delay_probability=1e-300),
                      market=replace(baseline.market, price_ceiling=1178.2205688837782))
        assert [str(v) for v in validate_scenario(bad)] == [
            "cost.avg_maintenance_cost: the pay-per-repair maintenance bill must be finite "
            "(it overflows)"]

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

    def test_negative_zero_reads_as_zero(self):
        values = parse_config("market.beta = -0.0\ncost.unit_repair_cost = 900,-0.0\n"
                              "grid.z_periods = -0\n")
        assert values == {"market.beta": 0.0, "cost.unit_repair_cost": (900.0, 0.0),
                          "grid.z_periods": 0}
        assert math.copysign(1.0, values["market.beta"]) == 1.0
        assert math.copysign(1.0, values["cost.unit_repair_cost"][1]) == 1.0

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
        assert s.failure.internal_series_override.values == column


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


class TestPeriodValues:
    """Every per-period value is one read-only array with by-value equality."""

    def test_stored_once_and_read_only(self, baseline):
        s = replace(baseline, cost=replace(baseline.cost, unit_repair_cost=(1.0,) * 20))
        series = simulate_external_rates(s)
        for value, values in ((series, series.values),
                              (s.grid.t_j, (1440.0,) * 20),
                              (s.cost.unit_repair_cost, (1.0,) * 20)):
            array = value.as_array()
            assert array.tolist() == list(values)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
            assert value.as_array() is array
        broadcast = baseline.cost.repair_costs(20)
        assert broadcast.tolist() == [1000.0] * 20 and not broadcast.flags.writeable

    def test_tuples_and_arrays_convert_on_construction(self, baseline):
        grid = PeriodGrid(3, (1.0, 2.0, 3.0), np.array([4.0, 5.0, 6.0]))
        assert type(grid.t_j) is PeriodValues and type(grid.t_jm) is PeriodValues
        assert grid == PeriodGrid(3, np.array([1.0, 2.0, 3.0]), [4.0, 5.0, 6.0])
        assert grid.t_j.values == (1.0, 2.0, 3.0) and len(grid.t_j) == 3
        assert PeriodGrid(3, grid.t_j, grid.t_jm).t_j is grid.t_j
        draw = simulate_external_rates(baseline)
        assert PeriodGrid(20, draw, draw).t_j is draw
        cost = replace(baseline.cost, unit_repair_cost=(1.0, 2.0))
        assert cost.unit_repair_cost == PeriodValues((1.0, 2.0))
        assert replace(baseline.cost, unit_repair_cost=5).unit_repair_cost == 5
        assert type(baseline.cost.unit_repair_cost) is float
        failure = replace(baseline.failure, internal_series_override=[0.001, 0.002])
        assert failure.internal_series_override == PeriodValues((0.001, 0.002))
        assert replace(failure, internal_series_override=None).internal_series_override is None

    def test_equal_and_hash_by_value_as_their_tuple(self, baseline):
        values = (1440.0, 0.1 + 0.2, 5e-324, 0.0)
        assert PeriodValues(values) == PeriodValues(np.array(values))
        assert hash(PeriodValues(values)) == hash(values)
        assert PeriodValues(values) != PeriodValues(values[:-1])
        assert PeriodValues(values) != PeriodValues(values[:-1] + (1.0,))
        # a scenario hashes as it did when its per-period values were tuples
        assert hash(baseline.grid) == hash((20, (1440.0,) * 20, (4320.0,) * 20))
        per_period = replace(baseline.cost, unit_repair_cost=values)
        assert hash(per_period) == hash((values, 21000.0, 300.0, 10000.0, 0.004, 10))

    def test_read_only_and_immutable(self):
        source = np.array([1.0, 2.0])
        value = PeriodValues(source)
        source[0] = 9.0  # the value holds its own copy
        assert value.values == (1.0, 2.0)
        for name in ("values", "_array", "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        with pytest.raises(AttributeError):
            del value._array

    def test_pickle_and_deepcopy_round_trip(self, baseline):
        s = replace(baseline, cost=replace(baseline.cost, unit_repair_cost=(1000.0,) * 20))
        for copied in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert copied == s and hash(copied) == hash(s)
            for value in (copied.grid.t_j, copied.grid.t_jm, copied.cost.unit_repair_cost,
                          copied.failure.internal_series_override):
                assert type(value) is PeriodValues
                assert not value.as_array().flags.writeable
            assert copied.grid.t_j.as_array() is not s.grid.t_j.as_array()
        value = PeriodValues((0.1, 0.2))
        assert eval(repr(value), {"PeriodValues": PeriodValues}) == value

class TestRateSeries:
    """A rate series of the model is per-period values: one read-only array
    that compares, hashes and pickles by its rates."""

    RATES = (0.0054, 0.0038, 5e-324, 0.0, 1.7976931348623157e308, 0.1 + 0.2)

    @staticmethod
    def model_series(s):
        """The internal series of ``s`` (its override and the parametric
        one) and its external draw."""
        parametric = replace(s, failure=replace(s.failure, internal_series_override=None))
        return [internal_rate_series(x.failure, x.grid) for x in (s, parametric)] + [
            simulate_external_rates(s)]

    def test_equal_and_hash_equal_to_one_built_from_the_tuple(self, baseline):
        for series in self.model_series(baseline) + [PeriodValues(self.RATES)]:
            from_array = PeriodValues(np.array(series.values))
            from_tuple = PeriodValues(series.values)
            assert series == from_array == from_tuple
            assert hash(series) == hash(from_array) == hash(from_tuple)
            assert series != PeriodValues(series.values[:-1])
            assert series != PeriodValues(series.values[:-1] + (0.3,))

    def test_array_is_read_only_and_assignment_raises(self, baseline):
        source = np.array(self.RATES)
        copied = PeriodValues(source)
        source[0] = 1.0  # the values hold their own copy
        assert copied.as_array()[0] == self.RATES[0]
        for series in self.model_series(baseline) + [copied]:
            array = series.as_array()
            assert array is series.as_array()
            assert array.dtype == np.float64 and not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
            for name in ("values", "_array", "other"):
                with pytest.raises(AttributeError):
                    setattr(series, name, None)
            with pytest.raises(AttributeError):
                del series._array

    def test_values_round_trip_losslessly(self, baseline):
        series = PeriodValues(self.RATES)
        assert series.values == self.RATES
        assert repr(series) == f"PeriodValues({self.RATES!r})"
        for series in self.model_series(baseline) + [series]:
            assert all(type(x) is float for x in series.values)
            assert PeriodValues(series.values) == series
            assert eval(repr(series), {"PeriodValues": PeriodValues}) == series
            for copied in (copy.deepcopy(series), pickle.loads(pickle.dumps(series))):
                assert copied == series and hash(copied) == hash(series)
                assert type(copied) is PeriodValues and not copied.as_array().flags.writeable

    def test_external_draw_is_bit_identical_to_the_numpy_draw(self, baseline):
        for s in [baseline] + generated_scenarios((1,)):
            rng = np.random.default_rng(s.rng_seed)
            draws = rng.normal(s.failure.ext_mean, s.failure.ext_sd, s.grid.z_periods)
            want = tuple(np.maximum(draws, 0.0).tolist())
            series = simulate_external_rates(s)
            assert series.values == want
            assert series.as_array().tobytes() == np.array(want).tobytes()

    def test_model_series_are_read_only_and_each_draw_is_its_own(self, baseline):
        # the model's series hold read-only copies of the arrays they build
        parametric = replace(baseline, failure=replace(
            baseline.failure, internal_series_override=None))
        series = [internal_rate_series(s.failure, s.grid) for s in (baseline, parametric)]
        first, second = simulate_external_rates(baseline), simulate_external_rates(baseline)
        for array in [x.as_array() for x in series + [first, second]]:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0
        assert first == second
        assert not np.shares_memory(first.as_array(), second.as_array())


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

    def test_negative_zero_sd_draws_as_zero(self, baseline):
        # the sd >= 0 rule accepts -0.0, which numpy's scale < 0 check refused
        s, zero = (replace(baseline, failure=replace(baseline.failure, ext_sd=sd))
                   for sd in (-0.0, 0.0))
        assert validate_scenario(s) == []
        draw = simulate_external_rates(s).as_array()
        assert draw.tobytes() == simulate_external_rates(zero).as_array().tobytes()

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
            scaled = scaled_to_mean(baseline, target,
                                    internal_rate_series(baseline.failure, baseline.grid))
            series = internal_rate_series(scaled.failure, scaled.grid)
            assert series.mean == pytest.approx(target, rel=1e-12)

    def test_zero_series_is_a_validation_error(self, baseline):
        zero = replace(baseline, failure=replace(baseline.failure,
                                                 internal_series_override=(0.0,) * 20))
        with pytest.raises(ScenarioValidationError, match="failure.internal_series: a series "
                                                          "of mean 0 cannot be rescaled"):
            scaled_to_mean(zero, 0.003, internal_rate_series(zero.failure, zero.grid))

    def test_shape_preserved(self, baseline):
        scaled = scaled_to_mean(baseline, 0.0046,
                                internal_rate_series(baseline.failure, baseline.grid))
        factor = 0.0046 / 0.0034
        expected = np.asarray(BASELINE_INTERNAL_SERIES) * factor
        np.testing.assert_allclose(
            np.asarray(internal_rate_series(scaled.failure, scaled.grid).values), expected)
        assert scaled.failure.phi0_int == pytest.approx(7.5e-3 * factor)


def _violations(text: str) -> list[str]:
    """The validation messages of a config text on top of the defaults."""
    return [str(v) for v in validate_scenario(scenario_from_overrides(parse_config(text)))]


class TestSchemaTables:
    """The config schema lives in one row per key and one row per check."""

    def test_each_field_has_one_row(self):
        sections = {"grid": PeriodGrid, "failure": FailureParams, "cost": CostParams,
                    "learning": LearningParams, "market": MarketParams}
        expected = [(section, f.name) for section, params in sections.items()
                    for f in fields(params)] + [("", "rng_seed")]
        assert [(section, name) for _, section, name, _ in _FIELDS if name] == expected
        keys = [key for key, _, _, _ in _FIELDS]
        assert len(keys) == len(set(keys))

    def test_rules_read_config_keys(self):
        keys = {key for key, _, name, _ in _FIELDS if name}
        for key, reads, _, _ in _RULES:
            assert key in keys and set(reads) <= keys


#: The bound on a market's revenue, and so on its profit.
_REVENUE = ("market.d_customers: d_customers * price ceiling must stay below half the "
            "largest float (the profit can overflow)")


#: One config edit per field rule, with every violation it causes, in
#: report order.
RULE_EDITS = [
    ("grid.z_periods = 0", ["grid.z_periods: must be >= 1",
                            "failure.stage_bounds: z3 must equal z_periods",
                            "failure.internal_series: length must equal z_periods"]),
    ("grid.t_j = 1440,1440", ["grid.t_j: length must equal z_periods"]),
    ("grid.t_j = -1", ["grid.t_j: every period length must be > 0"]),
    ("grid.t_jM = 1000", ["grid.t_jM: calendar hours must be >= operating hours"]),
    ("failure.stage_bounds = 16,4,20", ["failure.stage_bounds: need 1 <= z1 < z2 <= z3"]),
    ("failure.stage_bounds = 4,16,19", ["failure.stage_bounds: z3 must equal z_periods"]),
    ("failure.k1 = 1", ["failure.k1: must lie in (0, 1)"]),
    ("failure.k2 = 0", ["failure.k2: must lie in (0, 1)"]),
    ("failure.m = 0", ["failure.m: must be > 0"]),
    ("failure.rho = 1.5", ["failure.rho: must lie in [0, 1]"]),
    ("failure.phi0_int = 0", ["failure.phi0_int: must be > 0",
                              "failure.ext_mean: external rate must stay below phi0_int"]),
    ("failure.ext_mean = 0.01", ["failure.ext_mean: external rate must stay below phi0_int"]),
    ("failure.ext_sd = -1e-4", ["failure.ext_mean: external rate moments must be >= 0"]),
    ("failure.internal_series = 0.001,0.002",
     ["failure.internal_series: length must equal z_periods"]),
    ("failure.internal_series = -0.001", ["failure.internal_series: rates must be >= 0"]),
    ("cost.unit_repair_cost = 1000,1000", ["cost.unit_repair_cost: length must equal z_periods"]),
    ("cost.unit_repair_cost = -1", ["cost.unit_repair_cost: must be >= 0"]),
    ("cost.repair_cost_sd = -1", ["cost.repair_cost_sd: must be >= 0"]),
    ("cost.avg_maintenance_cost = -1", ["cost.avg_maintenance_cost: must be >= 0"]),
    ("cost.unit_delay_cost = -1", ["cost.unit_delay_cost: must be >= 0"]),
    ("cost.delay_probability = 1.5", ["cost.delay_probability: must lie in [0, 1]"]),
    ("cost.m0_os = 0", ["cost.m0_os: must be >= 1"]),
    ("learning.alpha_auto = 1", ["learning.alpha_auto: must lie in [0, 1)"]),
    ("learning.alpha_indu = -0.1", ["learning.alpha_indu: must lie in [0, 1)"]),
    ("learning.epsilon = 0.5", ["learning.epsilon: must lie in (0, 0.5)"]),
    ("learning.lf = 1", ["learning.lf: must lie in (0, 1)"]),
    ("learning.unit_training_cost = -1", ["learning.unit_training_cost: must be >= 0"]),
    ("learning.forgetting_model = linear",
     ["learning.forgetting_model: must be 'simple' or 'revised'"]),
    ("learning.repair_hours = 0", ["learning.repair_hours: must be > 0"]),
    ("learning.maintenance_hours = -1", ["learning.maintenance_hours: must be >= 0"]),
    ("rng_seed = -1", ["rng_seed: must be a 64-bit unsigned integer"]),
    ("market.beta = -1", ["market.beta: must be >= 0"]),
    ("market.alpha_max = 0", ["market.alpha_max: must be > 0"]),
    ("market.d_customers = 0", ["market.d_customers: must be >= 1"]),
    ("market.price_ceiling = 0", ["market.price_ceiling: must be > 0"]),
    ("market.tco = 100\nmarket.c_lease = 100\nmarket.c_ops = 100",
     ["market.price_ceiling: must be > 0"]),
    ("market.c_lease = 400", ["market.price_ceiling: need price_ceiling or (tco, c_lease, c_ops)"]),
    # appended, so that the test ids of the edits above stay fixed
    ("failure.stage_bounds = 4,16", ["failure.stage_bounds: need three bounds z1, z2, z3"]),
    ("failure.stage_bounds = 4,16,20,24",
     ["failure.stage_bounds: need three bounds z1, z2, z3"]),
    ("market.beta = 1e200", ["market.beta: (1 + beta)^2 must be finite (it overflows)"]),
    ("market.tco = 1500\nmarket.c_lease = -1e308\nmarket.c_ops = -1e308",
     ["market.price_ceiling: tco - c_lease - c_ops must be finite (it overflows)"]),
    # a market of 10^308 customers, and one too large to convert to a float
    (f"market.d_customers = {10**308}", [_REVENUE]),
    (f"market.d_customers = {10**309}", [_REVENUE]),
    # the ceiling derived from the TCO triple counts too
    (f"market.d_customers = {10**306}\nmarket.tco = 1500\nmarket.c_lease = 400\n"
     "market.c_ops = 200", [_REVENUE]),
]


#: The rules that no config text reaches (the config loader refuses such a
#: value first), with one edit of a scenario built in code that breaks them
#: and every violation it causes, in report order.  Only a horizon too long
#: to index is tested: a shorter one would really be allocated.
LIBRARY_EDITS = [
    (lambda s: replace(s, grid=replace(s.grid, z_periods=10**20)),
     [f"grid.z_periods: must be at most {sys.maxsize}",
      "grid.t_j: length must equal z_periods",
      "failure.stage_bounds: z3 must equal z_periods",
      "failure.internal_series: length must equal z_periods"]),
]


class TestRuleTable:
    @pytest.mark.parametrize("text, expected", RULE_EDITS)
    def test_edit_gives_exact_violations(self, text, expected):
        assert _violations(text) == expected

    @pytest.mark.parametrize("edit, expected", LIBRARY_EDITS)
    def test_library_edit_gives_exact_violations(self, baseline, edit, expected):
        assert [str(v) for v in validate_scenario(edit(baseline))] == expected

    def test_every_rule_has_an_edit(self):
        reported = {v for _, expected in RULE_EDITS + LIBRARY_EDITS for v in expected}
        for key, _, _, message in _RULES:
            assert f"{key}: {message}" in reported

    def test_violations_come_in_rule_order(self):
        text = "learning.lf = 1.5\nfailure.k1 = 2\nmarket.beta = -1\ngrid.t_jM = 1000\n"
        assert _violations(text) == [
            "grid.t_jM: calendar hours must be >= operating hours",
            "failure.k1: must lie in (0, 1)",
            "learning.lf: must lie in (0, 1)",
            "market.beta: must be >= 0",
        ]

    @pytest.mark.parametrize("text, expected", [
        ("grid.z_periods = 3\nfailure.stage_bounds = 1,2,3\ngrid.t_j = 1440,-1,1440\n"
         "grid.t_jM = 1440,1,1000\nfailure.internal_series = 0.001,-0.002,0.003\n"
         "cost.unit_repair_cost = 1,2,-3\n",
         ["grid.t_j: every period length must be > 0",
          "grid.t_jM: calendar hours must be >= operating hours",
          "failure.internal_series: rates must be >= 0",
          "cost.unit_repair_cost: must be >= 0"]),
        # per-period lengths that disagree: the calendar check reads the
        # periods that both give
        ("grid.t_j = 1440,1440\ngrid.t_jM = 1,1,1\nfailure.internal_series = -1,-1\n"
         "cost.unit_repair_cost = 5,-5\n",
         ["grid.t_j: length must equal z_periods",
          "grid.t_jM: calendar hours must be >= operating hours",
          "failure.internal_series: length must equal z_periods",
          "failure.internal_series: rates must be >= 0",
          "cost.unit_repair_cost: length must equal z_periods",
          "cost.unit_repair_cost: must be >= 0"]),
        # finite values whose sum overflows are non-finite
        ("grid.z_periods = 3\nfailure.stage_bounds = 1,2,3\ngrid.t_j = 1440,1e308,1e308\n"
         "failure.internal_series = 1e308,1e308,0.0\ncost.unit_repair_cost = 1e308,1e308,1\n",
         ["grid.t_j: must be finite", "failure.internal_series: must be finite",
          "cost.unit_repair_cost: must be finite"]),
    ])
    def test_per_period_values_give_exact_violations(self, text, expected):
        assert _violations(text) == expected

    def test_non_finite_values_are_reported_alone_in_key_order(self):
        text = ("learning.lf = 1.5\nmarket.beta = inf\nfailure.k1 = 2\n"
                "cost.unit_repair_cost = 1000,nan\nfailure.rho = -inf\n")
        assert _violations(text) == [
            "failure.rho: must be finite",
            "cost.unit_repair_cost: must be finite",
            "market.beta: must be finite",
        ]


DEFAULT_CONFIG = """\
# fscontract scenario
grid.z_periods = 20
grid.t_j = 1440.0
grid.t_jM = 4320.0
failure.phi0_int = 0.0075
failure.stage_bounds = 4,16,20
failure.k1 = 0.5
failure.k2 = 0.45
failure.m = 100000000000.0
failure.rho = 0.5
failure.ext_mean = 0.00075
failure.ext_sd = 0.00025
failure.internal_series = 0.0054,0.0038,0.0026,0.0017,0.0017,0.0017,0.0017,0.0017,0.0017,\
0.0017,0.0017,0.0017,0.0017,0.0017,0.0017,0.0017,0.0031,0.006,0.01,0.015
cost.unit_repair_cost = 1000.0
cost.repair_cost_sd = 21000.0
cost.avg_maintenance_cost = 300.0
cost.unit_delay_cost = 10000.0
cost.delay_probability = 0.004
cost.m0_os = 10
learning.alpha_auto = 0.1
learning.alpha_indu = 0.1
learning.epsilon = 0.05
learning.lf = 0.005
learning.unit_training_cost = 50.0
learning.forgetting_model = revised
learning.repair_hours = 1.0
learning.maintenance_hours = 8.0
market.beta = 0.5
market.alpha_max = 0.001
market.d_customers = 50
market.price_ceiling = 900.0
rng_seed = 42
"""


class TestSavedText:
    """``save_scenario`` writes these bytes exactly."""

    def _saved(self, tmp_path, s) -> str:
        path = tmp_path / "s.cfg"
        save_scenario(s, path)
        return path.read_bytes().decode("utf-8")

    def test_default(self, tmp_path, baseline):
        assert self._saved(tmp_path, baseline) == DEFAULT_CONFIG

    def test_parametric_series(self, tmp_path, baseline):
        parametric = replace(baseline,
                             failure=replace(baseline.failure, internal_series_override=None))
        series_line = next(line for line in DEFAULT_CONFIG.splitlines()
                           if line.startswith("failure.internal_series"))
        expected = DEFAULT_CONFIG.replace(series_line, "failure.internal_series = none")
        assert self._saved(tmp_path, parametric) == expected

    def test_per_period_values(self, tmp_path, baseline):
        s = replace(baseline,
                    grid=PeriodGrid(3, (1440.0, 0.1 + 0.2, 5e-324), (4320.0, 1.0, 1e-300)),
                    failure=replace(baseline.failure, stage_bounds=(1, 2, 3),
                                    internal_series_override=(0.0054, 1.7976931348623157e308,
                                                              0.0)),
                    cost=replace(baseline.cost, unit_repair_cost=(1000.0, 2.5, 0.1)))
        lines = {
            "grid.z_periods = 20": "grid.z_periods = 3",
            "grid.t_j = 1440.0": "grid.t_j = 1440.0,0.30000000000000004,5e-324",
            "grid.t_jM = 4320.0": "grid.t_jM = 4320.0,1.0,1e-300",
            "failure.stage_bounds = 4,16,20": "failure.stage_bounds = 1,2,3",
            "cost.unit_repair_cost = 1000.0": "cost.unit_repair_cost = 1000.0,2.5,0.1",
        }
        expected = [lines.get(line, line) for line in DEFAULT_CONFIG.splitlines()]
        expected = [("failure.internal_series = 0.0054,1.7976931348623157e+308,0.0"
                     if line.startswith("failure.internal_series") else line)
                    for line in expected if not line.startswith("0.0017")]
        assert self._saved(tmp_path, s) == "\n".join(expected) + "\n"

    def test_tco_triple(self, tmp_path, baseline):
        s = replace(baseline, market=replace(baseline.market, price_ceiling=None,
                                             tco=1500.0, c_lease=400.0, c_ops=200.0))
        expected = DEFAULT_CONFIG.replace(
            "market.price_ceiling = 900.0\n",
            "market.tco = 1500.0\nmarket.c_lease = 400.0\nmarket.c_ops = 200.0\n")
        assert self._saved(tmp_path, s) == expected
