import pytest

from fscontract import default_scenario, save_scenario, simulate_external_rates
from fscontract.cli import main

from conftest import count_calls


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "base.cfg"
    save_scenario(default_scenario(), path)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPriceCommand:
    def test_full_variant(self, capsys, config_path):
        code, out, _ = run(capsys, "price", "--config", str(config_path))
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert values["variant"] == "full"
        assert float(values["lower_bound"]) <= float(values["price"]) <= float(values["upper_bound"])
        assert "lf_star" in values

    def test_bench_variant_has_no_lf(self, capsys, config_path):
        code, out, _ = run(capsys, "price", "--config", str(config_path),
                           "--variant", "bench")
        assert code == 0
        assert "lf_star" not in out

    def test_missing_config_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "price", "--config", str(tmp_path / "nope.cfg"))
        assert code == 3
        assert "i/o" in err

    def test_invalid_config_is_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("learning.lf = 1.5\n")
        code, _, err = run(capsys, "price", "--config", str(bad))
        assert code == 1
        assert "learning.lf" in err

    @pytest.mark.parametrize("line", [
        "failure.phi0_int = nan",
        "failure.ext_sd = nan",
        "market.price_ceiling = nan",
        "cost.repair_cost_sd = nan",
        "learning.unit_training_cost = inf",
        "market.beta = -inf",
    ])
    def test_non_finite_value_is_validation_error(self, capsys, tmp_path, line):
        bad = tmp_path / "nonfinite.cfg"
        bad.write_text(line + "\n")
        code, out, err = run(capsys, "price", "--config", str(bad))
        assert code == 1
        assert out == ""
        assert f"{line.split(' = ')[0]}: must be finite" in err

    def test_conflicting_keys_are_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "conflict.cfg"
        bad.write_text("market.price_ceiling = 900.0\nmarket.tco = 1500.0\n")
        code, out, err = run(capsys, "price", "--config", str(bad))
        assert code == 1
        assert out == ""
        assert err.startswith("validation error:") and "mutually exclusive" in err

    def test_seed_override_validates_once(self, capsys, monkeypatch, config_path):
        # one draw for the validation's cost side, one for the price's
        calls = count_calls(monkeypatch, simulate_external_rates)
        code, _, _ = run(capsys, "price", "--config", str(config_path), "--seed", "7")
        assert code == 0
        assert len(calls["simulate_external_rates"]) == 2

    def test_seed_override_with_the_config_seed_changes_nothing(self, capsys, config_path):
        seed = str(default_scenario().rng_seed)
        plain = run(capsys, "price", "--config", str(config_path))
        seeded = run(capsys, "price", "--config", str(config_path), "--seed", seed)
        assert seeded == plain

    def test_infeasible_model_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "squeezed.cfg"
        bad.write_text("market.price_ceiling = 10.0\n")
        code, _, err = run(capsys, "price", "--config", str(bad))
        assert code == 2
        assert "infeasible" in err


class TestOptimizeLfCommand:
    def test_reports_solution(self, capsys, config_path):
        code, out, _ = run(capsys, "optimize-lf", "--config", str(config_path))
        assert code == 0
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert 0.0031 <= float(values["lf_star"]) <= 0.0250
        assert float(values["feasible_lo"]) < float(values["lf_star"])
        assert int(values["iterations"]) <= 200


class TestCompareCommand:
    def test_writes_csv(self, capsys, config_path, tmp_path):
        code, out, _ = run(capsys, "compare", "--config", str(config_path),
                           "--out", str(tmp_path), "--format", "csv")
        assert code == 0
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        assert len(lines) == 4

    def test_writes_markdown(self, capsys, config_path, tmp_path):
        code, _, _ = run(capsys, "compare", "--config", str(config_path),
                         "--out", str(tmp_path), "--format", "markdown")
        assert code == 0
        assert (tmp_path / "compare.md").exists()


class TestSweepCommand:
    def test_beta_csv(self, capsys, config_path, tmp_path):
        code, _, _ = run(capsys, "sweep", "--config", str(config_path),
                         "--param", "beta", "--values", "0.5,0.6,0.7",
                         "--out", str(tmp_path), "--format", "csv")
        assert code == 0
        lines = (tmp_path / "sweep_beta.csv").read_text().splitlines()
        assert len(lines) == 4

    def test_phi_int_svg(self, capsys, config_path, tmp_path):
        code, _, _ = run(capsys, "sweep", "--config", str(config_path),
                         "--param", "phi-int", "--values", "0.0019,0.0034,0.0046",
                         "--out", str(tmp_path), "--format", "svg")
        assert code == 0
        assert (tmp_path / "sweep_phi_int_mean.svg").read_text().startswith("<?xml")

    def test_unsorted_values_rejected(self, capsys, config_path, tmp_path):
        code, _, err = run(capsys, "sweep", "--config", str(config_path),
                           "--param", "lf", "--values", "0.02,0.01",
                           "--out", str(tmp_path))
        assert code == 1
        assert "increasing" in err

    def test_seed_override_changes_training_costs(self, capsys, config_path):
        code, out_a, _ = run(capsys, "price", "--config", str(config_path),
                             "--seed", "1")
        assert code == 0
        code, out_b, _ = run(capsys, "price", "--config", str(config_path),
                             "--seed", "2")
        assert code == 0
        cost_a = dict(l.split(" = ") for l in out_a.strip().splitlines())["cost_training"]
        cost_b = dict(l.split(" = ") for l in out_b.strip().splitlines())["cost_training"]
        assert cost_a != cost_b
