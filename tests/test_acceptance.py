"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Randomized checks use fixed seeds so the suite is reproducible.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fscontract import (
    CostSide,
    SweepSpec,
    brute_force_pm_count,
    compare_models,
    contract_costs,
    default_scenario,
    emit_report,
    expected_failures,
    fs_cost_lf_derivative,
    internal_rate_series,
    load_scenario,
    optimal_pm_count,
    optimal_price,
    optimize_lf,
    os_cost_moments,
    read_kpi_csv,
    save_scenario,
    simulate_external_rates,
    sweep,
    total_fs_cost,
)
from fscontract.scenario import DOLLARS_PER_REPORT_UNIT

from conftest import random_rate_scenario

LF_SWEEP_GRID = (0.0031, 0.0033, 0.0036, 0.0038, 0.0042, 0.0045, 0.0050, 0.0056,
                  0.0063, 0.0071, 0.0083, 0.0100, 0.0125, 0.0167, 0.0250)
RATE_MEAN_GRID = (0.0019, 0.0022, 0.0025, 0.0028, 0.0031, 0.0034, 0.0037, 0.0040,
                0.0043, 0.0046)


class _timer:
    def __init__(self, number: int, limit: float, label: str):
        self.number, self.limit, self.label = number, limit, label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.limit, f"criterion {self.number} took {elapsed:.2f}s"
            print(f"ACCEPTANCE {self.number:02d} PASS ({elapsed:.2f}s < {self.limit:g}s): "
                  f"{self.label}")
        else:
            print(f"ACCEPTANCE {self.number:02d} FAIL: {self.label}")
        return False


def test_criterion_01_failure_count_dual_form():
    with _timer(1, 1.0, "per-period failure counts: recursive and expanded forms agree"):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            s = random_rate_scenario(rng)
            m = int(rng.integers(1, 15))
            internal = internal_rate_series(s.failure, s.grid)
            got = expected_failures(m, s, internal)

            t = s.grid.t_j.values[0]
            rho = s.failure.rho
            phi0 = s.failure.phi0_int
            phi = np.asarray(internal.values)
            g = np.diff(np.concatenate(([phi0], phi))) / t
            cumulative = np.concatenate(([0.0], np.cumsum(g)[:-1]))
            expanded = (phi0 * t + rho * t * t * g / (2 * m)
                        + t * t * (1 - rho) / 2 * (g + 2 * cumulative))
            np.testing.assert_allclose(got, expanded, rtol=1e-9)


def test_criterion_02_maintenance_count_oracle():
    with _timer(2, 5.0, "closed-form maintenance count equals brute force; "
                        "baseline optimum is 3"):
        rng = np.random.default_rng(202)
        for _ in range(100):
            s = random_rate_scenario(rng)
            internal = internal_rate_series(s.failure, s.grid)
            closed = optimal_pm_count(s, internal).m_count
            brute = brute_force_pm_count(s, internal, max(60, 2 * closed + 10)).m_count
            assert closed == brute

        baseline = default_scenario()
        internal = internal_rate_series(baseline.failure, baseline.grid)
        assert optimal_pm_count(baseline, internal).m_count == 3
        assert brute_force_pm_count(baseline, internal, 50).m_count == 3


def test_criterion_03_training_frequency_optimum():
    with _timer(3, 5.0, "cost unimodal in lf; optimizer matches grid search; analytic "
                        "lf-derivative matches finite differences; baseline lf* in "
                        "[0.0031, 0.0250]"):
        s = default_scenario()
        internal = internal_rate_series(s.failure, s.grid)
        external = simulate_external_rates(s)
        m = optimal_pm_count(s, internal).m_count

        def cost(lf: float) -> float:
            return total_fs_cost(lf, m, s, internal, external).total

        solution = optimize_lf(m, s, internal, external)
        lo, hi = solution.feasible_range

        # unimodality on a 200-point log grid: one sign change in differences
        grid = np.geomspace(lo * 1.001, 0.999, 200)
        diffs = np.diff([cost(x) for x in grid])
        rising = diffs > 0
        first_rise = int(np.argmax(rising))
        assert 0 < first_rise < len(rising) - 1
        assert rising[first_rise:].all()
        assert not rising[:first_rise].any()

        # optimizer agrees with a 1e-4-resolution grid search
        fine = np.arange(lo + 1e-4, 1.0, 1e-4)
        fine_costs = np.array([cost(x) for x in fine])
        best = int(np.argmin(fine_costs))
        assert abs(solution.lf_star - fine[best]) <= 1e-4 + 1e-12
        assert solution.cost_at_star <= fine_costs[best] * (1 + 1e-6)

        # analytic derivative vs central finite differences
        for lf in np.geomspace(lo * 1.6, 0.45, 30):
            h = 1e-6 * lf
            numeric = (cost(lf + h) - cost(lf - h)) / (2 * h)
            analytic = fs_cost_lf_derivative(lf, m, s, internal, external)
            assert analytic == pytest.approx(numeric, rel=1e-4)

        assert 0.0031 <= solution.lf_star <= 0.0250


def _random_pricing_scenario(rng):
    """Benchmark-regime scenario whose profit argmax is strictly interior."""
    while True:
        s = random_rate_scenario(rng)
        unit = float(rng.uniform(300.0, 2000.0))
        s = replace(
            s,
            cost=replace(s.cost,
                         unit_repair_cost=unit,
                         repair_cost_sd=float(rng.uniform(10.0, 30.0)) * unit,
                         avg_maintenance_cost=float(rng.uniform(100.0, 800.0)),
                         unit_delay_cost=float(rng.uniform(2000.0, 15000.0)),
                         delay_probability=float(rng.uniform(0.001, 0.008)),
                         m0_os=int(rng.integers(2, 13))),
            market=replace(s.market,
                           beta=float(rng.uniform(0.2, 1.2)),
                           alpha_max=float(rng.uniform(5e-4, 2e-3)),
                           price_ceiling=1e12),
        )
        internal = internal_rate_series(s.failure, s.grid)
        osm = os_cost_moments(s, internal).scaled(1.0 / DOLLARS_PER_REPORT_UNIT)
        beta, alpha = s.market.beta, s.market.alpha_max
        risk_premium = alpha * (1 + beta) ** 2 * osm.variance / 4
        delay = contract_costs(s.cost.m0_os, s, internal).delay
        half_delay = 0.5 * delay / DOLLARS_PER_REPORT_UNIT
        if half_delay + 0.1 < risk_premium < 400.0:
            return s, osm


def test_criterion_04_price_is_profit_argmax():
    with _timer(4, 10.0, "posted price equals the grid argmax of the market profit "
                         "(benchmark regime); profit is a concave quadratic"):
        rng = np.random.default_rng(404)
        for _ in range(50):
            s, osm = _random_pricing_scenario(rng)
            sol = optimal_price(s, "bench")
            beta, alpha, d = s.market.beta, s.market.alpha_max, s.market.d_customers
            threshold = (1 + beta) * osm.mean
            width = alpha * (1 + beta) ** 2 * osm.variance / 2

            prices = np.arange(threshold + 0.01, threshold + width - 0.01, 0.01)
            tau = 2 * (prices - threshold) / ((1 + beta) ** 2 * osm.variance)
            share = np.clip(1.0 - tau / alpha, 0.0, 1.0)
            profits = d * ((prices - sol.breakdown.total) * share
                           + beta * osm.mean * (1 - share))

            best = prices[int(np.argmax(profits))]
            assert abs(sol.interior_price - best) <= 0.01 + 1e-9

            second = np.diff(profits, 2)
            scale = max(1.0, float(np.abs(profits).max()))
            assert np.all(second <= 1e-7 * scale)
            assert np.allclose(second, second.mean(), atol=1e-7 * scale)


def test_criterion_05_os_variance_monte_carlo():
    with _timer(5, 10.0, "pay-per-repair cost variance within 3% of a 1e5-draw "
                         "Monte-Carlo estimate"):
        s = default_scenario()
        internal = internal_rate_series(s.failure, s.grid)
        osm = os_cost_moments(s, internal)
        lam = expected_failures(s.cost.m0_os, s, internal)
        unit = np.asarray(s.cost.repair_costs(s.grid.z_periods))
        sd = s.cost.repair_cost_sd

        rng = np.random.default_rng(505)
        draws = 100_000
        counts = rng.poisson(lam, size=(draws, lam.size))
        noise = rng.standard_normal(size=(draws, lam.size))
        totals = (counts * unit + sd * np.sqrt(counts) * noise).sum(axis=1)
        estimate = float(np.var(totals, ddof=1))
        assert osm.variance == pytest.approx(estimate, rel=0.03)


def test_criterion_06_model_comparison_orderings():
    with _timer(6, 1.0, "baseline comparison: price, cost, profit orderings and "
                        "market shares"):
        rows = {r.variant: r for r in compare_models(default_scenario())}
        full, auto, os_ = rows["full"], rows["auto"], rows["os"]
        assert full.price < os_.price < auto.price
        assert full.cost < auto.cost < os_.cost
        assert full.profit > auto.profit > os_.profit
        assert full.fs_share == 1.0
        assert 0.90 <= auto.fs_share < 1.0


def test_criterion_07_markup_sweep_competitive_range():
    with _timer(7, 1.0, "mark-up sweep 0.5..0.9: linear price growth, constant cost, "
                        "full market share"):
        records = sweep(SweepSpec(param="beta", values=(0.5, 0.6, 0.7, 0.8, 0.9)),
                        default_scenario())
        prices = [r.price for r in records]
        increments = np.diff(prices)
        assert (increments > 0).all()
        assert increments.max() / increments.min() <= 1.05
        costs = [r.cost for r in records]
        assert max(costs) - min(costs) <= 1e-9
        assert all(r.fs_share == 1.0 for r in records)


def test_criterion_08_markup_sweep_oligopoly_range():
    with _timer(8, 1.0, "mark-up sweep 1..5: ceiling saturation at 900 and "
                        "dip-then-recover market share"):
        records = sweep(SweepSpec(param="beta", values=(1.0, 2.0, 3.0, 4.0, 5.0)),
                        default_scenario())
        assert records[3].price == 900.0
        assert records[4].price == 900.0
        shares = [r.fs_share for r in records]
        assert min(shares[1:4]) < shares[0]
        assert shares[4] == 1.0


def test_criterion_09_internal_rate_sweep():
    with _timer(9, 2.0, "internal failure rate sweep: price, cost and profit "
                        "nondecreasing; share holds once full"):
        records = sweep(SweepSpec(param="phi_int_mean", values=RATE_MEAN_GRID),
                        default_scenario())
        assert all(r.feasible for r in records)
        for kpi in ("price", "cost", "profit"):
            values = [getattr(r, kpi) for r in records]
            assert all(b >= a * (1 - 1e-12) for a, b in zip(values, values[1:])), kpi
        shares = [r.fs_share for r in records]
        saturated = False
        for share in shares:
            if saturated:
                assert share == 1.0
            elif share == 1.0:
                saturated = True
        assert saturated


def test_criterion_10_training_frequency_sweep():
    with _timer(10, 2.0, "training frequency sweep: near-constant profit, interior "
                         "price minimum, nonincreasing tail share"):
        records = sweep(SweepSpec(param="lf", values=LF_SWEEP_GRID), default_scenario())
        profits = np.array([r.profit for r in records])
        assert (profits.max() - profits.min()) <= 0.01 * profits.mean()
        prices = [r.price for r in records]
        argmin = prices.index(min(prices))
        assert 0 < argmin < len(prices) - 1
        tail = [r.fs_share for r in records if r.swept_value >= 0.0125]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))


def test_criterion_11_training_cost_break_even():
    with _timer(11, 5.0, "price ordering full < auto < bench; finite training-cost "
                         "break-even flips full vs auto"):
        s = default_scenario()
        cost_side = CostSide(s)
        sols = {v: cost_side.price(v) for v in ("full", "auto", "bench")}
        assert sols["full"].price < sols["auto"].price < sols["bench"].price

        auto_price = sols["auto"].price

        def full_minus_auto(training_rate: float) -> float:
            variant = replace(s, learning=replace(s.learning,
                                                  unit_training_cost=training_rate))
            return optimal_price(variant, "full").price - auto_price

        lo, hi = 50.0, 100.0
        while full_minus_auto(hi) < 0:
            hi *= 2
            assert hi < 1e7, "no break-even found"
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if full_minus_auto(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert math.isfinite(hi)
        assert full_minus_auto(lo) < 0 <= full_minus_auto(hi)
        assert hi - lo < 1.0


def test_criterion_12_determinism_and_round_trips(tmp_path):
    with _timer(12, 1.0, "identical config and seed give byte-identical outputs; "
                         "config and CSV round-trips are lossless"):
        s = default_scenario()
        cfg = tmp_path / "base.cfg"
        save_scenario(s, cfg)
        assert load_scenario(cfg) == s

        outputs = []
        for run in ("a", "b"):
            loaded = load_scenario(cfg)
            records = compare_models(loaded)
            swept = sweep(SweepSpec(param="beta", values=(0.5, 0.7, 0.9)), loaded)
            base = tmp_path / run
            base.mkdir()
            emit_report(records, "csv", base / "compare.csv")
            emit_report(swept, "csv", base / "sweep.csv")
            emit_report(swept, "svg", base / "sweep.svg")
            outputs.append(base)
        for name in ("compare.csv", "sweep.csv", "sweep.svg"):
            assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()

        emitted = read_kpi_csv(outputs[0] / "sweep.csv")
        original = sweep(SweepSpec(param="beta", values=(0.5, 0.7, 0.9)), s)
        for got, want in zip(emitted, original):
            for field in ("swept_value", "price", "cost", "profit", "fs_share"):
                # %.6f rounds to half a unit in the 6th decimal; a value whose
                # 7th decimal is 5 can land one ulp beyond that
                want_value = getattr(want, field)
                assert getattr(got, field) == pytest.approx(
                    want_value, abs=5e-7 + math.ulp(want_value))
        emit_report(emitted, "csv", tmp_path / "reemitted.csv")
        assert (tmp_path / "reemitted.csv").read_bytes() == (outputs[0] / "sweep.csv").read_bytes()
