"""Pricing of full-service repair contracts with optimized maintenance,
dynamic learning/forgetting and a customer-choice market model."""

from .costs import (
    CostBreakdown,
    OsCostMoments,
    contract_costs,
    maintenance_cost,
    os_cost_moments,
)
from .failure import (
    MaintenancePlan,
    aging_factor,
    brute_force_pm_count,
    expected_failures,
    internal_rate_series,
    optimal_pm_count,
    scaled_to_mean,
)
from .learning import (
    FsCostResult,
    InfeasibleTrainingError,
    LearningState,
    LfProblem,
    ReducedTerms,
    fs_cost_lf_derivative,
    learning_effect,
    lf_problem,
    reduced_terms,
    total_fs_cost,
)
from .pricing import (
    ConvergenceError,
    CostSide,
    InfeasiblePriceError,
    LfSolution,
    PricingSolution,
    disutility,
    optimal_price,
    optimize_lf,
    price_bounds,
    price_variants,
)
from .report import (
    KpiRecord,
    SweepSpec,
    compare_models,
    emit_report,
    read_kpi_csv,
    sweep,
)
from .scenario import (
    BASELINE_INTERNAL_SERIES,
    INTERNAL_RATE_TABLE_PATH,
    ConfigError,
    CostParams,
    FailureParams,
    LearningParams,
    MarketParams,
    PeriodGrid,
    PeriodValues,
    Scenario,
    ScenarioValidationError,
    Violation,
    default_scenario,
    load_internal_table,
    load_scenario,
    save_scenario,
    simulate_external_rates,
    validate_scenario,
)

__version__ = "0.1.0"
