"""Incentive-based demand-response contract sizing and settlement.

The package covers the full workflow for a retailer offering curtailment
contracts against uncertain customer capability:

* :mod:`drcontracts.program` — program terms (rates, event probability,
  risk aversion, cap).
* :mod:`drcontracts.distributions` — empirical and normal capability
  models with the partial-expectation machinery the pricing formulas need,
  and the covariance model, keyed by asset id, that sums normal members.
* :mod:`drcontracts.contracts` — critical-fractile contract sizing,
  tail-risk valuation, and the quantile loss whose identity
  J(c) = (pi_r + p*pi_e)*mu - L(c) gives the optimal profit, its slope in
  a normal's spread and the gain from pooling in closed form.
* :mod:`drcontracts.estimation` — capability estimation from metered
  load via end-use decomposition and calendar bucketing.
* :mod:`drcontracts.aggregation` — multi-asset aggregation and partner
  ranking by complementarity and the normal theory's two profit deltas.
* :mod:`drcontracts.simulation` — counter-based Monte Carlo settlement
  with analytic cross-checks; ``drcontracts._kernels`` holds the
  settlement rule it applies to each window.
* :mod:`drcontracts.cli` — the ``drcontracts`` command-line pipeline.
"""

from .aggregation import (
    AssetPortfolio,
    ComparisonVerdict,
    PartnerRank,
    aggregate_distribution,
    aggregation_contract,
    complementarity,
    contract_comparison,
    member_contracts,
    member_sigmas,
    profit_delta_from_sigmas,
    profit_delta_normal,
    profit_delta_oracle,
    rank_partners,
    write_ranking_csv,
)
from .contracts import (
    ContractDecision,
    alpha_sweep,
    alpha_threshold,
    bracket_factor,
    cvar,
    expected_profit,
    gamma,
    gamma_hat,
    grid_search_optimal,
    objective,
    optimal_contract,
    optimal_profit_formula,
    quantile_argument,
    quantile_loss,
)
from .distributions import (
    ClippedMassWarning,
    CovarianceModel,
    EmpiricalDistribution,
    NormalDistribution,
    fit_normal,
    kolmogorov_distance,
    sum_empirical,
    sum_normal,
)
from .errors import (
    AlignmentError,
    DrContractsError,
    IllPosedProgramError,
    InputFormatError,
    ModelConsistencyError,
    UnconstrainedContractError,
)
from .estimation import (
    BucketKey,
    BuildingModel,
    BucketModel,
    CapabilityModel,
    CurtailableSeries,
    DayTable,
    EndUseShapes,
    EstimationConfig,
    LoadTable,
    build_capability_model,
    curtailable_series,
    decompose_load,
    read_load_csv,
    read_shapes_csv,
    restrict_to_common,
)
from .nnls import nnls
from .program import (
    DEFAULT_CVAR_LEVEL,
    DEFAULT_EVENT_PROBABILITY,
    ProgramTerms,
)
from .simulation import (
    CvarEstimate,
    SimulationConfig,
    SimulationResult,
    analytic_summary,
    convergence_rows,
    simulate_horizon,
    write_profits_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "AssetPortfolio",
    "BucketKey",
    "BucketModel",
    "BuildingModel",
    "CapabilityModel",
    "ClippedMassWarning",
    "ComparisonVerdict",
    "ContractDecision",
    "CovarianceModel",
    "CurtailableSeries",
    "CvarEstimate",
    "DEFAULT_CVAR_LEVEL",
    "DEFAULT_EVENT_PROBABILITY",
    "DayTable",
    "DrContractsError",
    "EmpiricalDistribution",
    "EndUseShapes",
    "EstimationConfig",
    "IllPosedProgramError",
    "InputFormatError",
    "LoadTable",
    "ModelConsistencyError",
    "NormalDistribution",
    "PartnerRank",
    "ProgramTerms",
    "SimulationConfig",
    "SimulationResult",
    "UnconstrainedContractError",
    "aggregate_distribution",
    "aggregation_contract",
    "alpha_sweep",
    "alpha_threshold",
    "analytic_summary",
    "bracket_factor",
    "build_capability_model",
    "complementarity",
    "contract_comparison",
    "convergence_rows",
    "curtailable_series",
    "cvar",
    "decompose_load",
    "expected_profit",
    "fit_normal",
    "gamma",
    "gamma_hat",
    "grid_search_optimal",
    "kolmogorov_distance",
    "member_contracts",
    "member_sigmas",
    "nnls",
    "objective",
    "optimal_contract",
    "optimal_profit_formula",
    "profit_delta_from_sigmas",
    "profit_delta_normal",
    "profit_delta_oracle",
    "quantile_argument",
    "quantile_loss",
    "rank_partners",
    "read_load_csv",
    "read_shapes_csv",
    "restrict_to_common",
    "simulate_horizon",
    "sum_empirical",
    "sum_normal",
    "write_profits_csv",
    "write_ranking_csv",
]
