"""Command-line pipeline driver.

Four subcommands mirror the workflow stages:

  estimate   load CSV + shapes CSV -> capability model JSON
  contract   capability model -> per-bucket contract schedule CSV
  aggregate  capability model -> partner ranking CSV
  simulate   capability model + contract schedule -> Monte Carlo report JSON

Every command is a pure function of (input files, config, seed): re-runs
write byte-identical output.  Exit codes: 0 success, 2 input error, 3
model-consistency error.  An output file that cannot be written is an
input error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aggregation import AssetPortfolio, PartnerRank, _score_pair, write_ranking_csv

# Not called here; bound only because perfbench/spans.py wraps these names
# (they go with ROADMAP item 1).
from .aggregation import (  # noqa: F401
    aggregate_distribution,
    complementarity,
    member_sigmas,
    profit_delta_from_sigmas,
    profit_delta_oracle,
)
from .contracts import (
    grid_search_optimal,
    optimal_contract,
)
from .errors import (
    AlignmentError,
    DrContractsError,
    InputFormatError,
    ModelConsistencyError,
    UnconstrainedContractError,
)
from .estimation import (
    BucketKey,
    BuildingModel,
    CapabilityModel,
    EstimationConfig,
    build_capability_model,
    model_json_text,
    read_load_csv,
    read_shapes_csv,
    restrict_to_common,
)
from .formatting import (
    flag,
    is_integer,
    parse_flag,
    read_csv_rows,
    read_json_block,
    roundtrip,
    sig9,
)
from .program import ProgramTerms
from .simulation import (
    SimulationConfig,
    analytic_summary,
    convergence_rows,
    simulate_horizon,
    write_profits_csv,
)

SCHEDULE_CSV_HEADER = [
    "month",
    "hour",
    "is_weekend",
    "psi",
    "c_star",
    "clipped",
    "expected_profit",
    "cvar",
    "objective",
]
# The grid-search oracle is emitted alongside the analytic optimum.
SCHEDULE_CSV_HEADER_FULL = SCHEDULE_CSV_HEADER + ["c_star_grid"]

ALPHA_SWEEP_HEADER = [
    "alpha",
    "total_c_star",
    "total_expected_profit",
    "total_objective",
    "zero_buckets",
]

_CONFIG_BLOCKS = {"terms", "estimation", "simulation", "paths"}
_PATH_KEYS = {"load_csv", "shapes_csv", "model", "contracts"}


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of the JSON config file."""

    terms: ProgramTerms | None
    estimation: EstimationConfig | None
    simulation_raw: dict | None
    paths: dict[str, Path]
    config_path: Path

    def require_terms(self) -> ProgramTerms:
        if self.terms is None:
            raise InputFormatError(f"{self.config_path}: missing 'terms' block")
        return self.terms

    def require_estimation(self) -> EstimationConfig:
        if self.estimation is None:
            raise InputFormatError(f"{self.config_path}: missing 'estimation' block")
        return self.estimation

    def simulation_config(self, seed_override: int | None) -> SimulationConfig:
        if self.simulation_raw is None:
            raise InputFormatError(f"{self.config_path}: missing 'simulation' block")
        raw = dict(self.simulation_raw)
        if seed_override is not None:
            raw["seed"] = seed_override
        return SimulationConfig(**raw)

    def path(self, key: str) -> Path:
        if key not in self.paths:
            raise InputFormatError(
                f"{self.config_path}: missing 'paths.{key}' entry"
            )
        return self.paths[key]


def load_run_config(path_text: str) -> RunConfig:
    path = Path(path_text)
    try:
        obj = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputFormatError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputFormatError(f"{path}: config must be a JSON object")
    unknown = set(obj) - _CONFIG_BLOCKS
    if unknown:
        raise InputFormatError(f"{path}: unknown config blocks {sorted(unknown)}")

    terms = estimation = simulation_raw = None
    try:
        if "terms" in obj:
            terms = ProgramTerms.from_json_dict(obj["terms"])
        if "estimation" in obj:
            estimation = read_json_block(
                EstimationConfig,
                "estimation",
                obj["estimation"],
                required=("curtailable_fraction", "curtailable_end_use"),
            )
        if "simulation" in obj:
            block = obj["simulation"]
            if isinstance(block, dict) and "parallel_streams" in block:
                # Ignored; an unknown key once the benchmark stops writing it (ROADMAP item 1).
                block = dict(block)
                streams = block.pop("parallel_streams")
                if not (is_integer(streams) and streams >= 1):
                    raise InputFormatError(
                        "simulation block: parallel_streams must be a positive integer, "
                        f"got {streams!r}"
                    )
            # The horizon is the contract schedule; its length fixes the windows.
            read_json_block(
                SimulationConfig, "simulation", block, exclude=("windows_per_horizon",)
            )
            simulation_raw = dict(block)
    except InputFormatError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc

    paths: dict[str, Path] = {}
    if "paths" in obj:
        block = obj["paths"]
        if not isinstance(block, dict):
            raise InputFormatError(f"{path}: paths block must be an object")
        unknown = set(block) - _PATH_KEYS
        if unknown:
            raise InputFormatError(f"{path}: unknown path keys {sorted(unknown)}")
        for key, value in block.items():
            if not isinstance(value, str) or not value:
                raise InputFormatError(f"{path}: paths.{key} must be a non-empty string")
            # Relative paths resolve against the config file's directory.
            paths[key] = (path.parent / value).resolve()

    return RunConfig(
        terms=terms,
        estimation=estimation,
        simulation_raw=simulation_raw,
        paths=paths,
        config_path=path,
    )


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def cmd_estimate(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    est = config.require_estimation()
    load_path = config.path("load_csv")
    shapes_path = config.path("shapes_csv")
    table = read_load_csv(load_path)
    shapes = read_shapes_csv(shapes_path, est.curtailable_end_use)
    model = build_capability_model(
        table, shapes, est, source_digest=_digest(load_path, shapes_path)
    )
    Path(args.out).write_text(model_json_text(model))

    total_kept = total_dropped = zero_sigma = 0
    distances = []
    for bid in sorted(model.buildings):
        bm = model.buildings[bid]
        kept = len(bm.buckets)
        dropped = len(bm.dropped_buckets)
        total_kept += kept
        total_dropped += dropped
        sigmas = [b.normal.sigma for b in bm.buckets.values()]
        zero_sigma += sum(1 for s in sigmas if s == 0.0)
        distances.extend(b.fit_distance for b in bm.buckets.values())
        print(
            f"{bid}: {kept} buckets ({dropped} dropped), "
            f"{bm.days_used} days used, {bm.skipped_days} skipped"
        )
    print(
        f"total: {total_kept} buckets kept, {total_dropped} dropped; "
        f"fit distance mean {np.mean(distances):.4g}, max {np.max(distances):.4g}"
    )
    if zero_sigma:
        print(f"warning: {zero_sigma} point-mass buckets (sigma = 0)")
    print(f"model written to {args.out}")
    return 0


def _schedule_rows(building: BuildingModel, terms: ProgramTerms):
    for key in building.sorted_keys():
        emp = building.buckets[key].empirical
        decision = optimal_contract(terms, emp)
        oracle = grid_search_optimal(terms, emp)
        yield key, emp, decision, oracle


def _write_schedule_csv(path, rows) -> None:
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SCHEDULE_CSV_HEADER_FULL)
        for key, _, decision, oracle in rows:
            writer.writerow(
                [
                    key.month,
                    key.hour,
                    flag(key.is_weekend),
                    sig9(decision.psi),
                    roundtrip(decision.c_star),
                    decision.clipped,
                    sig9(decision.expected_profit),
                    sig9(decision.cvar_value),
                    sig9(decision.objective_value),
                    sig9(oracle),
                ]
            )


def _parse_alpha_sweep(spec_text: str) -> np.ndarray:
    parts = spec_text.split(":")
    if len(parts) != 3:
        raise InputFormatError(
            f"--alpha-sweep expects a0:a1:n, got {spec_text!r}"
        )
    try:
        a0, a1 = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError:
        raise InputFormatError(
            f"--alpha-sweep expects numeric a0:a1:n, got {spec_text!r}"
        ) from None
    if n < 2 or not 0.0 <= a0 < a1 < math.inf:
        raise InputFormatError(
            f"--alpha-sweep needs finite 0 <= a0 < a1 and n >= 2, got {spec_text!r}"
        )
    return np.linspace(a0, a1, n)


def cmd_contract(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    terms = config.require_terms()
    alphas = _parse_alpha_sweep(args.alpha_sweep) if args.alpha_sweep else None
    building = CapabilityModel.load(config.path("model")).building(args.building)
    if not building.buckets:
        raise ModelConsistencyError(f"building {args.building!r} has no buckets")
    rows = list(_schedule_rows(building, terms))
    _write_schedule_csv(args.out, rows)

    weights = np.array([emp.n for _, emp, _, _ in rows], dtype=float)
    profits = np.array([d.expected_profit for _, _, d, _ in rows])
    c_stars = np.array([d.c_star for _, _, d, _ in rows])
    clipped = sum(1 for _, _, d, _ in rows if d.clipped != "none")
    print(
        f"{args.building}: {len(rows)} buckets; "
        f"window-weighted expected profit {np.average(profits, weights=weights):.6g} $/window; "
        f"mean c_star {np.average(c_stars, weights=weights):.6g} kWh; "
        f"{clipped} clipped"
    )
    print(f"schedule written to {args.out}")

    if alphas is not None:
        out = Path(args.out)
        sweep_path = out.with_name(out.stem + "_alpha_sweep.csv")
        emps = [emp for _, emp, _, _ in rows]
        with sweep_path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(ALPHA_SWEEP_HEADER)
            for alpha in alphas:
                swept = terms.with_alpha(float(alpha))
                decisions = [optimal_contract(swept, e) for e in emps]
                total_c = float(np.dot(weights, [d.c_star for d in decisions]))
                total_j = float(np.dot(weights, [d.expected_profit for d in decisions]))
                total_obj = float(np.dot(weights, [d.objective_value for d in decisions]))
                zero_buckets = sum(1 for d in decisions if d.c_star == 0.0)
                writer.writerow(
                    [
                        sig9(float(alpha)),
                        sig9(total_c),
                        sig9(total_j),
                        sig9(total_obj),
                        zero_buckets,
                    ]
                )
        print(f"alpha sweep written to {sweep_path}")
    return 0


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their mean rank."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    first = np.r_[True, ordered[1:] != ordered[:-1]]
    # Tie group g spans sorted positions bounds[g-1] .. bounds[g]-1.
    bounds = np.r_[np.flatnonzero(first), values.size]
    group = np.cumsum(first)
    ranks = np.empty(values.size)
    ranks[order] = 0.5 * (bounds[group - 1] + 1 + bounds[group])
    return ranks


def spearman_rho(x, y) -> float:
    """Spearman rank correlation: Pearson correlation of the average ranks.

    NaN when either input is constant, where the correlation is undefined.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.all(x == x[0]) or np.all(y == y[0]):
        return math.nan
    return float(np.corrcoef(_average_ranks(x), _average_ranks(y))[0, 1])


def cmd_aggregate(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    terms = config.require_terms()
    model = CapabilityModel.load(config.path("model"))
    base = model.building(args.base)
    if args.base in args.candidates:
        raise ModelConsistencyError(f"base {args.base!r} listed among candidates")
    repeated = sorted({c for c in args.candidates if args.candidates.count(c) > 1})
    if repeated:
        raise ModelConsistencyError(f"candidates listed more than once: {repeated}")

    # Distributions hash by identity, so each distinct bucket is decided once per call.
    decide = functools.cache(lambda dist: optimal_contract(terms, dist))
    ranks = []
    unalignable: list[str] = []
    for cand_id in args.candidates:
        cand = model.building(cand_id)
        # A series that keeps all its days comes back as itself, loaded buckets and all.
        base_shared, cand_shared = (
            s.buckets for s in restrict_to_common([base.series, cand.series])
        )
        scores = []
        weights = []
        for key in sorted(set(base.buckets) & set(cand.buckets)):
            if key not in base_shared or base_shared[key].n < 2:
                unalignable.append(f"{cand_id}:{key.label}")
                continue
            members = (("base", base_shared[key]), ("candidate", cand_shared[key]))
            pair = AssetPortfolio(members=members, terms=terms)
            scores.append(_score_pair(pair, [decide(emp) for _, emp in members]))
            weights.append(base_shared[key].n)
        if not scores:
            raise ModelConsistencyError(
                f"candidate {cand_id!r} has no alignable buckets with base {args.base!r}"
            )
        own = [cand.buckets[key].empirical for key in cand.sorted_keys()]
        profits = [decide(emp).expected_profit for emp in own]
        ranks.append(
            PartnerRank(
                cand_id,
                *(float(np.average(column, weights=weights)) for column in zip(*scores)),
                individual_profit=float(np.average(profits, weights=[emp.n for emp in own])),
            )
        )
    ranks.sort(key=lambda r: (-r.delta_sigma, r.candidate_id))
    write_ranking_csv(args.out, ranks)

    for rank in ranks:
        print(
            f"{rank.candidate_id}: delta_sigma {rank.delta_sigma:.6g} kWh, "
            f"delta_j_oracle {rank.delta_j_oracle:.6g} $/window"
        )
    if unalignable:
        print(f"unalignable buckets skipped: {', '.join(sorted(unalignable))}")
    if len(ranks) >= 2:
        rho = spearman_rho(
            [r.delta_sigma for r in ranks], [r.delta_j_oracle for r in ranks]
        )
        print(f"spearman(delta_sigma, delta_j_oracle) = {rho:.9g}")
    print(f"ranking written to {args.out}")
    return 0


def _read_contracts_csv(path: Path) -> dict[BucketKey, float]:
    contracts: dict[BucketKey, float] = {}

    def parse(row: list[str]) -> None:
        key = BucketKey(int(row[0]), int(row[1]), parse_flag(row[2]))
        c_star = float(row[4])
        if key in contracts:
            raise ValueError(f"duplicate bucket {key.label}")
        contracts[key] = c_star

    headers = (SCHEDULE_CSV_HEADER, SCHEDULE_CSV_HEADER_FULL)
    read_csv_rows(path, "contracts CSV", headers, parse)
    return contracts


def cmd_simulate(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    terms = config.require_terms()
    sim_config = config.simulation_config(args.seed)
    model = CapabilityModel.load(config.path("model"))
    building = model.building(args.building)
    contracts = _read_contracts_csv(config.path("contracts"))

    bucket_keys = set(building.buckets)
    contract_keys = set(contracts)
    missing = sorted(k.label for k in contract_keys - bucket_keys)
    extra = sorted(k.label for k in bucket_keys - contract_keys)
    if missing or extra:
        raise ModelConsistencyError(
            f"contract schedule does not match building {args.building!r}: "
            f"contracts without buckets {missing}, buckets without contracts {extra}"
        )

    capability = {
        key: building.buckets[key].empirical for key in building.sorted_keys()
    }
    # Replay the historical bucket structure: each bucket contributes as many
    # windows as it has samples.
    schedule = [
        key for key in building.sorted_keys() for _ in range(capability[key].n)
    ]
    result = simulate_horizon(terms, capability, contracts, sim_config, schedule)
    summary = analytic_summary(terms, capability, contracts, sim_config, schedule)
    rows = convergence_rows(result, summary)

    payload = {
        "result": result.to_json_dict(),
        "analytic": {
            "total_expected_profit": summary.total_expected_profit,
            "expected_events_per_trial": summary.expected_events_per_trial,
            "shortfall_probability": summary.shortfall_probability,
            "groups": {
                label: {
                    "windows": g.windows,
                    "contract": g.contract,
                    "expected_profit": g.expected_profit,
                    "cvar": g.cvar_value,
                    "shortfall_probability": g.shortfall_probability,
                }
                for label, g in sorted(summary.groups.items())
            },
        },
        "convergence": [
            {
                "quantity": row.quantity,
                "simulated": row.simulated,
                "analytic": row.analytic,
                "standard_error": row.standard_error,
                "z_score": row.z_score,
            }
            for row in rows
        ],
    }
    # The report goes last, so a failed profits write leaves no report behind.
    if args.profits_csv:
        write_profits_csv(args.profits_csv, result)
    Path(args.out).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")

    print(f"{'quantity':<28} {'simulated':>14} {'analytic':>14} {'z':>8}")
    worst = 0.0
    for row in rows:
        z = row.z_score
        z_text = f"{z:8.2f}" if z is not None else "     n/a"
        sim = row.simulated
        sim_text = f"{sim:14.6g}" if sim is not None else f"{'n/a':>14}"
        print(f"{row.quantity:<28} {sim_text} {row.analytic:>14.6g} {z_text}")
        if z is not None:
            worst = max(worst, abs(z))
    print(f"max |z| = {worst:.2f} over {result.n_trials} trials x {result.windows} windows")
    if args.profits_csv:
        print(f"per-trial profits written to {args.profits_csv}")
    print(f"report written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drcontracts",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", required=True, help="output file path")

    p_est = sub.add_parser(
        "estimate",
        help="build the capability model from metered load data",
        description=(
            "Reads paths.load_csv (header: timestamp,building_id,load_kwh; ISO "
            "hourly timestamps) and paths.shapes_csv (header: end_use,day_type,"
            "hour,weight; day_type in weekday/weekend/all), decomposes each "
            "complete day by non-negative least squares, scales the curtailable "
            "end use by estimation.curtailable_fraction, pools hourly estimates "
            "into (month, hour, weekday/weekend) buckets and writes the "
            "capability model JSON to --out."
        ),
    )
    common(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_con = sub.add_parser(
        "contract",
        help="size optimal contracts per bucket",
        description=(
            "Writes one row per bucket of --building: month,hour,is_weekend,"
            "psi,c_star,clipped,expected_profit,cvar,objective,c_star_grid "
            "(the last column is the brute-force grid oracle). --alpha-sweep "
            "a0:a1:n additionally writes <out>_alpha_sweep.csv with "
            "window-count-weighted totals per risk-aversion value."
        ),
    )
    common(p_con)
    p_con.add_argument("--building", required=True, help="building id in the model")
    p_con.add_argument(
        "--alpha-sweep",
        default=None,
        metavar="A0:A1:N",
        help="emit totals for N alpha values from A0 to A1",
    )
    p_con.set_defaults(func=cmd_contract)

    p_agg = sub.add_parser(
        "aggregate",
        help="rank aggregation partners for a base building",
        description=(
            "For each candidate, restricts every shared bucket to the "
            "days both buildings observed, evaluates the complementarity "
            "delta_sigma and the aggregation profit delta per window, and "
            "writes the ranking CSV: candidate_id,delta_sigma,delta_j_oracle,"
            "delta_j_printed,delta_j_cancelled,individual_profit.  Metrics are "
            "window-count-weighted means over the alignable buckets."
        ),
    )
    common(p_agg)
    p_agg.add_argument("--base", required=True, help="base building id")
    p_agg.add_argument(
        "--candidates", required=True, nargs="+", help="candidate building ids"
    )
    p_agg.set_defaults(func=cmd_aggregate)

    p_sim = sub.add_parser(
        "simulate",
        help="Monte Carlo settlement of a contract schedule",
        description=(
            "Replays the building's historical bucket structure (each bucket "
            "contributes as many windows as it has samples) for "
            "simulation.n_trials trials using the contract sizes from "
            "paths.contracts, and writes a JSON report with MC-vs-analytic "
            "convergence rows in standard-error units."
        ),
    )
    common(p_sim)
    p_sim.add_argument("--building", required=True, help="building id in the model")
    p_sim.add_argument("--seed", type=int, default=None, help="override the configured seed")
    p_sim.add_argument(
        "--profits-csv", default=None, help="also write per-trial profits (trial,profit)"
    )
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ModelConsistencyError, AlignmentError, UnconstrainedContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DrContractsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
