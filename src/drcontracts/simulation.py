"""Seeded Monte Carlo settlement engine.

Replays many delivery windows per trial: each window independently becomes an
event with probability p, capability is drawn from the window's bucket
distribution, and the window settles at the contracted size.  All randomness
comes from a counter-based generator addressed by (seed, purpose, flat draw
index), so every draw is fixed by the seed alone.  Profits and event,
shortfall, clip and tail counts are bit-identical for a given seed whatever
the chunking or the number of parallel streams.  The CVaR values and their
standard errors do not depend on the stream count either, but they do depend
on CHUNK_TRIALS: each chunk's tail sum is added to the running total on its
own, so a different chunk size adds the same terms in a different grouping.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import _kernels
from .distributions import (
    CurtailmentDistribution,
    EmpiricalDistribution,
    NormalDistribution,
)
from .errors import ModelConsistencyError
from .formatting import sig9
from .program import ProgramTerms

EVENT_PURPOSE = 0
CAPABILITY_PURPOSE = 1

# Trials per work unit; a multiple of 4 keeps the 4-word counter blocks of the
# generator aligned with chunk boundaries for any window count.
CHUNK_TRIALS = 4096

DEFAULT_WINDOWS_PER_HORIZON = 720


@dataclass(frozen=True)
class SimulationConfig:
    n_trials: int
    windows_per_horizon: int = DEFAULT_WINDOWS_PER_HORIZON
    seed: int = 0
    parallel_streams: int = 1

    def __post_init__(self) -> None:
        for name in ("n_trials", "windows_per_horizon", "parallel_streams"):
            value = getattr(self, name)
            if int(value) != value or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if int(self.seed) != self.seed or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


def _uniform_block(
    seed: int, purpose: int, n_cols: int, row_start: int, n_rows: int
) -> np.ndarray:
    """Uniforms for rows [row_start, row_start + n_rows) of an (n, n_cols) table."""
    flat_start = row_start * n_cols
    if flat_start % 4:
        raise ValueError("row_start * n_cols must be a multiple of 4")
    bits = np.random.Philox(
        key=np.array([seed, purpose], dtype=np.uint64),
        counter=np.array([flat_start // 4, 0, 0, 0], dtype=np.uint64),
    )
    return np.random.Generator(bits).random((n_rows, n_cols))


@dataclass(frozen=True)
class _WindowGroup:
    label: str
    dist: CurtailmentDistribution
    contract: float
    columns: np.ndarray  # window indices using this bucket


@dataclass(frozen=True)
class _Plan:
    groups: tuple[_WindowGroup, ...]
    contracts: np.ndarray  # (windows,)
    windows: int


def _key_label(key) -> str:
    return key.label if hasattr(key, "label") else str(key)


def _normalize_plan(
    terms: ProgramTerms,
    capability,
    contracts,
    config: SimulationConfig,
    schedule: Sequence | None,
) -> _Plan:
    if isinstance(capability, (EmpiricalDistribution, NormalDistribution)):
        cap_map = {"all": capability}
        if isinstance(contracts, Mapping):
            raise ModelConsistencyError(
                "single capability distribution takes a single contract size"
            )
        contract_map = {"all": float(contracts)}
        if schedule is not None:
            raise ModelConsistencyError("schedule requires a bucket-distribution map")
    else:
        cap_map = dict(capability)
        if not cap_map:
            raise ModelConsistencyError("capability map is empty")
        if isinstance(contracts, Mapping):
            contract_map = {k: float(v) for k, v in contracts.items()}
            missing = sorted(_key_label(k) for k in cap_map if k not in contract_map)
            extra = sorted(_key_label(k) for k in contract_map if k not in cap_map)
            if missing or extra:
                raise ModelConsistencyError(
                    f"contract/bucket key mismatch: missing contracts for {missing}, "
                    f"contracts without buckets {extra}"
                )
        else:
            contract_map = {k: float(contracts) for k in cap_map}

    for key, value in contract_map.items():
        if not (math.isfinite(value) and 0.0 <= value <= terms.contract_cap):
            raise ValueError(
                f"contract for {_key_label(key)} must lie in [0, {terms.contract_cap:g}], "
                f"got {value!r}"
            )

    if schedule is None:
        keys = sorted(cap_map)
        windows = config.windows_per_horizon
        ordered = [keys[i % len(keys)] for i in range(windows)]
    else:
        ordered = list(schedule)
        if not ordered:
            raise ModelConsistencyError("schedule is empty")
        unknown = sorted({_key_label(k) for k in ordered if k not in cap_map})
        if unknown:
            raise ModelConsistencyError(f"schedule references unknown buckets {unknown}")
        windows = len(ordered)

    labels_seen: dict[str, object] = {}
    columns: dict = {}
    for idx, key in enumerate(ordered):
        columns.setdefault(key, []).append(idx)
    groups = []
    contracts_vec = np.empty(windows)
    for key in sorted(columns, key=_key_label):
        label = _key_label(key)
        if label in labels_seen:
            raise ValueError(f"duplicate bucket label {label!r}")
        labels_seen[label] = key
        cols = np.asarray(columns[key], dtype=np.intp)
        contracts_vec[cols] = contract_map[key]
        groups.append(
            _WindowGroup(
                label=label,
                dist=cap_map[key],
                contract=contract_map[key],
                columns=cols,
            )
        )
    return _Plan(groups=tuple(groups), contracts=contracts_vec, windows=windows)


@dataclass(frozen=True)
class CvarEstimate:
    value: float
    standard_error: float | None
    tail_count: int


@dataclass(frozen=True)
class SimulationResult:
    profits: np.ndarray
    mean: float
    standard_error: float
    cvar: dict[str, CvarEstimate]
    event_total: int
    event_mean_per_trial: float
    shortfall_total: int
    shortfall_frequency: float
    clip_count: int
    clip_fraction: float
    n_trials: int
    windows: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "n_trials": self.n_trials,
            "windows": self.windows,
            "seed": self.seed,
            # Kept for the readers of report.json, the benchmark among them.
            "backend": "python",
            "mean_profit": self.mean,
            "standard_error": self.standard_error,
            "cvar": {
                label: {
                    "value": est.value,
                    "standard_error": est.standard_error,
                    "tail_count": est.tail_count,
                }
                for label, est in sorted(self.cvar.items())
            },
            "events": {
                "total": self.event_total,
                "mean_per_trial": self.event_mean_per_trial,
            },
            "shortfalls": {
                "total": self.shortfall_total,
                "frequency_per_window": self.shortfall_frequency,
            },
            "clipped_draws": {
                "count": self.clip_count,
                "fraction": self.clip_fraction,
            },
        }


def write_profits_csv(path, result: SimulationResult) -> None:
    with Path(path).open("w", newline="") as handle:
        handle.write("trial,profit\n")
        for trial, profit in enumerate(result.profits.tolist()):
            handle.write(f"{trial},{sig9(profit)}\n")


def _event_branch_settlement(
    terms: ProgramTerms, contract_c: float | np.ndarray, q: np.ndarray
) -> np.ndarray:
    delivered = np.minimum(q, contract_c)
    return terms.pi_e * delivered - terms.pi_p * (contract_c - delivered)


def _cvar_from_tail_sum(
    terms: ProgramTerms, contract_c: float, tail_sum: float, n_total: int
) -> float:
    return float(
        terms.pi_r * contract_c + (terms.p / terms.tail_mass) * tail_sum / n_total
    )


def _cvar_tail_value(
    terms: ProgramTerms, contract_c: float, tail: np.ndarray, n_total: int
) -> float:
    tail_sum = float(_event_branch_settlement(terms, contract_c, tail).sum())
    return _cvar_from_tail_sum(terms, contract_c, tail_sum, n_total)


def tail_size(n_draws: int, c_hat: float) -> int:
    return max(1, int(math.floor((1.0 - c_hat) * n_draws)))


def empirical_cvar(terms: ProgramTerms, contract_c: float, q_draws) -> float:
    """Plug-in tail estimate of the analytic cvar from capability draws.

    Averages the event-branch settlement over the lowest (1 - c_hat) tail of
    the draws, normalized by the full draw count, so it converges to the
    analytic cvar(terms, dist, c) as draws accumulate.
    """
    draws = np.asarray(q_draws, dtype=float).ravel()
    needed = math.ceil(1.0 / terms.tail_mass)
    if draws.size < needed:
        raise ValueError(
            f"need at least {needed} draws for the {terms.c_hat:g}-level tail, "
            f"got {draws.size}"
        )
    if contract_c < 0.0:
        raise ValueError("contract size must be >= 0")
    k = tail_size(draws.size, terms.c_hat)
    tail = np.partition(draws, k - 1)[:k]
    return _cvar_tail_value(terms, contract_c, tail, draws.size)


# Uniform-level margin of the CVaR tail prefilter; see _tail_level.
_TAIL_LEVEL_SLACK = 1e-6


def _point_value(dist: CurtailmentDistribution) -> float | None:
    """The one value dist.transform_uniform returns for every u, if there is one."""
    if isinstance(dist, NormalDistribution):
        return max(dist.mu, 0.0) if dist.sigma == 0.0 else None
    first, last = dist.samples[0], dist.samples[-1]
    return float(first) if first == last else None


def _tail_level(dist: CurtailmentDistribution, cutoff: float) -> float:
    """A uniform level from which on dist.transform_uniform(u) > cutoff.

    Each transform is nondecreasing in u, so the level is cdf(cutoff) plus a
    slack that absorbs rounding in the transform.  A normal whose sigma is
    tiny next to mu can round its whole inverse cdf flat onto the cutoff; the
    level is checked against the unclipped quantile, which is the transform's
    own formula, and widened to 1 (every cell a candidate) if the check fails.
    """
    level = min(float(dist.cdf(cutoff)) + _TAIL_LEVEL_SLACK, 1.0)
    if isinstance(dist, NormalDistribution):
        if cutoff < 0.0:  # draws are clipped at zero, so none reaches the tail
            return 0.0
        if level < 1.0 and not dist.quantile(level) > cutoff:
            return 1.0
    return level


def simulate_horizon(
    terms: ProgramTerms,
    capability,
    contracts,
    config: SimulationConfig,
    schedule: Sequence | None = None,
) -> SimulationResult:
    """Run the settlement Monte Carlo and summarize it.

    capability is either one distribution or a mapping of bucket key to
    distribution; contracts mirrors it (scalar or per-bucket mapping);
    schedule optionally assigns a bucket key to every window (its length then
    overrides config.windows_per_horizon).

    Each group's cvar is a running tail-integral estimate: every draw at or
    below the group's tail cutoff q_hat contributes its event-branch
    settlement, and the sum is normalized by tail_mass times the total draw
    count.  This targets the analytic cvar integral directly, so a
    distribution atom sitting on the tail boundary contributes its full mass,
    matching the analytic convention even for coarse empirical distributions
    (a "k smallest draws" tail would not).

    A chunk draws both uniform tables in full but transforms only the cells
    that need a capability value: the events, which settle, and the tail
    candidates, cells whose capability uniform lies below the group's
    _tail_level.  Single-point groups have no candidates; their tail is every
    draw of the chunk or none.  A group's tail draws are kept in the
    row-major order of the dense table, so its tail sums add the same values
    in the same order as a dense pass would.
    """
    plan = _normalize_plan(terms, capability, contracts, config, schedule)
    n_trials = config.n_trials
    windows = plan.windows
    groups = plan.groups
    n_groups = len(groups)

    col_group = np.empty(windows, dtype=np.min_scalar_type(n_groups))
    tail_u = np.zeros(windows)
    clip_u = np.zeros(windows)
    cutoffs = np.empty(n_groups)
    group_contracts = np.empty(n_groups)
    # (group index, window count, settlement) of each point group in its tail
    point_tails = []
    for g, group in enumerate(groups):
        cols = group.columns
        col_group[cols] = g
        cutoff = float(group.dist.quantile(terms.tail_mass))
        cutoffs[g] = cutoff
        group_contracts[g] = group.contract
        point = _point_value(group.dist)
        if point is None:
            tail_u[cols] = _tail_level(group.dist, cutoff)
        elif point <= cutoff:
            settled = _event_branch_settlement(terms, group.contract, np.array([point]))
            point_tails.append((g, cols.size, settled[0]))
        if isinstance(group.dist, NormalDistribution) and group.dist.sigma > 0.0:
            clip_u[cols] = group.dist.clipped_mass()
    clipping = bool(clip_u.any())

    def run_chunk(row_start: int):
        n_rows = min(CHUNK_TRIALS, n_trials - row_start)
        u_event = _uniform_block(
            config.seed, EVENT_PURPOSE, windows, row_start, n_rows
        )
        u_cap = _uniform_block(
            config.seed, CAPABILITY_PURPOSE, windows, row_start, n_rows
        )
        event_cells = np.flatnonzero(u_event < terms.p)
        tail_cells = np.flatnonzero(u_cap < tail_u)
        clip_count = int(np.count_nonzero(u_cap < clip_u)) if clipping else 0

        # Sort the cells by group, stably: each group's events come first,
        # then its tail candidates, each in row-major order.
        cells = np.concatenate((event_cells, tail_cells))
        cell_group = col_group[cells % windows]
        order = np.argsort(cell_group, kind="stable")
        cells, cell_group = cells[order], cell_group[order]
        is_event = order < event_cells.size
        u_cells = u_cap.reshape(-1)[cells]
        q_cells = np.empty_like(u_cells)
        start = 0
        ends = np.cumsum(np.bincount(cell_group, minlength=n_groups)).tolist()
        for group, end in zip(groups, ends):
            # Called for every group, even one with no cells, so a clipped
            # normal warns once per chunk however few cells it draws.
            q_cells[start:end] = group.dist.transform_uniform(u_cells[start:end])
            start = end

        # The kernel reads capability only at the events, so the event
        # values go into u_cap in place; its other cells keep their uniforms.
        u_cap.reshape(-1)[cells[is_event]] = q_cells[is_event]
        profit, events, shortfalls = _kernels.settle_trials(
            u_event,
            u_cap,
            plan.contracts,
            terms.pi_r,
            terms.pi_p,
            terms.pi_e,
            terms.p,
        )

        candidate = ~is_event
        cand_group = cell_group[candidate]
        cand_q = q_cells[candidate]
        in_tail = cand_q <= cutoffs[cand_group]
        tail_group = cand_group[in_tail]
        settled = _event_branch_settlement(
            terms, group_contracts[tail_group], cand_q[in_tail]
        )
        counts = np.bincount(tail_group, minlength=n_groups)
        sums = np.zeros(n_groups)
        sq_sums = np.zeros(n_groups)
        start = 0
        for g, end in enumerate(np.cumsum(counts).tolist()):
            if end > start:
                sums[g] = settled[start:end].sum()
                # Non-tail draws contribute 0, so the per-draw second moment
                # only needs the tail terms.
                sq_sums[g] = np.square(settled[start:end]).sum()
            start = end
        for g, width, value in point_tails:
            block = np.full(n_rows * width, value)
            sums[g] = block.sum()
            sq_sums[g] = np.square(block).sum()
            counts[g] = block.size
        return profit, events, shortfalls, sums, sq_sums, counts, clip_count

    profits = np.empty(n_trials)
    event_counts = np.empty(n_trials, dtype=np.int64)
    shortfall_counts = np.empty(n_trials, dtype=np.int64)
    tail_sum = np.zeros(n_groups)
    tail_sq_sum = np.zeros(n_groups)
    tail_count = np.zeros(n_groups, dtype=np.int64)
    clip_count = 0

    def fold(row_start: int, chunk_out) -> None:
        nonlocal clip_count
        profit, events, shortfalls, sums, sq_sums, counts, clipped = chunk_out
        n_rows = profit.size
        profits[row_start : row_start + n_rows] = profit
        event_counts[row_start : row_start + n_rows] = events
        shortfall_counts[row_start : row_start + n_rows] = shortfalls
        tail_sum[:] += sums
        tail_sq_sum[:] += sq_sums
        tail_count[:] += counts
        clip_count += clipped

    starts = list(range(0, n_trials, CHUNK_TRIALS))
    if config.parallel_streams > 1:
        with ThreadPoolExecutor(max_workers=config.parallel_streams) as pool:
            for row_start, chunk_out in zip(starts, pool.map(run_chunk, starts)):
                fold(row_start, chunk_out)
    else:
        for row_start in starts:
            fold(row_start, run_chunk(row_start))

    cvar_out = {}
    for group, group_sum, group_sq_sum, group_count in zip(
        groups, tail_sum.tolist(), tail_sq_sum.tolist(), tail_count.tolist()
    ):
        n_draws_total = n_trials * group.columns.size
        value = _cvar_from_tail_sum(terms, group.contract, group_sum, n_draws_total)
        if n_draws_total >= 2:
            # The estimate is a mean of iid per-draw terms (0 off the tail),
            # so its standard error follows from the per-draw moments.
            mean_h = group_sum / n_draws_total
            var_h = max(group_sq_sum / n_draws_total - mean_h * mean_h, 0.0)
            se = float(
                (terms.p / terms.tail_mass)
                * math.sqrt(var_h / n_draws_total)
            )
        else:
            se = None
        cvar_out[group.label] = CvarEstimate(
            value=value, standard_error=se, tail_count=group_count
        )

    total_windows = n_trials * windows
    mean = float(profits.mean())
    se_mean = float(profits.std(ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else 0.0
    return SimulationResult(
        profits=profits,
        mean=mean,
        standard_error=se_mean,
        cvar=cvar_out,
        event_total=int(event_counts.sum()),
        event_mean_per_trial=float(event_counts.mean()),
        shortfall_total=int(shortfall_counts.sum()),
        shortfall_frequency=float(shortfall_counts.sum() / total_windows),
        clip_count=clip_count,
        clip_fraction=clip_count / total_windows,
        n_trials=n_trials,
        windows=windows,
        seed=config.seed,
    )


def _strict_lower_probability(dist: CurtailmentDistribution, c: float) -> float:
    """P(q < c), the per-event shortfall probability at contract c."""
    if isinstance(dist, EmpiricalDistribution):
        return float(np.searchsorted(dist.samples, c, side="left") / dist.n)
    if dist.sigma == 0.0:
        return 1.0 if c > dist.mu else 0.0
    return float(dist.cdf(c))


@dataclass(frozen=True)
class GroupAnalytic:
    label: str
    windows: int
    contract: float
    expected_profit: float
    cvar_value: float
    shortfall_probability: float


@dataclass(frozen=True)
class AnalyticSummary:
    total_expected_profit: float
    expected_events_per_trial: float
    shortfall_probability: float
    groups: dict[str, GroupAnalytic]


def analytic_summary(
    terms: ProgramTerms,
    capability,
    contracts,
    config: SimulationConfig,
    schedule: Sequence | None = None,
) -> AnalyticSummary:
    """The analytic counterparts of everything the simulation measures."""
    from .contracts import cvar as analytic_cvar
    from .contracts import expected_profit

    plan = _normalize_plan(terms, capability, contracts, config, schedule)
    total = 0.0
    shortfall_prob_sum = 0.0
    groups = {}
    for group in plan.groups:
        per_window = float(expected_profit(terms, group.dist, group.contract))
        n_windows = int(group.columns.size)
        total += per_window * n_windows
        sf = terms.p * _strict_lower_probability(group.dist, group.contract)
        shortfall_prob_sum += sf * n_windows
        groups[group.label] = GroupAnalytic(
            label=group.label,
            windows=n_windows,
            contract=group.contract,
            expected_profit=per_window,
            cvar_value=float(analytic_cvar(terms, group.dist, group.contract)),
            shortfall_probability=sf,
        )
    return AnalyticSummary(
        total_expected_profit=total,
        expected_events_per_trial=terms.p * plan.windows,
        shortfall_probability=shortfall_prob_sum / plan.windows,
        groups=groups,
    )


@dataclass(frozen=True)
class ConvergenceRow:
    quantity: str
    simulated: float
    analytic: float
    standard_error: float | None

    @property
    def z_score(self) -> float | None:
        if not self.standard_error:
            return None
        return (self.simulated - self.analytic) / self.standard_error


def convergence_rows(
    result: SimulationResult, summary: AnalyticSummary
) -> list[ConvergenceRow]:
    """MC-vs-analytic comparison rows, in standard-error units."""
    rows = [
        ConvergenceRow(
            quantity="mean_profit",
            simulated=result.mean,
            analytic=summary.total_expected_profit,
            standard_error=result.standard_error or None,
        )
    ]
    for label in sorted(result.cvar):
        est = result.cvar[label]
        rows.append(
            ConvergenceRow(
                quantity=f"cvar[{label}]",
                simulated=est.value,
                analytic=summary.groups[label].cvar_value,
                standard_error=est.standard_error,
            )
        )
    total_windows = result.n_trials * result.windows
    p_sf = summary.shortfall_probability
    se_sf = math.sqrt(p_sf * (1.0 - p_sf) / total_windows) if 0.0 < p_sf < 1.0 else None
    rows.append(
        ConvergenceRow(
            quantity="shortfall_frequency",
            simulated=result.shortfall_frequency,
            analytic=p_sf,
            standard_error=se_sf,
        )
    )
    p_ev = summary.expected_events_per_trial / result.windows
    se_ev = (
        math.sqrt(p_ev * (1.0 - p_ev) / total_windows) if 0.0 < p_ev < 1.0 else None
    )
    rows.append(
        ConvergenceRow(
            quantity="event_frequency",
            simulated=result.event_total / total_windows,
            analytic=p_ev,
            standard_error=se_ev,
        )
    )
    return rows
