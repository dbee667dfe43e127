"""Seeded Monte Carlo settlement engine.

Replays many delivery windows per trial: each window independently becomes an
event with probability p, capability is drawn from the window's bucket
distribution, and the window settles at the contracted size.  All randomness
comes from a counter-based generator addressed by (seed, purpose, flat draw
index), so every draw is fixed by the seed alone.  Profits, counts, CVaR
values and their standard errors are bit-identical for a given seed whatever
the chunking or the number of parallel streams.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import _kernels
from .contracts import cvar as analytic_cvar
from .contracts import expected_profit, tail_cutoff
from .distributions import (
    CurtailmentDistribution,
    EmpiricalDistribution,
    NormalDistribution,
    clipped_normal_transform,
)
from .errors import ModelConsistencyError
from .formatting import is_integer, sig9
from .program import ProgramTerms

EVENT_PURPOSE = 0
CAPABILITY_PURPOSE = 1

# Trials per work unit, a multiple of 4 so the generator's 4-word counter blocks
# align with chunks; each per-chunk table holds CHUNK_TRIALS x windows doubles.
CHUNK_TRIALS = 1024

# Rows per tail block.  Each group's tail terms are summed per block, in
# row-major order, and the block sums are reduced once at the end, so the
# CVaR adds the same values in the same order at any chunk size.  It divides
# CHUNK_TRIALS, so no block straddles two chunks.
TAIL_BLOCK_ROWS = 4

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
            if not (is_integer(value) and value >= 1):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not (is_integer(self.seed) and 0 <= self.seed < 2**64):
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
    value: float | None
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


def _tail_term(terms: ProgramTerms, contract_c, q):
    """The CVaR integrand pi_e*q - pi_p*(c - q) of a tail draw q."""
    return terms.pi_e * q - terms.pi_p * (contract_c - q)


def _repeated_sums(term: float, n: int) -> tuple[float, float]:
    """term and term**2, each added n times one by one, as np.bincount adds."""
    copies = np.full(n, term)
    keys = np.zeros(n, dtype=np.intp)
    return (
        float(np.bincount(keys, copies, 1)[0]),
        float(np.bincount(keys, copies * copies, 1)[0]),
    )


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

    Each group's cvar estimates the analytic cvar: its tail is every draw at
    or below the group's cutoff q_hat (clipped at zero, as draws are), so an
    atom on the cutoff counts in full, and the estimate is pi_r*c plus p times
    the mean of the tail terms pi_e*q - pi_p*(c - q), with standard error
    p*sqrt(var/tail_count).  var is exactly 0 when the group's smallest and
    largest tail terms are equal.  A group without tail draws reports None.

    A chunk draws both uniform tables in full but keeps only the event cells
    of the first, and transforms only the cells that need a capability
    value: the events, which settle, and the tail candidates, cells whose
    capability uniform lies below the group's _tail_level.  Single-point
    groups have no candidates; every draw is in their tail.  The cells of
    all normal groups with sigma > 0 go through one inverse-cdf call per
    chunk; the other groups transform their own cells.
    """
    plan = _normalize_plan(terms, capability, contracts, config, schedule)
    n_trials = config.n_trials
    windows = plan.windows
    groups = plan.groups
    n_groups = len(groups)

    col_group = np.empty(windows, dtype=np.min_scalar_type(n_groups))
    tail_u = np.zeros(windows)
    cutoffs = np.empty(n_groups)
    group_contracts = np.empty(n_groups)
    group_clip = np.zeros(n_groups)
    # Normal groups with sigma > 0: one transform call per chunk covers them all.
    batched = np.zeros(n_groups, dtype=bool)
    normal_mu = np.zeros(n_groups)
    normal_sigma = np.zeros(n_groups)
    # (group index, window count, tail term) of each point group
    point_tails = []
    for g, group in enumerate(groups):
        dist, cols = group.dist, group.columns
        col_group[cols] = g
        cutoffs[g] = tail_cutoff(terms, dist)
        group_contracts[g] = group.contract
        point = _point_value(dist)
        if point is None:
            tail_u[cols] = _tail_level(dist, cutoffs[g])
        else:  # the point is its own clipped cutoff
            point_tails.append((g, cols.size, _tail_term(terms, group.contract, point)))
        if isinstance(dist, NormalDistribution):
            dist.warn_clipped_mass(stacklevel=2)
            if dist.sigma > 0.0:
                group_clip[g] = dist.clipped_mass()
                batched[g] = True
                normal_mu[g], normal_sigma[g] = dist.mu, dist.sigma

    def run_chunk(row_start: int):
        n_rows = min(CHUNK_TRIALS, n_trials - row_start)
        event_cells = np.flatnonzero(
            _uniform_block(config.seed, EVENT_PURPOSE, windows, row_start, n_rows)
            < terms.p
        )
        u_cap = _uniform_block(
            config.seed, CAPABILITY_PURPOSE, windows, row_start, n_rows
        )
        tail_cells = np.flatnonzero(u_cap < tail_u)

        # Sort the cells by group, stably: each group's events come first,
        # then its tail candidates, each in row-major order.
        cells = np.concatenate((event_cells, tail_cells))
        cell_group = col_group[cells % windows]
        order = np.argsort(cell_group, kind="stable")
        cells, cell_group = cells[order], cell_group[order]
        is_event = order < event_cells.size
        u_cells = u_cap.reshape(-1)[cells]
        q_cells = np.empty_like(u_cells)
        normal = batched[cell_group]
        g = cell_group[normal]
        q_cells[normal] = clipped_normal_transform(
            normal_mu[g], normal_sigma[g], u_cells[normal]
        )
        start = 0
        ends = np.cumsum(np.bincount(cell_group, minlength=n_groups)).tolist()
        for group, end, in_batch in zip(groups, ends, batched.tolist()):
            if end > start and not in_batch:
                q_cells[start:end] = group.dist.transform_uniform(u_cells[start:end])
            start = end

        profit, events, shortfalls = _kernels.settle_trials(
            cells[is_event],
            q_cells[is_event],
            plan.contracts,
            n_rows,
            terms.pi_r,
            terms.pi_p,
            terms.pi_e,
        )

        candidate = ~is_event
        cand_group = cell_group[candidate]
        # Cutoffs are clipped at 0, so each clipped draw, u < F(0), lies below
        # its group's tail level: counting among the candidates counts them all.
        clip_count = int(np.count_nonzero(u_cells[candidate] < group_clip[cand_group]))
        cand_q = q_cells[candidate]
        in_tail = cand_q <= cutoffs[cand_group]
        tail_group = cand_group[in_tail]
        tail_terms = _tail_term(terms, group_contracts[tail_group], cand_q[in_tail])
        # Key block * n_groups + group: bincount adds each key's terms one by
        # one, in the row-major order the cells of a group are kept in.
        block = cells[candidate][in_tail] // (windows * TAIL_BLOCK_ROWS)
        keys = block * n_groups + tail_group
        full, rest = divmod(n_rows, TAIL_BLOCK_ROWS)
        size = (full + (rest > 0)) * n_groups
        sums = np.bincount(keys, tail_terms, size).reshape(-1, n_groups)
        sq_sums = np.bincount(keys, tail_terms * tail_terms, size).reshape(-1, n_groups)
        counts = np.bincount(tail_group, minlength=n_groups)
        # Each group's smallest and largest tail term; tail_group is sorted.
        lows = np.full(n_groups, np.inf)
        highs = np.full(n_groups, -np.inf)
        present = counts > 0
        starts = (np.cumsum(counts) - counts)[present]
        lows[present] = np.minimum.reduceat(tail_terms, starts)
        highs[present] = np.maximum.reduceat(tail_terms, starts)
        for g, width, term in point_tails:
            sums[:full, g], sq_sums[:full, g] = _repeated_sums(
                term, TAIL_BLOCK_ROWS * width
            )
            if rest:
                sums[full, g], sq_sums[full, g] = _repeated_sums(term, rest * width)
            counts[g] = n_rows * width
            lows[g] = highs[g] = term
        return profit, events, shortfalls, sums, sq_sums, counts, lows, highs, clip_count

    profits = np.empty(n_trials)
    event_counts = np.empty(n_trials, dtype=np.int64)
    shortfall_counts = np.empty(n_trials, dtype=np.int64)
    n_blocks = -(-n_trials // TAIL_BLOCK_ROWS)
    block_sums = np.zeros((n_blocks, n_groups))
    block_sq_sums = np.zeros((n_blocks, n_groups))
    tail_count = np.zeros(n_groups, dtype=np.int64)
    tail_low = np.full(n_groups, np.inf)
    tail_high = np.full(n_groups, -np.inf)
    clip_count = 0

    def fold(row_start: int, chunk_out) -> None:
        nonlocal clip_count
        profit, events, shortfalls, sums, sq_sums, counts, lows, highs, clipped = chunk_out
        n_rows = profit.size
        profits[row_start : row_start + n_rows] = profit
        event_counts[row_start : row_start + n_rows] = events
        shortfall_counts[row_start : row_start + n_rows] = shortfalls
        first = row_start // TAIL_BLOCK_ROWS
        block_sums[first : first + sums.shape[0]] = sums
        block_sq_sums[first : first + sums.shape[0]] = sq_sums
        tail_count[:] += counts
        np.minimum(tail_low, lows, out=tail_low)
        np.maximum(tail_high, highs, out=tail_high)
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
    for group, tail_sum, tail_sq_sum, n, constant in zip(
        groups,
        block_sums.sum(axis=0).tolist(),
        block_sq_sums.sum(axis=0).tolist(),
        tail_count.tolist(),
        (tail_low == tail_high).tolist(),
    ):
        value = se = None
        if n:
            mean = tail_sum / n
            value = float(terms.pi_r * group.contract + terms.p * mean)
            if n >= 2:
                var = 0.0 if constant else max(tail_sq_sum / n - mean * mean, 0.0)
                se = float(terms.p * math.sqrt(var / n))
        cvar_out[group.label] = CvarEstimate(
            value=value, standard_error=se, tail_count=n
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
    simulated: float | None
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
