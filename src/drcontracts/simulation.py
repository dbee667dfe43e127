"""Seeded Monte Carlo settlement engine.

Each trial replays a horizon of delivery windows.  A window is an event with
probability p; at an event, capability is drawn from the window's bucket
distribution and the window settles at its contracted size.  Each bucket's
CVaR is estimated apart from the events, from draws of its lower tail.

The engine draws only the cells these estimators read.  Trials come in blocks
of BLOCK_TRIALS, and each (seed, purpose, block) has its own counter-based
Philox stream (Salmon et al., SC'11) with the block in a high counter word, so
every draw is fixed by the seed.  A block draws its event cells by unit-rate
exponential arrivals over its row-major cells, each of hazard -ln(1 - p): a
cell is an event when an arrival falls in it, with probability p,
independently, so the gaps are geometric skips over a Bernoulli sequence
(Devroye, Non-Uniform Random Variate Generation, 1986).  Each event cell takes
one capability uniform.  The same arrivals, over the cells of every group that
is not a point mass in group order, draw the tail cells at the
piecewise-constant rate tau_g = F_g(q_hat_g), and each tail cell takes one
uniform U and the draw F_g^-1(U*tau_g), which follows the law of q given
q <= q_hat_g.  Every draw of a point mass is its one value, which is its own
clipped cutoff, so its CVaR is exact and takes no draws.  Profits, counts,
CVaR values and their standard errors are bit-identical for a given seed
whatever the chunking.

A call builds one Philox generator per purpose and moves it from block to
block by setting its counter, which gives the draws of a generator built on
that block's stream.  A chunk holds blocks of one size: up to CHUNK_TRIALS
trials of full blocks, or the horizon's short last block alone.  It draws its
blocks' gaps as the rows of one array, sums them in one cumsum and maps the
arrivals of all its blocks to cells in one vectorized pass; one settlement
call and one tail transform then cover the chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import _kernels
from .contracts import _profit, _tail_profit, sorted_below, sorted_tail_cutoff
from .distributions import (
    CLIPPED_MASS_WARN,
    CurtailmentDistribution,
    EmpiricalDistribution,
    NormalDistribution,
    clipped_normal_transform,
    normal_below,
    prefix_sums,
    standard_normal_cdf,
    standard_normal_quantile,
)
from .errors import ModelConsistencyError
from .formatting import is_integer, sig9
from .program import ProgramTerms

EVENT_PURPOSE = 0  # arrivals that mark the event cells
CAPABILITY_PURPOSE = 1  # one uniform per event cell
TAIL_PURPOSE = 2  # arrivals that mark the tail cells
TAIL_VALUE_PURPOSE = 3  # one uniform per tail cell

# Trials per draw block, the unit of the random streams and of the CVaR sums:
# each group's tail terms are summed per block and the block sums reduced once
# at the end, so no output depends on how blocks are grouped into chunks.
BLOCK_TRIALS = 64

# Trials per work unit, one settlement call.  A multiple of BLOCK_TRIALS, so
# no block straddles two chunks.
CHUNK_TRIALS = 1024

DEFAULT_WINDOWS_PER_HORIZON = 720


@dataclass(frozen=True)
class SimulationConfig:
    n_trials: int
    windows_per_horizon: int = DEFAULT_WINDOWS_PER_HORIZON
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_trials", "windows_per_horizon"):
            value = getattr(self, name)
            if not (is_integer(value) and value >= 1):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not (is_integer(self.seed) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


class _Stream:
    """The Philox generator of one (seed, purpose), moved from block to block.

    at(block) sets the counter to (0, 0, 0, block) and empties the buffer,
    the state a generator built on that counter starts in, so the draws that
    follow are the (seed, purpose, block) stream's, whatever was drawn before.
    """

    def __init__(self, seed: int, purpose: int) -> None:
        key = np.array([seed, purpose], dtype=np.uint64)
        self._bits = np.random.Philox(key=key, counter=np.zeros(4, dtype=np.uint64))
        self._gen = np.random.Generator(self._bits)
        # The state as plain ints, which the setter reads faster than arrays.
        self._state = self._bits.state
        self._state["state"] = {name: words.tolist() for name, words in self._state["state"].items()}
        self._state["buffer"] = self._state["buffer"].tolist()

    def at(self, block: int) -> np.random.Generator:
        self._state["state"]["counter"][3] = block
        self._bits.state = self._state
        return self._gen


def _gap_batch(total: float) -> int:
    """Gaps to draw for the arrivals on [0, total): their mean count plus three
    standard deviations, so about one block in 700 draws again.

    Timed over 4,800 blocks at the fixtures' two totals (391 and 1900), a
    margin of 2.5 to 4 standard deviations cost the least per block: fewer
    gaps pay for more refills, each of which redraws its row.
    """
    return int(total + 3.0 * math.sqrt(total)) + 1


def _arrivals(stream: _Stream, blocks: range, total: float) -> tuple[np.ndarray, np.ndarray]:
    """The points of each block's unit-rate Poisson process on [0, total).

    Returns (block, point), ascending by block and by point in each block,
    the block counted from blocks.start.  Each block's gaps fill one row and
    their running sums come from one cumsum over the rows; a block whose
    row ends short of total draws again, with more gaps.  NumPy's exponential
    stream, and so each running sum, is the same however the gaps are split
    into batches.
    """
    if not total > 0.0:
        return np.empty(0, dtype=np.intp), np.empty(0)
    points = np.empty((len(blocks), _gap_batch(total)))
    for row, block in zip(points, blocks):
        stream.at(block).standard_exponential(out=row)
    np.cumsum(points, axis=1, out=points)
    for i in np.flatnonzero(points[:, -1] < total):
        gen = stream.at(blocks[i])
        row = np.cumsum(gen.standard_exponential(points.shape[1]))
        while row[-1] < total:
            more = gen.standard_exponential(_gap_batch(total - row[-1]))
            more[0] += row[-1]
            row = np.concatenate((row, np.cumsum(more)))
        if row.size > points.shape[1]:
            points = np.pad(points, ((0, 0), (0, row.size - points.shape[1])), constant_values=np.inf)
        points[i, : row.size] = row
    # Each row's points below total are a prefix of it: argmin counts them.
    inside = points < total
    return np.repeat(np.arange(len(blocks)), inside.argmin(axis=1)), points[inside]


class _Cells:
    """Segments of cells laid end to end, each cell hit with its segment's rate.

    Segment s holds lengths[s] cells, numbered across segments, of hazard
    h_s = -ln(1 - rates[s]) each.  An arrival at x in the segment that spans
    [start_s, start_s + lengths[s]*h_s) of the hazard axis falls in its cell
    floor((x - start_s) / h_s), so each cell is hit with its rate,
    independently of every other.  A segment of rate 1 takes no span, and
    every one of its cells is hit.
    """

    def __init__(self, rates: np.ndarray, lengths: np.ndarray) -> None:
        with np.errstate(divide="ignore"):
            self.hazards = -np.log1p(-rates)
        finite = np.isfinite(self.hazards)
        spans = np.where(finite, self.hazards * lengths, 0.0)
        self.ends = np.cumsum(spans)
        self.starts = np.concatenate(([0.0], self.ends[:-1]))
        self.offsets = np.cumsum(lengths) - lengths
        self.lengths = lengths
        self.last = lengths - 1
        self.size = int(lengths.sum())
        self.every = np.flatnonzero(np.repeat(~finite, lengths))

    def hits(self, stream: _Stream, blocks: range) -> tuple[np.ndarray, ...]:
        """The cells that each block's arrivals fall in, ascending.

        Returns (block, segment, cell) per hit cell, the block counted from
        blocks.start and block b's cells numbered from b * size.  Every
        block's arrivals are mapped in one pass.
        """
        block, x = _arrivals(stream, blocks, float(self.ends[-1]) if self.ends.size else 0.0)
        seg = np.searchsorted(self.ends, x, side="right")
        x -= self.starts[seg]
        x /= self.hazards[seg]
        cells = x.astype(np.int64)
        np.minimum(cells, self.last[seg], out=cells)
        cells += self.offsets[seg]
        cells += block * self.size
        first = np.ones(cells.size, dtype=bool)
        np.not_equal(cells[1:], cells[:-1], out=first[1:])
        if not self.every.size:
            return block[first], seg[first], cells[first]
        every = np.arange(len(blocks))[:, None] * self.size + self.every
        cells = np.union1d(cells[first], every)
        block = cells // self.size
        seg = np.searchsorted(self.offsets + self.lengths, cells - block * self.size, side="right")
        return block, seg, cells


@dataclass(frozen=True)
class _Plan:
    """The buckets in use, one entry per group in label order, and each
    window's group."""

    labels: list[str]
    dists: list[CurtailmentDistribution]
    contracts: np.ndarray  # (groups,) contracted size of each group
    widths: np.ndarray  # (groups,) windows of each group
    col_group: np.ndarray  # (windows,) group index of each window


def _key_label(key) -> str:
    label = getattr(key, "label", None)
    return str(key) if label is None else label


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

    # The keys in use, in order of first use, and each window's index into them.
    if schedule is None:
        windows = config.windows_per_horizon
        used = sorted(cap_map)[:windows]
        codes = np.arange(windows) % len(used)
    else:
        ordered = list(schedule)
        if not ordered:
            raise ModelConsistencyError("schedule is empty")
        windows = len(ordered)
        # One key lookup per run of one key object.
        starts = [0] + [i for i in range(1, windows) if ordered[i] is not ordered[i - 1]]
        index: dict = {}
        run_codes = [index.setdefault(ordered[i], len(index)) for i in starts]
        used = list(index)
        unknown = sorted({_key_label(k) for k in used if k not in cap_map})
        if unknown:
            raise ModelConsistencyError(f"schedule references unknown buckets {unknown}")
        codes = np.repeat(run_codes, np.diff(starts + [windows]))

    labels = [_key_label(key) for key in used]
    order = sorted(range(len(used)), key=labels.__getitem__)
    for a, b in zip(order, order[1:]):
        if labels[a] == labels[b]:
            raise ValueError(f"duplicate bucket label {labels[a]!r}")
    rank = np.empty(len(used), dtype=np.intp)
    rank[order] = np.arange(len(used))
    col_group = rank[codes]
    return _Plan(
        labels=[labels[k] for k in order],
        dists=[cap_map[used[k]] for k in order],
        contracts=np.array([contract_map[used[k]] for k in order]),
        widths=np.bincount(col_group),
        col_group=col_group,
    )


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


class _Laws:
    """The groups' laws, for vectorized draws over the cells of any groups.

    A normal with sigma > 0 transforms its uniforms; every other group draws
    from sorted values, its samples or a point normal's one value clipped at
    zero.  A group that is not a point mass draws its tail at the rate
    tau = F(q_hat), q_hat its clipped cutoff.  The normals' cutoffs, rates
    and clipped masses are computed as arrays from one Phi^-1(tail_mass);
    the array paths of `distributions` give the bits of the scalar ones.
    The rows of each sorted block of stacks give the cutoff, the tail size k
    of values at or below it, tau = k/n and the point masses with the bits of
    each group's own distribution.
    """

    def __init__(self, terms: ProgramTerms, dists: Sequence[CurtailmentDistribution]):
        is_normal = [isinstance(d, NormalDistribution) for d in dists]
        self.mu = np.array([d.mu if n else 0.0 for d, n in zip(dists, is_normal)])
        self.sigma = np.array([d.sigma if n else 0.0 for d, n in zip(dists, is_normal)])
        self.normal = spread = self.sigma > 0.0
        mu, sigma = self.mu[spread], self.sigma[spread]
        # Each normal's cutoff, tail_cutoff's max(quantile(tail_mass), 0.0).
        quantile = self.mu.copy()
        quantile[spread] += sigma * standard_normal_quantile(terms.tail_mass)
        self.cutoffs = np.where(0.0 > quantile, 0.0, quantile)
        self.tau = np.ones(len(dists))
        self.tau[spread] = standard_normal_cdf((self.cutoffs[spread] - mu) / sigma)
        # A normal's mass below zero; a point normal below zero is all clipped.
        self.clip = np.where(self.mu < 0.0, 1.0, 0.0)
        self.clip[spread] = standard_normal_cdf(-mu / sigma)

        # Every other group draws from sorted values, its samples or a point
        # normal's one value, all copied once into samples, ordered by size:
        # group g's sizes[g] values start at offsets[g], and the groups of
        # one size are the rows of one block of stacks, a view of samples.
        by_size: dict[int, tuple[list[int], list[np.ndarray]]] = {}
        for g, (dist, n, s) in enumerate(zip(dists, is_normal, spread.tolist())):
            if not s:
                values = np.array([max(dist.mu, 0.0)]) if n else dist.samples
                members, tables = by_size.setdefault(values.size, ([], []))
                members.append(g)
                tables.append(values)
        self.samples = np.concatenate([t for _, tables in by_size.values() for t in tables] or [[]])
        self.sizes, self.offsets, self.tail_sizes = np.zeros((3, len(dists)), dtype=np.int64)
        # The one value of each point mass, None for every other group.
        self.points: list[float | None] = [None] * len(dists)
        self.stacks: list[tuple[np.ndarray, np.ndarray]] = []
        start = 0
        for n, (members, _) in by_size.items():
            groups, rows = np.array(members), len(members)
            block = self.samples[start:start + rows * n].reshape(rows, n)
            self.stacks.append((groups, block))
            self.cutoffs[groups] = q = sorted_tail_cutoff(terms, block)
            self.tail_sizes[groups] = k = np.count_nonzero(block <= q[:, None], axis=1)
            point = block[:, 0] == block[:, -1]
            self.tau[groups[~point]] = k[~point] / n
            self.sizes[groups], self.offsets[groups] = n, start + n * np.arange(rows)
            start += block.size
            for g, value in zip(groups[point].tolist(), block[point, 0].tolist()):
                self.points[g] = value
        # A normal's tail uniform is U*tau; a sample group draws from its
        # tail_sizes[g] values at or below the cutoff.
        self.tail_scale = np.where(spread, self.tau, 1.0)

    def draw(self, group: np.ndarray, u: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Draws at uniforms u; a sample group's is sample min(floor(u*size), size - 1).

        With sizes=self.sizes these are bit for bit each group's transform_uniform.
        """
        normal = self.normal[group]
        if normal.all():
            return clipped_normal_transform(self.mu[group], self.sigma[group], u)
        if not normal.any():
            return self._sample(group, u, sizes)
        q = np.empty_like(u)
        at = np.flatnonzero(normal)
        g = group[at]
        q[at] = clipped_normal_transform(self.mu[g], self.sigma[g], u[at])
        at = np.flatnonzero(~normal)
        q[at] = self._sample(group[at], u[at], sizes)
        return q

    def _sample(self, group: np.ndarray, u: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        size = sizes[group]
        index = np.minimum((u * size).astype(np.int64), size - 1)
        return self.samples[self.offsets[group] + index]

    def tail(self, group: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tail draws at uniforms u, each at most its cutoff, and which are clipped.

        A normal draws F^-1(u*tau), clipped at zero and at the cutoff; a
        sample group draws sample min(floor(u*k), k - 1) of its k samples at
        or below the cutoff.  A normal's draw is clipped when u*tau < F(0).
        """
        scaled = u * self.tail_scale[group]
        q = np.minimum(self.draw(group, scaled, self.tail_sizes), self.cutoffs[group])
        return q, scaled < self.clip[group]


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

    Each group's cvar estimates the analytic cvar.  Its tail draws follow the
    law of q given q <= q_hat, the group's cutoff clipped at zero as draws
    are, so an atom on the cutoff counts in full.  The estimate is pi_r*c
    plus p times the mean of the tail terms pi_e*q - pi_p*(c - q), with
    standard error p*sqrt(var/tail_count).  var is exactly 0 when the
    group's smallest and largest tail terms are equal.  A group without tail
    draws reports None.  A normal's clipped mass F_g(0) lies in its tail, so
    its clipped draws are the tail draws whose U*tau_g lies below F_g(0); the
    clip fraction divides their count by all cells.
    """
    plan = _normalize_plan(terms, capability, contracts, config, schedule)
    if CHUNK_TRIALS % BLOCK_TRIALS:
        raise ValueError("CHUNK_TRIALS must be a multiple of BLOCK_TRIALS")
    n_trials, seed = config.n_trials, config.seed
    windows, n_groups = plan.col_group.size, len(plan.labels)

    laws = _Laws(terms, plan.dists)
    for g in np.flatnonzero(laws.clip > CLIPPED_MASS_WARN):
        plan.dists[g].warn_clipped_mass(stacklevel=2)
    tail_groups = np.array([g for g, pt in enumerate(laws.points) if pt is None], dtype=np.intp)
    # The (event, tail) cells of a block of each size: full, and the last.
    layout = {
        rows: (
            _Cells(np.array([terms.p]), np.array([rows * windows])),
            _Cells(laws.tau[tail_groups], rows * plan.widths[tail_groups]),
        )
        for rows in {min(BLOCK_TRIALS, n_trials), n_trials % BLOCK_TRIALS or BLOCK_TRIALS}
    }
    window_contracts = plan.contracts[plan.col_group]
    event_stream, capability_stream, tail_stream, tail_value_stream = (
        _Stream(seed, purpose)
        for purpose in (EVENT_PURPOSE, CAPABILITY_PURPOSE, TAIL_PURPOSE, TAIL_VALUE_PURPOSE)
    )

    def uniforms(stream: _Stream, blocks: range, block: np.ndarray) -> np.ndarray:
        """One uniform per entry of the ascending block, from that block's stream."""
        u = np.empty(block.size)
        ends = np.searchsorted(block, np.arange(1, len(blocks) + 1))
        for b, lo, hi in zip(blocks, [0, *ends[:-1].tolist()], ends.tolist()):
            if hi > lo:
                stream.at(b).random(out=u[lo:hi])
        return u

    # Per trial, and per (block, group) with the key block * n_groups + group.
    profits = np.empty(n_trials)
    event_counts = np.empty(n_trials, dtype=np.int64)
    shortfall_counts = np.empty(n_trials, dtype=np.int64)
    n_keys = -(-n_trials // BLOCK_TRIALS) * n_groups
    sums, sq_sums, lows, highs = (np.full(n_keys, v) for v in (0.0, 0.0, np.inf, -np.inf))
    counts, clips = np.zeros(n_keys, dtype=np.int64), np.zeros(n_keys, dtype=np.int64)

    # Settle each chunk's trials and sum its tail terms.  A chunk holds blocks
    # of one size: full blocks in runs of CHUNK_TRIALS // BLOCK_TRIALS, and
    # the horizon's short last block, if any, alone.
    full_blocks, short = divmod(n_trials, BLOCK_TRIALS)
    per_chunk = CHUNK_TRIALS // BLOCK_TRIALS
    chunks = [range(b, min(b + per_chunk, full_blocks)) for b in range(0, full_blocks, per_chunk)]
    if short:
        chunks.append(range(full_blocks, full_blocks + 1))
    for blocks in chunks:
        rows = min(BLOCK_TRIALS, n_trials - blocks.start * BLOCK_TRIALS)
        event_cells, tail_cells = layout[rows]
        block, _, events = event_cells.hits(event_stream, blocks)
        q = laws.draw(
            plan.col_group[events % windows], uniforms(capability_stream, blocks, block), laws.sizes
        )
        n_rows = len(blocks) * rows
        trials = slice(blocks.start * BLOCK_TRIALS, blocks.start * BLOCK_TRIALS + n_rows)
        profits[trials], event_counts[trials], shortfall_counts[trials] = _kernels.settle_trials(
            events, q, window_contracts, n_rows, terms.pi_r, terms.pi_p, terms.pi_e
        )

        block, seg, _ = tail_cells.hits(tail_stream, blocks)
        tail_group = tail_groups[seg]
        q, clipped = laws.tail(tail_group, uniforms(tail_value_stream, blocks, block))
        tail_terms = _tail_term(terms, plan.contracts[tail_group], q)
        # The keys come in ascending order.  bincount adds each key's terms
        # one by one, in the order drawn.
        keys = block * n_groups + tail_group
        view = slice(blocks.start * n_groups, blocks.stop * n_groups)
        size = view.stop - view.start
        sums[view] = np.bincount(keys, tail_terms, size)
        sq_sums[view] = np.bincount(keys, tail_terms * tail_terms, size)
        counts[view] = count = np.bincount(keys, minlength=size)
        clips[view] = np.bincount(keys[clipped], minlength=size)
        drawn = np.flatnonzero(count)
        if drawn.size:  # each drawn key's terms are one run, from its start
            starts = (np.cumsum(count) - count)[drawn]
            lows[view][drawn] = np.minimum.reduceat(tail_terms, starts)
            highs[view][drawn] = np.maximum.reduceat(tail_terms, starts)

    tail_sums, tail_sq_sums, tail_count = (
        a.reshape(-1, n_groups).sum(axis=0) for a in (sums, sq_sums, counts)
    )
    constant = lows.reshape(-1, n_groups).min(axis=0) == highs.reshape(-1, n_groups).max(axis=0)
    cvar_out = {}
    for g, (label, contract) in enumerate(zip(plan.labels, plan.contracts.tolist())):
        n, point = int(tail_count[g]), laws.points[g]
        if point is not None:  # every draw is the point, its own clipped cutoff
            n, mean, var = n_trials * int(plan.widths[g]), _tail_term(terms, contract, point), 0.0
        elif n:
            mean = tail_sums[g] / n
            var = 0.0 if constant[g] else max(tail_sq_sums[g] / n - mean * mean, 0.0)
        value = se = None
        if n:
            value = float(terms.pi_r * contract + terms.p * mean)
            if n >= 2:
                se = float(terms.p * math.sqrt(var / n))
        cvar_out[label] = CvarEstimate(value=value, standard_error=se, tail_count=n)

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
        clip_count=int(clips.sum()),
        clip_fraction=int(clips.sum()) / total_windows,
        n_trials=n_trials,
        windows=windows,
        seed=config.seed,
    )


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
    """The analytic counterparts of everything the simulation measures.

    Each group's expected profit, CVaR and per-event shortfall probability
    P(q < c) hold the bits of expected_profit, cvar and P(q < c) on its own
    distribution: the rows of _Laws' sorted blocks and the normals with spread
    each come as arrays.  Draws are clipped at zero, so none falls short of a
    contract c <= 0.  The totals add the groups one by one in label order.
    """
    plan = _normalize_plan(terms, capability, contracts, config, schedule)
    laws = _Laws(terms, plan.dists)
    c = plan.contracts
    # F(c), P(c), E[q | q <= q_hat] and P(q < c) of each group.
    f, part, tail, below_c = (np.empty(c.size) for _ in range(4))
    for members, block in laws.stacks:
        n = block.shape[1]
        prefix = prefix_sums(block)
        f[members], part[members] = sorted_below(block, prefix, c[members])
        f_hat, part_hat = sorted_below(block, prefix, laws.cutoffs[members])
        tail[members] = part_hat / f_hat
        below_c[members] = np.count_nonzero(block < c[members, None], axis=1) / n
    at = np.flatnonzero(laws.normal)
    mu, sigma, c_at = laws.mu[at], laws.sigma[at], c[at]
    f[at], part[at] = normal_below(mu, sigma, c_at)
    tail[at] = normal_below(mu, sigma, laws.cutoffs[at])[1] / laws.tau[at]
    below_c[at] = np.where(c_at > 0.0, f[at], 0.0)

    total = shortfall_prob_sum = 0.0
    groups = {}
    for label, n_windows, contract, per_window, cvar_value, sf in zip(
        plan.labels,
        plan.widths.tolist(),
        c.tolist(),
        _profit(terms, c, f, part).tolist(),
        _tail_profit(terms, c, tail).tolist(),
        (terms.p * below_c).tolist(),
    ):
        total += per_window * n_windows
        shortfall_prob_sum += sf * n_windows
        groups[label] = GroupAnalytic(label, n_windows, contract, per_window, cvar_value, sf)
    return AnalyticSummary(
        total_expected_profit=total,
        expected_events_per_trial=terms.p * plan.col_group.size,
        shortfall_probability=shortfall_prob_sum / plan.col_group.size,
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
    total_windows = result.n_trials * result.windows

    def frequency(quantity: str, simulated: float, p: float) -> ConvergenceRow:
        """A per-window frequency against its probability, with the binomial error."""
        se = math.sqrt(p * (1.0 - p) / total_windows) if 0.0 < p < 1.0 else None
        return ConvergenceRow(quantity, simulated, p, se)

    mean = summary.total_expected_profit
    return [
        ConvergenceRow("mean_profit", result.mean, mean, result.standard_error or None),
        *(
            ConvergenceRow(f"cvar[{label}]", est.value, summary.groups[label].cvar_value,
                           est.standard_error)
            for label, est in sorted(result.cvar.items())
        ),
        frequency("shortfall_frequency", result.shortfall_frequency,
                  summary.shortfall_probability),
        frequency("event_frequency", result.event_total / total_windows,
                  summary.expected_events_per_trial / result.windows),
    ]
