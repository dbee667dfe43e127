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
that block's stream.  Each chunk of CHUNK_TRIALS trials draws its blocks'
gaps as the rows of one array, sums them in one cumsum and maps the arrivals
of all its blocks to cells in one vectorized pass; one settlement call and
one tail transform then cover the chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import _kernels
from .contracts import cvar as analytic_cvar
from .contracts import expected_profit, tail_cutoff
from .distributions import (
    CLIPPED_MASS_WARN,
    CurtailmentDistribution,
    EmpiricalDistribution,
    NormalDistribution,
    clipped_normal_transform,
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


class _WindowGroup(NamedTuple):
    label: str
    dist: CurtailmentDistribution
    contract: float
    columns: np.ndarray  # window indices using this bucket


@dataclass(frozen=True)
class _Plan:
    groups: tuple[_WindowGroup, ...]
    contracts: np.ndarray  # (windows,)
    col_group: np.ndarray  # (windows,) group index of each window
    windows: int


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
    by_group = np.argsort(col_group, kind="stable")
    ends = np.cumsum(np.bincount(col_group, minlength=len(used))).tolist()
    groups = tuple(
        _WindowGroup(
            label=labels[k],
            dist=cap_map[used[k]],
            contract=contract_map[used[k]],
            columns=by_group[start:end],
        )
        for k, start, end in zip(order, [0, *ends], ends)
    )
    group_contracts = np.array([group.contract for group in groups])
    return _Plan(
        groups=groups, contracts=group_contracts[col_group], col_group=col_group, windows=windows
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
    from its sorted samples, a point normal from its one value clipped at
    zero.  A group that is not a point mass draws its tail at the rate
    tau = F(q_hat), q_hat its clipped cutoff.  The normals' cutoffs, rates
    and clipped masses are computed as arrays from one Phi^-1(tail_mass);
    the array paths of `distributions` give the bits of the scalar ones.
    """

    def __init__(self, terms: ProgramTerms, dists: Sequence[CurtailmentDistribution]):
        is_normal = [isinstance(d, NormalDistribution) for d in dists]
        self.mu = np.array([d.mu if n else 0.0 for d, n in zip(dists, is_normal)])
        self.sigma = np.array([d.sigma if n else 0.0 for d, n in zip(dists, is_normal)])
        self.normal = spread = self.sigma > 0.0
        mu, sigma = self.mu[spread], self.sigma[spread]
        # The values each group draws from: a sample group's samples, a point
        # normal's one value clipped at zero, none for a normal with spread.
        tables = [
            np.empty(0) if s else np.array([max(d.mu, 0.0)]) if n else d.samples
            for d, n, s in zip(dists, is_normal, spread.tolist())
        ]
        self.sizes = np.array([table.size for table in tables], dtype=np.int64)
        self.offsets = np.cumsum(self.sizes) - self.sizes
        self.samples = np.concatenate(tables)
        # The one value of each point mass, None for every other group.
        self.points = [
            None if s or t[0] != t[-1] else float(t[0]) for s, t in zip(spread.tolist(), tables)
        ]
        # Each normal's cutoff, tail_cutoff's max(quantile(tail_mass), 0.0).
        quantile = self.mu.copy()
        quantile[spread] += sigma * standard_normal_quantile(terms.tail_mass)
        self.cutoffs = np.where(0.0 > quantile, 0.0, quantile)
        self.tau = np.ones(len(dists))
        self.tau[spread] = standard_normal_cdf((self.cutoffs[spread] - mu) / sigma)
        # A normal's mass below zero; a point normal below zero is all clipped.
        self.clip = np.where(self.mu < 0.0, 1.0, 0.0)
        self.clip[spread] = standard_normal_cdf(-mu / sigma)
        # A normal's tail uniform is U*tau; a sample group draws from its
        # tail_sizes = n*tau samples at or below the cutoff.
        self.tail_sizes = self.sizes.copy()
        for g, dist in enumerate(dists):
            if not is_normal[g]:
                q = self.cutoffs[g] = tail_cutoff(terms, dist)
                if self.points[g] is None:
                    self.tau[g] = dist.cdf(q)
                self.tail_sizes[g] = np.searchsorted(dist.samples, q, side="right")
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
    n_trials, windows, groups, seed = config.n_trials, plan.windows, plan.groups, config.seed
    n_groups = len(groups)

    laws = _Laws(terms, [group.dist for group in groups])
    for g in np.flatnonzero(laws.clip > CLIPPED_MASS_WARN):
        groups[g].dist.warn_clipped_mass(stacklevel=2)
    widths = np.array([group.columns.size for group in groups], dtype=np.int64)
    group_contracts = np.array([group.contract for group in groups])
    tail_groups = np.array([g for g, pt in enumerate(laws.points) if pt is None], dtype=np.intp)
    # The (event, tail) cells of a block of each size: full, and the last.
    layout = {
        rows: (
            _Cells(np.array([terms.p]), np.array([rows * windows])),
            _Cells(laws.tau[tail_groups], rows * widths[tail_groups]),
        )
        for rows in {min(BLOCK_TRIALS, n_trials), n_trials % BLOCK_TRIALS or BLOCK_TRIALS}
    }
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

    def draw(blocks: range, first: int):
        """The cells and uniforms of blocks of one size, in a chunk from block first.

        Returns the event cells, numbered across the chunk, and their
        uniforms; then each tail cell's block in the chunk, group and uniform.
        """
        event_cells, tail_cells = layout[min(BLOCK_TRIALS, n_trials - blocks.start * BLOCK_TRIALS)]
        shift = blocks.start - first
        block, _, events = event_cells.hits(event_stream, blocks)
        event_u = uniforms(capability_stream, blocks, block)
        events += shift * BLOCK_TRIALS * windows
        block, seg, _ = tail_cells.hits(tail_stream, blocks)
        tail_u = uniforms(tail_value_stream, blocks, block)
        return events, event_u, block + shift, tail_groups[seg], tail_u

    # Per trial, and per (block, group) with the key block * n_groups + group.
    profits = np.empty(n_trials)
    event_counts = np.empty(n_trials, dtype=np.int64)
    shortfall_counts = np.empty(n_trials, dtype=np.int64)
    n_keys = -(-n_trials // BLOCK_TRIALS) * n_groups
    sums, sq_sums, lows, highs = (np.full(n_keys, v) for v in (0.0, 0.0, np.inf, -np.inf))
    counts, clips = np.zeros(n_keys, dtype=np.int64), np.zeros(n_keys, dtype=np.int64)

    # Settle each chunk's trials and sum its tail terms.  Only the horizon's
    # last block may be short, so a chunk draws one or two runs of blocks.
    full_blocks = n_trials // BLOCK_TRIALS
    for row_start in range(0, n_trials, CHUNK_TRIALS):
        n_rows = min(CHUNK_TRIALS, n_trials - row_start)
        first = row_start // BLOCK_TRIALS
        stop = first + -(-n_rows // BLOCK_TRIALS)
        runs = (range(first, min(stop, full_blocks)), range(max(first, full_blocks), stop))
        events, u, tail_block, tail_group, tail_u = (
            parts[0] if len(parts) == 1 else np.concatenate(parts)
            for parts in zip(*(draw(run, first) for run in runs if run))
        )
        q = laws.draw(plan.col_group[events % windows], u, laws.sizes)
        rows = slice(row_start, row_start + n_rows)
        profits[rows], event_counts[rows], shortfall_counts[rows] = _kernels.settle_trials(
            events, q, plan.contracts, n_rows, terms.pi_r, terms.pi_p, terms.pi_e
        )

        q, clipped = laws.tail(tail_group, tail_u)
        tail_terms = _tail_term(terms, group_contracts[tail_group], q)
        # The keys come in ascending order.  bincount adds each key's terms
        # one by one, in the order drawn.
        keys = tail_block * n_groups + tail_group
        view = slice(first * n_groups, stop * n_groups)
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
    for g, group in enumerate(groups):
        n, point = int(tail_count[g]), laws.points[g]
        if point is not None:  # every draw is the point, its own clipped cutoff
            n, mean, var = n_trials * int(widths[g]), _tail_term(terms, group.contract, point), 0.0
        elif n:
            mean = tail_sums[g] / n
            var = 0.0 if constant[g] else max(tail_sq_sums[g] / n - mean * mean, 0.0)
        value = se = None
        if n:
            value = float(terms.pi_r * group.contract + terms.p * mean)
            if n >= 2:
                se = float(terms.p * math.sqrt(var / n))
        cvar_out[group.label] = CvarEstimate(value=value, standard_error=se, tail_count=n)

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


def _strict_lower_probability(dist: CurtailmentDistribution, c: float) -> float:
    """P(q < c), the per-event shortfall probability at contract c.

    Draws are clipped at zero, so none falls short of a contract c <= 0.
    """
    if c <= 0.0:
        return 0.0
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
