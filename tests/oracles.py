"""Independent oracle computations used by the test suite.

Everything here is deliberately written against different machinery than the
package itself (adaptive quadrature, projected gradient, direct summation),
so an implementation bug and its test cannot share a root cause.  Three
references share definitions with the package, so that their agreement can
be checked bit for bit: ``passive_set_search_nnls`` shares the passive-set
solve and the gradient tolerance of the Lawson-Hanson loop,
``dense_simulate_horizon`` shares the Monte Carlo's plan, stream keys, block
size and draw rules, which it walks cell by cell in scalar Python,
``per_bucket_ranking`` shares the pair score, which it takes one bucket's
distributions at a time, ``per_group_analytic_summary`` shares the plan,
whose groups it sums one scalar call at a time, and ``per_bucket_fit_normal``
shares the moments and the normal cdf, which it takes one bucket at a time,
with the jump-point search for a point mass's Kolmogorov distance.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations

import numpy as np
from scipy import integrate, stats

from drcontracts import simulation
from drcontracts.aggregation import AssetPortfolio, PartnerRank, _score_pair
from drcontracts.contracts import cvar, expected_profit, optimal_contract
from drcontracts.distributions import EmpiricalDistribution, NormalDistribution
from drcontracts.estimation import restrict_to_common
from drcontracts.nnls import _solve_passive, gradient_tolerance
from drcontracts.program import ProgramTerms


def quad_partial_expectation(mu: float, sigma: float, c: float) -> float:
    """∫_0^c q·pdf(q) dq by adaptive quadrature on the normal density."""
    if c <= 0.0:
        return 0.0
    value, _ = integrate.quad(
        lambda q: q * stats.norm.pdf(q, mu, sigma), 0.0, c, limit=200
    )
    return value


def quad_shortfall_expectation(mu: float, sigma: float, c: float) -> float:
    """∫_0^c (c − q)·pdf(q) dq by adaptive quadrature."""
    if c <= 0.0:
        return 0.0
    value, _ = integrate.quad(
        lambda q: (c - q) * stats.norm.pdf(q, mu, sigma), 0.0, c, limit=200
    )
    return value


def quad_expected_profit(terms: ProgramTerms, mu: float, sigma: float, c: float) -> float:
    """Expected settlement profit by direct quadrature over the normal density.

    The event branch integrates pi_e·min(q, c) − pi_p·(c − q)^+ against the
    density over [0, ∞); the capability support below 0 is excluded, matching
    the package's integration-from-zero convention.
    """

    def event_branch(q: float) -> float:
        delivered = min(q, c)
        return terms.pi_e * delivered - terms.pi_p * (c - delivered)

    value, _ = integrate.quad(
        lambda q: event_branch(q) * stats.norm.pdf(q, mu, sigma),
        0.0,
        mu + 12.0 * sigma,
        limit=200,
    )
    return terms.pi_r * c + terms.p * value


def quad_cvar(terms: ProgramTerms, mu: float, sigma: float, c: float) -> float:
    """Tail-conditional cvar by quadrature over the normal density.

    The tail is q <= q_hat, q_hat the tail-mass quantile clipped at 0, with
    the mass below 0 clipped onto 0; E[q | tail] integrates q from 0 to q_hat
    and divides by the tail's mass.
    """
    q_hat = max(stats.norm.ppf(terms.tail_mass, mu, sigma), 0.0)
    integral = 0.0
    if q_hat > 0.0:
        integral, _ = integrate.quad(
            lambda q: q * stats.norm.pdf(q, mu, sigma), 0.0, q_hat, limit=200
        )
    q_tail = integral / stats.norm.cdf(q_hat, mu, sigma)
    return terms.pi_r * c + terms.p * (
        terms.pi_e * q_tail - terms.pi_p * (c - q_tail)
    )


def projected_gradient_nnls(
    a: np.ndarray, b: np.ndarray, iterations: int = 200_000
) -> np.ndarray:
    """Solve min ||ax − b|| s.t. x ≥ 0 by projected gradient descent."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    step = 1.0 / np.linalg.norm(a.T @ a, 2)
    x = np.zeros(a.shape[1])
    for _ in range(iterations):
        grad = a.T @ (a @ x - b)
        x = np.maximum(x - step * grad, 0.0)
    return x


def passive_set_search_nnls(a, b) -> tuple[np.ndarray, float]:
    """Minimize ``||a @ x - b||`` subject to ``x >= 0`` by trying every passive set.

    With full column rank the minimizer is the one point that passes the KKT
    test: on its passive set S the weights are the least squares over S and
    all > 0, and off S the gradient ``a.T @ (b - a @ x)`` is <= 0.  The search
    tries every S, from size min(m, n) down to 0 and lexicographically within
    a size, and returns the first that passes.  The gradient tolerance scales
    with ``m * max|a| * max|b|``, so rounding on exact fits at any load scale
    does not reject the optimum.  Up to 2**n solves: keep n small.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    tol = gradient_tolerance(a, b)
    for size in range(min(m, n), -1, -1):
        for support in combinations(range(n), size):
            passive = np.zeros(n, dtype=bool)
            passive[list(support)] = True
            x = np.zeros(n)
            x[passive] = _solve_passive(a, b, passive)
            if not np.all(x[passive] > 0.0):
                continue
            residual = b - a @ x
            if np.all((a.T @ residual)[~passive] <= tol):
                return x, float(np.linalg.norm(residual))
    raise AssertionError(f"no passive set passes the KKT test for a of shape {a.shape}")


def empirical_distribution_cvar(
    terms: ProgramTerms, samples: np.ndarray, c: float
) -> float:
    """Direct-sum cvar on a discrete sample set.

    The tail is every sample at or below the cutoff, each atom in full, and
    its terms are averaged over the tail's own count; the cutoff uses the
    same linear-interpolation quantile as the package.
    """
    samples = np.sort(np.asarray(samples, dtype=float))
    q_hat = max(float(np.quantile(samples, terms.tail_mass)), 0.0)
    tail = samples[samples <= q_hat]
    branch = terms.pi_e * tail - terms.pi_p * (c - tail)
    return float(terms.pi_r * c + terms.p * branch.sum() / tail.size)


def dense_settle(cells, capability, contracts, n_rows, pi_r, pi_p, pi_e):
    """Settlement walked cell by cell, in the order the cells are given.

    Each row starts from 0, adds its event terms one at a time and then the
    reservation revenue; a shortfall is an event with capability below the
    contract.
    """
    windows = contracts.size
    base = float(np.sum(pi_r * contracts))
    event_sums = [0.0] * n_rows
    events = [0] * n_rows
    shortfalls = [0] * n_rows
    for cell, q in zip(cells.tolist(), capability.tolist()):
        row, col = divmod(cell, windows)
        c = float(contracts[col])
        delivered = min(q, c)
        event_sums[row] += pi_e * delivered - pi_p * (c - delivered)
        events[row] += 1
        shortfalls[row] += q < c
    return (
        np.array([base + s for s in event_sums]),
        np.array(events, dtype=np.int64),
        np.array(shortfalls, dtype=np.int64),
    )


def philox_stream(seed: int, purpose: int, block: int) -> np.random.Generator:
    """The stream keyed by (seed, purpose), with the block in the top counter word."""
    bits = np.random.Philox(
        key=np.array([seed, purpose], dtype=np.uint64),
        counter=np.array([0, 0, 0, block], dtype=np.uint64),
    )
    return np.random.Generator(bits)


def hazard(rate: float) -> float:
    """-ln(1 - rate), infinite at rate 1."""
    return math.inf if rate == 1.0 else float(-np.log1p(-rate))


def walk_cells(gen, hazards, lengths):
    """Yield, cell by cell, whether an arrival of gen falls in the cell.

    Segment s holds lengths[s] cells of hazard hazards[s] each, and the
    segments' hazard spans lie end to end from 0; a segment of infinite
    hazard takes no span, and every one of its cells is hit.  The arrivals
    are the running sums of gen's exponential gaps, drawn one at a time.
    An arrival x in a segment that starts at `start` falls in its cell
    int((x - start) / hazard), or the last cell if that rounds past it.
    """
    ends, total = [], 0.0
    for h, n in zip(hazards, lengths):
        total += h * n if math.isfinite(h) else 0.0
        ends.append(total)
    x = gen.standard_exponential() if total > 0.0 else math.inf
    start = 0.0
    for h, n, end in zip(hazards, lengths, ends):
        for j in range(n):
            if not math.isfinite(h):
                yield True
                continue
            hit = False
            while x < end and min(int((x - start) / h), n - 1) == j:
                hit = True
                x += gen.standard_exponential()
            yield hit
        start = end


def dense_event_cells(seed: int, p: float, windows: int, block: int, rows: int) -> list[int]:
    """The event cells of one block, in row-major order over its rows x windows."""
    gen = philox_stream(seed, simulation.EVENT_PURPOSE, block)
    hits = walk_cells(gen, [hazard(p)], [rows * windows])
    return [cell for cell, hit in enumerate(hits) if hit]


def dense_simulate_horizon(terms, capability, contracts, config, schedule=None):
    """simulate_horizon walked cell by cell through the same random streams.

    Block by block, every cell of the block is visited in row-major order:
    an event cell takes the next capability uniform, transformed by its
    group's own transform_uniform, and all event cells settle at the end
    through dense_settle.  Then every cell of every group that is not a point
    mass, group by group, is visited through the tail arrivals; a tail cell
    takes the next tail uniform U and draws min(F^-1(U*tau), q_hat) for a
    normal or sample min(int(U*k), k - 1) of the k samples at or below q_hat.
    Each tail term is added one at a time into its (block, group) sum, and
    the (blocks, groups) sums are reduced once at the end.  A point mass
    has every cell in its tail, each with its one term.  A group whose whole
    tail is one value has variance exactly 0.  Clipped normals warn once per
    call, as the engine's do.
    """
    plan = simulation._normalize_plan(terms, capability, contracts, config, schedule)
    n_trials, windows, dists = config.n_trials, plan.col_group.size, plan.dists
    contracts, widths = plan.contracts.tolist(), plan.widths.tolist()
    col_group = plan.col_group.tolist()
    block_trials = simulation.BLOCK_TRIALS
    n_blocks = -(-n_trials // block_trials)
    for dist in dists:
        if isinstance(dist, NormalDistribution):
            dist.warn_clipped_mass(stacklevel=1)
    cutoffs = [max(float(dist.quantile(terms.tail_mass)), 0.0) for dist in dists]
    points = []
    for dist in dists:
        if isinstance(dist, NormalDistribution):
            points.append(max(dist.mu, 0.0) if dist.sigma == 0.0 else None)
        else:
            points.append(dist.samples[0] if dist.samples[0] == dist.samples[-1] else None)
    tail = [g for g in range(len(dists)) if points[g] is None]
    tau = {g: float(dists[g].cdf(cutoffs[g])) for g in tail}

    block_sums = np.zeros((n_blocks, len(dists)))
    block_sq_sums = np.zeros((n_blocks, len(dists)))
    tails = [[] for _ in dists]
    cells, capability_q = [], []
    clip_count = 0
    for block in range(n_blocks):
        rows = min(block_trials, n_trials - block * block_trials)
        uniforms = philox_stream(config.seed, simulation.CAPABILITY_PURPOSE, block)
        for cell in dense_event_cells(config.seed, terms.p, windows, block, rows):
            dist = dists[col_group[cell % windows]]
            cells.append(block * block_trials * windows + cell)
            capability_q.append(dist.transform_uniform(uniforms.random()))

        gen = philox_stream(config.seed, simulation.TAIL_PURPOSE, block)
        uniforms = philox_stream(config.seed, simulation.TAIL_VALUE_PURPOSE, block)
        hits = walk_cells(gen, [hazard(tau[g]) for g in tail], [rows * widths[g] for g in tail])
        for g in tail:
            dist, c = dists[g], contracts[g]
            for _ in range(rows * widths[g]):
                if not next(hits):
                    continue
                if isinstance(dist, NormalDistribution):
                    v = uniforms.random() * tau[g]
                    clip_count += v < dist.clipped_mass()
                    q = min(dist.transform_uniform(v), cutoffs[g])
                else:
                    k = int(np.searchsorted(dist.samples, cutoffs[g], side="right"))
                    q = float(dist.samples[min(int(uniforms.random() * k), k - 1)])
                settled = terms.pi_e * q - terms.pi_p * (c - q)
                block_sums[block, g] += settled
                block_sq_sums[block, g] += settled * settled
                tails[g].append(settled)

    profits, event_counts, shortfall_counts = dense_settle(
        np.array(cells, dtype=np.int64),
        np.array(capability_q),
        plan.contracts[plan.col_group],
        n_trials,
        terms.pi_r,
        terms.pi_p,
        terms.pi_e,
    )
    cvar = {}
    tail_sums = block_sums.sum(axis=0)
    tail_sq_sums = block_sq_sums.sum(axis=0)
    for g, (label, c) in enumerate(zip(plan.labels, contracts)):
        n = len(tails[g])
        if points[g] is not None:
            # Every draw is the point: n tail terms, each exactly this one.
            n = n_trials * widths[g]
            q = points[g]
            mean = terms.pi_e * q - terms.pi_p * (c - q)
        elif n:
            mean = tail_sums[g] / n
        value = se = None
        if n:
            value = float(terms.pi_r * c + terms.p * mean)
            if n >= 2:
                if points[g] is not None or min(tails[g]) == max(tails[g]):
                    var = 0.0
                else:
                    var = max(tail_sq_sums[g] / n - mean * mean, 0.0)
                se = float(terms.p * math.sqrt(var / n))
        cvar[label] = simulation.CvarEstimate(value, se, n)
    total_windows = n_trials * windows
    return simulation.SimulationResult(
        profits=profits,
        mean=float(profits.mean()),
        standard_error=(
            float(profits.std(ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else 0.0
        ),
        cvar=cvar,
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


def per_bucket_ranking(model, terms, base_id, candidate_ids):
    """aggregate's ranking, scored one bucket's EmpiricalDistributions at a time.

    Returns the PartnerRank rows in the CLI's order and the unalignable
    buckets as the CLI lists them, sorted.
    """
    base = model.building(base_id)
    # Distributions hash by identity, so each distinct bucket is decided once per call.
    decide = functools.cache(lambda dist: optimal_contract(terms, dist))
    ranks = []
    unalignable: list[str] = []
    for cand_id in candidate_ids:
        cand = model.building(cand_id)
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
    return ranks, sorted(unalignable)


def strict_lower_probability(dist, c: float) -> float:
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


def per_group_analytic_summary(terms, capability, contracts, config, schedule=None):
    """analytic_summary with one scalar expected_profit, cvar and
    strict_lower_probability call per group of the plan, in label order."""
    plan = simulation._normalize_plan(terms, capability, contracts, config, schedule)
    windows = plan.col_group.size
    total = 0.0
    shortfall_prob_sum = 0.0
    groups = {}
    for label, dist, contract, n_windows in zip(
        plan.labels, plan.dists, plan.contracts.tolist(), plan.widths.tolist()
    ):
        per_window = float(expected_profit(terms, dist, contract))
        total += per_window * n_windows
        sf = terms.p * strict_lower_probability(dist, contract)
        shortfall_prob_sum += sf * n_windows
        groups[label] = simulation.GroupAnalytic(
            label=label,
            windows=n_windows,
            contract=contract,
            expected_profit=per_window,
            cvar_value=float(cvar(terms, dist, contract)),
            shortfall_probability=sf,
        )
    return simulation.AnalyticSummary(
        total_expected_profit=total,
        expected_events_per_trial=terms.p * windows,
        shortfall_probability=shortfall_prob_sum / windows,
        groups=groups,
    )


def _ks_distance_continuous(samples: np.ndarray, normal: NormalDistribution) -> float:
    n = samples.size
    f = np.asarray(normal.cdf(samples), dtype=float)
    upper = np.arange(1, n + 1) / n - f
    lower = f - np.arange(0, n) / n
    return float(max(upper.max(), lower.max(), 0.0))


def _ks_distance_point_mass(samples: np.ndarray, mu: float) -> float:
    # Both cdfs are step functions; the sup is attained at a jump point,
    # approached from the left or evaluated at the point itself.
    n = samples.size
    points = np.unique(np.concatenate((samples, [mu])))
    emp_at = np.searchsorted(samples, points, side="right") / n
    emp_left = np.searchsorted(samples, points, side="left") / n
    pm_at = (points >= mu).astype(float)
    pm_left = (points > mu).astype(float)
    return float(
        max(np.abs(emp_at - pm_at).max(), np.abs(emp_left - pm_left).max())
    )


def per_bucket_kolmogorov_distance(
    empirical: EmpiricalDistribution, normal: NormalDistribution
) -> float:
    """Sup-norm distance between the empirical cdf and the normal cdf."""
    if normal.sigma == 0.0:
        return _ks_distance_point_mass(empirical.samples, normal.mu)
    return _ks_distance_continuous(empirical.samples, normal)


def per_bucket_fit_normal(empirical: EmpiricalDistribution) -> tuple[NormalDistribution, float]:
    """Moment-match a normal to the samples; also report the fit distance.

    Uses the sample mean and the (n-1)-denominator standard deviation, so at
    least two samples are required.  The returned distance is the Kolmogorov
    sup-norm gap, a plain goodness-of-fit diagnostic.
    """
    normal = NormalDistribution(empirical.mean(), empirical.stddev())
    return normal, per_bucket_kolmogorov_distance(empirical, normal)
