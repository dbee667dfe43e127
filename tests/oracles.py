"""Independent oracle computations used by the test suite.

Everything here is deliberately written against different machinery than the
package itself (adaptive quadrature, projected gradient, direct summation),
so an implementation bug and its test cannot share a root cause.  The one
exception is ``passive_set_search_nnls``: it shares the package's passive-set
solve, so that its agreement with the package's Lawson-Hanson loop can be
checked bit for bit.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from scipy import integrate, stats

from drcontracts import simulation
from drcontracts.distributions import NormalDistribution
from drcontracts.nnls import GRADIENT_TOLERANCE, _solve_passive
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
    scale = m * np.abs(a).max(initial=0.0) * np.abs(b).max(initial=0.0)
    tol = GRADIENT_TOLERANCE * max(1.0, scale)
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


def dense_settle(u_event, capability, contracts, pi_r, pi_p, pi_e, p):
    """Settlement over every cell of the block, with np.where masking the non-events."""
    events = u_event < p
    delivered = np.minimum(capability, contracts)
    event_term = pi_e * delivered - pi_p * (contracts - delivered)
    base = float(np.sum(pi_r * contracts))
    profit = base + np.where(events, event_term, 0.0).sum(axis=1)
    event_count = events.sum(axis=1).astype(np.int64)
    shortfall_count = (events & (capability < contracts)).sum(axis=1).astype(np.int64)
    return profit, event_count, shortfall_count


def dense_simulate_horizon(terms, capability, contracts, config, schedule=None):
    """simulate_horizon with a dense chunk: transform, settle and scan every cell.

    Each chunk gathers every group's columns, transforms all of their
    uniforms, settles the whole block with dense_settle, and takes each
    group's tail from its gathered columns.  The tail terms are summed per
    group and per block of TAIL_BLOCK_ROWS rows, one by one in row-major
    order, and the (blocks, groups) sums are reduced once at the end.  A
    group whose whole tail is one value has variance exactly 0.  It
    shares only the plan, the counter-addressed uniforms, CHUNK_TRIALS and
    that summation order with the engine, which must agree with it bit for
    bit.  Clipped normals warn once per call, as the engine's do.
    """
    plan = simulation._normalize_plan(terms, capability, contracts, config, schedule)
    n_trials, windows = config.n_trials, plan.windows
    chunk = simulation.CHUNK_TRIALS
    block_rows = simulation.TAIL_BLOCK_ROWS
    n_groups = len(plan.groups)
    n_blocks = -(-n_trials // block_rows)
    block_sums = np.zeros((n_blocks, n_groups))
    block_sq_sums = np.zeros((n_blocks, n_groups))
    tail_count = np.zeros(n_groups, dtype=np.int64)
    tails = [[] for _ in plan.groups]
    for group in plan.groups:
        if isinstance(group.dist, NormalDistribution):
            group.dist.warn_clipped_mass(stacklevel=1)
    profits, event_counts, shortfall_counts = [], [], []
    clip_count = 0
    for row_start in range(0, n_trials, chunk):
        n_rows = min(chunk, n_trials - row_start)
        u_event = simulation._uniform_block(
            config.seed, simulation.EVENT_PURPOSE, windows, row_start, n_rows
        )
        u_cap = simulation._uniform_block(
            config.seed, simulation.CAPABILITY_PURPOSE, windows, row_start, n_rows
        )
        q = np.empty_like(u_cap)
        for group in plan.groups:
            q[:, group.columns] = group.dist.transform_uniform(u_cap[:, group.columns])
        profit, events, shortfalls = dense_settle(
            u_event, q, plan.contracts, terms.pi_r, terms.pi_p, terms.pi_e, terms.p
        )
        profits.append(profit)
        event_counts.append(events)
        shortfall_counts.append(shortfalls)
        for g, group in enumerate(plan.groups):
            dist, cols, c = group.dist, group.columns, group.contract
            if isinstance(dist, NormalDistribution) and dist.sigma > 0.0:
                clipped = u_cap[:, cols] < dist.clipped_mass()
                clip_count += int(np.count_nonzero(clipped))
            draws = q[:, cols]
            q_hat = max(float(dist.quantile(terms.tail_mass)), 0.0)
            in_tail = draws <= q_hat
            row = np.broadcast_to(np.arange(n_rows)[:, None], draws.shape)
            block = (row_start + row[in_tail]) // block_rows
            settled = terms.pi_e * draws[in_tail] - terms.pi_p * (c - draws[in_tail])
            block_sums[:, g] += np.bincount(block, settled, n_blocks)
            block_sq_sums[:, g] += np.bincount(block, np.square(settled), n_blocks)
            tail_count[g] += int(np.count_nonzero(in_tail))
            tails[g].append(settled)

    cvar = {}
    tail_sums = block_sums.sum(axis=0)
    tail_sq_sums = block_sq_sums.sum(axis=0)
    for g, group in enumerate(plan.groups):
        n = int(tail_count[g])
        value = se = None
        if n:
            mean = tail_sums[g] / n
            value = float(terms.pi_r * group.contract + terms.p * mean)
            if n >= 2:
                tail = np.concatenate(tails[g])
                if tail.min() == tail.max():
                    var = 0.0
                else:
                    var = max(tail_sq_sums[g] / n - mean * mean, 0.0)
                se = float(terms.p * math.sqrt(var / n))
        cvar[group.label] = simulation.CvarEstimate(value, se, n)
    profits = np.concatenate(profits)
    event_counts = np.concatenate(event_counts)
    shortfall_counts = np.concatenate(shortfall_counts)
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
