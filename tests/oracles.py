"""Independent oracle computations used by the test suite.

Everything here is deliberately written against different machinery than the
package itself (adaptive quadrature, projected gradient, direct summation),
so an implementation bug and its test cannot share a root cause.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, stats

from drcontracts import simulation
from drcontracts.distributions import NormalDistribution
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
    """Tail-integral cvar by quadrature: integrate the event branch to q_hat."""
    q_hat = stats.norm.ppf(terms.tail_mass, mu, sigma)
    upper = min(c, q_hat)

    def event_branch(q: float) -> float:
        delivered = min(q, c)
        return terms.pi_e * delivered - terms.pi_p * (c - delivered)

    tail = 0.0
    if upper > 0.0:
        tail, _ = integrate.quad(
            lambda q: event_branch(q) * stats.norm.pdf(q, mu, sigma),
            0.0,
            upper,
            limit=200,
        )
    if c < q_hat:
        # Above the contract the branch is pi_e·q with no penalty.
        extra, _ = integrate.quad(
            lambda q: terms.pi_e * min(q, c) * stats.norm.pdf(q, mu, sigma),
            max(c, 0.0),
            q_hat,
            limit=200,
        )
        tail += extra
    return terms.pi_r * c + (terms.p / terms.tail_mass) * tail


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


def empirical_distribution_cvar(
    terms: ProgramTerms, samples: np.ndarray, c: float
) -> float:
    """Direct-sum cvar on a discrete sample set.

    Every atom at or below the tail cutoff contributes its full 1/N mass,
    mirroring the analytic integral convention; the cutoff uses the same
    linear-interpolation quantile as the package.
    """
    samples = np.sort(np.asarray(samples, dtype=float))
    q_hat = float(np.quantile(samples, terms.tail_mass))
    in_tail = samples <= q_hat
    delivered = np.minimum(samples[in_tail], c)
    branch = terms.pi_e * delivered - terms.pi_p * (c - delivered)
    return float(
        terms.pi_r * c
        + (terms.p / terms.tail_mass) * branch.sum() / samples.size
    )


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
    group's tail from its gathered columns in row-major order.  It shares only
    the plan, the counter-addressed uniforms and CHUNK_TRIALS with the engine,
    which must agree with it bit for bit.
    """
    plan = simulation._normalize_plan(terms, capability, contracts, config, schedule)
    n_trials, windows = config.n_trials, plan.windows
    chunk = simulation.CHUNK_TRIALS
    profits, event_counts, shortfall_counts = [], [], []
    tail = {g.label: [0.0, 0.0, 0] for g in plan.groups}
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
        for group in plan.groups:
            dist, cols = group.dist, group.columns
            if isinstance(dist, NormalDistribution) and dist.sigma > 0.0:
                clipped = u_cap[:, cols] < dist.clipped_mass()
                clip_count += int(np.count_nonzero(clipped))
            draws = q[:, cols].ravel()
            in_tail = draws[draws <= float(dist.quantile(terms.tail_mass))]
            delivered = np.minimum(in_tail, group.contract)
            settled = terms.pi_e * delivered - terms.pi_p * (group.contract - delivered)
            acc = tail[group.label]
            acc[0] += float(settled.sum())
            acc[1] += float(np.square(settled).sum())
            acc[2] += int(in_tail.size)

    cvar = {}
    for group in plan.groups:
        tail_sum, tail_sq_sum, tail_count = tail[group.label]
        n_total = n_trials * group.columns.size
        value = float(
            terms.pi_r * group.contract
            + (terms.p / terms.tail_mass) * tail_sum / n_total
        )
        se = None
        if n_total >= 2:
            mean_h = tail_sum / n_total
            var_h = max(tail_sq_sum / n_total - mean_h * mean_h, 0.0)
            se = float((terms.p / terms.tail_mass) * math.sqrt(var_h / n_total))
        cvar[group.label] = simulation.CvarEstimate(value, se, tail_count)
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
        backend=simulation._kernels.BACKEND,
    )
