"""Optimal contract sizing for a single asset.

The expected per-window profit of a contract c against capability q ~ F is

    J(c) = pi_r*c + p*[-pi_p*S(c) + pi_e*(P(c) + c*(1 - F(c)))]

with P the partial expectation over [0, c] and S the shortfall expectation.
The risk-adjusted objective adds alpha times the CVaR of the window profit
over the capability tail q <= q_hat (see cvar).  That CVaR is linear in c
with slope pi_r - p*pi_p, so the objective's slope is p*(pi_p + pi_e)*(psi - F(c))
for every c and every alpha >= 0, with the critical fractile

    psi = (pi_r + p*pi_e + alpha*(pi_r - p*pi_p)) / (p*(pi_p + pi_e)).

The optimizer returns the psi-quantile, the exact argmax on [0, c_max]
(Rockafellar & Uryasev, J. Risk 2000): psi <= 0, which is alpha past
alpha_threshold, shuts the contract off, and psi >= 1 signs the cap.

With D = p*(pi_p + pi_e), m = pi_r - p*pi_p and mu the mean of the law clipped
at zero, every law and every c >= 0 satisfy J(c) = (pi_r + p*pi_e)*mu - L(c),
where L is the quantile_loss; the optimal profit, its slope in a normal's
spread and the gain from pooling are all read off that one identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import (
    CurtailmentDistribution,
    EmpiricalDistribution,
    linear_quantile,
    prefix_sums,
    standard_normal_pdf,
    standard_normal_quantile,
)
from .errors import UnconstrainedContractError
from .program import ProgramTerms

# Resolution of the grid oracle: the search interval divided into this many steps.
GRID_POINTS = 10_000


def quantile_argument(terms: ProgramTerms) -> float:
    """The critical fractile psi of the quantile rule."""
    if terms.p == 0.0:
        raise UnconstrainedContractError(
            "event probability is zero: reservation revenue is unopposed and "
            "no finite optimum exists"
        )
    denom = terms.p * (terms.pi_p + terms.pi_e)
    if denom == 0.0:
        raise UnconstrainedContractError(
            "pi_p + pi_e = 0: the objective is linear in c and has no interior optimum"
        )
    return (
        terms.pi_r
        + terms.p * terms.pi_e
        + terms.alpha * (terms.pi_r - terms.p * terms.pi_p)
    ) / denom


def _contract_sizes(terms: ProgramTerms, c) -> np.ndarray:
    """c as a float array, checked to lie in [0, contract_cap]."""
    c_arr = np.asarray(c, dtype=float)
    if c_arr.size and np.min(c_arr) < 0.0:
        raise ValueError("contract size must be >= 0")
    if c_arr.size and np.max(c_arr) > terms.contract_cap:
        raise ValueError(f"contract size exceeds cap {terms.contract_cap:g}")
    return c_arr


def _profit(terms: ProgramTerms, c, f, part):
    """J(c) from F(c) and the partial expectation P(c)."""
    shortfall = c * f - part
    return terms.pi_r * c + terms.p * (
        -terms.pi_p * shortfall + terms.pi_e * (part + c * (1.0 - f))
    )


def _tail_profit(terms: ProgramTerms, c, q_tail):
    """CVaR(c) from E[q | q <= q_hat]."""
    return terms.pi_r * c + terms.p * (terms.pi_e * q_tail - terms.pi_p * (c - q_tail))


def expected_profit(terms: ProgramTerms, dist: CurtailmentDistribution, c):
    """Expected per-window profit J(c); accepts scalar or array c."""
    c_arr = _contract_sizes(terms, c)
    f = np.asarray(dist.cdf(c_arr), dtype=float)
    part = np.asarray(dist.partial_expectation(c_arr), dtype=float)
    out = _profit(terms, c_arr, f, part)
    return out if np.ndim(c) else float(out)


def quantile_loss(terms: ProgramTerms, dist: CurtailmentDistribution, c):
    """L(c) = D*E[rho_psi(q - c)] + alpha*m*(c - mu); accepts scalar or array c.

    rho_psi(u) = u*(psi - 1{u < 0}) is the pinball loss, which the
    psi-quantile minimizes (Koenker & Bassett, Econometrica 1978), so
    D*E[rho_psi(q - c)] = D*(psi*(mu - c) + S(c)).  J(c) + L(c) equals
    (pi_r + p*pi_e)*mu for every law and every c >= 0.  Hence the gain from
    pooling members whose means add up is sum_k L_k(c_k*) - L_pool(c_pool*),
    and for an unclipped N(mu, sigma) L(c*) = sigma*bracket_factor(terms).
    """
    c_arr = _contract_sizes(terms, c)
    mu = float(dist.partial_expectation(np.inf))
    shortfall = np.asarray(dist.shortfall_expectation(c_arr), dtype=float)
    out = terms.p * (terms.pi_p + terms.pi_e) * (
        quantile_argument(terms) * (mu - c_arr) + shortfall
    ) + terms.alpha * terms.no_asset_margin * (c_arr - mu)
    return out if np.ndim(c) else float(out)


def tail_cutoff(terms: ProgramTerms, dist: CurtailmentDistribution) -> float:
    """q_hat, the 1 - c_hat quantile of dist clipped at zero, as capability is."""
    return max(float(dist.quantile(terms.tail_mass)), 0.0)


def cvar(terms: ProgramTerms, dist: CurtailmentDistribution, c):
    """CVaR at level c_hat of the per-window profit of contract c.

        CVaR(c) = pi_r*c + p*E[pi_e*q - pi_p*(c - q) | q <= q_hat]

    Window profit is monotone non-decreasing in q, so its worst outcomes are
    the event branch over the lower capability tail.  q_hat is the 1 - c_hat
    quantile clipped at zero, as capability is, and the tail is normalized by
    its realized mass F(q_hat).  The value is linear in c with slope
    pi_r - p*pi_p.  It is a tail conditional expectation, which has two
    consequences.  With atoms at q_hat (samples, or the mass clipped to zero)
    the tail holds more than 1 - c_hat and the measure is not coherent
    (Acerbi & Tasche, 2002).  Below q_hat it credits capability above c at
    pi_e, so CVaR(0) = p*(pi_e + pi_p)*E[q | tail], which is not 0.
    """
    c_arr = _contract_sizes(terms, c)
    q_hat = tail_cutoff(terms, dist)
    q_tail = float(dist.partial_expectation(q_hat)) / float(dist.cdf(q_hat))
    out = _tail_profit(terms, c_arr, q_tail)
    return out if np.ndim(c) else float(out)


def objective(terms: ProgramTerms, dist: CurtailmentDistribution, c):
    """Risk-adjusted objective: expected profit plus alpha times CVaR."""
    if terms.alpha == 0.0:
        return expected_profit(terms, dist, c)
    return expected_profit(terms, dist, c) + terms.alpha * cvar(terms, dist, c)


@dataclass(frozen=True)
class ContractDecision:
    """One sized contract with its diagnostics."""

    c_star: float
    psi: float
    clipped_low: bool
    clipped_high: bool
    expected_profit: float
    cvar_value: float
    objective_value: float

    # Always False (there is no numeric fallback); perfbench/spans.py reads it.
    used_grid_fallback = False

    @property
    def clipped(self) -> str:
        if self.clipped_low:
            return "low"
        if self.clipped_high:
            return "high"
        return "none"


def _search_upper_bound(terms: ProgramTerms, dist: CurtailmentDistribution) -> float:
    if isinstance(dist, EmpiricalDistribution):
        upper = float(dist.samples[-1])
    else:
        upper = float(dist.quantile(1.0 - 1e-6)) if dist.sigma > 0.0 else dist.mu
    upper = max(upper, 0.0)
    return min(upper, terms.contract_cap)


def grid_search_optimal(terms: ProgramTerms, dist: CurtailmentDistribution) -> float:
    """Argmax of the objective on GRID_POINTS equal steps from 0 to the search bound.

    Ties break toward the smaller contract (first maximum).
    """
    upper = _search_upper_bound(terms, dist)
    if upper <= 0.0:
        return 0.0
    resolution = upper / GRID_POINTS
    steps = int(math.floor(upper / resolution + 1e-9))
    grid = np.arange(steps + 1) * resolution
    if grid[-1] > upper:
        grid[-1] = upper
    values = objective(terms, dist, grid)
    return float(grid[int(np.argmax(values))])


def _contract_outside(terms: ProgramTerms, psi: float) -> float | None:
    """The contract when psi leaves (0, 1): 0 (shut off) or the cap; None inside."""
    if psi <= 0.0:
        return 0.0
    if psi >= 1.0 and math.isinf(terms.contract_cap):
        raise UnconstrainedContractError(
            f"psi = {psi:g} >= 1 with no contract cap: optimum is unbounded"
        )
    return terms.contract_cap if psi >= 1.0 else None


class SortedDecisions(NamedTuple):
    """The decisions of decide_sorted, one entry per row."""

    psi: float
    clipped_high: np.ndarray
    c_star: np.ndarray
    expected_profit: np.ndarray
    cvar_value: np.ndarray
    objective_value: np.ndarray

    def decision(self, row: int) -> ContractDecision:
        c, profit, tail, value = (float(values[row]) for values in self[2:])
        high = bool(self.clipped_high[row])
        return ContractDecision(c, self.psi, self.psi <= 0.0, high, profit, tail, value)


def sorted_below(samples: np.ndarray, prefix: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """F(x[r]) and P(x[r]) of row r of a sorted block and its prefix sums, as cdf
    and partial_expectation compute them on the row's EmpiricalDistribution."""
    k = np.count_nonzero(samples <= x[:, None], axis=1)
    return k / samples.shape[1], prefix[np.arange(k.size), k] / samples.shape[1]


def sorted_tail_cutoff(terms: ProgramTerms, samples: np.ndarray) -> np.ndarray:
    """tail_cutoff of each row of a sorted block, bit for bit."""
    q = linear_quantile(samples, terms.tail_mass)
    return np.where(0.0 > q, 0.0, q)


def decide_sorted(terms: ProgramTerms, samples: np.ndarray) -> SortedDecisions:
    """Size the contract of each row of samples, a (rows x n) block sorted along its rows.

    The optimum is the smallest sample whose cdf reaches psi: below it the
    objective rises, from it on it does not.  That is one order statistic, so
    one column decides every row.  Each row's values are those expected_profit
    and cvar give on its EmpiricalDistribution, bit for bit.
    """
    psi = quantile_argument(terms)
    rows, n = samples.shape
    c = _contract_outside(terms, psi)
    if c is None:
        # Levels k/n as cdf computes them, so psi = F(s_k) picks s_k.
        c = samples[:, int(np.searchsorted(np.arange(1, n + 1) / n, psi))]
        clipped_high = c >= terms.contract_cap
        c = np.where(clipped_high, terms.contract_cap, c)
    else:
        clipped_high, c = np.full(rows, psi >= 1.0), np.full(rows, c)

    prefix = prefix_sums(samples)
    profit = _profit(terms, c, *sorted_below(samples, prefix, c))
    f_hat, part_hat = sorted_below(samples, prefix, sorted_tail_cutoff(terms, samples))
    tail = _tail_profit(terms, c, part_hat / f_hat)
    # The expression objective() evaluates, on the values already in hand.
    value = profit if terms.alpha == 0.0 else profit + terms.alpha * tail
    return SortedDecisions(psi, clipped_high, c, profit, tail, value)


def optimal_contract(terms: ProgramTerms, dist: CurtailmentDistribution) -> ContractDecision:
    """Size the contract at the psi-quantile, the exact argmax, with clipping flags.

    Samples are decide_sorted's one-row block.
    """
    if isinstance(dist, EmpiricalDistribution):
        return decide_sorted(terms, dist.samples[None]).decision(0)
    psi = quantile_argument(terms)
    clipped_low, clipped_high = psi <= 0.0, psi >= 1.0
    c = _contract_outside(terms, psi)
    if c is None:
        c = float(dist.quantile(psi))
        if c < 0.0:
            c = 0.0
            clipped_low = True
        if c >= terms.contract_cap:
            c = terms.contract_cap
            clipped_high = True
    profit = expected_profit(terms, dist, c)
    tail = cvar(terms, dist, c)
    value = profit if terms.alpha == 0.0 else profit + terms.alpha * tail
    return ContractDecision(c, psi, clipped_low, clipped_high, profit, tail, value)


def optimal_profit_formula(
    terms: ProgramTerms, dist: CurtailmentDistribution, c_star: float
) -> float:
    """Evaluate J* = p*(pi_p + pi_e)*P(c*) - alpha*(pi_r - p*pi_p)*c*.

    The closed form exceeds J(c*) by exactly p*(pi_p + pi_e)*c*(F(c*) - psi),
    so it equals J(c*) whenever F(c*) = psi, at every alpha.  It deviates for
    empirical buckets (c* is a sample, so F(c*) is a multiple of 1/n) and for
    clipped contracts.
    """
    return terms.p * (terms.pi_p + terms.pi_e) * float(
        dist.partial_expectation(c_star)
    ) - terms.alpha * (terms.pi_r - terms.p * terms.pi_p) * c_star


def gamma(terms: ProgramTerms) -> float:
    """Standard-normal quantile of psi: c* = mu + gamma*sigma for N(mu, sigma)."""
    psi = quantile_argument(terms)
    if not 0.0 < psi < 1.0:
        raise ValueError(f"gamma undefined: psi = {psi:g} outside (0, 1)")
    return float(standard_normal_quantile(psi))


def bracket_factor(terms: ProgramTerms, gamma_value: float | None = None) -> float:
    """p*(pi_p+pi_e)*phi(gamma) + alpha*(pi_r-p*pi_p)*gamma, the delta_sigma multiplier.

    For an unclipped N(mu, sigma) it is quantile_loss(c*)/sigma, and minus the
    exact slope dJ*/dsigma of the optimal profit.  The alpha term is negative
    whenever gamma > 0, but at the program's own fractile the whole factor
    stays positive: psi = 1 + (1+alpha)*margin/D (D = p*(pi_p+pi_e)) gives
    alpha*|margin|*gamma/D < (1-psi)*gamma < phi(gamma) by the Gaussian tail
    bound.  A negative factor therefore signals inconsistent inputs, not an
    expected regime.  gamma_value, if given, is gamma(terms), which is then
    not evaluated again; gamma_hat is where the factor itself crosses zero.
    """
    g = gamma(terms) if gamma_value is None else gamma_value
    return float(
        terms.p * (terms.pi_p + terms.pi_e) * standard_normal_pdf(g)
        + terms.alpha * (terms.pi_r - terms.p * terms.pi_p) * g
    )


def alpha_threshold(terms: ProgramTerms) -> float:
    """Risk aversion at which psi reaches zero and the contract shuts off.

    Solves pi_r + p*pi_e + alpha*(pi_r - p*pi_p) = 0; requires the no-asset
    margin to be negative, which well-posed terms guarantee.
    """
    margin = terms.no_asset_margin
    if margin >= 0.0:
        raise ValueError(
            "psi is non-decreasing in alpha when pi_r - p*pi_p >= 0; no threshold"
        )
    return (terms.pi_r + terms.p * terms.pi_e) / (-margin)


def gamma_hat(terms: ProgramTerms) -> float | None:
    """The gamma > 0 at which bracket_factor changes sign, or None when it never does.

    At alpha = 0 the factor is p*(pi_p+pi_e)*phi(gamma) > 0 everywhere.  For
    alpha > 0 (and a negative no-asset margin m) D*phi(g) = -alpha*m*g has one
    root, and squaring gives g^2*exp(g^2) = k^2 with k = D/(-alpha*m*sqrt(2*pi)):
    gamma_hat = sqrt(W(k^2)), W the principal Lambert W.  Halley's method solves
    W's equation in log form, w + ln(w) = 2*ln(k), for g = sqrt(w); ln(k) is
    taken as a sum of logs, so no power of k overflows as alpha -> 0+.  From
    these starts three steps reach rounding for every ln(k) in [-700, 700]
    (checked against mpmath); the fourth is margin.
    """
    if terms.alpha == 0.0 or terms.no_asset_margin >= 0.0:
        return None
    log_k = (
        math.log(terms.p * (terms.pi_p + terms.pi_e))
        - math.log(terms.alpha)
        - math.log(-terms.no_asset_margin)
        - 0.5 * math.log(2.0 * math.pi)
    )
    if log_k > 0.5:
        g = math.sqrt(2.0 * log_k - math.log(2.0 * log_k))
    else:
        k = math.exp(log_k)
        g = k / math.sqrt(1.0 + k * k)
    for _ in range(4):
        # f(g) = g^2/2 + ln(g) - ln(k), with f' = (g^2 + 1)/g and f'' = 1 - 1/g^2.
        f = 0.5 * g * g + math.log(g) - log_k
        g2 = g * g
        g -= 2.0 * f * g * (g2 + 1.0) / (2.0 * (g2 + 1.0) ** 2 - f * (g2 - 1.0))
    return g


def alpha_sweep(
    terms: ProgramTerms, dist: CurtailmentDistribution, alphas
) -> list[ContractDecision]:
    """Re-optimize the contract at each risk-aversion value."""
    out = []
    for a in np.asarray(alphas, dtype=float):
        out.append(optimal_contract(terms.with_alpha(float(a)), dist))
    return out
