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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    CurtailmentDistribution,
    EmpiricalDistribution,
    NormalDistribution,
    standard_normal_pdf,
    standard_normal_quantile,
)
from .errors import UnconstrainedContractError
from .program import ProgramTerms

# Resolution of the grid oracle: the search interval divided into this many steps.
GRID_POINTS = 10_000
# Bracket width for the sign-change search on the sigma coefficient.
GAMMA_HAT_TOLERANCE = 1e-6


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


def expected_profit(terms: ProgramTerms, dist: CurtailmentDistribution, c):
    """Expected per-window profit J(c); accepts scalar or array c."""
    c_arr = np.asarray(c, dtype=float)
    if c_arr.size and np.min(c_arr) < 0.0:
        raise ValueError("contract size must be >= 0")
    if c_arr.size and np.max(c_arr) > terms.contract_cap:
        raise ValueError(f"contract size exceeds cap {terms.contract_cap:g}")
    f = np.asarray(dist.cdf(c_arr), dtype=float)
    part = np.asarray(dist.partial_expectation(c_arr), dtype=float)
    shortfall = c_arr * f - part
    out = terms.pi_r * c_arr + terms.p * (
        -terms.pi_p * shortfall + terms.pi_e * (part + c_arr * (1.0 - f))
    )
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
    c_arr = np.asarray(c, dtype=float)
    if c_arr.size and np.min(c_arr) < 0.0:
        raise ValueError("contract size must be >= 0")
    q_hat = tail_cutoff(terms, dist)
    q_tail = float(dist.partial_expectation(q_hat)) / float(dist.cdf(q_hat))
    out = terms.pi_r * c_arr + terms.p * (
        terms.pi_e * q_tail - terms.pi_p * (c_arr - q_tail)
    )
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


def optimal_contract(terms: ProgramTerms, dist: CurtailmentDistribution) -> ContractDecision:
    """Size the contract at the psi-quantile, the exact argmax, with clipping flags.

    For samples that is the smallest sample whose cdf reaches psi: below it
    the objective rises, from it on it does not.
    """
    psi = quantile_argument(terms)
    cap = terms.contract_cap
    clipped_low = clipped_high = False
    if psi <= 0.0:
        c = 0.0
        clipped_low = True
    elif psi >= 1.0:
        if math.isinf(cap):
            raise UnconstrainedContractError(
                f"psi = {psi:g} >= 1 with no contract cap: optimum is unbounded"
            )
        c = cap
        clipped_high = True
    else:
        if isinstance(dist, EmpiricalDistribution):
            # Levels k/n as cdf computes them, so psi = F(s_k) picks s_k.
            levels = np.arange(1, dist.n + 1) / dist.n
            c = float(dist.samples[int(np.searchsorted(levels, psi))])
        else:
            c = float(dist.quantile(psi))
            if c < 0.0:
                c = 0.0
                clipped_low = True
        if c >= cap:
            c = cap
            clipped_high = True
    profit = expected_profit(terms, dist, c)
    tail = cvar(terms, dist, c)
    return ContractDecision(
        c_star=c,
        psi=psi,
        clipped_low=clipped_low,
        clipped_high=clipped_high,
        expected_profit=profit,
        cvar_value=tail,
        # The expression objective() evaluates, on the values already in hand.
        objective_value=profit if terms.alpha == 0.0 else profit + terms.alpha * tail,
    )


@dataclass(frozen=True)
class ProfitAudit:
    """Closed-form optimal profit against the direct evaluation of J."""

    formula_value: float
    expected_profit: float

    @property
    def residual(self) -> float:
        return self.formula_value - self.expected_profit


def optimal_profit_formula(
    terms: ProgramTerms, dist: CurtailmentDistribution, c_star: float
) -> ProfitAudit:
    """Evaluate J* = p*(pi_p + pi_e)*P(c*) - alpha*(pi_r - p*pi_p)*c*.

    The closed form equals J(c*) whenever F(c*) = psi, at every alpha.  It
    deviates for empirical buckets (c* is a sample, so F(c*) is a multiple of
    1/n) and for clipped contracts; the residual is reported, not hidden.
    """
    formula = terms.p * (terms.pi_p + terms.pi_e) * float(
        dist.partial_expectation(c_star)
    ) - terms.alpha * (terms.pi_r - terms.p * terms.pi_p) * c_star
    return ProfitAudit(
        formula_value=formula,
        expected_profit=expected_profit(terms, dist, c_star),
    )


def gamma(terms: ProgramTerms) -> float:
    """Standard-normal quantile of psi: c* = mu + gamma*sigma for N(mu, sigma)."""
    psi = quantile_argument(terms)
    if not 0.0 < psi < 1.0:
        raise ValueError(f"gamma undefined: psi = {psi:g} outside (0, 1)")
    return float(standard_normal_quantile(psi))


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


def sigma_coefficient(terms: ProgramTerms, gamma_value: float) -> float:
    """Coefficient of sigma in the optimal profit for N(mu, sigma).

    d(J*)/d(sigma) = -p*(pi_p + pi_e)*phi(gamma) - alpha*(pi_r - p*pi_p)*gamma.
    Negative at gamma = 0; for alpha > 0 the linear term eventually dominates
    and the sign flips at gamma_hat.
    """
    return -terms.p * (terms.pi_p + terms.pi_e) * float(
        standard_normal_pdf(gamma_value)
    ) - terms.alpha * (terms.pi_r - terms.p * terms.pi_p) * gamma_value


def gamma_hat(terms: ProgramTerms) -> float | None:
    """Sign-change point of the sigma coefficient, or None when there is none.

    At alpha = 0 the coefficient is -p*(pi_p+pi_e)*phi(gamma) < 0 everywhere.
    For alpha > 0 (and a negative no-asset margin) the coefficient is negative
    at 0 and grows linearly, so a root exists; it is located by bisection to
    a bracket width of GAMMA_HAT_TOLERANCE.
    """
    if terms.alpha == 0.0 or terms.no_asset_margin >= 0.0:
        return None
    lo = 0.0
    hi = 1.0
    for _ in range(128):
        if sigma_coefficient(terms, hi) > 0.0:
            break
        hi *= 2.0
    else:
        return None
    while hi - lo > GAMMA_HAT_TOLERANCE:
        mid = 0.5 * (lo + hi)
        if sigma_coefficient(terms, mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class SigmaSensitivity:
    derivative: float
    gamma_value: float
    gamma_hat: float | None


def sigma_sensitivity(terms: ProgramTerms, mu: float, sigma: float) -> SigmaSensitivity:
    """Central finite difference of the optimal profit J* in sigma at N(mu, sigma).

    J* is the closed-form optimal profit evaluated at the optimizer for each
    perturbed sigma, sigma +/- 1e-4 * sigma.  The companion gamma_hat locates where the analytic sigma
    coefficient changes sign.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be > 0 for a sigma sensitivity")
    delta = 1e-4 * sigma

    def j_star(s: float) -> float:
        dist = NormalDistribution(mu, s)
        decision = optimal_contract(terms, dist)
        return optimal_profit_formula(terms, dist, decision.c_star).formula_value

    derivative = (j_star(sigma + delta) - j_star(sigma - delta)) / (2.0 * delta)
    return SigmaSensitivity(
        derivative=derivative,
        gamma_value=gamma(terms),
        gamma_hat=gamma_hat(terms),
    )


def alpha_sweep(
    terms: ProgramTerms, dist: CurtailmentDistribution, alphas
) -> list[ContractDecision]:
    """Re-optimize the contract at each risk-aversion value."""
    out = []
    for a in np.asarray(alphas, dtype=float):
        out.append(optimal_contract(terms.with_alpha(float(a)), dist))
    return out
