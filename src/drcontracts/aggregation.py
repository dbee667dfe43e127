"""Joint participation of several assets under one contract.

An aggregation signs a single contract against the summed capability.  Its
value relative to separate contracts is governed by the complementarity
delta_sigma = sum_k sigma_k - sigma_ag: pooling pays exactly when the members'
capabilities do not move together.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .contracts import (
    ContractDecision,
    bracket_factor,
    gamma,
    optimal_contract,
    quantile_argument,
)
from .distributions import (
    CovarianceModel,
    CurtailmentDistribution,
    EmpiricalDistribution,
    NormalDistribution,
    standard_normal_cdf,
    sum_empirical,
    sum_normal,
)
from .errors import AlignmentError, ModelConsistencyError
from .formatting import sig9
from .program import ProgramTerms

RANKING_CSV_HEADER = [
    "candidate_id",
    "delta_sigma",
    "delta_j_oracle",
    "delta_j_printed",
    "delta_j_cancelled",
    "individual_profit",
]

# Relative tolerance for calling two contract sizes equal.
_EQUAL_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class AssetPortfolio:
    """Members sharing program terms, and so one risk aversion.

    The pool signs under the same terms as its members.  A covariance model
    is required to sum normal members; it matches members by asset id, so
    its ids must cover the member ids and its moments must agree with the
    member distributions.
    """

    members: tuple[tuple[str, CurtailmentDistribution], ...]
    terms: ProgramTerms
    covariance: CovarianceModel | None = None

    def __post_init__(self) -> None:
        members = tuple((str(aid), dist) for aid, dist in self.members)
        if not members:
            raise ValueError("portfolio needs at least one member")
        ids = [aid for aid, _ in members]
        if len(set(ids)) != len(ids):
            raise ValueError("member ids must be unique")
        if any(not aid for aid in ids):
            raise ValueError("member ids must be non-empty")
        for aid, dist in members:
            if not isinstance(dist, (EmpiricalDistribution, NormalDistribution)):
                raise TypeError(f"member {aid!r} has no distribution: {type(dist).__name__}")
        if self.covariance is not None:
            missing = [aid for aid in ids if aid not in self.covariance.asset_ids]
            if missing:
                raise ModelConsistencyError(
                    f"covariance model missing member ids {missing}"
                )
            self._check_covariance_moments(members)
        object.__setattr__(self, "members", members)

    def _check_covariance_moments(
        self, members: tuple[tuple[str, CurtailmentDistribution], ...]
    ) -> None:
        cov = self.covariance
        for aid, dist in members:
            if not isinstance(dist, NormalDistribution):
                continue
            j = cov.index_of(aid)
            for got, want, what in (
                (cov.means[j], dist.mu, "mean"),
                (cov.stddevs[j], dist.sigma, "stddev"),
            ):
                if abs(got - want) > 1e-9 * max(1.0, abs(want)):
                    raise ModelConsistencyError(
                        f"covariance {what} {got:g} disagrees with member {aid!r} ({want:g})"
                    )

    @property
    def member_ids(self) -> tuple[str, ...]:
        return tuple(aid for aid, _ in self.members)

    @cached_property
    def aggregate(self) -> CurtailmentDistribution:
        """Distribution of the summed capability, built on first access."""
        dists = [dist for _, dist in self.members]
        if len(dists) == 1:
            return dists[0]
        if all(isinstance(d, EmpiricalDistribution) for d in dists):
            return sum_empirical(dists)
        if all(isinstance(d, NormalDistribution) for d in dists):
            if self.covariance is None:
                raise ModelConsistencyError(
                    "summing normal members requires a covariance model"
                )
            return sum_normal(self.covariance.subset(self.member_ids))
        raise AlignmentError("cannot sum a mix of empirical and normal members")


def aggregate_distribution(portfolio: AssetPortfolio) -> CurtailmentDistribution:
    """Distribution of the summed capability."""
    return portfolio.aggregate


def member_contracts(portfolio: AssetPortfolio) -> list[ContractDecision]:
    """Each member's standalone optimal contract under the shared terms."""
    return [optimal_contract(portfolio.terms, dist) for _, dist in portfolio.members]


def aggregation_contract(portfolio: AssetPortfolio) -> ContractDecision:
    """The single contract the aggregation signs."""
    return optimal_contract(portfolio.terms, aggregate_distribution(portfolio))


def member_sigmas(portfolio: AssetPortfolio) -> np.ndarray:
    return np.array([dist.stddev() for _, dist in portfolio.members])


def complementarity(portfolio: AssetPortfolio) -> float:
    """delta_sigma = sum of member stddevs minus the aggregate stddev."""
    sigma_sum = float(member_sigmas(portfolio).sum())
    sigma_ag = aggregate_distribution(portfolio).stddev()
    return sigma_sum - sigma_ag


@dataclass(frozen=True)
class ComparisonVerdict:
    verdict: str
    c_star_ag: float
    c_star_sum: float
    gamma_value: float
    delta_sigma: float


def contract_comparison(portfolio: AssetPortfolio) -> ComparisonVerdict:
    """Order the aggregation's contract against the sum of member contracts.

    For normal members the ordering follows the sign of gamma whenever
    delta_sigma > 0; that law is checked, not just reported.  Where psi lies
    outside (0, 1), past the shut-off threshold say, gamma does not exist:
    gamma_value is NaN and the verdict rests on the contracts alone.
    """
    c_ag = aggregation_contract(portfolio).c_star
    c_sum = float(sum(d.c_star for d in member_contracts(portfolio)))
    gamma_value = math.nan
    if 0.0 < quantile_argument(portfolio.terms) < 1.0:
        gamma_value = gamma(portfolio.terms)
    delta_sigma = complementarity(portfolio)
    tol = _EQUAL_RTOL * max(1.0, abs(c_sum), abs(c_ag))
    diff = c_sum - c_ag
    if abs(diff) <= tol:
        verdict = "equal"
    elif diff > 0.0:
        verdict = "ag_smaller"
    else:
        verdict = "ag_larger"
    all_normal = all(isinstance(d, NormalDistribution) for _, d in portfolio.members)
    if all_normal and delta_sigma > tol and verdict != "equal":
        expected = "ag_smaller" if gamma_value > 0.0 else "ag_larger"
        if gamma_value != 0.0 and not math.isnan(gamma_value) and verdict != expected:
            raise RuntimeError(
                f"contract ordering {verdict} contradicts sign(gamma)={gamma_value:g} "
                f"at delta_sigma={delta_sigma:g}"
            )
    return ComparisonVerdict(
        verdict=verdict,
        c_star_ag=c_ag,
        c_star_sum=c_sum,
        gamma_value=gamma_value,
        delta_sigma=delta_sigma,
    )


def profit_delta_oracle(portfolio: AssetPortfolio) -> float:
    """Ground-truth profit gain of aggregating: joint minus separate.

    Every party signs its own risk-adjusted optimal contract; the delta is
    taken on expected profit, the quantity the complementarity result
    describes.
    """
    joint = aggregation_contract(portfolio)
    separate = sum(d.expected_profit for d in member_contracts(portfolio))
    return float(joint.expected_profit - separate)


def profit_delta_from_sigmas(
    terms: ProgramTerms, sigmas: Sequence[float], sigma_ag: float
) -> tuple[float, float]:
    """Analytic profit deltas from member and aggregate spreads.

    Returns (delta_j_printed, delta_j_cancelled), from one evaluation of
    gamma and the bracket factor.  delta_j_cancelled is delta_sigma times
    the bracket factor (the member means cancel against the aggregate mean,
    removing the count-proportional term).  delta_j_printed additionally
    keeps -p*(pi_p+pi_e)*(n_members-1)*Phi(gamma), a count-proportional term
    that survives only if the cancellation is not applied; it is reported
    for auditing, not for decisions.  Spreads must be finite and >= 0, with
    at least one member.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.size == 0:
        raise ValueError("profit delta needs at least one member spread")
    if not all(0.0 <= s < math.inf for s in sigmas.ravel().tolist()):
        raise ValueError(f"member spreads must be finite and >= 0, got {sigmas.tolist()}")
    if not 0.0 <= sigma_ag < math.inf:
        raise ValueError(f"aggregate spread must be finite and >= 0, got {sigma_ag!r}")
    delta_sigma = float(sigmas.sum()) - float(sigma_ag)
    return _analytic_deltas(terms, delta_sigma, sigmas.size)


def _analytic_deltas(terms: ProgramTerms, delta_sigma, members: int):
    """(delta_j_printed, delta_j_cancelled) of pools of members, from one gamma."""
    g = gamma(terms)
    cancelled = delta_sigma * bracket_factor(terms, g)
    count_term = -terms.p * (terms.pi_p + terms.pi_e) * (members - 1) * standard_normal_cdf(g)
    return cancelled + count_term, cancelled


def profit_delta_normal(portfolio: AssetPortfolio) -> tuple[float, float]:
    """Analytic (delta_j_printed, delta_j_cancelled) for an all-normal portfolio."""
    for aid, dist in portfolio.members:
        if not isinstance(dist, NormalDistribution):
            raise TypeError(f"member {aid!r} is not normal; the formula needs sigmas")
    sigmas = member_sigmas(portfolio)
    sigma_ag = aggregate_distribution(portfolio).stddev()
    return profit_delta_from_sigmas(portfolio.terms, sigmas, sigma_ag)


@dataclass(frozen=True)
class PartnerRank:
    candidate_id: str
    delta_sigma: float
    delta_j_oracle: float
    delta_j_printed: float
    delta_j_cancelled: float
    individual_profit: float


def score_pools(terms: ProgramTerms, sigmas, profits, sigma_ag, joint) -> np.ndarray:
    """delta_sigma, delta_j_oracle, delta_j_printed and delta_j_cancelled, stacked.

    sigmas and profits hold the members' spreads and optimal expected profits
    under terms, a row per member (and a column per pool, for several pools);
    sigma_ag and joint hold the pools'.  The values are complementarity's,
    profit_delta_oracle's and profit_delta_from_sigmas', except that the
    analytic deltas are NaN where psi lies outside (0, 1) and gamma does not exist.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    delta_sigma = sigmas.sum(axis=0) - sigma_ag
    analytic = (np.nan, np.nan)
    if 0.0 < quantile_argument(terms) < 1.0:
        analytic = _analytic_deltas(terms, delta_sigma, len(sigmas))
    oracle = joint - np.sum(profits, axis=0)
    return np.array(np.broadcast_arrays(delta_sigma, oracle, *analytic))


def _score_pair(
    pair: AssetPortfolio, decisions: Sequence[ContractDecision]
) -> tuple[float, float, float, float]:
    """score_pools of one pool; decisions are its members' own contracts under
    pair.terms, decided by the caller, and only the pooled one is decided here."""
    pooled = aggregate_distribution(pair)
    joint = optimal_contract(pair.terms, pooled).expected_profit
    profits = [d.expected_profit for d in decisions]
    scores = score_pools(pair.terms, member_sigmas(pair), profits, pooled.stddev(), joint)
    return tuple(scores.tolist())


def rank_partners(
    base: tuple[str, CurtailmentDistribution],
    candidates: Sequence[tuple[str, CurtailmentDistribution]],
    terms: ProgramTerms,
    covariance: CovarianceModel | None = None,
) -> list[PartnerRank]:
    """Score each candidate as a partner for the base asset.

    Sorted by delta_sigma descending, ties broken by candidate id, so the
    most complementary partner comes first.  The base's contract is decided
    once, and each candidate's once for its pair and its individual profit.
    """
    base_id, _ = base
    ids = [cand_id for cand_id, _ in candidates]
    if base_id in ids:
        raise ValueError(f"candidate {base_id!r} duplicates the base asset")
    repeated = sorted({cand_id for cand_id in ids if ids.count(cand_id) > 1})
    if repeated:
        raise ValueError(f"candidates listed more than once: {repeated}")
    if not candidates:
        return []
    pairs = [
        AssetPortfolio(members=(base, cand), terms=terms, covariance=covariance)
        for cand in candidates
    ]
    base_decision = optimal_contract(terms, base[1])
    rows = []
    for (cand_id, cand_dist), pair in zip(candidates, pairs):
        decision = optimal_contract(terms, cand_dist)
        scores = _score_pair(pair, (base_decision, decision))
        rows.append(PartnerRank(cand_id, *scores, decision.expected_profit))
    return sorted(rows, key=lambda r: (-r.delta_sigma, r.candidate_id))


def write_ranking_csv(path, rows: Sequence[PartnerRank]) -> None:
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RANKING_CSV_HEADER)
        for row in rows:
            writer.writerow(
                [
                    row.candidate_id,
                    sig9(row.delta_sigma),
                    sig9(row.delta_j_oracle),
                    sig9(row.delta_j_printed),
                    sig9(row.delta_j_cancelled),
                    sig9(row.individual_profit),
                ]
            )
