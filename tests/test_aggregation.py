"""Portfolio aggregation: contract ordering, profit deltas, partner ranking."""

from __future__ import annotations

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import drcontracts.aggregation
from drcontracts import (
    AlignmentError,
    AssetPortfolio,
    CovarianceModel,
    EmpiricalDistribution,
    ModelConsistencyError,
    NormalDistribution,
    PartnerRank,
    ProgramTerms,
    aggregate_distribution,
    aggregation_contract,
    alpha_threshold,
    bracket_factor,
    complementarity,
    contract_comparison,
    gamma,
    member_contracts,
    member_sigmas,
    optimal_contract,
    profit_delta_from_sigmas,
    profit_delta_normal,
    profit_delta_oracle,
    quantile_argument,
    quantile_loss,
    rank_partners,
    write_ranking_csv,
)
from drcontracts.aggregation import _score_pair, score_pools
from drcontracts.cli import _spread_and_profit
from drcontracts.estimation import (
    EstimationConfig,
    build_capability_model,
    read_load_csv,
    read_shapes_csv,
    restrict_to_common,
    sorted_block,
)
from drcontracts.formatting import sig9

from conftest import terms_for_psi

PHI_AT_ONE = math.exp(-0.5) / math.sqrt(2.0 * math.pi)  # standard normal pdf at 1
CDF_AT_ONE = float(ndtr(1.0))

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_CONFIG = json.loads((FIXTURES / "config.json").read_text())
# Shut-off threshold alpha_0 = 2.4615...
FIXTURE_TERMS = ProgramTerms(**FIXTURE_CONFIG["terms"])


def pair_covariance(rho: float, ids=("a", "b")) -> CovarianceModel:
    return CovarianceModel(
        means=np.array([100.0, 200.0]),
        stddevs=np.array([3.0, 4.0]),
        correlation=np.array([[1.0, rho], [rho, 1.0]]),
        asset_ids=tuple(ids),
    )


def normal_pair_portfolio(terms, rho: float = 0.0) -> AssetPortfolio:
    return AssetPortfolio(
        members=(
            ("a", NormalDistribution(100.0, 3.0)),
            ("b", NormalDistribution(200.0, 4.0)),
        ),
        terms=terms,
        covariance=pair_covariance(rho),
    )


class TestPortfolioValidation:
    def test_empty_portfolio_rejected(self, basic_terms):
        with pytest.raises(ValueError, match="at least one"):
            AssetPortfolio(members=(), terms=basic_terms)

    def test_duplicate_member_ids_rejected(self, basic_terms):
        with pytest.raises(ValueError, match="unique"):
            AssetPortfolio(
                members=(
                    ("a", NormalDistribution(1.0, 1.0)),
                    ("a", NormalDistribution(2.0, 1.0)),
                ),
                terms=basic_terms,
            )

    def test_covariance_must_cover_member_ids(self, basic_terms):
        with pytest.raises(ModelConsistencyError, match="missing"):
            AssetPortfolio(
                members=(
                    ("a", NormalDistribution(100.0, 3.0)),
                    ("zz", NormalDistribution(200.0, 4.0)),
                ),
                terms=basic_terms,
                covariance=pair_covariance(0.0),
            )

    def test_covariance_moments_must_match_members(self, basic_terms):
        with pytest.raises(ModelConsistencyError, match="stddev"):
            AssetPortfolio(
                members=(
                    ("a", NormalDistribution(100.0, 3.0)),
                    ("b", NormalDistribution(200.0, 4.5)),
                ),
                terms=basic_terms,
                covariance=pair_covariance(0.0),
            )


class TestAggregateDistribution:
    def test_single_member_is_identity(self, basic_terms):
        dist = NormalDistribution(100.0, 3.0)
        portfolio = AssetPortfolio(members=(("a", dist),), terms=basic_terms)
        assert aggregate_distribution(portfolio) is dist

    def test_normal_pair_needs_covariance(self, basic_terms):
        portfolio = AssetPortfolio(
            members=(
                ("a", NormalDistribution(100.0, 3.0)),
                ("b", NormalDistribution(200.0, 4.0)),
            ),
            terms=basic_terms,
        )
        with pytest.raises(ModelConsistencyError, match="covariance"):
            aggregate_distribution(portfolio)
        with pytest.raises(ModelConsistencyError, match="covariance"):
            aggregate_distribution(portfolio)  # a failed sum is not cached

    def test_normal_pair_sum_moments(self, basic_terms):
        agg = aggregate_distribution(normal_pair_portfolio(basic_terms, rho=0.0))
        assert agg.mean() == pytest.approx(300.0)
        assert agg.stddev() == pytest.approx(5.0)

    def test_mixed_members_rejected(self, basic_terms):
        portfolio = AssetPortfolio(
            members=(
                ("a", NormalDistribution(100.0, 3.0)),
                ("b", EmpiricalDistribution(np.array([1.0, 2.0, 3.0]))),
            ),
            terms=basic_terms,
        )
        with pytest.raises(AlignmentError):
            aggregate_distribution(portfolio)

    def test_empirical_pair_sums_windows(self, basic_terms):
        portfolio = AssetPortfolio(
            members=(
                ("a", EmpiricalDistribution(np.array([1.0, 2.0, 3.0]))),
                ("b", EmpiricalDistribution(np.array([10.0, 20.0, 30.0]))),
            ),
            terms=basic_terms,
        )
        agg = aggregate_distribution(portfolio)
        assert agg.samples.tolist() == [11.0, 22.0, 33.0]

    def test_members_are_summed_once_per_portfolio(self, basic_terms, monkeypatch):
        calls = []
        real = drcontracts.aggregation.sum_empirical

        def counting(dists):
            calls.append(len(dists))
            return real(dists)

        monkeypatch.setattr(drcontracts.aggregation, "sum_empirical", counting)
        portfolio = AssetPortfolio(
            members=(
                ("a", EmpiricalDistribution(np.array([1.0, 2.0, 3.0, 5.0]))),
                ("b", EmpiricalDistribution(np.array([10.0, 20.0, 30.0, 15.0]))),
            ),
            terms=basic_terms,
        )
        agg = aggregate_distribution(portfolio)
        complementarity(portfolio)
        profit_delta_oracle(portfolio)
        assert calls == [2]
        assert aggregate_distribution(portfolio) is agg

    def test_pool_signs_under_the_member_terms(self):
        terms = terms_for_psi(0.7, alpha=0.5)
        portfolio = normal_pair_portfolio(terms)
        joint = aggregation_contract(portfolio)
        assert joint == optimal_contract(terms, aggregate_distribution(portfolio))


class TestContractComparison:
    """A complementary pair against the worked positive/negative-fractile cases."""

    def test_high_fractile_shrinks_aggregate_contract(self):
        terms = terms_for_psi(CDF_AT_ONE)  # gamma = 1
        verdict = contract_comparison(normal_pair_portfolio(terms))
        assert verdict.c_star_sum == pytest.approx(307.0, abs=1e-6)
        assert verdict.c_star_ag == pytest.approx(305.0, abs=1e-6)
        assert verdict.verdict == "ag_smaller"
        assert verdict.gamma_value == pytest.approx(1.0, abs=1e-9)
        assert verdict.delta_sigma == pytest.approx(2.0, abs=1e-9)

    def test_low_fractile_grows_aggregate_contract(self):
        terms = terms_for_psi(float(ndtr(-1.0)), pi_e=0.2)  # gamma = -1
        verdict = contract_comparison(normal_pair_portfolio(terms))
        assert verdict.c_star_sum == pytest.approx(293.0, abs=1e-6)
        assert verdict.c_star_ag == pytest.approx(295.0, abs=1e-6)
        assert verdict.verdict == "ag_larger"

    def test_comonotone_pair_is_equal(self):
        terms = terms_for_psi(CDF_AT_ONE)
        verdict = contract_comparison(normal_pair_portfolio(terms, rho=1.0))
        assert verdict.delta_sigma == pytest.approx(0.0, abs=1e-9)
        assert verdict.verdict == "equal"

    @settings(max_examples=25, deadline=None)
    @given(
        psi=st.floats(0.15, 0.85),
        sigma_b=st.floats(0.5, 8.0),
        rho=st.floats(-0.9, 0.9),
    )
    def test_ordering_follows_fractile_sign(self, psi, sigma_b, rho):
        terms = terms_for_psi(psi, pi_e=0.2)
        cov = CovarianceModel(
            means=np.array([100.0, 200.0]),
            stddevs=np.array([3.0, sigma_b]),
            correlation=np.array([[1.0, rho], [rho, 1.0]]),
            asset_ids=("a", "b"),
        )
        portfolio = AssetPortfolio(
            members=(
                ("a", NormalDistribution(100.0, 3.0)),
                ("b", NormalDistribution(200.0, sigma_b)),
            ),
            terms=terms,
            covariance=cov,
        )
        verdict = contract_comparison(portfolio)  # raises if the law is broken
        if verdict.delta_sigma > 1e-6 and abs(verdict.gamma_value) > 1e-6:
            expected = "ag_smaller" if verdict.gamma_value > 0 else "ag_larger"
            assert verdict.verdict == expected

    def test_past_the_shut_off_the_contracts_decide(self):
        terms = FIXTURE_TERMS.with_alpha(3.0)
        assert quantile_argument(terms) == pytest.approx(-0.155556, abs=1e-6)
        portfolio = normal_pair_portfolio(terms)
        verdict = contract_comparison(portfolio)
        assert verdict.verdict == "equal"
        assert verdict.c_star_ag == verdict.c_star_sum == 0.0
        assert math.isnan(verdict.gamma_value)
        assert verdict.delta_sigma == pytest.approx(2.0, abs=1e-9)
        assert profit_delta_oracle(portfolio) == 0.0


# Position of each delta in the (delta_j_printed, delta_j_cancelled) pair that
# profit_delta_from_sigmas and profit_delta_normal return.
DELTA_INDEX = {"as_printed": 0, "mean_cancelled": 1}


class TestProfitDeltas:
    def test_mean_cancelled_matches_frozen_value(self):
        terms = terms_for_psi(CDF_AT_ONE)
        _, value = profit_delta_normal(normal_pair_portfolio(terms))
        # delta_sigma = 2, bracket = p*(pi_p+pi_e)*pdf(1) = 1.0*pdf(1) at alpha=0
        assert value == pytest.approx(2.0 * PHI_AT_ONE, rel=1e-12)

    def test_as_printed_keeps_count_term(self):
        terms = terms_for_psi(CDF_AT_ONE)
        value, _ = profit_delta_normal(normal_pair_portfolio(terms))
        expected = 2.0 * PHI_AT_ONE - 1.0 * CDF_AT_ONE
        assert value == pytest.approx(expected, rel=1e-12)
        assert value < 0.0  # the count term can flip the sign on its own

    @pytest.mark.parametrize("psi", [float(ndtr(-1.0)), CDF_AT_ONE])
    def test_oracle_matches_mean_cancelled_risk_neutral(self, psi):
        terms = terms_for_psi(psi, pi_e=0.2)
        portfolio = normal_pair_portfolio(terms)
        oracle = profit_delta_oracle(portfolio)
        _, analytic = profit_delta_normal(portfolio)
        assert oracle == pytest.approx(analytic, rel=1e-9)

    def test_oracle_matches_mean_cancelled_risk_averse(self):
        terms = terms_for_psi(0.7, alpha=0.5)
        portfolio = normal_pair_portfolio(terms)
        oracle = profit_delta_oracle(portfolio)
        _, analytic = profit_delta_normal(portfolio)
        assert oracle == pytest.approx(analytic, rel=1e-9)

    def test_identical_comonotone_pair_gains_nothing(self):
        terms = terms_for_psi(CDF_AT_ONE)
        cov = CovarianceModel(
            means=np.array([100.0, 100.0]),
            stddevs=np.array([3.0, 3.0]),
            correlation=np.array([[1.0, 1.0], [1.0, 1.0]]),
            asset_ids=("a", "b"),
        )
        portfolio = AssetPortfolio(
            members=(
                ("a", NormalDistribution(100.0, 3.0)),
                ("b", NormalDistribution(100.0, 3.0)),
            ),
            terms=terms,
            covariance=cov,
        )
        assert profit_delta_oracle(portfolio) == pytest.approx(0.0, abs=1e-9)
        assert profit_delta_normal(portfolio)[1] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("mode", list(DELTA_INDEX))
    @pytest.mark.parametrize(
        "sigmas, sigma_ag, match",
        [
            ([], 5.0, "at least one member"),
            ([-3.0, 4.0], 5.0, "member spreads"),
            ([3.0, math.nan], 5.0, "member spreads"),
            ([3.0, math.inf], 5.0, "member spreads"),
            ([3.0, 4.0], math.nan, "aggregate spread"),
            ([3.0, 4.0], math.inf, "aggregate spread"),
            ([3.0, 4.0], -1.0, "aggregate spread"),
        ],
    )
    def test_invalid_spreads_rejected(self, sigmas, sigma_ag, match, mode):
        terms = terms_for_psi(0.6, alpha=0.5)
        with pytest.raises(ValueError, match=match):
            profit_delta_from_sigmas(terms, sigmas, sigma_ag)[DELTA_INDEX[mode]]

    # (alpha, member spreads, aggregate spread) under the fixture terms, and the
    # as_printed and mean_cancelled values as float.hex, recorded when each was
    # its own call with a mode argument.
    RECORDED_DELTAS = [
        (0.5, [3.0, 4.0], 5.0, "0x1.a598fe6f6e1ccp-8", "0x1.c58f355e6ae35p-6"),
        (1.5, [2.5, 0.0, 7.25], 6.0, "0x1.fde114f2ef29cp-5", "0x1.5445dfceccea3p-4"),
        (2.4, [1.0], 0.0, "0x1.cd28d3b62a812p-5", "0x1.cd28d3b62a812p-5"),
    ]

    @pytest.mark.parametrize("alpha, sigmas, sigma_ag, printed, cancelled", RECORDED_DELTAS)
    def test_both_deltas_match_recorded_bits(self, alpha, sigmas, sigma_ag, printed, cancelled):
        terms = FIXTURE_TERMS.with_alpha(alpha)
        assert profit_delta_from_sigmas(terms, sigmas, sigma_ag) == (
            float.fromhex(printed),
            float.fromhex(cancelled),
        )

    @pytest.mark.parametrize("mode", list(DELTA_INDEX))
    def test_gamma_is_evaluated_once_per_call(self, mode, monkeypatch):
        import drcontracts.aggregation as aggregation

        calls = []

        def counting_gamma(terms):
            calls.append(terms)
            return gamma(terms)

        terms = terms_for_psi(0.6, alpha=0.5)
        expected = profit_delta_from_sigmas(terms, [3.0, 4.0], 5.0)[DELTA_INDEX[mode]]
        monkeypatch.setattr(aggregation, "gamma", counting_gamma)
        value = profit_delta_from_sigmas(terms, [3.0, 4.0], 5.0)[DELTA_INDEX[mode]]
        assert value == expected
        assert len(calls) == 1

    def test_score_pair_evaluates_gamma_once(self, monkeypatch):
        import drcontracts.aggregation as aggregation

        calls = []

        def counting_gamma(terms):
            calls.append(terms)
            return gamma(terms)

        portfolio = normal_pair_portfolio(terms_for_psi(0.6, alpha=0.5))
        decisions = member_contracts(portfolio)
        expected = _score_pair(portfolio, decisions)
        monkeypatch.setattr(aggregation, "gamma", counting_gamma)
        assert _score_pair(portfolio, decisions) == expected
        assert len(calls) == 1

    def test_formula_rejects_empirical_members(self, basic_terms):
        portfolio = AssetPortfolio(
            members=(("a", EmpiricalDistribution(np.array([1.0, 2.0, 3.0]))),),
            terms=basic_terms,
        )
        with pytest.raises(TypeError, match="not normal"):
            profit_delta_normal(portfolio)


class TestBracketFactor:
    def test_risk_neutral_bracket_is_event_weighted_density(self):
        terms = terms_for_psi(CDF_AT_ONE)
        # p*(pi_p+pi_e) = 0.1*10 = 1, so the bracket is just the pdf at gamma
        assert bracket_factor(terms) == pytest.approx(PHI_AT_ONE, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(psi=st.floats(0.05, 0.98), alpha=st.floats(0.0, 50.0))
    def test_bracket_positive_at_own_fractile(self, psi, alpha):
        # The alpha term is negative for gamma > 0 but can never win at the
        # program's own fractile (Gaussian tail bound), so pooling spread
        # always pays under the analytic formula.
        terms = terms_for_psi(psi, pi_e=0.2, alpha=alpha)
        assert bracket_factor(terms) > 0.0

    def test_bracket_positive_for_extreme_risk_aversion(self):
        terms = terms_for_psi(0.95, alpha=8.0)
        assert bracket_factor(terms) > 0.0
        _, value = profit_delta_normal(normal_pair_portfolio(terms))
        assert value > 0.0

    def test_bracket_is_negated_sigma_coefficient(self):
        # J* = (pi_r + p*pi_e)*mu - sigma*bracket_factor is linear in sigma for an
        # unclipped normal, so a unit step in sigma moves J* by -bracket_factor.
        terms = terms_for_psi(0.8, alpha=1.5)
        low, high = (
            optimal_contract(terms, NormalDistribution(100.0, sigma))
            for sigma in (2.0, 3.0)
        )
        assert low.clipped == high.clipped == "none"
        assert bracket_factor(terms) == pytest.approx(
            -(high.expected_profit - low.expected_profit), rel=1e-12
        )



class TestRanking:
    def ranking_inputs(self):
        terms = terms_for_psi(CDF_AT_ONE)
        ids = ("base", "a", "b", "c")
        # One-factor loadings on the base asset keep the matrix PSD:
        # rho(base, i) = a_i and rho(i, j) = a_i * a_j.
        loadings = np.array([1.0, -0.5, 0.6, 0.6])  # a hedges; b, c tie
        rho = np.outer(loadings, loadings)
        np.fill_diagonal(rho, 1.0)
        cov = CovarianceModel(
            means=np.array([100.0, 80.0, 80.0, 80.0]),
            stddevs=np.array([3.0, 4.0, 4.0, 4.0]),
            correlation=rho,
            asset_ids=ids,
        )
        base = ("base", NormalDistribution(100.0, 3.0))
        candidates = [
            ("a", NormalDistribution(80.0, 4.0)),
            ("b", NormalDistribution(80.0, 4.0)),
            ("c", NormalDistribution(80.0, 4.0)),
        ]
        return terms, cov, base, candidates

    def empirical_inputs(self):
        terms = terms_for_psi(0.6)
        rng = np.random.default_rng(11)
        base_samples = rng.normal(100.0, 3.0, 400)
        hedge = EmpiricalDistribution(200.0 - base_samples)  # strongly anti-aligned
        noise = EmpiricalDistribution(rng.normal(100.0, 3.0, 400))
        base = ("base", EmpiricalDistribution(base_samples))
        return terms, None, base, [("noise", noise), ("hedge", hedge)]

    def test_most_complementary_first_then_id(self):
        terms, cov, base, candidates = self.ranking_inputs()
        rows = rank_partners(base, candidates, terms, covariance=cov)
        assert [r.candidate_id for r in rows] == ["a", "b", "c"]
        assert rows[0].delta_sigma > rows[1].delta_sigma
        assert rows[1].delta_sigma == pytest.approx(rows[2].delta_sigma, rel=1e-12)
        # hedged pair: sigma_ag^2 = 9 + 16 - 12 = 13
        assert rows[0].delta_sigma == pytest.approx(7.0 - math.sqrt(13.0), rel=1e-12)

    def test_oracle_and_analytic_agree_per_candidate(self):
        terms, cov, base, candidates = self.ranking_inputs()
        for row in rank_partners(base, candidates, terms, covariance=cov):
            assert row.delta_j_oracle == pytest.approx(row.delta_j_cancelled, rel=1e-9)

    def test_candidate_equal_to_base_rejected(self):
        terms, cov, base, candidates = self.ranking_inputs()
        with pytest.raises(ValueError, match="duplicates"):
            rank_partners(base, [base], terms, covariance=cov)

    def test_repeated_candidate_rejected(self):
        terms, cov, base, candidates = self.ranking_inputs()
        with pytest.raises(ValueError, match="more than once"):
            rank_partners(base, [candidates[0], candidates[0]], terms, covariance=cov)

    def test_csv_bytes(self, tmp_path):
        terms, cov, base, candidates = self.ranking_inputs()
        rows = rank_partners(base, candidates[:1], terms, covariance=cov)
        path = tmp_path / "ranking.csv"
        write_ranking_csv(path, rows)
        row = rows[0]
        expected = (
            "candidate_id,delta_sigma,delta_j_oracle,delta_j_printed,"
            "delta_j_cancelled,individual_profit\r\n"
            + ",".join(
                [
                    "a",
                    sig9(row.delta_sigma),
                    sig9(row.delta_j_oracle),
                    sig9(row.delta_j_printed),
                    sig9(row.delta_j_cancelled),
                    sig9(row.individual_profit),
                ]
            )
            + "\r\n"
        )
        assert path.read_bytes().decode() == expected

    def test_empirical_candidates_rank_without_covariance(self):
        terms, _, base, candidates = self.empirical_inputs()
        rows = rank_partners(base, candidates, terms)
        assert rows[0].candidate_id == "hedge"
        assert rows[0].delta_sigma > rows[1].delta_sigma

    # Every PartnerRank field as float.hex, recorded when the ranking still
    # called complementarity, profit_delta_oracle and profit_delta_from_sigmas
    # per pair and decided every member contract afresh.
    RECORDED = {
        "normal": [
            ("a", "0x1.b27d4bb9ea60dp+1", "0x1.a488eee494200p-1", "-0x1.4779c5af20f20p-6",
             "0x1.a488eee494305p-1", "0x1.095bd97981e00p+6"),
            ("b", "0x1.7234aad272ee8p-1", "0x1.6650d80729c00p-3", "-0x1.5530871042bb4p-1",
             "0x1.6650d80729f2ap-3", "0x1.095bd97981e00p+6"),
            ("c", "0x1.7234aad272ee8p-1", "0x1.6650d80729c00p-3", "-0x1.5530871042bb4p-1",
             "0x1.6650d80729f2ap-3", "0x1.095bd97981e00p+6"),
        ],
        "empirical": [
            ("hedge", "0x1.725d778461f60p+2", "0x1.179b191b68500p+1", "0x1.a2c04ccc3692cp+0",
             "0x1.1e2cf332e8163p+1", "0x1.d67a954f4bad8p+5"),
            ("noise", "0x1.a7fc780d84700p+0", "0x1.3220321fdd700p-1", "0x1.468664766b690p-5",
             "0x1.479b997a99e9dp-1", "0x1.d5d86915cb461p+5"),
        ],
    }

    @pytest.mark.parametrize("case", sorted(RECORDED))
    def test_ranks_match_recorded_bits(self, case):
        inputs = self.ranking_inputs() if case == "normal" else self.empirical_inputs()
        terms, cov, base, candidates = inputs
        expected = [
            PartnerRank(cand_id, *map(float.fromhex, values))
            for cand_id, *values in self.RECORDED[case]
        ]
        assert rank_partners(base, candidates, terms, covariance=cov) == expected

    @pytest.mark.parametrize("case", ["normal", "empirical"])
    def test_analytic_deltas_are_nan_past_the_shut_off(self, case):
        inputs = self.ranking_inputs() if case == "normal" else self.empirical_inputs()
        terms, cov, base, candidates = inputs
        past = terms.with_alpha(alpha_threshold(terms) + 0.5)
        assert quantile_argument(past) < 0.0
        below = rank_partners(base, candidates, terms, covariance=cov)
        rows = rank_partners(base, candidates, past, covariance=cov)
        # Every contract shuts off; the spreads do not depend on the terms.
        assert [r.delta_sigma for r in rows] == [r.delta_sigma for r in below]
        for row in rows:
            assert row.delta_j_oracle == 0.0 and row.individual_profit == 0.0
            assert math.isnan(row.delta_j_printed) and math.isnan(row.delta_j_cancelled)
        with pytest.raises(ValueError, match="gamma undefined"):
            profit_delta_from_sigmas(past, [3.0, 4.0], 5.0)

    def test_each_contract_is_decided_once(self, monkeypatch):
        terms, cov, base, candidates = self.ranking_inputs()
        decided = []

        def counting(terms, dist):
            decided.append(dist)
            return optimal_contract(terms, dist)

        monkeypatch.setattr(drcontracts.aggregation, "optimal_contract", counting)
        rank_partners(base, candidates, terms, covariance=cov)
        # The base once, and per candidate its own contract and its pair's pooled one.
        assert len(decided) == 1 + 2 * len(candidates) == 7
        assert len({id(dist) for dist in decided}) == len(decided)


@st.composite
def paired_day_blocks(draw):
    """Base and candidate (days x hours) values paired by day, and terms.

    Days run from 2, values come partly from a few fixed ones, so hours hold
    ties, and some hours are all zero in one member or both.  alpha falls on
    either side of the fixture terms' shut-off threshold (2.4615).
    """
    days = draw(st.integers(2, 9))
    hours = draw(st.integers(1, 4))
    value = st.one_of(st.sampled_from([0.0, 0.5, 2.0, 3.25]), st.floats(0.0, 50.0))

    def block() -> np.ndarray:
        values = np.array(draw(st.lists(st.lists(value, min_size=hours, max_size=hours),
                                        min_size=days, max_size=days)))
        values[:, np.array(draw(st.lists(st.booleans(), min_size=hours, max_size=hours)))] = 0.0
        return values

    alpha = draw(st.one_of(st.sampled_from([0.0, 0.5, 3.0, 40.0]), st.floats(0.0, 10.0)))
    return block(), block(), FIXTURE_TERMS.with_alpha(alpha)


class TestBlockScorer:
    """aggregate's score of one (month, day type), as it takes it from sorted blocks,
    against each hour's own portfolio."""

    @settings(max_examples=200, deadline=None)
    @given(case=paired_day_blocks())
    def test_each_hour_is_its_portfolios_score_bit_for_bit(self, case):
        base_days, cand_days, terms = case
        members = [_spread_and_profit(terms, sorted_block(d)) for d in (base_days, cand_days)]
        sigma_ag, joint = _spread_and_profit(terms, sorted_block(base_days + cand_days))
        scores = score_pools(terms, *zip(*members), sigma_ag, joint)
        assert scores.shape == (4, base_days.shape[1])
        for hour, column in enumerate(scores.T.tolist()):
            pair = AssetPortfolio(
                members=(
                    ("base", EmpiricalDistribution(base_days[:, hour])),
                    ("candidate", EmpiricalDistribution(cand_days[:, hour])),
                ),
                terms=terms,
            )
            analytic = (math.nan, math.nan)
            if 0.0 < quantile_argument(terms) < 1.0:
                sigma_ag = aggregate_distribution(pair).stddev()
                analytic = profit_delta_from_sigmas(terms, member_sigmas(pair), sigma_ag)
            expected = (complementarity(pair), profit_delta_oracle(pair), *analytic)
            assert [v.hex() for v in column] == [float(v).hex() for v in expected]


def test_member_contracts_match_standalone(basic_terms):
    dists = (NormalDistribution(100.0, 3.0), NormalDistribution(200.0, 4.0))
    portfolio = AssetPortfolio(
        members=(("a", dists[0]), ("b", dists[1])),
        terms=basic_terms,
        covariance=pair_covariance(0.0),
    )
    decisions = member_contracts(portfolio)
    assert len(decisions) == 2
    assert complementarity(portfolio) == pytest.approx(2.0)
    for decision, dist in zip(decisions, dists):
        assert decision.c_star == pytest.approx(
            dist.quantile(decision.psi), rel=1e-12
        )


def _load_perfbench_inputs():
    """perfbench/inputs.py as a module, read without writing bytecode next to it."""
    path = FIXTURES.parent / "perfbench" / "inputs.py"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module", params=["fixtures", "year"])
def shared_bucket_pairs(request, tmp_path_factory):
    """(base, candidate) bucket pairs as aggregate scores them, on the fixtures
    (acme_plant with birch_mall) and on the benchmark's `year` seed 3 (b00 with b01)."""
    shapes_path = FIXTURES / "shapes.csv"
    if request.param == "fixtures":
        load_path, ids = FIXTURES / "sample_load.csv", ("acme_plant", "birch_mall")
    else:
        load_path, ids = tmp_path_factory.mktemp("year") / "load.csv", ("b00", "b01")
        _load_perfbench_inputs().write_year_load(load_path, shapes_path, 3)
    est = EstimationConfig(**FIXTURE_CONFIG["estimation"])
    shapes = read_shapes_csv(shapes_path, est.curtailable_end_use)
    model = build_capability_model(read_load_csv(load_path), shapes, est)
    base, cand = (model.buildings[bid] for bid in ids)
    base_shared, cand_shared = (
        s.buckets for s in restrict_to_common([base.series, cand.series])
    )
    keys = sorted(set(base.buckets) & set(cand.buckets))
    return [(base_shared[k], cand_shared[k]) for k in keys if base_shared[k].n >= 2]


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5, 2.4, 2.46])
def test_pooling_gain_is_the_drop_in_quantile_loss(shared_bucket_pairs, alpha):
    """Per bucket, sum_k L_k(c_k*) - L_pool(c_pool*) is the oracle's delta_j.

    J(c) = (pi_r + p*pi_e)*mu - L(c) and the pooled mean is the sum of the
    member means, so the mean terms cancel; the bound is relative to the
    joint expected profit.
    """
    terms = FIXTURE_TERMS.with_alpha(alpha)
    assert len(shared_bucket_pairs) in (96, 576)
    for base, cand in shared_bucket_pairs:
        pair = AssetPortfolio(members=(("base", base), ("candidate", cand)), terms=terms)
        decisions = [optimal_contract(terms, dist) for dist in (base, cand)]
        _, oracle, _, _ = _score_pair(pair, decisions)
        joint = optimal_contract(terms, pair.aggregate)
        gain = sum(
            quantile_loss(terms, dist, d.c_star) for dist, d in zip((base, cand), decisions)
        ) - quantile_loss(terms, pair.aggregate, joint.c_star)
        assert abs(gain - oracle) <= 1e-12 * abs(joint.expected_profit)
