"""Contract sizing: expected profit, tail value, optimizer, sensitivities."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from drcontracts import (
    EmpiricalDistribution,
    NormalDistribution,
    ProgramTerms,
    UnconstrainedContractError,
    alpha_sweep,
    alpha_threshold,
    bracket_factor,
    cvar,
    expected_profit,
    gamma,
    gamma_hat,
    grid_search_optimal,
    objective,
    optimal_contract,
    optimal_profit_formula,
    quantile_argument,
    quantile_loss,
)
from drcontracts.contracts import GRID_POINTS, _search_upper_bound, tail_cutoff
from drcontracts.distributions import standard_normal_pdf

from conftest import dense_uniform, sampled_normal, terms_for_psi
from oracles import empirical_distribution_cvar, quad_cvar, quad_expected_profit

# psi = 1.04/2.04 for the closed-form uniform[0,1] scenario
UNIFORM_PSI = 26.0 / 51.0
# optimal profit of that scenario: p·(pi_p+pi_e)·(C*^2/2) = 338/1275
UNIFORM_J_STAR = 338.0 / 1275.0


class TestExpectedProfit:
    def test_uniform_closed_form(self, uniform_terms):
        value = expected_profit(uniform_terms, dense_uniform(), 0.5)
        # 0.5·1 + 0.2·(−10·0.125 + 0.2·(0.125 + 0.5·0.5)) = 0.265
        assert value == pytest.approx(0.265, abs=1e-4)

    def test_zero_contract_is_zero(self, uniform_terms):
        assert expected_profit(uniform_terms, dense_uniform(), 0.0) == 0.0

    def test_no_events_leaves_reservation_leg(self):
        # p = 0 makes the no-asset margin non-negative, hence the explicit flag.
        terms = ProgramTerms(
            pi_e=0.2, pi_r=1.0, pi_p=10.0, p=0.0, allow_ill_posed=True
        )
        assert expected_profit(terms, dense_uniform(), 0.5) == pytest.approx(0.5)

    def test_matches_quadrature_on_normal(self, basic_terms):
        dist = NormalDistribution(100.0, 10.0)
        for c in (80.0, 100.0, 120.0):
            expected = quad_expected_profit(basic_terms, 100.0, 10.0, c)
            assert expected_profit(basic_terms, dist, c) == pytest.approx(
                expected, rel=1e-8
            )

    def test_out_of_cap_rejected(self):
        terms = ProgramTerms(pi_e=0.2, pi_r=1.0, pi_p=10.0, p=0.2, c_max=1.0)
        with pytest.raises(ValueError):
            expected_profit(terms, dense_uniform(), 1.5)


class TestCvar:
    def test_out_of_cap_rejected(self):
        # The contract-size rule of expected_profit and quantile_loss.
        terms = ProgramTerms(pi_e=0.2, pi_r=1.0, pi_p=10.0, p=0.2, c_max=1.0)
        for c in (1.5, np.array([0.5, 1.5])):
            with pytest.raises(ValueError, match="contract size exceeds cap 1"):
                cvar(terms, dense_uniform(), c)

    def test_degenerate_rates_leave_reservation_leg(self):
        terms = ProgramTerms(
            pi_e=0.0, pi_r=0.1, pi_p=0.0, p=0.2, c_hat=0.5, allow_ill_posed=True
        )
        assert cvar(terms, dense_uniform(), 0.7) == pytest.approx(0.1 * 0.7)

    def test_uniform_closed_form(self):
        terms = ProgramTerms(pi_e=0.2, pi_r=1.0, pi_p=10.0, p=0.2, c_hat=0.5)
        # E[q | q <= 1/2] = 0.25: 1 + 0.2·(0.2·0.25 − 10·0.75) = −0.49
        assert cvar(terms, dense_uniform(), 1.0) == pytest.approx(-0.49, abs=1e-4)

    def test_zero_contract_no_energy_value_is_zero(self):
        # A tail without capability: CVaR(0) = p*(pi_e + pi_p)*E[q | tail] = 0.
        terms = ProgramTerms(pi_e=0.0, pi_r=1.0, pi_p=10.0, p=0.2, c_hat=0.5)
        samples = np.concatenate((np.zeros(100), np.linspace(0.0, 1.0, 100)))
        assert cvar(terms, EmpiricalDistribution(samples), 0.0) == 0.0

    def test_zero_contract_credits_tail_capability(self):
        # CVaR(0) = p*(pi_e + pi_p)*E[q | q <= 1/2] = 0.2*10*0.25
        terms = ProgramTerms(pi_e=0.0, pi_r=1.0, pi_p=10.0, p=0.2, c_hat=0.5)
        assert cvar(terms, dense_uniform(), 0.0) == pytest.approx(0.5, abs=1e-4)

    @pytest.mark.parametrize(
        "dist",
        [
            NormalDistribution(100.0, 10.0),
            NormalDistribution(1.0, 10.0),
            NormalDistribution(-1.0, 0.0),
            EmpiricalDistribution(np.array([0.0, 0.0, 3.0, 7.0, 7.0, 12.0])),
        ],
    )
    def test_linear_in_contract(self, basic_terms, dist):
        slope = basic_terms.pi_r - basic_terms.p * basic_terms.pi_p
        base = cvar(basic_terms, dist, 0.0)
        for c in (0.5, 3.0, 7.0, 95.0, 140.0):
            assert cvar(basic_terms, dist, c) == pytest.approx(
                base + slope * c, rel=1e-12, abs=1e-12
            )

    def test_matches_quadrature_on_normal(self):
        terms = ProgramTerms(pi_e=1.5, pi_r=0.05, pi_p=6.0, p=0.1, c_hat=0.9)
        dist = NormalDistribution(100.0, 10.0)
        for c in (70.0, 85.0, 110.0):
            assert cvar(terms, dist, c) == pytest.approx(
                quad_cvar(terms, 100.0, 10.0, c), rel=1e-7
            )

    def test_tail_below_zero_holds_the_clipped_mass(self, basic_terms):
        # q_hat < 0: the tail is the capability clipped to 0, all of it at 0.
        dist = NormalDistribution(1.0, 10.0)
        assert dist.quantile(basic_terms.tail_mass) < 0.0
        c = 5.0
        expected = basic_terms.pi_r * c - basic_terms.p * basic_terms.pi_p * c
        assert cvar(basic_terms, dist, c) == pytest.approx(expected, rel=1e-12)
        assert cvar(basic_terms, dist, c) == pytest.approx(
            quad_cvar(basic_terms, 1.0, 10.0, c), rel=1e-12
        )

    def test_tail_cutoff_clips_the_quantile_at_zero(self, basic_terms):
        normal = NormalDistribution(1.0, 10.0)
        assert normal.quantile(basic_terms.tail_mass) < 0.0
        assert tail_cutoff(basic_terms, normal) == 0.0
        samples = EmpiricalDistribution([4.0, 1.0, 9.0, 2.0])
        expected = float(np.quantile([1.0, 2.0, 4.0, 9.0], basic_terms.tail_mass))
        assert tail_cutoff(basic_terms, samples) == expected > 0.0

    def test_contract_below_cutoff_credits_capability_above_it(self):
        # c far below q_hat: tail capability above c earns pi_e*q, and
        # pi_p*(c - q) turns into a credit, as the definition says.
        terms = ProgramTerms(pi_e=1.5, pi_r=0.05, pi_p=6.0, p=0.1, c_hat=0.6)
        dist = NormalDistribution(100.0, 10.0)
        c = 60.0
        assert c < dist.quantile(terms.tail_mass)
        assert cvar(terms, dist, c) == pytest.approx(
            quad_cvar(terms, 100.0, 10.0, c), rel=1e-7
        )

    def test_matches_direct_sum_on_samples(self):
        rng = np.random.default_rng(9)
        for i in range(60):
            samples = np.maximum(rng.normal(10.0, 6.0, int(rng.integers(1, 40))), 0.0)
            if i % 3 == 0:
                samples = np.round(samples)  # ties, often on the cutoff
            terms = ProgramTerms(
                pi_e=4.0,
                pi_r=0.01,
                pi_p=5.0,
                p=3.0 / 720.0,
                c_hat=float(rng.choice([0.5, 0.8, 0.95])),
            )
            c = float(rng.uniform(0.0, 20.0))
            assert cvar(terms, EmpiricalDistribution(samples), c) == pytest.approx(
                empirical_distribution_cvar(terms, samples, c), rel=1e-12, abs=1e-12
            )


class TestObjective:
    def test_alpha_zero_equals_expected_profit(self, uniform_terms):
        dist = dense_uniform()
        assert objective(uniform_terms, dist, 0.4) == expected_profit(
            uniform_terms, dist, 0.4
        )

    def test_degenerate_cvar_adds_reservation_leg(self):
        terms = ProgramTerms(
            pi_e=0.0,
            pi_r=0.1,
            pi_p=0.0,
            p=0.2,
            alpha=1.0,
            c_hat=0.5,
            allow_ill_posed=True,
        )
        dist = dense_uniform()
        expected = expected_profit(terms, dist, 0.6) + 0.1 * 0.6
        assert objective(terms, dist, 0.6) == pytest.approx(expected)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize(
        "dist",
        [
            NormalDistribution(100.0, 10.0),
            NormalDistribution(1.0, 10.0),
            NormalDistribution(40.0, 0.0),
            sampled_normal(60.0, 15.0, 23, seed=4),
            EmpiricalDistribution(np.array([0.0, 0.0, 3.3, 4.1, 9.7, 9.7])),
        ],
    )
    def test_decision_objective_is_objective_bitwise(self, basic_terms, alpha, dist):
        terms = basic_terms.with_alpha(alpha)
        decision = optimal_contract(terms, dist)
        value = objective(terms, dist, decision.c_star)
        assert np.float64(decision.objective_value).tobytes() == np.float64(value).tobytes()


class TestOptimalContract:
    def test_uniform_example(self, uniform_terms):
        decision = optimal_contract(uniform_terms, dense_uniform())
        assert decision.psi == pytest.approx(UNIFORM_PSI, abs=1e-12)
        assert decision.c_star == pytest.approx(0.5098, abs=2e-4)
        assert decision.clipped == "none"
        assert not decision.used_grid_fallback

    def test_normal_is_mu_plus_gamma_sigma(self):
        terms = terms_for_psi(0.7)
        dist = NormalDistribution(100.0, 10.0)
        decision = optimal_contract(terms, dist)
        expected = 100.0 + 10.0 * float(special.ndtri(0.7))
        assert decision.c_star == pytest.approx(expected, abs=1e-12)

    def test_psi_nonpositive_clips_to_zero(self):
        # alpha large enough to push the numerator negative
        terms = terms_for_psi(0.5, alpha=0.2).with_alpha(30.0)
        assert quantile_argument(terms) <= 0.0
        decision = optimal_contract(terms, NormalDistribution(100.0, 10.0))
        assert decision.c_star == 0.0
        assert decision.clipped == "low"
        assert decision.expected_profit == 0.0

    def test_psi_at_least_one_needs_cap(self):
        # A near-zero penalty makes promising more always profitable; such
        # terms trip the no-asset-margin flag and psi lands at/above 1.
        capped = ProgramTerms(
            pi_e=4.0, pi_r=0.05, pi_p=0.01, p=0.5, c_max=120.0, allow_ill_posed=True
        )
        assert quantile_argument(capped) >= 1.0
        decision = optimal_contract(capped, NormalDistribution(100.0, 10.0))
        assert decision.c_star == 120.0
        assert decision.clipped == "high"

    def test_psi_at_least_one_unbounded_is_an_error(self):
        uncapped = ProgramTerms(
            pi_e=4.0, pi_r=0.05, pi_p=0.01, p=0.5, allow_ill_posed=True
        )
        with pytest.raises(UnconstrainedContractError):
            optimal_contract(uncapped, NormalDistribution(100.0, 10.0))

    def test_cap_binds_between_zero_and_one(self):
        terms = terms_for_psi(0.9, c_max=100.0)
        decision = optimal_contract(terms, NormalDistribution(100.0, 10.0))
        assert decision.c_star == 100.0
        assert decision.clipped == "high"

    def test_zero_event_probability_unconstrained(self):
        terms = ProgramTerms(
            pi_e=1.0, pi_r=0.0, pi_p=10.0, p=0.0, allow_ill_posed=True
        )
        with pytest.raises(UnconstrainedContractError):
            optimal_contract(terms, NormalDistribution(100.0, 10.0))

    def test_low_region_fractile_below_tail_cutoff(self):
        # psi below the tail mass with alpha > 0: the optimum lies below
        # q_hat, and it is still the psi-quantile.
        terms = terms_for_psi(0.03, alpha=0.5, c_hat=0.95)
        dist = NormalDistribution(100.0, 10.0)
        decision = optimal_contract(terms, dist)
        assert decision.c_star < dist.quantile(terms.tail_mass)
        oracle = grid_search_optimal(terms, dist)
        step = _search_upper_bound(terms, dist) / GRID_POINTS
        assert abs(decision.c_star - oracle) <= step
        assert decision.c_star == float(dist.quantile(quantile_argument(terms)))

    def test_empirical_psi_on_a_cdf_step_takes_that_sample(self):
        # psi = 1/2 = F(2) exactly: the objective is flat on [2, 3), and the
        # smallest sample whose cdf reaches psi is its first maximum.
        terms = ProgramTerms(pi_e=1.0, pi_r=0.5, pi_p=3.0, p=0.5)
        assert quantile_argument(terms) == 0.5
        dist = EmpiricalDistribution(np.array([4.0, 1.0, 3.0, 2.0]))
        assert optimal_contract(terms, dist).c_star == 2.0

    def test_matches_grid_oracle_on_uniform(self, uniform_terms):
        dist = dense_uniform()
        decision = optimal_contract(uniform_terms, dist)
        oracle = grid_search_optimal(uniform_terms, dist)
        step = 1.0 / 10_000.0
        assert abs(decision.c_star - oracle) <= step + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        psi=st.floats(min_value=0.1, max_value=0.9),
        mu=st.floats(min_value=50.0, max_value=200.0),
        sigma=st.floats(min_value=1.0, max_value=12.0),
    )
    def test_decision_flags_match_psi_location(self, psi, mu, sigma):
        terms = terms_for_psi(psi, pi_e=0.2)
        decision = optimal_contract(terms, NormalDistribution(mu, sigma))
        assert decision.clipped == "none"
        assert 0.0 < decision.c_star
        assert decision.objective_value == pytest.approx(
            objective(terms, NormalDistribution(mu, sigma), decision.c_star)
        )

    @settings(max_examples=20, deadline=None)
    @given(
        c1=st.floats(min_value=0.0, max_value=140.0),
        c2=st.floats(min_value=0.0, max_value=140.0),
    )
    def test_objective_concave_on_normal(self, c1, c2):
        terms = terms_for_psi(0.6, alpha=0.4)
        dist = NormalDistribution(100.0, 15.0)
        mid = 0.5 * (c1 + c2)
        chord = 0.5 * (objective(terms, dist, c1) + objective(terms, dist, c2))
        assert objective(terms, dist, mid) >= chord - 1e-9


# Criterion-03 terms: alpha_threshold = 2.4615...
SHUTOFF_TERMS = ProgramTerms(pi_e=4.0, pi_r=0.01, pi_p=5.0, p=3.0 / 720.0)


def assert_matches_oracle(terms, dist, *, within_one_step):
    decision = optimal_contract(terms, dist)
    oracle = grid_search_optimal(terms, dist)
    best = objective(terms, dist, oracle)
    assert decision.objective_value >= best - 1e-12 * abs(best)
    if within_one_step:
        step = _search_upper_bound(terms, dist) / GRID_POINTS
        assert abs(decision.c_star - oracle) <= step


class TestExactOptimizer:
    """The optimizer returns the objective's argmax for every alpha in [0, 3 alpha_0].

    Past alpha_0 that argmax is 0.  Where the objective is flat (psi = 0 at
    alpha_0 exactly, psi = F(s_k) on samples) rounding can move the grid's
    first maximum, so the contracts are compared by objective value.
    """

    @pytest.mark.parametrize(
        "mu, sigma",
        [
            (100.0, 10.0),
            (100.0, 40.0),
            (1.0, 10.0),  # tail boundary below zero: heavy clipped mass
            (0.0, 5.0),
            (-3.0, 2.0),
            (5.0, 0.0),
            (0.0, 0.0),
            (-1.0, 0.0),
        ],
    )
    def test_normal_matches_grid_over_alpha(self, mu, sigma):
        dist = NormalDistribution(mu, sigma)
        a0 = alpha_threshold(SHUTOFF_TERMS)
        for alpha in np.linspace(0.0, a0, 50, endpoint=False):
            terms = SHUTOFF_TERMS.with_alpha(float(alpha))
            assert_matches_oracle(terms, dist, within_one_step=True)
        for alpha in np.append(np.linspace(a0, 3.0 * a0, 25), a0):
            terms = SHUTOFF_TERMS.with_alpha(float(alpha))
            assert_matches_oracle(terms, dist, within_one_step=False)
            if alpha > a0:
                assert optimal_contract(terms, dist).c_star == 0.0

    def test_capped_normal_matches_grid(self):
        for c_max in (60.0, 90.0, 130.0):
            for psi, alpha in ((0.03, 0.5), (0.3, 2.0), (0.9, 0.2)):
                terms = terms_for_psi(psi, alpha=alpha, c_max=c_max)
                assert_matches_oracle(
                    terms, NormalDistribution(100.0, 10.0), within_one_step=True
                )

    def test_empirical_buckets_match_grid(self):
        # 240 draws of 8-25 samples, then 40 each of every smaller size down to
        # 2, the smallest bucket that min_bucket_size admits.
        rng = np.random.default_rng(5)
        a0 = alpha_threshold(SHUTOFF_TERMS)
        small = np.repeat(np.arange(2, 8), 40)
        for i in range(240 + small.size):
            n = int(rng.integers(8, 26)) if i < 240 else int(small[i - 240])
            samples = np.maximum(
                rng.normal(rng.uniform(0.0, 20.0), rng.uniform(0.0, 8.0), n), 0.0
            )
            if i % 4 == 0:
                samples = np.round(samples)  # ties
            c_max = float(rng.uniform(5.0, 25.0)) if i % 3 == 0 else None
            terms = ProgramTerms(
                pi_e=4.0,
                pi_r=0.01,
                pi_p=5.0,
                p=3.0 / 720.0,
                alpha=float(rng.uniform(0.0, 3.0 * a0)),
                c_hat=float(rng.choice([0.8, 0.9, 0.95])),
                c_max=c_max,
            )
            assert_matches_oracle(
                terms, EmpiricalDistribution(samples), within_one_step=False
            )

    @pytest.mark.parametrize("mu, sigma", [(1.0, 10.0), (0.0, 5.0), (-1.0, 0.0)])
    def test_negative_fractile_quantile_clips_low(self, mu, sigma):
        dist = NormalDistribution(mu, sigma)
        terms = SHUTOFF_TERMS.with_alpha(0.5 * alpha_threshold(SHUTOFF_TERMS))
        assert quantile_argument(terms) > 0.0
        decision = optimal_contract(terms, dist)
        assert decision.c_star == 0.0
        assert decision.clipped == "low"
        assert decision.objective_value == 0.0

    def test_empirical_argmax_at_zero_is_not_clipped(self):
        terms = SHUTOFF_TERMS.with_alpha(1.0)
        decision = optimal_contract(terms, EmpiricalDistribution(np.zeros(12)))
        assert decision.c_star == 0.0
        assert decision.clipped == "none"

    def test_shutoff_agrees_with_objective_above_threshold(self):
        """Past alpha_0 the paper's shutoff c = 0 is the objective's argmax.

        The objective falls from c = 0 on, so the grid's first maximum is 0
        and every other grid point scores lower.
        """
        dist = NormalDistribution(100.0, 10.0)
        a0 = alpha_threshold(SHUTOFF_TERMS)
        for alpha in np.linspace(1.01 * a0, 3.0 * a0, 12):
            terms = SHUTOFF_TERMS.with_alpha(float(alpha))
            decision = optimal_contract(terms, dist)
            assert decision.c_star == 0.0
            assert decision.clipped == "low"
            assert grid_search_optimal(terms, dist) == 0.0
            grid = np.linspace(0.0, 140.0, 141)[1:]
            assert np.all(objective(terms, dist, grid) < decision.objective_value)


def sigma_slope(terms, mu: float, sigma: float) -> float:
    """Central finite difference in sigma of J(c*) at N(mu, sigma), c* re-optimized."""
    h = 1e-2 * sigma

    def j_star(s: float) -> float:
        return optimal_contract(terms, NormalDistribution(mu, s)).expected_profit

    return (j_star(sigma + h) - j_star(sigma - h)) / (2.0 * h)


def rounded(lo: float, hi: float, digits: int = 6):
    """Floats in [lo, hi] rounded to digits decimals, which keeps products clear of
    subnormals (where no relative bound holds)."""
    return st.floats(lo, hi).map(lambda x: round(x, digits))


class TestQuantileLoss:
    """J(c) + L(c) = (pi_r + p*pi_e)*mu, with L evaluated in its pinball form."""

    @settings(max_examples=200, deadline=None)
    @given(
        law=st.one_of(
            st.lists(
                st.one_of(st.just(0.0), st.integers(0, 8).map(float), rounded(0.0, 60.0)),
                min_size=1,
                max_size=40,
            ).map(lambda xs: EmpiricalDistribution(np.array(xs))),
            st.builds(
                NormalDistribution,
                rounded(-20.0, 60.0),
                # Down to 1e-300: (c - mu)/sigma then runs far past where the
                # density is exactly 0, and must not overflow on the way.
                st.one_of(st.just(0.0), rounded(1e-3, 25.0), st.floats(1e-300, 1e-3)),
            ),
        ),
        share=rounded(0.0, 1.0, digits=9),
        alpha=st.floats(0.0, 3.0),
        rates=st.tuples(st.floats(0.0, 6.0), st.floats(0.5, 12.0), st.floats(0.01, 0.5)),
        reservation=st.floats(0.0, 0.99),
    )
    def test_identity_holds_for_every_law_and_contract(
        self, law, share, alpha, rates, reservation
    ):
        pi_e, pi_p, p = rates
        terms = ProgramTerms(
            pi_e=pi_e, pi_r=reservation * p * pi_p, pi_p=pi_p, p=p, alpha=alpha, c_max=80.0
        )
        c = share * terms.c_max
        mu = float(law.partial_expectation(np.inf))
        j = expected_profit(terms, law, c)
        loss = quantile_loss(terms, law, c)
        rhs = (terms.pi_r + terms.p * terms.pi_e) * mu
        # J, L and the mean can all be near 0 while their terms are not, so the bound
        # is relative to the largest term either side holds.
        rates = terms.pi_r + terms.p * terms.pi_e + terms.p * (terms.pi_p + terms.pi_e)
        scale = (rates + alpha * abs(terms.no_asset_margin)) * (mu + c)
        assert abs(j + loss - rhs) <= 1e-12 * scale

    def test_array_matches_scalar_and_checks_c(self):
        terms = terms_for_psi(0.7, alpha=0.5, c_max=150.0)
        dist = sampled_normal(100.0, 10.0, 501, seed=4)
        grid = np.linspace(0.0, 150.0, 31)
        assert quantile_loss(terms, dist, grid).tolist() == [
            quantile_loss(terms, dist, float(c)) for c in grid
        ]
        with pytest.raises(ValueError, match=">= 0"):
            quantile_loss(terms, dist, -1.0)
        with pytest.raises(ValueError, match="cap"):
            quantile_loss(terms, dist, 151.0)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5])
    def test_unclipped_normal_loss_is_sigma_times_bracket(self, alpha):
        terms = terms_for_psi(0.8, alpha=alpha)
        dist = NormalDistribution(100.0, 10.0)
        c_star = optimal_contract(terms, dist).c_star
        assert quantile_loss(terms, dist, c_star) == pytest.approx(
            10.0 * bracket_factor(terms), rel=1e-12
        )


class TestOptimalProfitFormula:
    def test_identity_at_alpha_zero_normal(self):
        terms = terms_for_psi(0.65)
        dist = NormalDistribution(100.0, 10.0)
        decision = optimal_contract(terms, dist)
        formula = optimal_profit_formula(terms, dist, decision.c_star)
        assert formula == pytest.approx(decision.expected_profit, rel=1e-12)

    @pytest.mark.parametrize("psi, alpha", [(0.03, 0.5), (0.02, 2.0)])
    def test_identity_at_positive_alpha_normal(self, psi, alpha):
        terms = terms_for_psi(psi, alpha=alpha)
        dist = NormalDistribution(100.0, 10.0)
        decision = optimal_contract(terms, dist)
        formula = optimal_profit_formula(terms, dist, decision.c_star)
        assert abs(formula - decision.expected_profit) <= 1e-12 * abs(formula)

    def test_uniform_closed_form_value(self, uniform_terms):
        dist = dense_uniform()
        decision = optimal_contract(uniform_terms, dist)
        formula = optimal_profit_formula(uniform_terms, dist, decision.c_star)
        assert formula == pytest.approx(UNIFORM_J_STAR, abs=2e-4)
        assert decision.expected_profit == pytest.approx(UNIFORM_J_STAR, abs=2e-4)
        assert abs(formula - decision.expected_profit) < 2e-4

    @pytest.mark.parametrize(
        "psi, alpha, c_max", [(0.3, 0.0, None), (0.7, 1.0, None), (0.9, 0.5, 95.0)]
    )
    def test_gap_has_closed_form(self, psi, alpha, c_max):
        # c* is a sample (or, last case, the cap), so F(c*) misses psi.
        terms = terms_for_psi(psi, alpha=alpha, c_max=c_max)
        dist = sampled_normal(100.0, 10.0, 37, seed=9)
        decision = optimal_contract(terms, dist)
        c = decision.c_star
        gap = optimal_profit_formula(terms, dist, c) - decision.expected_profit
        closed = terms.p * (terms.pi_p + terms.pi_e) * c * (dist.cdf(c) - psi)
        assert closed != 0.0
        assert gap == pytest.approx(closed, rel=1e-12)


def assert_bracket_changes_sign_at(terms, root: float) -> None:
    """bracket_factor is positive just below gamma_hat, negative just above, ~0 on it."""
    assert bracket_factor(terms, root - 1e-6) > 0.0 > bracket_factor(terms, root + 1e-6)
    scale = terms.p * (terms.pi_p + terms.pi_e) * standard_normal_pdf(root)
    assert abs(bracket_factor(terms, root)) <= 1e-12 * scale


class TestGammaMachinery:
    def test_gamma_is_normal_quantile_of_psi(self):
        terms = terms_for_psi(float(special.ndtr(1.0)))
        assert gamma(terms) == pytest.approx(1.0, abs=1e-12)

    def test_alpha_threshold_matches_numerator_root(self):
        terms = terms_for_psi(0.6, alpha=0.0)
        threshold = alpha_threshold(terms)
        # independent root of nu(alpha) by bisection on the raw numerator
        lo, hi = 0.0, 1.0
        def numerator(a: float) -> float:
            return terms.pi_r + terms.p * terms.pi_e + a * (
                terms.pi_r - terms.p * terms.pi_p
            )
        while numerator(hi) > 0.0:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if numerator(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        assert threshold == pytest.approx(0.5 * (lo + hi), abs=1e-9)
        assert numerator(threshold) == pytest.approx(0.0, abs=1e-12)

    def test_sigma_coefficient_sign_change_located(self):
        terms = terms_for_psi(0.6, alpha=0.8)
        root = gamma_hat(terms)
        assert root is not None
        assert_bracket_changes_sign_at(terms, root)

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 1.5, 2.46, 10.0, 100.0])
    def test_gamma_hat_is_the_bracket_root(self, basic_terms, alpha):
        terms = basic_terms.with_alpha(alpha)
        assert_bracket_changes_sign_at(terms, gamma_hat(terms))

    def test_gamma_hat_none_when_risk_neutral(self):
        assert gamma_hat(terms_for_psi(0.6, alpha=0.0)) is None

    def test_gamma_hat_at_extreme_risk_aversion(self, basic_terms):
        # Recorded from a bisection of the bracket factor to a 1e-6 bracket.
        bisected = 37.08059358596802
        assert gamma_hat(basic_terms.with_alpha(1e-300)) == pytest.approx(bisected, abs=1e-6)
        tiny = gamma_hat(basic_terms.with_alpha(1e12))
        assert math.isfinite(tiny) and 0.0 < tiny < 1e-11

    def test_sigma_sensitivity_negative_at_gamma_zero(self):
        terms = terms_for_psi(0.5)  # gamma = 0
        assert gamma(terms) == pytest.approx(0.0, abs=1e-12)
        assert sigma_slope(terms, mu=100.0, sigma=10.0) < 0.0

    def test_sigma_sensitivity_matches_closed_form_slope(self):
        # J* = (pi_r + p*pi_e)*mu - sigma*bracket_factor for an unclipped normal.
        for alpha in (0.0, 0.5, 1.5):
            terms = terms_for_psi(0.75, alpha=alpha)
            slope = sigma_slope(terms, mu=100.0, sigma=10.0)
            assert slope == pytest.approx(-bracket_factor(terms), rel=1e-9)


class TestAlphaSweep:
    def test_monotone_and_flat_after_threshold(self):
        terms = terms_for_psi(0.6)
        dist = NormalDistribution(100.0, 10.0)
        threshold = alpha_threshold(terms)
        alphas = np.linspace(0.0, 1.6 * threshold, 21)
        decisions = alpha_sweep(terms, dist, alphas)
        c_values = [d.c_star for d in decisions]
        assert all(a >= b - 1e-9 for a, b in zip(c_values, c_values[1:]))
        for a, d in zip(alphas, decisions):
            if a > threshold:
                assert d.c_star == 0.0
                assert d.clipped == "low"
