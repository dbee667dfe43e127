"""Acceptance suite: ten binding checks on the full toolkit.

Each test prints exactly one line, `[criterion NN] PASS/FAIL — detail`, and
then asserts, so a plain `pytest tests/test_acceptance.py -s` doubles as the
acceptance report.  Tolerances are pinned next to each check.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import time
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from drcontracts import (
    AssetPortfolio,
    CovarianceModel,
    EmpiricalDistribution,
    NormalDistribution,
    ProgramTerms,
    SimulationConfig,
    alpha_sweep,
    alpha_threshold,
    analytic_summary,
    bracket_factor,
    contract_comparison,
    gamma,
    gamma_hat,
    grid_search_optimal,
    nnls,
    optimal_contract,
    optimal_profit_formula,
    profit_delta_normal,
    profit_delta_oracle,
    rank_partners,
    simulate_horizon,
    sum_normal,
)
from drcontracts.cli import main as cli_main
from drcontracts.contracts import GRID_POINTS, _search_upper_bound
from drcontracts.distributions import standard_normal_pdf
from drcontracts.estimation import (
    DayTable,
    EndUseShapes,
    EstimationConfig,
    build_capability_model,
    curtailable_series,
)

from conftest import dense_uniform, terms_for_psi
from oracles import quad_partial_expectation, quad_shortfall_expectation

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

UNIFORM_TERMS = ProgramTerms(pi_e=0.2, pi_r=1.0, pi_p=10.0, p=0.2)
UNIFORM_J_STAR = 338.0 / 1275.0  # closed-form optimal profit of the uniform case


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} — {detail}", file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num:02d}: {detail}"


def random_scenario_terms(rng: np.random.Generator, alpha: float) -> ProgramTerms:
    """Well-posed terms with a fractile drawn from (0.02, 0.98)."""
    psi = rng.uniform(0.02, 0.98)
    pi_p = rng.uniform(2.0, 10.0)
    p = rng.uniform(0.05, 0.3)
    # Keep pi_r >= 0 feasible: pi_e must stay below pi_p*(psi+alpha)/(1-psi).
    pi_e = 0.95 * pi_p * (psi + alpha) / (1.0 - psi) * rng.uniform(0.05, 1.0)
    return terms_for_psi(psi, pi_e=pi_e, pi_p=pi_p, p=p, alpha=alpha)


def one_factor_covariance(
    mus, sigmas, loadings, ids
) -> CovarianceModel:
    loadings = np.asarray(loadings, dtype=float)
    rho = np.outer(loadings, loadings)
    np.fill_diagonal(rho, 1.0)
    return CovarianceModel(
        means=np.asarray(mus, dtype=float),
        stddevs=np.asarray(sigmas, dtype=float),
        correlation=rho,
        asset_ids=tuple(ids),
    )


def test_01_quantile_rule_matches_grid_search():
    """Analytic sizing equals a 10^4-point grid argmax within one step."""
    rng = np.random.default_rng(20240811)
    start = time.perf_counter()
    worst = 0.0
    for i in range(200):
        terms = random_scenario_terms(rng, alpha=float(rng.uniform(0.0, 1.0)))
        mu = rng.uniform(50.0, 150.0)
        sigma = rng.uniform(2.0, 15.0)
        if i % 2 == 0:
            dist = NormalDistribution(mu, sigma)
        else:
            dist = EmpiricalDistribution(
                np.maximum(rng.normal(mu, sigma, 50_001), 0.0)
            )
        decision = optimal_contract(terms, dist)
        oracle = grid_search_optimal(terms, dist)
        step = _search_upper_bound(terms, dist) / GRID_POINTS
        worst = max(worst, abs(decision.c_star - oracle) / step)
    elapsed = time.perf_counter() - start
    ok = worst <= 1.000001 and elapsed < 60.0
    report(
        1,
        ok,
        f"200 scenarios: max |analytic - grid| = {worst:.3f} grid steps "
        f"(tol 1), {elapsed:.1f}s (< 60s)",
    )


def formula_residual(terms, dist):
    """The decision, the closed-form optimal profit, and its excess over J(c*)."""
    decision = optimal_contract(terms, dist)
    formula = optimal_profit_formula(terms, dist, decision.c_star)
    return decision, formula, formula - decision.expected_profit


def test_02_closed_form_profit_identity():
    """Closed-form optimal profit equals J(c*) wherever F(c*) = psi, at every alpha."""
    rng = np.random.default_rng(22)
    worst_rel = 0.0
    for _ in range(25):
        terms = terms_for_psi(
            float(rng.uniform(0.1, 0.9)), pi_e=0.5, pi_p=6.0, p=0.15
        )
        dist = NormalDistribution(rng.uniform(60.0, 140.0), rng.uniform(3.0, 12.0))
        _, formula, residual = formula_residual(terms, dist)
        worst_rel = max(worst_rel, abs(residual) / abs(formula))

    uniform_c = optimal_contract(UNIFORM_TERMS, dense_uniform()).c_star
    uniform_formula = optimal_profit_formula(UNIFORM_TERMS, dense_uniform(), uniform_c)
    uniform_ok = (
        abs(uniform_formula - UNIFORM_J_STAR) <= 2e-4
        and abs(optimal_contract(UNIFORM_TERMS, dense_uniform()).expected_profit - UNIFORM_J_STAR)
        <= 2e-4
    )

    # The tail term is linear in c, so the identity holds at alpha > 0 too.
    averse_rel = 0.0
    for alpha in (0.3, 1.0):
        terms = terms_for_psi(0.6, pi_e=0.5, pi_p=6.0, p=0.15, alpha=alpha)
        _, formula, residual = formula_residual(terms, NormalDistribution(100.0, 10.0))
        averse_rel = max(averse_rel, abs(residual) / abs(formula))

    # An empirical c* is a sample, so F(c*) misses psi; the residual is then
    # exactly p*(pi_p + pi_e)*c*(F(c*) - psi), and not 0.
    gap_rel = 0.0
    for i in range(25):
        terms = terms_for_psi(
            float(rng.uniform(0.1, 0.9)), pi_e=0.5, pi_p=6.0, p=0.15, alpha=i % 3 * 0.5
        )
        dist = EmpiricalDistribution(rng.uniform(20.0, 60.0, int(rng.integers(3, 40))))
        decision, _, residual = formula_residual(terms, dist)
        c = decision.c_star
        closed = terms.p * (terms.pi_p + terms.pi_e) * c * (dist.cdf(c) - decision.psi)
        gap_rel = max(gap_rel, abs(residual - closed) / abs(closed))

    ok = worst_rel <= 1e-9 and averse_rel <= 1e-9 and gap_rel <= 1e-12 and uniform_ok
    report(
        2,
        ok,
        f"alpha=0 max relative residual {worst_rel:.2e}, alpha>0 {averse_rel:.2e} "
        f"(tol 1e-9); empirical residual against D*c*(F(c*) - psi) {gap_rel:.2e} "
        f"(tol 1e-12); uniform case both within 2e-4 of {UNIFORM_J_STAR:.6f}",
    )


def test_03_risk_aversion_sweep_shuts_off():
    """C* and profit fall with alpha and hit exact zero past the threshold."""
    terms = ProgramTerms(pi_e=4.0, pi_r=0.01, pi_p=5.0, p=3.0 / 720.0)
    a0 = alpha_threshold(terms)

    # Independent route: bisect the fractile numerator to 1e-12.
    def numerator(alpha: float) -> float:
        return terms.pi_r + terms.p * terms.pi_e + alpha * (
            terms.pi_r - terms.p * terms.pi_p
        )

    lo, hi = 0.0, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if numerator(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    threshold_ok = abs(a0 - 0.5 * (lo + hi)) <= 1e-9

    rng = np.random.default_rng(5)
    dists = [
        NormalDistribution(100.0, 10.0),
        EmpiricalDistribution(np.maximum(rng.normal(100.0, 10.0, 20_001), 0.0)),
    ]
    alphas = np.concatenate(
        [np.linspace(0.0, 0.95 * a0, 40), np.linspace(1.000001 * a0, 2.0 * a0, 40)]
    )
    monotone_ok = zero_ok = positive_ok = True
    for dist in dists:
        decisions = alpha_sweep(terms, dist, alphas)
        c = np.array([d.c_star for d in decisions])
        j = np.array([d.expected_profit for d in decisions])
        monotone_ok &= bool(np.all(np.diff(c) <= 1e-9 * max(1.0, c[0])))
        monotone_ok &= bool(np.all(np.diff(j) <= 1e-9 * max(1.0, abs(j[0]))))
        above = alphas >= a0
        zero_ok &= bool(np.all(c[above] == 0.0))
        positive_ok &= bool(np.all(c[~above] > 0.0))
    ok = threshold_ok and monotone_ok and zero_ok and positive_ok
    report(
        3,
        ok,
        f"threshold alpha_0 = {a0:.6f} matches bisection within 1e-9; sweep "
        f"non-increasing, exactly 0 for alpha >= alpha_0 on both distributions",
    )


def test_04_normal_distribution_sensitivities():
    """Location-scale contract law and spread sensitivity for normal capability."""
    shift_ok = True
    fd_worst = 0.0
    for psi, alpha in [(0.25, 0.0), (0.6, 0.0), (0.8, 0.5), (0.4, 1.0)]:
        terms = terms_for_psi(psi, pi_e=0.2, alpha=alpha)
        g = gamma(terms)
        for mu, sigma in [(80.0, 5.0), (120.0, 12.0)]:
            c = optimal_contract(terms, NormalDistribution(mu, sigma)).c_star
            shift_ok &= abs(c - (mu + g * sigma)) <= 1e-12 * max(1.0, abs(c))
            h = 1e-4
            c_up = optimal_contract(terms, NormalDistribution(mu, sigma + h)).c_star
            c_dn = optimal_contract(terms, NormalDistribution(mu, sigma - h)).c_star
            fd_worst = max(fd_worst, abs((c_up - c_dn) / (2.0 * h) - g))

    neutral = terms_for_psi(0.5, pi_e=0.2)  # gamma = 0, alpha = 0

    def j_star(sigma: float) -> float:
        return optimal_contract(neutral, NormalDistribution(100.0, sigma)).expected_profit

    slope = (j_star(10.1) - j_star(9.9)) / 0.2
    neutral_ok = slope < 0.0 and abs(gamma(neutral)) <= 1e-12
    no_flip_ok = gamma_hat(neutral) is None

    averse = terms_for_psi(0.6, pi_e=0.2, alpha=0.8)
    gh = gamma_hat(averse)
    root_scale = averse.p * (averse.pi_p + averse.pi_e) * standard_normal_pdf(gh)
    flip_ok = (
        bracket_factor(averse, gh - 1e-6) > 0.0 > bracket_factor(averse, gh + 1e-6)
        and abs(bracket_factor(averse, gh)) <= 1e-12 * root_scale
    )
    ok = shift_ok and fd_worst <= 1e-6 and neutral_ok and no_flip_ok and flip_ok
    report(
        4,
        ok,
        f"c* = mu + gamma*sigma exact; max |dC*/dsigma - gamma| = {fd_worst:.2e} "
        f"(tol 1e-6); dJ*/dsigma < 0 at gamma=0; sign flip bracketed to 1e-6, "
        f"bracket at gamma_hat {abs(bracket_factor(averse, gh)) / root_scale:.1e} "
        f"of D*phi (tol 1e-12)",
    )


def test_05_portfolio_contract_ordering():
    """Aggregate-vs-sum contract ordering follows the fractile sign."""
    checked = 0
    ok = True
    psis = [float(ndtr(-1.0)), 0.35, 0.65, float(ndtr(1.0))]
    for psi in psis:
        terms = terms_for_psi(psi, pi_e=0.2)
        g = gamma(terms)
        for rho in (-0.8, -0.3, 0.0, 0.5):
            for s1, s2 in [(3.0, 4.0), (2.0, 7.0), (5.0, 5.0)]:
                cov = one_factor_covariance(
                    [100.0, 200.0],
                    [s1, s2],
                    # pair correlation rho via symmetric loadings
                    [math.copysign(math.sqrt(abs(rho)), 1.0),
                     math.copysign(math.sqrt(abs(rho)), rho)],
                    ("a", "b"),
                )
                portfolio = AssetPortfolio(
                    members=(
                        ("a", NormalDistribution(100.0, s1)),
                        ("b", NormalDistribution(200.0, s2)),
                    ),
                    terms=terms,
                    covariance=cov,
                )
                verdict = contract_comparison(portfolio)
                if verdict.delta_sigma > 1e-9:
                    expected = "ag_smaller" if g > 0 else "ag_larger"
                    ok &= verdict.verdict == expected
                    checked += 1

        # no pooled spread reduction: comonotone equal-sigma pair
        cov_eq = one_factor_covariance(
            [100.0, 200.0], [4.0, 4.0], [1.0, 1.0], ("a", "b")
        )
        equal_portfolio = AssetPortfolio(
            members=(
                ("a", NormalDistribution(100.0, 4.0)),
                ("b", NormalDistribution(200.0, 4.0)),
            ),
            terms=terms,
            covariance=cov_eq,
        )
        ok &= contract_comparison(equal_portfolio).verdict == "equal"
    report(
        5,
        ok,
        f"{checked} portfolios with delta_sigma > 0: ordering matches sign(gamma) "
        f"in all; comonotone pairs exactly equal at {len(psis)} fractiles",
    )


def test_06_aggregation_profit_audit():
    """Analytic pooling gain matches the optimizer-level oracle; the
    uncancelled variant differs by exactly the count-proportional term."""
    worst_oracle = 0.0
    worst_discrepancy = 0.0
    for psi in (0.3, 0.6, float(ndtr(1.0))):
        for alpha in (0.0, 0.5):
            terms = terms_for_psi(psi, pi_e=0.2, alpha=alpha)
            g = gamma(terms)
            for rho_load in (-0.7, 0.0, 0.6):
                for sigmas in ([8.0, 12.0], [15.0, 9.0, 11.0]):
                    n = len(sigmas)
                    mus = [120.0] * n  # mu >= 6*sigma throughout
                    loadings = [rho_load] + [abs(rho_load)] * (n - 1)
                    ids = tuple(f"m{i}" for i in range(n))
                    cov = one_factor_covariance(mus, sigmas, loadings, ids)
                    portfolio = AssetPortfolio(
                        members=tuple(
                            (ids[i], NormalDistribution(mus[i], sigmas[i]))
                            for i in range(n)
                        ),
                        terms=terms,
                        covariance=cov,
                    )
                    oracle = profit_delta_oracle(portfolio)
                    printed, cancelled = profit_delta_normal(portfolio)
                    worst_oracle = max(
                        worst_oracle, abs(cancelled - oracle) / max(abs(oracle), 1e-9)
                    )
                    count_term = (
                        -terms.p
                        * (terms.pi_p + terms.pi_e)
                        * (n - 1)
                        * float(ndtr(g))
                    )
                    worst_discrepancy = max(
                        worst_discrepancy,
                        abs((printed - oracle) - count_term) / abs(count_term),
                    )

    pair_terms = terms_for_psi(0.6, pi_e=0.2, alpha=0.5)
    twin_cov = one_factor_covariance(
        [96.0, 96.0], [12.0, 12.0], [1.0, 1.0], ("a", "b")
    )
    twins = AssetPortfolio(
        members=(
            ("a", NormalDistribution(96.0, 12.0)),
            ("b", NormalDistribution(96.0, 12.0)),
        ),
        terms=pair_terms,
        covariance=twin_cov,
    )
    twin_delta = abs(profit_delta_oracle(twins))
    ok = worst_oracle <= 0.01 and worst_discrepancy <= 0.01 and twin_delta <= 1e-9
    report(
        6,
        ok,
        f"mean-cancelled vs oracle: max rel {worst_oracle:.2e} (tol 1%); "
        f"uncancelled-minus-oracle vs count term: max rel {worst_discrepancy:.2e} "
        f"(tol 1%); comonotone twins |delta J| = {twin_delta:.1e} (tol 1e-9)",
    )


def test_07_complementarity_ranking():
    """Spread reduction ranks partners in the same order as profit gain."""
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    terms = terms_for_psi(0.7, pi_e=0.2, alpha=0.5)
    loadings = np.linspace(-0.9, 0.9, 13)
    ids = ("base",) + tuple(f"c{i:02d}" for i in range(13))
    mus = np.concatenate([[150.0], rng.uniform(80.0, 160.0, 13)])
    sigmas = np.concatenate([[12.0], rng.uniform(5.0, 15.0, 13)])
    cov = one_factor_covariance(mus, sigmas, np.concatenate([[1.0], loadings]), ids)
    base = ("base", NormalDistribution(150.0, 12.0))
    candidates = [
        (ids[i + 1], NormalDistribution(float(mus[i + 1]), float(sigmas[i + 1])))
        for i in range(13)
    ]
    rows = rank_partners(base, candidates, terms, covariance=cov)
    rho = stats.spearmanr(
        [r.delta_sigma for r in rows], [r.delta_j_oracle for r in rows]
    ).statistic
    elapsed = time.perf_counter() - start
    ok = rho >= 0.9 and elapsed < 30.0
    report(
        7,
        ok,
        f"13 candidates, loadings -0.9..0.9: spearman(delta_sigma, delta_j) = "
        f"{rho:.4f} (>= 0.9), {elapsed:.1f}s (< 30s)",
    )


def test_08_monte_carlo_convergence():
    """Settlement Monte Carlo agrees with the analytic program statistics.

    The per-window shortfall target: a delivery shortfall needs an event and
    q < C*, so its frequency converges to p*psi; the complementary
    covered-event frequency converges to p*(1-psi).  Both are checked.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(20240815)
    worst = {"mean": 0.0, "cvar": 0.0, "shortfall": 0.0, "covered": 0.0}
    config_base = dict(n_trials=100_000, windows_per_horizon=24)
    for i in range(20):
        psi = float(rng.uniform(0.15, 0.85))
        pi_p = float(rng.uniform(3.0, 8.0))
        p = float(rng.uniform(0.05, 0.25))
        pi_e = 0.9 * pi_p * psi / (1.0 - psi) * float(rng.uniform(0.1, 1.0))
        terms = terms_for_psi(psi, pi_e=pi_e, pi_p=pi_p, p=p)
        mu = float(rng.uniform(80.0, 140.0))
        sigma = float(rng.uniform(6.0, min(14.0, mu / 6.5)))
        if i % 2 == 0:
            dist = NormalDistribution(mu, sigma)
        else:
            dist = EmpiricalDistribution(
                np.maximum(rng.normal(mu, sigma, 20_001), 0.0)
            )
        contract = optimal_contract(terms, dist).c_star
        config = SimulationConfig(seed=1000 + i, **config_base)
        result = simulate_horizon(terms, dist, contract, config)
        summary = analytic_summary(terms, dist, contract, config)

        z_mean = abs(result.mean - summary.total_expected_profit) / (
            result.standard_error
        )
        est = result.cvar["all"]
        z_cvar = abs(est.value - summary.groups["all"].cvar_value) / (
            est.standard_error
        )
        n_draws = config.n_trials * config.windows_per_horizon
        f_short = p * psi
        z_short = abs(result.shortfall_frequency - f_short) / math.sqrt(
            f_short * (1.0 - f_short) / n_draws
        )
        f_cov = p * (1.0 - psi)
        covered = (result.event_total - result.shortfall_total) / n_draws
        z_cov = abs(covered - f_cov) / math.sqrt(f_cov * (1.0 - f_cov) / n_draws)
        worst["mean"] = max(worst["mean"], z_mean)
        worst["cvar"] = max(worst["cvar"], z_cvar)
        worst["shortfall"] = max(worst["shortfall"], z_short)
        worst["covered"] = max(worst["covered"], z_cov)
    elapsed = time.perf_counter() - start
    ok = max(worst.values()) <= 3.0 and elapsed < 300.0
    report(
        8,
        ok,
        f"20 scenarios x 1e5 trials: max |z| mean {worst['mean']:.2f}, cvar "
        f"{worst['cvar']:.2f}, shortfall-vs-p*psi {worst['shortfall']:.2f}, "
        f"covered-vs-p*(1-psi) {worst['covered']:.2f} (all <= 3), {elapsed:.0f}s "
        f"(< 300s)",
    )


def test_09_estimation_pipeline(tmp_path):
    """Decomposition recovers known weights; bucketing conserves counts; the
    pipeline commands are reproducible byte-for-byte."""
    shapes_matrix = np.zeros((24, 2))
    shapes_matrix[:12, 0] = 1.0
    shapes_matrix[12:, 1] = 1.0
    target = shapes_matrix @ np.array([2.0, 3.0])
    x, residual = nnls(shapes_matrix, target)
    exact_ok = x.tolist() == [2.0, 3.0] and residual == 0.0

    rng = np.random.default_rng(99)
    noisy, _ = nnls(shapes_matrix, target + rng.normal(0.0, 0.01, 24))
    noisy_ok = bool(np.all(np.abs(noisy - [2.0, 3.0]) <= 0.05))

    base = np.full(24, 1.0 / 24.0)
    hvac = np.zeros(24)
    hvac[8:20] = 1.0 / 12.0
    shapes = EndUseShapes(
        names=("base", "hvac"),
        weekday=np.vstack([base, hvac]),
        weekend=np.vstack([base, hvac]),
        curtailable="hvac",
    )
    days = tuple(date(2021, 3, 1) + timedelta(days=i) for i in range(21))
    loads = np.array([shapes.day_matrix(d.weekday() >= 5) @ [120.0, 80.0] for d in days])
    series = curtailable_series(DayTable(days, loads), shapes, fraction=0.6)
    buckets = series.buckets
    bucket_ok = (
        sum(d.n for d in buckets.values()) == series.values.size == 21 * 24
    )

    for name in ("config.json", "sample_load.csv", "shapes.csv"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    config = str(tmp_path / "config.json")
    # The config's model path names model.json, so each run overwrites it.
    model_path = tmp_path / "model.json"
    outs = []
    for run_id in (1, 2):
        sched_path = tmp_path / f"contracts{run_id}.csv"
        assert cli_main(["estimate", "--config", config, "--out", str(model_path)]) == 0
        assert (
            cli_main(
                [
                    "contract",
                    "--config",
                    config,
                    "--building",
                    "acme_plant",
                    "--out",
                    str(sched_path),
                ]
            )
            == 0
        )
        outs.append((model_path.read_bytes(), sched_path.read_bytes()))
    rerun_ok = outs[0] == outs[1]

    ok = exact_ok and noisy_ok and bucket_ok and rerun_ok
    report(
        9,
        ok,
        f"disjoint weights recovered exactly; noisy within 0.05; bucket counts "
        f"conserve {21 * 24} points; estimate+contract reruns byte-identical",
    )


def test_10_distribution_layer():
    """Quantile/cdf roundtrip, quadrature cross-check, and exact pooled-spread
    arithmetic."""
    dist = NormalDistribution(100.0, 10.0)
    grid = np.linspace(0.001, 0.999, 199)
    roundtrip = float(np.max(np.abs(dist.cdf(dist.quantile(grid)) - grid)))

    quad_worst = 0.0
    for mu, sigma in [(100.0, 10.0), (50.0, 4.0)]:
        d = NormalDistribution(mu, sigma)
        for c in (mu - 1.5 * sigma, mu, mu + 0.8 * sigma):
            partial = quad_partial_expectation(mu, sigma, c)
            short = quad_shortfall_expectation(mu, sigma, c)
            quad_worst = max(
                quad_worst,
                abs(d.partial_expectation(c) - partial) / abs(partial),
                abs(d.shortfall_expectation(c) - short) / abs(short),
            )

    def pooled_delta(sigmas, rho) -> float:
        cov = one_factor_covariance(
            [100.0, 100.0],
            sigmas,
            [1.0, rho],
            ("a", "b"),
        )
        return float(sum(sigmas) - sum_normal(cov).sigma)

    pythagorean = (
        abs(pooled_delta([3.0, 4.0], 0.0) - 2.0) <= 1e-12
        and abs(pooled_delta([3.0, 4.0], 1.0)) <= 1e-12
        and abs(pooled_delta([2.0, 2.0], 1.0)) <= 1e-12
        and abs(pooled_delta([2.0, 2.0], -1.0) - 4.0) <= 1e-12
    )
    ok = roundtrip <= 1e-9 and quad_worst <= 1e-6 and pythagorean
    report(
        10,
        ok,
        f"cdf/quantile roundtrip max err {roundtrip:.1e} (tol 1e-9); quadrature "
        f"max rel {quad_worst:.1e} (tol 1e-6); pooled-spread triples "
        f"(2, 0, 4) exact",
    )
