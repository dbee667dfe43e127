"""Non-negative least squares: exactness, KKT conditions, oracle agreement."""

from __future__ import annotations

import importlib
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

from drcontracts import nnls
from drcontracts.cli import main
from drcontracts.estimation import read_shapes_csv
from drcontracts.nnls import GRADIENT_TOLERANCE
from oracles import passive_set_search_nnls, projected_gradient_nnls

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def disjoint_shapes() -> np.ndarray:
    """Two end-use profiles with non-overlapping support over 24 hours."""
    a = np.zeros((24, 2))
    a[:12, 0] = 1.0
    a[12:, 1] = 1.0
    return a


def test_disjoint_shapes_recover_integer_weights_exactly():
    a = disjoint_shapes()
    b = a @ np.array([2.0, 3.0])
    x, residual = nnls(a, b)
    assert x.tolist() == [2.0, 3.0]
    assert residual == 0.0


def test_matches_scipy_on_random_overdetermined_problems():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a = rng.random((24, 4))
        b = rng.random(24)
        x_ours, res_ours = nnls(a, b)
        x_scipy, res_scipy = optimize.nnls(a, b)
        assert x_ours == pytest.approx(x_scipy, abs=1e-8)
        assert res_ours == pytest.approx(res_scipy, abs=1e-8)


def test_matches_projected_gradient_oracle():
    rng = np.random.default_rng(5)
    a = rng.random((30, 3))
    b = rng.random(30)
    x, _ = nnls(a, b)
    x_pg = projected_gradient_nnls(a, b)
    assert x == pytest.approx(x_pg, abs=1e-6)


def test_negative_unconstrained_solution_clamped_to_zero():
    # Unconstrained least squares would want a negative second weight.
    a = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.001]])
    b = np.array([2.0, 2.0, 1.0])
    x, _ = nnls(a, b)
    assert np.all(x >= 0.0)
    x_scipy, _ = optimize.nnls(a, b)
    assert x == pytest.approx(x_scipy, abs=1e-6)


def test_zero_rhs_gives_zero_solution():
    x, residual = nnls(np.eye(3), np.zeros(3))
    assert x.tolist() == [0.0, 0.0, 0.0]
    assert residual == 0.0


def test_shape_validation():
    with pytest.raises(ValueError):
        nnls(np.ones((3, 2)), np.ones(4))
    with pytest.raises(ValueError):
        nnls(np.ones(3), np.ones(3))


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=2, max_value=12),
    n=st.integers(min_value=1, max_value=5),
)
def test_kkt_conditions_hold(seed, m, n):
    """x >= 0, active gradients near zero, inactive gradients non-positive."""
    rng = np.random.default_rng(seed)
    a = rng.random((m, n))
    b = rng.standard_normal(m)
    x, residual = nnls(a, b)
    assert np.all(x >= 0.0)
    gradient = a.T @ (b - a @ x)
    scale = max(1.0, float(np.abs(a.T @ b).max()))
    assert np.all(gradient <= 1e-8 * scale)
    active = x > 0.0
    assert np.all(np.abs(gradient[active]) <= 1e-8 * scale)
    assert residual == pytest.approx(float(np.linalg.norm(b - a @ x)), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=6),
    extra_rows=st.integers(min_value=0, max_value=18),
    noisy_fit=st.booleans(),
)
def test_bitwise_equal_to_passive_set_search_on_full_rank_problems(
    seed, n, extra_rows, noisy_fit
):
    """Random b, or a noisy fit of weights some of which are 0, so bounds go active."""
    rng = np.random.default_rng(seed)
    a = rng.random((n + extra_rows, n))
    assert np.linalg.matrix_rank(a) == n
    if noisy_fit:
        w = 10.0 * rng.random(n)
        w[rng.random(n) < 0.4] = 0.0
        b = a @ w + rng.normal(0.0, 0.1, a.shape[0])
    else:
        b = rng.standard_normal(a.shape[0])
    x, residual = nnls(a, b)
    x_ref, residual_ref = passive_set_search_nnls(a, b)
    assert x.tobytes() == x_ref.tobytes()
    assert residual == residual_ref


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=6),
    extra_rows=st.integers(min_value=0, max_value=18),
    layout=st.sampled_from(["asfortranarray", "transposed copy"]),
)
def test_bitwise_equal_to_passive_set_search_on_column_major_matrices(
    seed, n, extra_rows, layout
):
    """EndUseShapes.day_matrix is a transposed view, so estimate passes a
    column-major ``a``; the referee must hold on that layout too."""
    rng = np.random.default_rng(seed)
    a = rng.random((n + extra_rows, n))
    a = np.asfortranarray(a) if layout == "asfortranarray" else a.T.copy().T
    assert a.flags.f_contiguous and np.linalg.matrix_rank(a) == n
    w = 10.0 * rng.random(n)
    w[rng.random(n) < 0.4] = 0.0
    b = a @ w + rng.normal(0.0, 0.1, a.shape[0])
    x, residual = nnls(a, b)
    x_ref, residual_ref = passive_set_search_nnls(a, b)
    assert x.tobytes() == x_ref.tobytes()
    assert residual == residual_ref


def degenerate_problem(kind: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    if kind == "exact fit":
        a = rng.random((int(rng.integers(n, 25)), n))
        w = 10.0 * rng.random(n)
        w[rng.random(n) < 0.4] = 0.0
        return a, a @ w
    if kind == "duplicated column":
        a = rng.random((int(rng.integers(n + 1, 25)), n))
        a = np.column_stack([a, a[:, rng.integers(n)]])
        return a, rng.standard_normal(a.shape[0])
    a = rng.random((int(rng.integers(1, n + 1)), n + 1))
    return a, 3.0 * rng.standard_normal(a.shape[0])


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["exact fit", "duplicated column", "fewer rows than columns"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_degenerate_problems_reach_a_kkt_point_with_the_referee_residual(kind, seed):
    a, b = degenerate_problem(kind, seed)
    x, residual = nnls(a, b)
    _, residual_ref = passive_set_search_nnls(a, b)
    gradient = a.T @ (b - a @ x)
    scale = max(1.0, float(np.abs(a.T @ b).max()))
    assert np.all(x >= 0.0)
    assert np.all(gradient <= 1e-8 * scale)
    assert np.all(np.abs(gradient[x > 0.0]) <= 1e-8 * scale)
    assert abs(residual - residual_ref) <= 1e-9 * max(1.0, float(np.linalg.norm(b)))


@pytest.mark.parametrize("scale", [1e5, 1e6])
def test_exact_fits_of_fixture_shapes_at_large_loads_reach_a_kkt_point(scale):
    """Noise-free days with a zero weight, at loads where gradient rounding
    exceeds the absolute GRADIENT_TOLERANCE on some days."""
    shapes = read_shapes_csv(FIXTURES / "shapes.csv", "hvac")
    off_support_above_tolerance = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        a = shapes.day_matrix(seed % 2 == 0)
        w = 300.0 * scale * rng.random(3)
        w[rng.random(3) < 0.4] = 0.0
        b = a @ w
        x, residual = nnls(a, b)
        _, residual_ref = passive_set_search_nnls(a, b)
        gradient = a.T @ (b - a @ x)
        tol = GRADIENT_TOLERANCE * a.shape[0] * np.abs(a).max() * np.abs(b).max()
        assert np.all(x >= 0.0)
        assert np.all(gradient <= tol)
        assert abs(residual - residual_ref) <= 1e-9 * float(np.linalg.norm(b))
        off_support_above_tolerance += int(np.any(gradient[x == 0.0] > GRADIENT_TOLERANCE))
    assert off_support_above_tolerance > 0


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_exact_fits_at_large_loads_stop_without_the_cap(scale, monkeypatch):
    """The entering test's tolerance scales with m * max|a| * max|b|, so the
    loop does not re-enter columns whose gradient is rounding noise: on these
    days it took up to 59 passive solves at 1e6 times the loads under the
    absolute GRADIENT_TOLERANCE, against at most 4 at 1x."""
    # The package exports the function under the module's name.
    nnls_module = importlib.import_module("drcontracts.nnls")
    solves = []
    solve = nnls_module._solve_passive

    def counting(a, b, passive):
        solves[-1] += 1
        return solve(a, b, passive)

    monkeypatch.setattr(nnls_module, "_solve_passive", counting)
    shapes = read_shapes_csv(FIXTURES / "shapes.csv", "hvac")
    for seed in range(300):
        rng = np.random.default_rng(seed)
        a = shapes.day_matrix(seed % 2 == 0)
        w = 300.0 * scale * rng.random(3)
        w[rng.random(3) < 0.4] = 0.0
        solves.append(0)
        nnls(a, a @ w)
    assert max(solves) <= 6


def test_shapes_csv_with_13_end_uses_estimates(tmp_path, capsys):
    for name in ("config.json", "sample_load.csv"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    names = ["hvac"] + [f"use{i:02d}" for i in range(1, 13)]
    rows = ["end_use,day_type,hour,weight"] + [
        f"{name},all,{h},{(h + i) % 24 + 1}"
        for i, name in enumerate(names)
        for h in range(24)
    ]
    (tmp_path / "shapes.csv").write_text("\n".join(rows) + "\n")
    argv = ["estimate", "--config", str(tmp_path / "config.json")]
    assert main([*argv, "--out", str(tmp_path / "model.json")]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "model.json").exists()
