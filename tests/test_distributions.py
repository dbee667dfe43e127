"""Empirical/normal distribution layer: moments, tails, sums, pairing."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats

from drcontracts import (
    AlignmentError,
    ClippedMassWarning,
    CovarianceModel,
    EmpiricalDistribution,
    NormalDistribution,
    ProgramTerms,
    expected_profit,
    fit_normal,
    kolmogorov_distance,
    sum_empirical,
    sum_normal,
)
from drcontracts.distributions import (
    clipped_normal_transform,
    fit_rows,
    kolmogorov_rows,
    prefix_sums,
    row_spread,
    standard_normal_cdf,
    standard_normal_pdf,
    standard_normal_quantile,
)
from oracles import (
    per_bucket_fit_normal,
    per_bucket_kolmogorov_distance,
    quad_partial_expectation,
    quad_shortfall_expectation,
)

QUAD = [1.0, 2.0, 3.0, 4.0]


class TestEmpirical:
    def test_samples_sorted_on_construction(self):
        emp = EmpiricalDistribution([3.0, 1.0, 2.0])
        assert emp.samples.tolist() == [1.0, 2.0, 3.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution([])

    def test_cdf_right_continuous_count(self):
        emp = EmpiricalDistribution(QUAD)
        assert emp.cdf(2.5) == 0.5
        assert emp.cdf(2.0) == 0.5  # at an atom the atom counts
        assert emp.cdf(0.5) == 0.0
        assert emp.cdf(4.0) == 1.0

    def test_quantile_linear_interpolation(self):
        emp = EmpiricalDistribution(QUAD)
        assert emp.quantile(0.0) == 1.0
        assert emp.quantile(1.0) == 4.0
        # position (n-1)·u = 1.5 lands midway between the 2nd and 3rd samples
        assert emp.quantile(0.5) == pytest.approx(2.5)
        assert emp.quantile(0.5) == pytest.approx(np.quantile(QUAD, 0.5))

    def test_quantile_rejects_out_of_range(self):
        emp = EmpiricalDistribution(QUAD)
        for u in (-0.1, -1e-300, 1.1, math.nextafter(1.0, 2.0), math.nan, [0.5, math.nan]):
            with pytest.raises(ValueError):
                emp.quantile(u)

    def test_partial_expectation_direct_sum(self):
        emp = EmpiricalDistribution(QUAD)
        assert emp.partial_expectation(2.5) == pytest.approx((1.0 + 2.0) / 4.0)
        assert emp.partial_expectation(0.0) == 0.0
        assert emp.partial_expectation(10.0) == pytest.approx(2.5)

    def test_shortfall_expectation_direct_sum(self):
        emp = EmpiricalDistribution(QUAD)
        # (2.5-1) + (2.5-2) over four samples
        assert emp.shortfall_expectation(2.5) == pytest.approx(0.5)
        assert emp.shortfall_expectation(0.0) == 0.0

    def test_moments(self):
        emp = EmpiricalDistribution(QUAD)
        assert emp.mean() == pytest.approx(2.5)
        assert emp.stddev() == pytest.approx(np.std(QUAD, ddof=1))
        assert EmpiricalDistribution([2.0, 2.0, 2.0, 2.0]).stddev() == 0.0

    def test_stddev_needs_two_samples(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution([5.0]).stddev()

    def test_stddev_is_computed_once(self):
        rng = np.random.default_rng(5)
        emp = EmpiricalDistribution(rng.normal(10.0, 2.0, 97))
        first = emp.stddev()
        assert emp.stddev() is first
        assert first.hex() == float(np.std(emp.samples, ddof=1)).hex()
        single = EmpiricalDistribution([5.0])
        for _ in range(2):
            with pytest.raises(ValueError, match="single sample"):
                single.stddev()

    def test_transform_uniform_hits_each_sample(self):
        emp = EmpiricalDistribution(QUAD)
        u = np.array([0.1, 0.3, 0.6, 0.9])
        assert emp.transform_uniform(u).tolist() == [1.0, 2.0, 3.0, 4.0]
        # u = 1.0 must not index past the last sample
        assert emp.transform_uniform(np.array([1.0 - 1e-16, 1.0]))[-1] == 4.0

    def test_single_sample_always_returned(self):
        emp = EmpiricalDistribution([5.0])
        rng = np.random.default_rng(0)
        assert emp.transform_uniform(rng.random(10)).tolist() == [5.0] * 10

    @given(
        samples=st.lists(
            st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=40
        ),
        c=st.floats(min_value=0.0, max_value=1.2e4),
    )
    def test_partial_shortfall_identity_exact(self, samples, c):
        """c·cdf(c) − shortfall(c) = partial(c), with no tolerance."""
        emp = EmpiricalDistribution(samples)
        lhs = c * emp.cdf(c) - emp.shortfall_expectation(c)
        assert lhs == pytest.approx(emp.partial_expectation(c), abs=1e-9, rel=1e-12)

    @given(
        samples=st.lists(
            st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=40
        ),
        u=st.one_of(
            st.floats(min_value=0.0, max_value=1.0),
            st.sampled_from([0.0, 0.5, 0.95, 1.0, math.nextafter(1.0, 0.0)]),
        ),
    )
    def test_scalar_quantile_memo_is_bitwise(self, samples, u):
        """Scalar levels recompute numpy's linear rule; no memo, same bits."""
        emp = EmpiricalDistribution(samples)
        expected = np.float64(np.quantile(np.asarray(samples, dtype=float), u))
        first = emp.quantile(u)
        assert type(first) is float
        assert np.float64(first).tobytes() == expected.tobytes()
        for again in (u, np.float64(u), np.asarray(u)):
            out = emp.quantile(again)
            assert type(out) is float
            assert np.float64(out).tobytes() == expected.tobytes()

    @given(
        samples=st.lists(
            st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=40
        ),
        u=st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=1.0),
                st.sampled_from([0.0, 0.5, 0.95, 1.0, math.nextafter(1.0, 0.0)]),
            ),
            min_size=0,
            max_size=8,
        ),
    )
    def test_array_quantile_bypasses_memo(self, samples, u):
        """Array levels follow the scalar path's rule, bit for bit numpy's."""
        emp = EmpiricalDistribution(samples)
        if u:
            emp.quantile(u[0])
        out = emp.quantile(np.asarray(u))
        assert isinstance(out, np.ndarray) and out.shape == (len(u),)
        expected = np.quantile(np.asarray(samples, dtype=float), np.asarray(u))
        assert out.tobytes() == expected.tobytes()

    @given(
        u=st.one_of(
            st.floats(max_value=-1e-300),
            st.floats(min_value=1.0, exclude_min=True),
            st.just(math.nan),
        )
    )
    def test_invalid_quantile_raises_on_every_call(self, u):
        emp = EmpiricalDistribution([1.0, 2.0, 3.0])
        for _ in range(3):
            with pytest.raises(ValueError):
                emp.quantile(u)

    @given(
        c1=st.floats(min_value=0.0, max_value=100.0),
        c2=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_partial_expectation_monotone(self, c1, c2):
        emp = EmpiricalDistribution([3.0, 10.0, 55.0, 90.0])
        lo, hi = sorted([c1, c2])
        assert emp.partial_expectation(lo) <= emp.partial_expectation(hi) + 1e-12


class TestNormal:
    def test_cdf_reference_points(self):
        assert NormalDistribution(100.0, 10.0).cdf(100.0) == pytest.approx(0.5)
        assert NormalDistribution(0.0, 1.0).cdf(1.0) == pytest.approx(
            0.841345, abs=1e-6
        )

    def test_quantile_reference_points(self):
        assert NormalDistribution(100.0, 10.0).quantile(0.5) == pytest.approx(100.0)
        assert NormalDistribution(0.0, 1.0).quantile(0.841345) == pytest.approx(
            1.0, abs=1e-4
        )

    def test_quantile_unbounded_at_endpoints(self):
        dist = NormalDistribution(0.0, 1.0)
        assert dist.quantile(0.0) == -math.inf
        assert dist.quantile(1.0) == math.inf

    def test_cdf_quantile_roundtrip_tight(self):
        dist = NormalDistribution(37.0, 4.5)
        for u in np.linspace(1e-6, 1.0 - 1e-6, 41):
            assert dist.cdf(dist.quantile(u)) == pytest.approx(u, abs=1e-9)

    def test_partial_expectation_matches_quadrature(self):
        dist = NormalDistribution(100.0, 10.0)
        expected = quad_partial_expectation(100.0, 10.0, 110.0)
        assert dist.partial_expectation(110.0) == pytest.approx(expected, rel=1e-6)

    def test_shortfall_expectation_matches_quadrature(self):
        dist = NormalDistribution(100.0, 10.0)
        expected = quad_shortfall_expectation(100.0, 10.0, 90.0)
        assert dist.shortfall_expectation(90.0) == pytest.approx(expected, rel=1e-6)

    def test_partial_expectation_converges_to_mean(self):
        dist = NormalDistribution(50.0, 5.0)
        assert dist.partial_expectation(50.0 + 12.0 * 5.0) == pytest.approx(
            50.0, rel=1e-9
        )

    def test_tiny_sigma_does_not_overflow(self):
        # (c - mu)/sigma = 8e169: its square overflows, so the density must not square it.
        dist = NormalDistribution(0.0, 1e-168)
        mean = 1e-168 / math.sqrt(2.0 * math.pi)
        assert dist.partial_expectation(80.0) == pytest.approx(mean, rel=1e-15)
        terms = ProgramTerms(pi_e=4.0, pi_r=0.01, pi_p=5.0, p=0.25)
        # Every event delivers the ~0 capability and pays the penalty on the rest.
        assert expected_profit(terms, dist, 80.0) == pytest.approx(
            0.01 * 80.0 - 0.25 * 5.0 * 80.0, rel=1e-15
        )

    def test_point_mass_branches(self):
        pm = NormalDistribution(7.0, 0.0)
        assert pm.cdf(6.9) == 0.0
        assert pm.cdf(7.0) == 1.0
        assert pm.quantile(0.3) == 7.0
        assert pm.partial_expectation(10.0) == 7.0
        assert pm.partial_expectation(5.0) == 0.0
        assert pm.shortfall_expectation(10.0) == pytest.approx(3.0)
        rng = np.random.default_rng(1)
        assert pm.transform_uniform(rng.random()) == 7.0

    def test_nan_level_rejected(self):
        dist = NormalDistribution(100.0, 10.0)
        for u in (math.nan, [0.5, math.nan]):
            with pytest.raises(ValueError):
                dist.quantile(u)
            with pytest.raises(ValueError):
                dist.transform_uniform(u)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NormalDistribution(1.0, -0.5)

    def test_clipped_sampling_matches_half_normal_mean(self):
        dist = NormalDistribution(0.0, 1.0)
        rng = np.random.default_rng(123)
        draws = dist.transform_uniform(rng.random(1_000_000))
        assert draws.min() >= 0.0
        half_normal_mean = stats.norm.pdf(0.0)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - half_normal_mean) < 3.0 * se

    def test_transform_uniform_does_not_warn(self, recwarn):
        # The transform is pure; the Monte Carlo does the warning.
        dist = NormalDistribution(0.0, 1.0)
        assert dist.transform_uniform(np.array([0.2, 0.8]))[0] == 0.0
        assert not [w for w in recwarn if w.category is ClippedMassWarning]


def _ulps(ours: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """|ours - reference| in units in the last place of reference; non-finite
    references must be matched exactly."""
    finite = np.isfinite(reference)
    assert np.array_equal(ours[~finite], reference[~finite])
    ref = reference[finite]
    return np.abs(ours[finite] - ref) / np.spacing(np.abs(ref))


def _around(points, steps=200) -> np.ndarray:
    """Every double within `steps` representable values of each point."""
    out = []
    for x in points:
        up = down = x
        out.append(x)
        for _ in range(steps):
            up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
            out += [up, down]
    return np.array(out)


# The quantile's branch points: |u - 0.5| = 0.425 and r = sqrt(-ln u) = 5.
QUANTILE_BRANCHES = (0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0))


def _quantile_grid() -> np.ndarray:
    tails = np.logspace(-300.0, math.log10(0.5), 20_001)
    return np.concatenate(
        (np.linspace(0.0, 1.0, 200_001), tails, 1.0 - tails, _around(QUANTILE_BRANCHES))
    )


class TestStandardNormal:
    """The package's cdf and quantile against SciPy's, the test oracle."""

    def test_quantile_within_8_ulp_dense(self):
        u = np.linspace(0.0, 1.0, 1_000_001)
        assert _ulps(standard_normal_quantile(u), special.ndtri(u)).max() <= 8.0

    def test_quantile_within_8_ulp_in_the_tails(self):
        tails = np.logspace(-300.0, math.log10(0.5), 20_001)
        for u in (tails, 1.0 - tails):
            assert _ulps(standard_normal_quantile(u), special.ndtri(u)).max() <= 8.0

    def test_quantile_within_8_ulp_across_branch_points(self):
        u = _around(QUANTILE_BRANCHES)
        assert _ulps(standard_normal_quantile(u), special.ndtri(u)).max() <= 8.0

    def test_cdf_within_16_ulp_near_the_centre(self):
        z = np.linspace(-5.0, 5.0, 200_001)
        assert _ulps(standard_normal_cdf(z), special.ndtr(z)).max() <= 16.0

    def test_cdf_relative_error_down_to_the_normal_range(self):
        # Phi(-37.5) is about 4.6e-308, the smallest normal double's order.
        z = np.linspace(-37.5, -5.0, 100_001)
        reference = special.ndtr(z)
        rel = np.abs(standard_normal_cdf(z) - reference) / reference
        assert rel.max() <= 1e-13

    def test_pdf_keeps_its_bits_and_never_overflows(self):
        z = np.concatenate(
            (np.linspace(-45.0, 45.0, 90_001), [1e20, -1e160, 1e300, -np.inf, np.inf, np.nan])
        )
        with np.errstate(over="ignore"):
            reference = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        ours = standard_normal_pdf(z)  # filterwarnings = error: no overflow may escape
        assert ours.tobytes() == reference.tobytes()
        assert not ours[np.abs(z) > 38.6].any()
        assert standard_normal_pdf(1e200) == 0.0

    def test_cdf_limits(self):
        assert standard_normal_cdf(np.array([-np.inf, 0.0, np.inf])).tolist() == [
            0.0, 0.5, 1.0
        ]

    def test_quantile_endpoints_and_out_of_range(self):
        # filterwarnings = error: no RuntimeWarning may escape either call.
        u = np.array([0.0, 1.0, -0.1, 1.1, -np.inf, np.inf])
        out = standard_normal_quantile(u)
        assert out[:2].tolist() == [-np.inf, np.inf]
        assert np.isnan(out[2:]).all()
        assert [standard_normal_quantile(float(v)) for v in u[:2]] == [-np.inf, np.inf]
        assert all(math.isnan(standard_normal_quantile(float(v))) for v in u[2:])

    @pytest.mark.parametrize("fn", [standard_normal_cdf, standard_normal_quantile])
    def test_nan_propagates(self, fn):
        assert math.isnan(fn(math.nan))
        out = fn(np.array([0.25, math.nan, 0.75]))
        assert np.isnan(out).tolist() == [False, True, False]

    @pytest.mark.parametrize("fn", [standard_normal_cdf, standard_normal_quantile])
    def test_shapes_and_scalar_types(self, fn):
        assert isinstance(fn(0.3), float)
        assert isinstance(fn(np.float64(0.3)), float)
        assert isinstance(fn(np.array(0.3)), float)
        assert fn(np.empty((0, 3))).shape == (0, 3)
        grid = np.array([[0.1, 0.2, 0.3], [0.6, 0.7, 0.99]])
        assert fn(grid).shape == (2, 3)
        assert fn(grid).ravel().tolist() == fn(grid.ravel()).tolist()

    def test_quantile_scalar_is_bitwise_the_array_element(self):
        u = _quantile_grid()
        scalars = np.array([standard_normal_quantile(v) for v in u.tolist()])
        assert scalars.tobytes() == standard_normal_quantile(u).tobytes()

    def test_cdf_scalar_is_bitwise_the_array_element(self):
        z = np.concatenate((np.linspace(-40.0, 10.0, 50_001), _around([-1.0, 1.0], 50)))
        scalars = np.array([standard_normal_cdf(v) for v in z.tolist()])
        assert scalars.tobytes() == standard_normal_cdf(z).tobytes()

    def test_batched_transform_is_bitwise_per_group(self):
        dists = [
            NormalDistribution(100.0, 10.0),
            NormalDistribution(1.0, 2.0),
            NormalDistribution(1e9, 1e-9),
            NormalDistribution(0.3, 7.0),
        ]
        rng = np.random.default_rng(5)
        group = rng.integers(0, len(dists), 5_000)
        u = np.concatenate((rng.random(4_990), [0.0, 1e-300, 0.075, 0.925, 0.5]))
        u = np.concatenate((u, [1.0 - 1e-16, 1e-12, 0.3, 0.9, 0.01]))
        mu = np.array([d.mu for d in dists])
        sigma = np.array([d.sigma for d in dists])
        batched = clipped_normal_transform(mu[group], sigma[group], u)
        per_group = np.empty_like(u)
        for g, dist in enumerate(dists):
            per_group[group == g] = dist.transform_uniform(u[group == g])
        assert batched.tobytes() == per_group.tobytes()


class TestFitNormal:
    def test_two_point_grid_recovers_moments(self):
        emp = EmpiricalDistribution([90.0, 110.0])
        fitted, distance = fit_normal(emp)
        assert fitted.mu == pytest.approx(100.0)
        # ddof=1 on two symmetric points gives sigma·sqrt(2)
        assert fitted.sigma == pytest.approx(10.0 * math.sqrt(2.0))
        assert distance == pytest.approx(0.2602499389065233, abs=1e-12)

    def test_constant_samples_give_point_mass(self):
        fitted, distance = fit_normal(EmpiricalDistribution([4.0, 4.0, 4.0]))
        assert fitted.sigma == 0.0
        assert distance == 0.0

    def test_constant_samples_fit_the_point_mass_at_their_value(self):
        # The mean of three 0.1s rounds to 0.10000000000000002, and the
        # spread about it to 1.7e-17 rather than 0.
        fitted, distance = fit_normal(EmpiricalDistribution([0.1, 0.1, 0.1]))
        assert (fitted.mu, fitted.sigma, distance) == (0.1, 0.0, 0.0)

    def test_large_sample_recovery(self):
        rng = np.random.default_rng(42)
        emp = EmpiricalDistribution(rng.normal(50.0, 5.0, 100_000))
        fitted, distance = fit_normal(emp)
        assert abs(fitted.mu - 50.0) < 0.05
        assert abs(fitted.sigma - 5.0) < 0.05
        assert distance < 0.01

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            fit_normal(EmpiricalDistribution([1.0]))


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


@st.composite
def sorted_rows(draw):
    """A (rows x n) block sorted along its rows.

    Samples come from a few fixed values, a drawn value and its next float up,
    and any value, so rows hold ties, constant rows and one-ulp gaps; some
    rows are all zero (point masses) and n may be 2.
    """
    n = draw(st.integers(2, 9))
    rows = draw(st.integers(1, 5))
    base = draw(st.floats(0.0, 50.0))
    fixed = [0.0, 0.5, 2.0, 3.25, base, float(np.nextafter(base, np.inf))]
    value = st.one_of(st.sampled_from(fixed), st.floats(0.0, 50.0))
    block = np.array(draw(st.lists(st.lists(value, min_size=n, max_size=n),
                                   min_size=rows, max_size=rows)))
    block[np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))] = 0.0
    return np.sort(block, axis=1)


@st.composite
def rows_with_constants(draw):
    """sorted_rows with some rows set to one drawn value each, 0.1 among them:
    constant rows whose NumPy std(ddof=1) need not be 0."""
    block = draw(sorted_rows())
    for row in range(block.shape[0]):
        if draw(st.booleans()):
            block[row] = draw(st.one_of(st.just(0.1), st.floats(0.0, 50.0)))
    return block


class TestRowSpread:
    """row_spread is the one spread rule: fit_rows and EmpiricalDistribution.stddev take it."""

    @settings(max_examples=300, deadline=None)
    @given(block=rows_with_constants())
    def test_numpy_spread_or_exactly_zero(self, block):
        spread = row_spread(block)
        fits = fit_rows(block)
        assert spread.shape == (block.shape[0],)
        for row, sigma, fit in zip(block, spread.tolist(), fits):
            expected = 0.0 if row[0] == row[-1] else float(np.std(row, ddof=1))
            assert sigma.hex() == expected.hex()
            assert float(fit[1]).hex() == sigma.hex()
            assert EmpiricalDistribution(row).stddev().hex() == sigma.hex()

    def test_constant_samples_have_zero_spread(self):
        values = [0.1] * 3
        assert np.std(values, ddof=1) > 0.0  # NumPy's rounding noise
        assert EmpiricalDistribution(values).stddev() == 0.0
        assert row_spread(np.array([values])).tolist() == [0.0]


class TestBlockFits:
    """fit_rows, kolmogorov_rows and prefix_sums against the per-bucket referee, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(block=sorted_rows())
    def test_each_row_is_the_per_bucket_fit(self, block):
        fits = fit_rows(block)
        prefix = prefix_sums(block)
        assert fits.shape == (block.shape[0], 3)
        for row, fit, sums in zip(block, fits, prefix):
            dist = EmpiricalDistribution(row)
            if row[0] == row[-1]:
                # A constant row fits the point mass at its value, exactly.
                expected = [row[0], 0.0, 0.0]
            else:
                normal, distance = per_bucket_fit_normal(dist)
                expected = [normal.mu, normal.sigma, distance]
            assert hexes(fit) == hexes(expected)
            normal, distance = fit_normal(dist)
            assert hexes([normal.mu, normal.sigma, distance]) == hexes(expected)
            assert sums.tobytes() == np.concatenate(([0.0], np.cumsum(row))).tobytes()
            assert dist.prefix.tobytes() == sums.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(block=sorted_rows(), data=st.data())
    def test_each_row_is_the_per_bucket_distance(self, block, data):
        """Normals of any mu, and point masses below, at, between and above the samples.

        sigma stays above 1e-9: a smaller one overflows (x - mu)/sigma here,
        in the referee as in the package.
        """
        mu, sigma = [], []
        for row in block:
            where = data.draw(st.sampled_from(["normal", "below", "at", "between", "above"]))
            if where == "normal":
                mu.append(data.draw(st.floats(-100.0, 100.0)))
                sigma.append(data.draw(st.floats(1e-9, 1e3)))
                continue
            sigma.append(0.0)
            if where == "below":
                mu.append(row[0] - data.draw(st.floats(0.0, 10.0, exclude_min=True)))
            elif where == "at":
                mu.append(data.draw(st.sampled_from(row.tolist())))
            elif where == "between":
                i = data.draw(st.integers(0, row.size - 2))
                mu.append(row[i] + (row[i + 1] - row[i]) / 2.0)
            else:
                mu.append(row[-1] + data.draw(st.floats(0.0, 10.0, exclude_min=True)))
        distances = kolmogorov_rows(block, np.array(mu), np.array(sigma))
        for row, distance, m, s in zip(block, distances, mu, sigma):
            dist, normal = EmpiricalDistribution(row), NormalDistribution(m, s)
            expected = per_bucket_kolmogorov_distance(dist, normal)
            assert hexes([distance, kolmogorov_distance(dist, normal)]) == hexes([expected] * 2)


class TestKolmogorovDistance:
    def test_matches_scipy_kstest(self):
        rng = np.random.default_rng(7)
        samples = rng.normal(10.0, 2.0, 500)
        emp = EmpiricalDistribution(samples)
        dist = NormalDistribution(10.0, 2.0)
        expected = stats.kstest(samples, lambda x: stats.norm.cdf(x, 10.0, 2.0))
        assert kolmogorov_distance(emp, dist) == pytest.approx(
            expected.statistic, abs=1e-12
        )


class TestSums:
    def test_sum_empirical_pairwise(self):
        a = EmpiricalDistribution([1.0, 3.0])
        b = EmpiricalDistribution([2.0, 4.0])
        total = sum_empirical([a, b])
        assert total.samples.tolist() == [3.0, 7.0]

    def test_sum_empirical_single_identity(self):
        a = EmpiricalDistribution([1.0, 3.0])
        assert sum_empirical([a]).samples.tolist() == [1.0, 3.0]

    def test_sum_empirical_mean_linearity(self):
        rng = np.random.default_rng(3)
        parts = [EmpiricalDistribution(rng.random(100)) for _ in range(3)]
        total = sum_empirical(parts)
        assert total.mean() == pytest.approx(sum(p.mean() for p in parts))

    def test_sum_empirical_mismatched_counts_rejected(self):
        a = EmpiricalDistribution([1.0, 3.0])
        b = EmpiricalDistribution([1.0, 2.0, 3.0])
        with pytest.raises(AlignmentError):
            sum_empirical([a, b])

    def test_sum_normal_independence(self):
        model = CovarianceModel(
            means=np.array([1.0, 2.0]),
            stddevs=np.array([3.0, 4.0]),
            correlation=np.eye(2),
            asset_ids=("a", "b"),
        )
        total = sum_normal(model)
        assert total.mu == pytest.approx(3.0)
        assert total.sigma == pytest.approx(5.0)

    def test_sum_normal_comonotone_and_hedged(self):
        ones = np.ones((2, 2))
        model = CovarianceModel(
            means=np.array([0.0, 0.0]),
            stddevs=np.array([2.0, 2.0]),
            correlation=ones,
            asset_ids=("a", "b"),
        )
        assert sum_normal(model).sigma == pytest.approx(4.0)
        hedged = CovarianceModel(
            means=np.array([0.0, 0.0]),
            stddevs=np.array([2.0, 2.0]),
            correlation=np.array([[1.0, -1.0], [-1.0, 1.0]]),
            asset_ids=("a", "b"),
        )
        assert sum_normal(hedged).sigma == 0.0

    def test_covariance_model_requires_psd(self):
        bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        with pytest.raises(ValueError):
            CovarianceModel(
                means=np.zeros(3), stddevs=np.ones(3), correlation=bad, asset_ids="abc"
            )

    def test_covariance_model_requires_asset_ids(self):
        moments = dict(means=np.zeros(2), stddevs=np.ones(2), correlation=np.eye(2))
        with pytest.raises(TypeError, match="asset_ids"):
            CovarianceModel(**moments)
        model = CovarianceModel(**moments, asset_ids=("a", "b"))
        assert model.index_of("b") == 1
        with pytest.raises(KeyError, match="unknown asset id"):
            model.index_of("c")
        for ids, match in ((("a",), "length"), (("a", "a"), "unique")):
            with pytest.raises(ValueError, match=match):
                CovarianceModel(**moments, asset_ids=ids)

    def test_sum_normal_vs_sum_empirical_on_gaussian_samples(self):
        rng = np.random.default_rng(21)
        n = 20_000
        x = rng.normal(0.0, 1.0, n)
        y = rng.normal(0.0, 1.0, n)
        a_samples = 50.0 + 3.0 * x
        b_samples = 80.0 + 4.0 * (0.5 * x + math.sqrt(1 - 0.25) * y)
        a = EmpiricalDistribution(a_samples)
        b = EmpiricalDistribution(b_samples)
        model = CovarianceModel(
            means=np.array([a.mean(), b.mean()]),
            stddevs=np.array([a.stddev(), b.stddev()]),
            correlation=np.corrcoef(a_samples, b_samples),
            asset_ids=("a", "b"),
        )
        analytic_sigma = sum_normal(model).sigma
        sampled_sigma = sum_empirical([a, b]).stddev()
        # se of a sample stddev is roughly sigma/sqrt(2n)
        se = analytic_sigma / math.sqrt(2 * n)
        assert abs(sampled_sigma - analytic_sigma) < 3.0 * se
