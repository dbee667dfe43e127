"""Curtailment-capability distributions.

Two families cover the estimation pipeline and the analytic results: an
empirical distribution over stored historical samples, and a normal
approximation used where closed forms exist.  Both expose the same surface
(cdf, quantile, partial/shortfall expectation, moments, and the inverse-cdf
transform of uniforms) so the contract optimizer does not care which one it
is given.  A covariance model, keyed by asset id, sums normal members.

The standard normal cdf and quantile are the package's own, with NumPy and
the math module only:

* the quantile is Wichura's AS 241, PPND16 (Applied Statistics 37, 1988),
  the algorithm and coefficients of CPython's ``statistics.NormalDist``;
  it stays within 8 ulp of ``scipy.special.ndtri`` down to u = 1e-300;
* the cdf is 0.5*erfc(-z/sqrt(2)), or 0.5 + 0.5*erf(z/sqrt(2)) for
  |z| < sqrt(2) as in SciPy, through the C library's ``erf``/``erfc``, which descend from
  Cody's rational Chebyshev approximations (Math. Comp. 23, 1969).  It
  stays within 16 ulp of ``scipy.special.ndtr`` for |z| <= 5 and within
  1e-13 relative down to z = -37.5.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .errors import AlignmentError

# Normal draws are clipped at zero; warn when the clipped mass is material.
CLIPPED_MASS_WARN = 1e-3

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT1_2 = math.sqrt(0.5)


class ClippedMassWarning(UserWarning):
    """A normal capability model places non-negligible mass below zero."""


def standard_normal_pdf(z):
    # The density is exactly 0.0 once |z| exceeds about 38.6; clipping at 40
    # keeps z*z from overflowing and changes no returned bit.
    z = np.clip(np.asarray(z, dtype=float), -40.0, 40.0)
    out = np.exp(-0.5 * z * z) / _SQRT_2PI
    return out if out.ndim else float(out)


def _ndtr(z: float) -> float:
    x = z * _SQRT1_2
    if abs(x) < 1.0:
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(abs(x))
    return 1.0 - y if x > 0.0 else y


def standard_normal_cdf(z):
    """Phi(z), elementwise; NaN maps to NaN."""
    z = np.asarray(z, dtype=float)
    if not z.ndim:
        return _ndtr(float(z))
    return np.array([_ndtr(v) for v in z.ravel().tolist()]).reshape(z.shape)


# AS 241 (PPND16) numerator and denominator coefficients, highest power
# first, for the central region |u - 0.5| <= 0.425, the tail
# r = sqrt(-ln min(u, 1 - u)) <= 5, and the far tail.
_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
)
_TAIL = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
     4.63033784615654529590e0, 1.42343711074968357734e0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
     2.05319162663775882187e0, 1.0),
)
_FAR_TAIL = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
     5.46378491116411436990e0, 6.65790464350110377720e0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)

# The helpers below take a float or an array and do the same IEEE operations
# in the same order on either (on an array, in place), so a scalar gives the
# bits it gives inside an array.


def _horner(coeffs, r):
    acc = coeffs[0] * r
    for c in coeffs[1:-1]:
        acc += c
        acc *= r
    acc += coeffs[-1]
    return acc


def _central(q):
    """Phi^-1(0.5 + q) for |q| <= 0.425."""
    r = 0.180625 - q * q
    x = _horner(_CENTRAL[0], r)
    x *= q
    x /= _horner(_CENTRAL[1], r)
    return x


def _rational(coeffs, r):
    x = _horner(coeffs[0], r)
    x /= _horner(coeffs[1], r)
    return x


def _ndtri(u: float) -> float:
    q = u - 0.5
    if abs(q) <= 0.425:
        return _central(q)
    tail = u if q < 0.0 else 1.0 - u
    if not tail > 0.0:  # u = 0 or 1, outside [0, 1], or NaN
        x = math.inf if tail == 0.0 else math.nan
    else:
        # np.log, not math.log: the two can differ in the last bit.
        r = math.sqrt(-float(np.log(tail)))
        x = _rational(_TAIL, r - 1.6) if r <= 5.0 else _rational(_FAR_TAIL, r - 5.0)
    return -x if q < 0.0 else x


def _tail_point(tail: np.ndarray) -> np.ndarray:
    """-Phi^-1(tail) for tails below 0.075, as _ndtri takes it; overwrites tail."""
    if tail.size and not tail.min() > 0.0:
        inside = tail > 0.0
        x = np.where(tail == 0.0, np.inf, np.nan)
        x[inside] = _tail_point(tail[inside])
        return x
    r = np.log(tail, out=tail)
    np.negative(r, out=r)
    np.sqrt(r, out=r)
    if not r.size or r.max() <= 5.0:
        r -= 1.6
        return _rational(_TAIL, r)
    near = r <= 5.0
    x = np.empty_like(r)
    x[near] = _rational(_TAIL, r[near] - 1.6)
    x[~near] = _rational(_FAR_TAIL, r[~near] - 5.0)
    return x


def _ndtri_array(u: np.ndarray) -> np.ndarray:
    """_ndtri elementwise, each branch on the elements that take it."""
    q = u - 0.5
    if q.size and q.max() < -0.425:  # all in the lower tail, as tail draws are
        x = _tail_point(u.copy())
        return np.negative(x, out=x)
    out = np.full_like(u, np.nan)
    central = np.nonzero(np.abs(q) <= 0.425)
    out[central] = _central(q[central])
    low = np.nonzero(q < -0.425)
    x = _tail_point(u[low])
    out[low] = np.negative(x, out=x)
    high = np.nonzero(q > 0.425)
    out[high] = _tail_point(1.0 - u[high])
    return out


def standard_normal_quantile(u):
    """Phi^-1(u), elementwise: -inf at 0, +inf at 1, NaN outside [0, 1]."""
    u = np.asarray(u, dtype=float)
    if not u.ndim:
        return _ndtri(float(u))
    return _ndtri_array(u)


def clipped_normal_transform(mu, sigma, u):
    """max(mu + sigma * Phi^-1(u), 0), elementwise: the draws of N(mu, sigma).

    mu and sigma are scalars or arrays that broadcast against u.  IEEE
    arithmetic is elementwise, so one call over many groups' cells returns
    the bits of one call per group.
    """
    return np.maximum(mu + sigma * standard_normal_quantile(u), 0.0)


def normal_below(mu, sigma, x):
    """F(x) and P(x) of N(mu, sigma), sigma > 0, elementwise; the arguments broadcast."""
    z0, zx = (0.0 - mu) / sigma, (x - mu) / sigma
    f = standard_normal_cdf(zx)
    mass = f - standard_normal_cdf(z0)
    return f, mu * mass - sigma * (standard_normal_pdf(zx) - standard_normal_pdf(z0))


def _check_unit_interval(u: np.ndarray) -> None:
    if u.size and not (u.min() >= 0.0 and u.max() <= 1.0):
        raise ValueError("quantile argument must lie in [0, 1]")


def linear_quantile(samples: np.ndarray, u):
    """numpy's default ``linear`` quantile of samples sorted along the last axis.

    The virtual index (n - 1)*u falls between the samples at its floor and
    the next index; from the last index on, numpy takes the last sample on
    both sides and measures the weight t from index -1.  Its lerp steps back
    from the upper sample once t >= 0.5.  u is one level for a block of rows
    or any array of levels for one row.
    """
    n = samples.shape[-1]
    virtual = (n - 1) * np.asarray(u, dtype=float)
    top = virtual >= n - 1
    below = np.where(top, -1.0, np.floor(virtual))
    lo = below.astype(np.intp)
    a, b = samples[..., lo], samples[..., np.where(top, -1, lo + 1)]
    t = virtual - below
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


def prefix_sums(samples: np.ndarray) -> np.ndarray:
    """prefix[..., k] is the sum of the first k entries along the last axis, added in order."""
    prefix = np.zeros(samples.shape[:-1] + (samples.shape[-1] + 1,))
    np.cumsum(samples, axis=-1, out=prefix[..., 1:])
    return prefix


def check_normal_parameters(mu: float, sigma: float) -> None:
    """The checks NormalDistribution makes on its parameters."""
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu!r}")
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Distribution putting mass 1/n on each stored sample.

    Samples are stored sorted ascending; ``original_samples`` keeps a
    read-only copy in construction order, which is how distributions pair
    sample by sample.
    """

    samples: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.samples, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("empirical distribution needs a 1-d, non-empty sample array")
        if not np.all(np.isfinite(values)):
            raise ValueError("samples must be finite")
        if np.min(values) < 0.0:
            raise ValueError("samples must be >= 0 (curtailment capability in kWh)")
        ordered = np.sort(values, kind="stable")
        values.flags.writeable = False
        ordered.flags.writeable = False
        object.__setattr__(self, "samples", ordered)
        object.__setattr__(self, "_original", values)

    @property
    def n(self) -> int:
        return int(self.samples.size)

    @property
    def original_samples(self) -> np.ndarray:
        """Samples in construction order (one per historical window), read-only."""
        return self._original

    @cached_property
    def prefix(self) -> np.ndarray:
        """prefix[k] is the sum of the k smallest samples."""
        return prefix_sums(self.samples)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.searchsorted(self.samples, x, side="right") / self.n
        return out if out.ndim else float(out)

    def quantile(self, u):
        """Interpolated quantile, bit for bit numpy's default ``linear`` method."""
        u_arr = np.asarray(u, dtype=float)
        _check_unit_interval(u_arr)
        out = linear_quantile(self.samples, u_arr)
        return out if np.ndim(u) else float(out)

    def partial_expectation(self, c):
        """Integral of q dF over [0, c]: mean contribution of samples <= c."""
        c = np.asarray(c, dtype=float)
        if c.size and np.min(c) < 0.0:
            raise ValueError("partial expectation bound must be >= 0")
        k = np.searchsorted(self.samples, c, side="right")
        out = self.prefix[k] / self.n
        return out if out.ndim else float(out)

    def shortfall_expectation(self, c):
        """E[(c - q)+] as the exact identity c*cdf(c) - partial_expectation(c)."""
        c_arr = np.asarray(c, dtype=float)
        out = c_arr * self.cdf(c_arr) - self.partial_expectation(c_arr)
        return out if np.ndim(c) else float(out)

    def mean(self) -> float:
        return float(self.samples.mean())

    @cached_property
    def _stddev(self) -> float:
        return float(self.samples.std(ddof=1))

    def stddev(self) -> float:
        if self.n < 2:
            raise ValueError("standard deviation undefined for a single sample")
        return self._stddev

    def transform_uniform(self, u):
        """Map uniforms on [0, 1) to samples by index: resampling transform."""
        u_arr = np.asarray(u, dtype=float)
        _check_unit_interval(u_arr)
        idx = np.minimum((u_arr * self.n).astype(np.int64), self.n - 1)
        out = self.samples[idx]
        return out if np.ndim(u) else float(out)


@dataclass(frozen=True)
class NormalDistribution:
    """Normal capability model N(mu, sigma); sigma = 0 degenerates to a point mass.

    The model itself is supported on the whole line; draws are clipped at zero.
    The Monte Carlo raises a ClippedMassWarning, once per call, when P(q < 0)
    exceeds CLIPPED_MASS_WARN.
    """

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        check_normal_parameters(self.mu, self.sigma)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.sigma == 0.0:
            out = np.where(x >= self.mu, 1.0, 0.0)
        else:
            out = standard_normal_cdf((x - self.mu) / self.sigma)
        return out if np.ndim(x) else float(out)

    def quantile(self, u):
        """Inverse cdf; u = 0 and u = 1 map to -inf / +inf when sigma > 0."""
        u_arr = np.asarray(u, dtype=float)
        _check_unit_interval(u_arr)
        if self.sigma == 0.0:
            out = np.full_like(u_arr, self.mu)
        else:
            out = self.mu + self.sigma * standard_normal_quantile(u_arr)
        return out if np.ndim(u) else float(out)

    def partial_expectation(self, c):
        """Integral of q dF over [0, c], in closed form."""
        c_arr = np.asarray(c, dtype=float)
        if c_arr.size and np.min(c_arr) < 0.0:
            raise ValueError("partial expectation bound must be >= 0")
        if self.sigma == 0.0:
            inside = (self.mu >= 0.0) & (c_arr >= self.mu)
            out = np.where(inside, self.mu, 0.0)
        else:
            out = normal_below(self.mu, self.sigma, c_arr)[1]
        return out if np.ndim(c) else float(out)

    def shortfall_expectation(self, c):
        c_arr = np.asarray(c, dtype=float)
        out = c_arr * self.cdf(c_arr) - self.partial_expectation(c_arr)
        return out if np.ndim(c) else float(out)

    def mean(self) -> float:
        return self.mu

    def stddev(self) -> float:
        return self.sigma

    def clipped_mass(self) -> float:
        """Probability mass below zero (removed by clipping on draw)."""
        if self.sigma == 0.0:
            return 1.0 if self.mu < 0.0 else 0.0
        return standard_normal_cdf(-self.mu / self.sigma)

    def warn_clipped_mass(self, stacklevel: int) -> None:
        """Raise a ClippedMassWarning if the clipped mass is material.

        stacklevel counts from the caller, as for warnings.warn.
        """
        mass = self.clipped_mass()
        if mass > CLIPPED_MASS_WARN:
            warnings.warn(
                f"clipping at zero removes probability mass {mass:.3g} "
                f"from N({self.mu:g}, {self.sigma:g})",
                ClippedMassWarning,
                stacklevel=stacklevel + 1,
            )

    def transform_uniform(self, u):
        """Inverse-cdf transform of uniforms, clipped at zero."""
        u_arr = np.asarray(u, dtype=float)
        _check_unit_interval(u_arr)
        if self.sigma == 0.0:
            out = np.full_like(u_arr, max(self.mu, 0.0))
        else:
            out = clipped_normal_transform(self.mu, self.sigma, u_arr)
        return out if np.ndim(u) else float(out)


CurtailmentDistribution = Union[EmpiricalDistribution, NormalDistribution]


def kolmogorov_rows(samples: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Sup-norm gap between the cdf of each row, sorted, and N(mu[r], sigma[r]).

    Against a normal with spread the sup is attained at a sample; against a
    point mass (sigma 0) at mu, it is max(F(mu-), 1 - F(mu)).
    """
    n, at = samples.shape[1], mu[:, None]
    below = np.count_nonzero(samples < at, axis=1) / n
    out = np.maximum(below, 1.0 - np.count_nonzero(samples <= at, axis=1) / n)
    spread = sigma > 0.0
    f = standard_normal_cdf((samples[spread] - at[spread]) / sigma[spread, None])
    upper = (np.arange(1, n + 1) / n - f).max(axis=1)
    out[spread] = np.maximum(upper, (f - np.arange(n) / n).max(axis=1))
    return out


def fit_rows(samples: np.ndarray) -> np.ndarray:
    """Each sorted row's mean, (n-1)-denominator spread and Kolmogorov gap, as (rows x 3);
    a constant row fits the point mass at its value."""
    constant = samples[:, 0] == samples[:, -1]
    mu = np.where(constant, samples[:, 0], samples.mean(axis=1))
    sigma = np.where(constant, 0.0, samples.std(axis=1, ddof=1))
    return np.column_stack((mu, sigma, kolmogorov_rows(samples, mu, sigma)))


def kolmogorov_distance(empirical: EmpiricalDistribution, normal: NormalDistribution) -> float:
    """Sup-norm gap between the empirical and normal cdfs: kolmogorov_rows' one-row case."""
    mu, sigma = np.array([normal.mu]), np.array([normal.sigma])
    return float(kolmogorov_rows(empirical.samples[None], mu, sigma)[0])


def fit_normal(empirical: EmpiricalDistribution) -> tuple[NormalDistribution, float]:
    """fit_rows' one-row case; at least two samples are required."""
    if empirical.n < 2:
        raise ValueError("standard deviation undefined for a single sample")
    mu, sigma, distance = fit_rows(empirical.samples[None])[0].tolist()
    return NormalDistribution(mu, sigma), distance


@dataclass(frozen=True, eq=False)
class CovarianceModel:
    """Second-moment model for a set of assets: means, stddevs, correlation.

    asset_ids name the entries in order; members are looked up by id only.
    """

    means: np.ndarray
    stddevs: np.ndarray
    correlation: np.ndarray
    asset_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        means = np.array(self.means, dtype=float, copy=True)
        stds = np.array(self.stddevs, dtype=float, copy=True)
        rho = np.array(self.correlation, dtype=float, copy=True)
        k = means.size
        if means.ndim != 1 or k == 0:
            raise ValueError("means must be a 1-d, non-empty array")
        if stds.shape != (k,):
            raise ValueError("stddevs must match means in length")
        if rho.shape != (k, k):
            raise ValueError(f"correlation must be {k}x{k}, got {rho.shape}")
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(stds)) and np.all(np.isfinite(rho))):
            raise ValueError("covariance model entries must be finite")
        if np.min(stds) < 0.0:
            raise ValueError("stddevs must be >= 0")
        if not np.allclose(rho, rho.T, atol=1e-12, rtol=0.0):
            raise ValueError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(rho), 1.0, atol=1e-12, rtol=0.0):
            raise ValueError("correlation matrix must have unit diagonal")
        if np.max(np.abs(rho)) > 1.0 + 1e-12:
            raise ValueError("correlation entries must lie in [-1, 1]")
        rho = 0.5 * (rho + rho.T)
        np.fill_diagonal(rho, 1.0)
        eigmin = float(np.linalg.eigvalsh(rho).min())
        if eigmin < -1e-9:
            raise ValueError(
                f"correlation matrix is not positive semidefinite (min eigenvalue {eigmin:.3g})"
            )
        ids = tuple(str(a) for a in self.asset_ids)
        if len(ids) != k:
            raise ValueError("asset_ids must match means in length")
        if len(set(ids)) != k:
            raise ValueError("asset_ids must be unique")
        object.__setattr__(self, "asset_ids", ids)
        for name, arr in (("means", means), ("stddevs", stds), ("correlation", rho)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def index_of(self, asset_id: str) -> int:
        try:
            return self.asset_ids.index(asset_id)
        except ValueError:
            raise KeyError(f"unknown asset id {asset_id!r}") from None

    def subset(self, asset_ids: Sequence[str]) -> CovarianceModel:
        idx = [self.index_of(a) for a in asset_ids]
        return CovarianceModel(
            means=self.means[idx],
            stddevs=self.stddevs[idx],
            correlation=self.correlation[np.ix_(idx, idx)],
            asset_ids=tuple(asset_ids),
        )


def sum_empirical(dists: Sequence[EmpiricalDistribution]) -> EmpiricalDistribution:
    """Index-wise sum: the empirical distribution of the pooled asset.

    Equal-size inputs pair in construction order, which preserves whatever
    cross-asset correlation the caller's window ordering encodes.
    """
    dists = list(dists)
    if not dists:
        raise ValueError("need at least one distribution")
    if len(dists) == 1:
        return dists[0]
    sizes = {d.n for d in dists}
    if len(sizes) != 1:
        raise AlignmentError(f"paired distributions differ in size: {sorted(sizes)}")
    total = np.zeros(dists[0].n)
    for d in dists:
        total += d.original_samples
    return EmpiricalDistribution(total)


def sum_normal(model: CovarianceModel) -> NormalDistribution:
    """Distribution of the assets' sum under the second-moment model."""
    variance = float(model.stddevs @ model.correlation @ model.stddevs)
    return NormalDistribution(float(model.means.sum()), math.sqrt(max(variance, 0.0)))

