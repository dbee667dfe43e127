"""Curtailment-capability distributions.

Two families cover the estimation pipeline and the analytic results: an
empirical distribution over stored historical samples, and a normal
approximation used where closed forms exist.  Both expose the same surface
(cdf, quantile, partial/shortfall expectation, moments, sampling) so the
contract optimizer does not care which one it is given.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np
from scipy import special

from .errors import AlignmentError

# Normal draws are clipped at zero; warn when the clipped mass is material.
CLIPPED_MASS_WARN = 1e-3

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class ClippedMassWarning(UserWarning):
    """A normal capability model places non-negligible mass below zero."""


def standard_normal_pdf(z):
    z = np.asarray(z, dtype=float)
    out = np.exp(-0.5 * z * z) / _SQRT_2PI
    return out if out.ndim else float(out)


def standard_normal_cdf(z):
    out = special.ndtr(np.asarray(z, dtype=float))
    return out if out.ndim else float(out)


def standard_normal_quantile(u):
    out = special.ndtri(np.asarray(u, dtype=float))
    return out if out.ndim else float(out)


def _check_unit_interval(u: np.ndarray) -> None:
    if u.size and not (u.min() >= 0.0 and u.max() <= 1.0):
        raise ValueError("quantile argument must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Distribution putting mass 1/n on each stored sample.

    Samples are stored sorted ascending.  When ``alignment`` labels are given
    (one per sample, unique), they are permuted together with the sort so the
    original pairing of sample to label survives; index-wise operations across
    distributions then realign by label.
    """

    samples: np.ndarray
    alignment: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.samples, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("empirical distribution needs a 1-d, non-empty sample array")
        if not np.all(np.isfinite(values)):
            raise ValueError("samples must be finite")
        if np.min(values) < 0.0:
            raise ValueError("samples must be >= 0 (curtailment capability in kWh)")
        order = np.argsort(values, kind="stable")
        if self.alignment is not None:
            labels = tuple(str(lab) for lab in self.alignment)
            if len(labels) != values.size:
                raise AlignmentError(
                    f"{len(labels)} alignment labels for {values.size} samples"
                )
            if len(set(labels)) != len(labels):
                raise AlignmentError("alignment labels must be unique")
            object.__setattr__(self, "alignment", tuple(labels[i] for i in order))
        values = values[order]
        # Inverse permutation: samples[_insertion] restores construction order,
        # which is the implicit window pairing for unlabelled index-wise sums.
        insertion = np.argsort(order)
        values.flags.writeable = False
        insertion.flags.writeable = False
        object.__setattr__(self, "samples", values)
        object.__setattr__(self, "_insertion", insertion)

    @property
    def n(self) -> int:
        return int(self.samples.size)

    @property
    def original_samples(self) -> np.ndarray:
        """Samples in construction order (one per historical window)."""
        return self.samples[self._insertion]

    @cached_property
    def _prefix(self) -> np.ndarray:
        # _prefix[k] = sum of the k smallest samples
        return np.concatenate(([0.0], np.cumsum(self.samples)))

    @cached_property
    def _by_label(self) -> dict[str, float]:
        if self.alignment is None:
            raise AlignmentError("distribution carries no alignment labels")
        return dict(zip(self.alignment, self.samples.tolist()))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.searchsorted(self.samples, x, side="right") / self.n
        return out if out.ndim else float(out)

    def quantile(self, u):
        """Interpolated quantile, bit for bit numpy's default ``linear`` method.

        The virtual index (n - 1)*u falls between the samples at its floor
        and the next index; from the last index on, numpy takes the last
        sample on both sides and measures the weight t from index -1.  Its
        lerp steps back from the upper sample once t >= 0.5.
        """
        u_arr = np.asarray(u, dtype=float)
        _check_unit_interval(u_arr)
        virtual = (self.n - 1) * u_arr
        top = virtual >= self.n - 1
        below = np.where(top, -1.0, np.floor(virtual))
        lo = below.astype(np.intp)
        a, b = self.samples[lo], self.samples[np.where(top, -1, lo + 1)]
        t = virtual - below
        out = np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)
        return out if np.ndim(u) else float(out)

    def partial_expectation(self, c):
        """Integral of q dF over [0, c]: mean contribution of samples <= c."""
        c = np.asarray(c, dtype=float)
        if c.size and np.min(c) < 0.0:
            raise ValueError("partial expectation bound must be >= 0")
        k = np.searchsorted(self.samples, c, side="right")
        out = self._prefix[k] / self.n
        return out if out.ndim else float(out)

    def shortfall_expectation(self, c):
        """E[(c - q)+] as the exact identity c*cdf(c) - partial_expectation(c)."""
        c_arr = np.asarray(c, dtype=float)
        out = c_arr * self.cdf(c_arr) - self.partial_expectation(c_arr)
        return out if np.ndim(c) else float(out)

    def mean(self) -> float:
        return float(self.samples.mean())

    def stddev(self) -> float:
        if self.n < 2:
            raise ValueError("standard deviation undefined for a single sample")
        return float(self.samples.std(ddof=1))

    def transform_uniform(self, u):
        """Map uniforms on [0, 1) to samples by index: resampling transform."""
        u_arr = np.asarray(u, dtype=float)
        _check_unit_interval(u_arr)
        idx = np.minimum((u_arr * self.n).astype(np.int64), self.n - 1)
        out = self.samples[idx]
        return out if np.ndim(u) else float(out)

    def sample(self, rng: np.random.Generator, size=None):
        return self.transform_uniform(rng.random(size))

    def aligned_values(self, labels: Sequence[str]) -> np.ndarray:
        """Samples reordered to the given label order."""
        by_label = self._by_label
        missing = [lab for lab in labels if lab not in by_label]
        if missing:
            raise AlignmentError(f"missing alignment labels: {missing[:5]}")
        return np.array([by_label[lab] for lab in labels], dtype=float)


@dataclass(frozen=True)
class NormalDistribution:
    """Normal capability model N(mu, sigma); sigma = 0 degenerates to a point mass.

    The model itself is supported on the whole line; draws are clipped at zero.
    sample, and the Monte Carlo once per call, raise a ClippedMassWarning when
    P(q < 0) exceeds CLIPPED_MASS_WARN.
    """

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma!r}")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.sigma == 0.0:
            out = np.where(x >= self.mu, 1.0, 0.0)
        else:
            out = special.ndtr((x - self.mu) / self.sigma)
        return out if np.ndim(x) else float(out)

    def quantile(self, u):
        """Inverse cdf; u = 0 and u = 1 map to -inf / +inf when sigma > 0."""
        u_arr = np.asarray(u, dtype=float)
        _check_unit_interval(u_arr)
        if self.sigma == 0.0:
            out = np.full_like(u_arr, self.mu)
        else:
            out = self.mu + self.sigma * special.ndtri(u_arr)
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
            z0 = (0.0 - self.mu) / self.sigma
            zc = (c_arr - self.mu) / self.sigma
            out = self.mu * (special.ndtr(zc) - special.ndtr(z0)) - self.sigma * (
                standard_normal_pdf(zc) - standard_normal_pdf(z0)
            )
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
        return float(special.ndtr(-self.mu / self.sigma))

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
            out = np.maximum(self.mu + self.sigma * special.ndtri(u_arr), 0.0)
        return out if np.ndim(u) else float(out)

    def sample(self, rng: np.random.Generator, size=None):
        self.warn_clipped_mass(stacklevel=2)
        return self.transform_uniform(rng.random(size))


CurtailmentDistribution = Union[EmpiricalDistribution, NormalDistribution]


def _ks_distance_continuous(samples: np.ndarray, normal: NormalDistribution) -> float:
    n = samples.size
    f = np.asarray(normal.cdf(samples), dtype=float)
    upper = np.arange(1, n + 1) / n - f
    lower = f - np.arange(0, n) / n
    return float(max(upper.max(), lower.max(), 0.0))


def _ks_distance_point_mass(samples: np.ndarray, mu: float) -> float:
    # Both cdfs are step functions; the sup is attained at a jump point,
    # approached from the left or evaluated at the point itself.
    n = samples.size
    points = np.unique(np.concatenate((samples, [mu])))
    emp_at = np.searchsorted(samples, points, side="right") / n
    emp_left = np.searchsorted(samples, points, side="left") / n
    pm_at = (points >= mu).astype(float)
    pm_left = (points > mu).astype(float)
    return float(
        max(np.abs(emp_at - pm_at).max(), np.abs(emp_left - pm_left).max())
    )


def kolmogorov_distance(empirical: EmpiricalDistribution, normal: NormalDistribution) -> float:
    """Sup-norm distance between the empirical cdf and the normal cdf."""
    if normal.sigma == 0.0:
        return _ks_distance_point_mass(empirical.samples, normal.mu)
    return _ks_distance_continuous(empirical.samples, normal)


def fit_normal(empirical: EmpiricalDistribution) -> tuple[NormalDistribution, float]:
    """Moment-match a normal to the samples; also report the fit distance.

    Uses the sample mean and the (n-1)-denominator standard deviation, so at
    least two samples are required.  The returned distance is the Kolmogorov
    sup-norm gap, a plain goodness-of-fit diagnostic.
    """
    normal = NormalDistribution(empirical.mean(), empirical.stddev())
    return normal, kolmogorov_distance(empirical, normal)


@dataclass(frozen=True, eq=False)
class CovarianceModel:
    """Second-moment model for a set of assets: means, stddevs, correlation."""

    means: np.ndarray
    stddevs: np.ndarray
    correlation: np.ndarray
    asset_ids: tuple[str, ...] | None = None

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
        if self.asset_ids is not None:
            ids = tuple(str(a) for a in self.asset_ids)
            if len(ids) != k:
                raise ValueError("asset_ids must match means in length")
            if len(set(ids)) != k:
                raise ValueError("asset_ids must be unique")
            object.__setattr__(self, "asset_ids", ids)
        for name, arr in (("means", means), ("stddevs", stds), ("correlation", rho)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def k(self) -> int:
        return int(self.means.size)

    def index_of(self, asset_id: str) -> int:
        if self.asset_ids is None:
            raise ValueError("covariance model carries no asset ids")
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

    @classmethod
    def from_aligned(
        cls,
        dists: Sequence[EmpiricalDistribution],
        asset_ids: Sequence[str] | None = None,
    ) -> CovarianceModel:
        """Estimate the model from label-aligned empirical distributions.

        All inputs must carry alignment labels with a common intersection of
        at least two labels.  Assets with zero variance get correlation zero
        against everything (they contribute nothing to the aggregate variance).
        """
        if len(dists) == 0:
            raise ValueError("need at least one distribution")
        labels = common_labels(dists)
        if len(labels) < 2:
            raise AlignmentError("need at least two common labels to estimate moments")
        matrix = np.stack([d.aligned_values(labels) for d in dists])
        means = matrix.mean(axis=1)
        stds = matrix.std(axis=1, ddof=1)
        k = len(dists)
        rho = np.eye(k)
        live = stds > 0.0
        if np.count_nonzero(live) >= 2:
            sub = np.corrcoef(matrix[live])
            rho[np.ix_(live, live)] = sub
            np.fill_diagonal(rho, 1.0)
        ids = tuple(str(a) for a in asset_ids) if asset_ids is not None else None
        return cls(means=means, stddevs=stds, correlation=rho, asset_ids=ids)


def common_labels(dists: Sequence[EmpiricalDistribution]) -> tuple[str, ...]:
    """Sorted intersection of alignment labels across distributions."""
    if any(d.alignment is None for d in dists):
        raise AlignmentError("all distributions must carry alignment labels")
    labels = set(dists[0].alignment)
    for d in dists[1:]:
        labels &= set(d.alignment)
    return tuple(sorted(labels))


def restrict_to_common(
    dists: Sequence[EmpiricalDistribution],
) -> list[EmpiricalDistribution]:
    """Restrict each distribution to the shared label set."""
    labels = common_labels(dists)
    if not labels:
        raise AlignmentError("distributions share no alignment labels")
    return [
        EmpiricalDistribution(d.aligned_values(labels), alignment=labels) for d in dists
    ]


def sum_empirical(dists: Sequence[EmpiricalDistribution]) -> EmpiricalDistribution:
    """Index-wise sum: the empirical distribution of the pooled asset.

    With alignment labels, samples are paired by label (intersection must be
    non-empty).  Without labels everywhere, equal-length inputs are paired in
    construction order, which preserves whatever cross-asset correlation the
    caller's window ordering encodes.  Mixing labelled and unlabelled inputs
    is refused.
    """
    dists = list(dists)
    if not dists:
        raise ValueError("need at least one distribution")
    if len(dists) == 1:
        return dists[0]
    labelled = [d.alignment is not None for d in dists]
    if all(labelled):
        labels = common_labels(dists)
        if not labels:
            raise AlignmentError("distributions share no alignment labels")
        total = np.zeros(len(labels))
        for d in dists:
            total += d.aligned_values(labels)
        return EmpiricalDistribution(total, alignment=labels)
    if any(labelled):
        raise AlignmentError("cannot mix labelled and unlabelled distributions")
    sizes = {d.n for d in dists}
    if len(sizes) != 1:
        raise AlignmentError(f"unlabelled distributions differ in size: {sorted(sizes)}")
    total = np.zeros(sizes.pop())
    for d in dists:
        total += d.original_samples
    return EmpiricalDistribution(total)


def sum_normal(model: CovarianceModel) -> NormalDistribution:
    """Distribution of the assets' sum under the second-moment model."""
    variance = float(model.stddevs @ model.correlation @ model.stddevs)
    return NormalDistribution(float(model.means.sum()), math.sqrt(max(variance, 0.0)))

