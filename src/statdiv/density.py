"""Gaussian kernel density estimation with diagonal per-set bandwidths.

A fitted density is a mixture of identical axis-aligned Gaussians centered
at the sample rows. Every evaluation forms a block of log kernels, a row
per point and a column per sample, by one centred GEMM (`_log_kernel_matrix`
on `_anchors`), and reduces its rows by log-sum-exp (`_log_mixture`), so
densities never underflow to 0 (for the accuracy see `_log_kernel_matrix`).
`DensityModel` is one fitted density; `_KdeCollection` holds those of
several sets for the divergence estimators and the DR objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Bandwidth",
    "DensityModel",
    "silverman_bandwidth",
    "isotropic_silverman_bandwidth",
    "fit_kde",
    "log_density",
    "log_density_batch",
]


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A copy of `arr` that cannot be written to, for frozen dataclass fields."""
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _features_of(samples) -> np.ndarray:
    """Coerce to an n x D float matrix, accepting objects with a `.features` attribute."""
    mat = np.asarray(getattr(samples, "features", samples), dtype=float)
    if mat.ndim != 2:
        raise ValueError(f"expected an n x D sample matrix, got shape {mat.shape}")
    return mat


def _as_sample_matrix(samples) -> np.ndarray:
    """:func:`_features_of` plus the KDE's requirements: n >= 2, finite entries."""
    mat = _features_of(samples)
    if mat.shape[0] < 2:
        raise ValueError(f"n >= 2 violated: got {mat.shape[0]} samples")
    if not np.all(np.isfinite(mat)):
        raise ValueError("sample matrix contains non-finite entries")
    return mat


@dataclass(frozen=True)
class Bandwidth:
    """Diagonal of the smoothing covariance (variances, not standard deviations)."""

    diag: np.ndarray

    def __post_init__(self):
        diag = np.atleast_1d(np.asarray(self.diag, dtype=float))
        if diag.ndim != 1:
            raise ValueError(f"bandwidth diagonal must be a vector, got shape {diag.shape}")
        if not np.all(np.isfinite(diag)) or np.any(diag <= 0):
            raise ValueError("bandwidth diagonal entries must be positive and finite")
        object.__setattr__(self, "diag", _read_only(diag))

    @property
    def dim(self) -> int:
        return self.diag.size


def _silverman_factor(n: int, d: int) -> float:
    return (4.0 / ((d + 2) * n)) ** (1.0 / (d + 4))


def silverman_bandwidth(samples) -> Bandwidth:
    """Per-dimension rule-of-thumb bandwidth.

    diag_j = max((sd_j * (4 / ((D+2) n))^(1/(D+4)))^2, floor) with the sample
    standard deviation taken with an (n-1) denominator. The floor,
    1e-12 * (1 + mean per-dimension variance), keeps constant dimensions
    usable.
    """
    mat = _as_sample_matrix(samples)
    n, d = mat.shape
    sd = mat.std(axis=0, ddof=1)
    h2 = (sd * _silverman_factor(n, d)) ** 2
    floor = 1e-12 * (1.0 + float(np.mean(sd**2)))
    return Bandwidth(np.maximum(h2, floor))


def isotropic_silverman_bandwidth(samples) -> Bandwidth:
    """Single scalar variance for all dimensions.

    Uses the mean per-dimension variance (trace of the covariance over D),
    which is invariant under rotations of the sample cloud, then applies the
    same rule-of-thumb factor and floor as :func:`silverman_bandwidth`.
    """
    mat = _as_sample_matrix(samples)
    n, d = mat.shape
    mean_var = float(np.mean(mat.var(axis=0, ddof=1)))
    h2 = mean_var * _silverman_factor(n, d) ** 2
    floor = 1e-12 * (1.0 + mean_var)
    return Bandwidth(np.full(d, max(h2, floor)))


def _kde_samples(samples, bandwidth: Bandwidth) -> np.ndarray:
    """:func:`_as_sample_matrix`, whose dimension must also be the bandwidth's."""
    mat = _as_sample_matrix(samples)
    if mat.shape[1] != bandwidth.dim:
        raise ValueError(
            f"bandwidth dimension {bandwidth.dim} does not match sample dimension {mat.shape[1]}"
        )
    return mat


@dataclass(frozen=True)
class DensityModel:
    """A fitted kernel density: samples, bandwidth, and the precomputed
    log normalizer -log(n) - 0.5 log det(2 pi Sigma)."""

    samples: np.ndarray
    bandwidth: Bandwidth
    log_norm: float

    def __post_init__(self):
        object.__setattr__(self, "samples", _read_only(_kde_samples(self.samples, self.bandwidth)))
        if not np.isfinite(self.log_norm):
            raise ValueError("log normalizer is not finite")

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


def _log_norm(n: int, diag: np.ndarray) -> float:
    """Log normalizer of an n-component mixture of N(., diag) kernels:
    -log(n) - 0.5 log det(2 pi diag)."""
    return -np.log(n) - 0.5 * float(np.sum(np.log(2.0 * np.pi * diag)))


def fit_kde(samples, bandwidth: Bandwidth | str | None = "auto") -> DensityModel:
    """Fit the Gaussian KDE of `samples` (n x D, rows are points).

    `bandwidth` may be a :class:`Bandwidth`, or "auto"/None to use
    :func:`silverman_bandwidth` on the same matrix.
    """
    mat = _as_sample_matrix(samples)
    if bandwidth is None or (isinstance(bandwidth, str) and bandwidth == "auto"):
        bandwidth = silverman_bandwidth(mat)
    elif isinstance(bandwidth, str):
        raise ValueError(f"unknown bandwidth mode {bandwidth!r}; expected 'auto' or a Bandwidth")
    log_norm = _log_norm(mat.shape[0], bandwidth.diag)
    return DensityModel(samples=mat, bandwidth=bandwidth, log_norm=log_norm)


def _whitened(rows: np.ndarray, centre: np.ndarray, scale: np.ndarray, norm_last: bool) -> np.ndarray:
    """[w, -|w|^2/2, 1], or [w, 1, -|w|^2/2] if `norm_last`, w = (rows - centre) * scale."""
    out = np.empty((rows.shape[0], rows.shape[1] + 2))
    w = np.multiply(rows - centre, scale, out=out[:, :-2])
    out[:, -2 + norm_last] = -0.5 * np.einsum("ij,ij->i", w, w)
    out[:, -1 - norm_last] = 1.0
    return out


def _anchors(samples: np.ndarray, diag: np.ndarray) -> tuple:
    """A mixture's samples centred on their mean c and whitened by its
    bandwidth: (c, 1/sqrt(diag), rows [a, 1, -|a|^2/2]), a = (samples - c)/sqrt(diag)."""
    centre, scale = samples.mean(axis=0), 1.0 / np.sqrt(diag)
    return centre, scale, _whitened(samples, centre, scale, norm_last=True)


def _log_kernel_matrix(points: np.ndarray, anchors: tuple) -> np.ndarray:
    """L[k, i] = -0.5 * sum_j (points[k,j] - samples[i,j])^2 / diag[j] = x_k . a_i - |x_k|^2/2
    - |a_i|^2/2 clamped at 0, one GEMM in the centred coordinates of :func:`_anchors`.
    Absolute error about eps * max(|x_k|^2, |a_i|^2), also where L is near 0; NaN once one overflows."""
    centre, scale, a = anchors
    rows = _whitened(points, centre, scale, norm_last=False) @ a.T
    return np.minimum(rows, 0.0, out=rows)


def _row_logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) for rows of finite or -inf entries, by the
    algorithm of `scipy.special.logsumexp` and bit-equal to it: shift by the
    row maximum, count the maxima apart, add log1p of the rest over that
    count. A row whose maximum is -inf gives -inf; it is shifted by 0, so
    no -inf - -inf is formed. A NaN (a log kernel's inf - inf) is an error."""
    a_max = a.max(axis=1, keepdims=True)
    if np.isnan(a_max).any():
        raise ValueError("a log kernel is NaN: a point or sample lies ~1e154 bandwidths from the samples' mean")
    is_max = a == a_max
    count = is_max.sum(axis=1, keepdims=True, dtype=float)
    rest = np.where(is_max, -np.inf, a)
    rest -= np.where(a_max == -np.inf, 0.0, a_max)
    np.exp(rest, out=rest)
    s = rest.sum(axis=1, keepdims=True) / count
    return (np.log1p(s) + np.log(count) + a_max)[:, 0]


def _log_mixture(log_kernels: np.ndarray, log_norm: float) -> tuple[np.ndarray, np.ndarray]:
    """KDE log density from its log-kernel matrix (a row per evaluation
    point, a column per mixture component): the row log-sum-exp plus the
    log normalizer. Also returns that log-sum-exp, from which a caller forms
    the component weights exp(L - lse) without a second reduction."""
    lse = _row_logsumexp(log_kernels)
    return lse + log_norm, lse


class _KdeCollection:
    """The KDEs of several sample sets, each checked and whitened once. A
    set's log density at its own samples is formed on first use and then
    kept, which is safe only because pairs are evaluated serially."""

    def __init__(self, sets, bandwidths):
        self.samples = [_kde_samples(s, bw) for s, bw in zip(sets, bandwidths)]
        self.diags = [bw.diag for bw in bandwidths]
        self.log_norms = [_log_norm(m.shape[0], diag) for m, diag in zip(self.samples, self.diags)]
        self.anchors = [_anchors(m, diag) for m, diag in zip(self.samples, self.diags)]
        self._self_logs = {}

    def block(self, points: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """KDE `b` at each row of `points`: the log density, the log-kernel
        rows and their log-sum-exp (see :func:`_log_mixture`)."""
        rows = _log_kernel_matrix(points, self.anchors[b])
        log_density, lse = _log_mixture(rows, self.log_norms[b])
        return log_density, rows, lse

    def log_ratio(self, i: int, j: int) -> np.ndarray:
        """z = log p_i - log p_j at the samples of set i."""
        if i not in self._self_logs:
            self._self_logs[i] = self.block(self.samples[i], i)[0]
        return self._self_logs[i] - self.block(self.samples[i], j)[0]

    def logits(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """z = log p_i - log p_j at the samples of set i, then of set j."""
        return self.log_ratio(i, j), -self.log_ratio(j, i)


def log_density_batch(model: DensityModel, points) -> np.ndarray:
    """Log density at each row of `points` (m x D); a ValueError if a log kernel is NaN."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != model.dim:
        raise ValueError(f"expected points of shape (m, {model.dim}), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("evaluation points contain non-finite entries")
    log_kernels = _log_kernel_matrix(pts, _anchors(model.samples, model.bandwidth.diag))
    return _log_mixture(log_kernels, model.log_norm)[0]


def log_density(model: DensityModel, x) -> float:
    """Log density at a single D-vector."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    return float(log_density_batch(model, x)[0])


def log_density_loo(model: DensityModel, sample_index: int | None = None) -> np.ndarray:
    """Leave-one-out log density of the model at its own samples.

    Drops the i-th kernel term when evaluating at sample i and renormalizes
    by n-1. Off by default everywhere; provided for diagnostics.
    """
    if model.n < 3:
        raise ValueError("leave-one-out evaluation needs at least 3 samples")
    log_kernels = _log_kernel_matrix(model.samples, _anchors(model.samples, model.bandwidth.diag))
    np.fill_diagonal(log_kernels, -np.inf)
    log_norm = model.log_norm + np.log(model.n) - np.log(model.n - 1)
    out = _log_mixture(log_kernels, log_norm)[0]
    return out if sample_index is None else out[sample_index]
