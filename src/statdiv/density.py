"""Gaussian kernel density estimation with diagonal per-set bandwidths.

A fitted density is a mixture of identical axis-aligned Gaussians centered
at the sample rows. `DensityModel` is the one fitted-KDE record: its log
normalizer and its whitened anchors (`_anchors`) are computed once, and
:meth:`DensityModel.block` is the one evaluation. It forms a block of log
kernels, a row per point and a column per sample, by a centred GEMM on
those anchors (`_log_kernel_matrix`), and reduces its rows by log-sum-exp
(`_log_mixture`), so densities never underflow to 0 (for the accuracy see
`_log_kernel_matrix`). The log-sum-exp runs in cache-sized row blocks
(`_LSE_BLOCK` entries, its largest temporary) and is bit-equal to
`scipy.special.logsumexp` per row. Several sets' models are a plain list:
:func:`stacked` evaluates each KDE once per list of pairs at the stacked
samples of the sets it meets, and :func:`log_ratios` forms each set's log
ratios as one array."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, groupby

import numpy as np

__all__ = [
    "Bandwidth",
    "DensityModel",
    "silverman_bandwidth",
    "isotropic_silverman_bandwidth",
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


@dataclass(frozen=True)
class DensityModel:
    """A fitted kernel density: samples and bandwidth, plus what every
    evaluation reuses, computed once here: the log normalizer
    -log(n) - 0.5 log det(2 pi Sigma) and the whitened anchors of :func:`_anchors`."""

    samples: np.ndarray
    bandwidth: Bandwidth
    log_norm: float = field(init=False)
    anchors: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        samples, diag = _as_sample_matrix(self.samples), self.bandwidth.diag
        if samples.shape[1] != diag.size:
            raise ValueError(f"bandwidth dimension {diag.size} does not match sample dimension {samples.shape[1]}")
        object.__setattr__(self, "samples", _read_only(samples))
        object.__setattr__(self, "log_norm", -np.log(self.n) - 0.5 * float(np.sum(np.log(2.0 * np.pi * diag))))
        if not np.isfinite(self.log_norm):
            raise ValueError("log normalizer is not finite")
        object.__setattr__(self, "anchors", _anchors(self.samples, diag))

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def block(self, points: np.ndarray, sizes=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """This KDE at each row of `points` (stacked from sets of `sizes` rows, if given): the
        log density, the log-kernel rows and their log-sum-exp (see :func:`_log_mixture`)."""
        rows = _log_kernel_matrix(points, self.anchors, sizes)
        log_density, lse = _log_mixture(rows, self.log_norm)
        return log_density, rows, lse


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


def _log_kernel_matrix(points: np.ndarray, anchors: tuple, sizes=None) -> np.ndarray:
    """L[k, i] = -0.5 * sum_j (points[k,j] - samples[i,j])^2 / diag[j] = x_k . a_i - |x_k|^2/2
    - |a_i|^2/2 clamped at 0, a GEMM in the centred coordinates of :func:`_anchors`.
    Absolute error about eps * max(|x_k|^2, |a_i|^2), also where L is near 0; NaN once one overflows.
    `points` stacked from sets of `sizes` rows get one GEMM per set, the BLAS call of that
    set alone, so each set's rows are bit-equal to its own block on any BLAS core."""
    centre, scale, a = anchors
    w = _whitened(points, centre, scale, norm_last=False)
    out = np.empty((w.shape[0], a.shape[0]))
    for stop, size in zip(accumulate(sizes or [len(w)]), sizes or [len(w)]):
        np.matmul(w[stop - size:stop], a.T, out=out[stop - size:stop])
    return np.minimum(out, 0.0, out=out)


# Entries per row block of `_row_logsumexp`: 512 KiB of float64, so its
# temporaries stay in cache instead of doubling a large block's footprint.
_LSE_BLOCK = 2**16
# Window of `_runs`: 64 KiB of float64, under glibc's 128 KiB mmap threshold; stacking
# 100 x 100 blocks to 600 x 100 (512 KiB) raised peak RSS and time on a 2-core x86 host.
_STACK_BLOCK = 2**13


def _runs(items: list, sizes: list[int]) -> list[list]:
    """`items`, of `sizes` entries each, cut into runs of those that start in the same
    `_STACK_BLOCK` entries laid end to end: under `_STACK_BLOCK` plus its last item."""
    start = np.cumsum([0] + sizes[:-1]) // _STACK_BLOCK
    return [[items[k] for k in run] for _, run in groupby(range(len(items)), key=start.__getitem__)]


def _block_logsumexp(a: np.ndarray) -> np.ndarray:
    """The row log-sum-exp of one row block; see :func:`_row_logsumexp`."""
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


def _row_logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) for rows of finite or -inf entries, by the
    algorithm of `scipy.special.logsumexp` and bit-equal to it row by row:
    shift by the row maximum, count the maxima apart, add log1p of the rest
    over that count. A row whose maximum is -inf gives -inf; it is shifted
    by 0, so no -inf - -inf is formed. A NaN (a log kernel's inf - inf) is
    an error. The rows are reduced in blocks of at most `_LSE_BLOCK`
    entries (one row if a row is longer), so the largest temporary is one
    block's float copy, not an m x n one; each row sees the same numpy
    operations either way."""
    m, n = a.shape
    if m * n <= _LSE_BLOCK:
        return _block_logsumexp(a)
    step = max(_LSE_BLOCK // n, 1)
    out = np.empty(m)
    for start in range(0, m, step):
        out[start:start + step] = _block_logsumexp(a[start:start + step])
    return out


def _log_mixture(log_kernels: np.ndarray, log_norm: float) -> tuple[np.ndarray, np.ndarray]:
    """KDE log density from its log-kernel matrix (a row per evaluation
    point, a column per mixture component): the row log-sum-exp plus the
    log normalizer. Also returns that log-sum-exp, from which a caller forms
    the component weights exp(L - lse) without a second reduction. The
    log-sum-exp is :func:`_row_logsumexp`, bit-equal to scipy's per row and
    reduced in row blocks, so its largest temporary is 512 KiB."""
    lse = _row_logsumexp(log_kernels)
    return lse + log_norm, lse


def stacked(models: list[DensityModel], pairs):
    """Yields (b, sets, their stacked samples, *:meth:`DensityModel.block` there) for each
    KDE b of `models` in `pairs`, at set b and each distinct partner cut into :func:`_runs`
    of their blocks. Each set's rows are bit-equal to its own block: the whitening and the
    log-sum-exp are row by row, and each set gets its own GEMM."""
    stacks = {}  # b: {b, then each distinct partner}, in order
    for i, j in pairs:
        stacks.setdefault(i, {i: None})[j] = None
        stacks.setdefault(j, {j: None})[i] = None
    n = [model.n for model in models]
    for b, stack in stacks.items():
        for group in _runs(list(stack), [n[s] * n[b] for s in stack]):
            points = np.concatenate([models[s].samples for s in group])
            yield (b, group, points, *models[b].block(points, [n[s] for s in group]))


def log_ratios(models: list[DensityModel], pairs, blocks=None):
    """Yields (s, its distinct partners r, z) for each set s in `pairs`, one row
    z[r] = log p_s - log p_r at the samples of s per partner, from `blocks` of
    :func:`stacked` (by default made here and dropped as read). Each set's log
    densities are dropped as its z is formed, so one z exists at a time."""
    at = {}  # s: {b: log p_b at the samples of s}
    for b, group, _, log_density, *kernels in stacked(models, pairs) if blocks is None else blocks:
        del kernels  # before the next block is formed, so two never coexist
        for s, stop in zip(group, accumulate(models[s].n for s in group)):
            at.setdefault(s, {})[b] = log_density[stop - models[s].n:stop]
    while at:
        s, logs = at.popitem()
        own = logs.pop(s)
        z = np.array(list(logs.values()))
        yield s, list(logs), np.subtract(own, z, out=z)


def log_density_batch(model: DensityModel, points) -> np.ndarray:
    """Log density at each row of `points` (m x D); a ValueError if a log kernel is NaN."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != model.dim:
        raise ValueError(f"expected points of shape (m, {model.dim}), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("evaluation points contain non-finite entries")
    return model.block(pts)[0]


def log_density_loo(model: DensityModel, sample_index: int | None = None) -> np.ndarray:
    """Leave-one-out log density of the model at its own samples.

    Drops the i-th kernel term when evaluating at sample i and renormalizes
    by n-1. Off by default everywhere; provided for diagnostics.
    """
    if model.n < 3:
        raise ValueError("leave-one-out evaluation needs at least 3 samples")
    log_kernels = _log_kernel_matrix(model.samples, model.anchors)
    np.fill_diagonal(log_kernels, -np.inf)
    log_norm = model.log_norm + np.log(model.n) - np.log(model.n - 1)
    out = _log_mixture(log_kernels, log_norm)[0]
    return out if sample_index is None else out[sample_index]
