"""Gaussian kernel density estimation with diagonal per-set bandwidths.

A fitted density is a mixture of identical axis-aligned Gaussians centered
at the sample rows. `DensityModel` is the one fitted-KDE record, for one set
or for the sets of one size on a leading axis: its log normalizer and
whitened anchors (`_anchors`) are computed once. A block of log kernels, a
row per point and a column per sample, is a centred GEMM on those anchors
(`_log_kernel_matrix`), its rows reduced by a log-sum-exp bit-equal to
`scipy.special.logsumexp` of the block clamped at 0 (`_row_logsumexp`, which
finds a long row's maximum by its index, clamps only the rows whose maximum
rounds above 0, and counts tied maxima only on the rows that have them), so
densities never underflow to 0, chunk by chunk of rows in one buffer, so no
large block is held whole: a block of several chunks is reduced in that buffer
itself and formed again for a caller that needs it (`_log_mixture`).
:func:`plan` lays out once every block a list of pairs needs, in tiles of one
size of KDE, which :func:`tiles` evaluates on any fit of those sets and
:func:`log_ratios` turns into each set's log ratios as one array."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial
from itertools import groupby
from operator import itemgetter

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


def _features_of(samples, stacked: int = 0) -> np.ndarray:
    """Coerce to an n x D float matrix (K x n x D if `stacked`), accepting objects with a `.features` attribute."""
    mat = np.asarray(getattr(samples, "features", samples), dtype=float)
    if mat.ndim != 2 + stacked:
        raise ValueError(f"expected an {'K x ' * stacked}n x D sample matrix, got shape {mat.shape}")
    return mat


def _as_sample_matrix(samples, stacked: int = 0) -> np.ndarray:
    """:func:`_features_of` plus the KDE's requirements: n >= 2, finite entries."""
    mat = _features_of(samples, stacked)
    if mat.shape[-2] < 2:
        raise ValueError(f"n >= 2 violated: got {mat.shape[-2]} samples")
    if not np.isfinite(mat).all():
        raise ValueError("sample matrix contains non-finite entries")
    return mat


@dataclass(frozen=True)
class Bandwidth:
    """Diagonal of the smoothing covariance (variances, not standard deviations); K x D for K KDEs."""

    diag: np.ndarray

    def __post_init__(self):
        diag = np.atleast_1d(np.asarray(self.diag, dtype=float))
        if diag.ndim > 2:
            raise ValueError(f"bandwidth diagonal must be a vector or a stack of them, got shape {diag.shape}")
        if not np.all(np.isfinite(diag)) or np.any(diag <= 0):
            raise ValueError("bandwidth diagonal entries must be positive and finite")
        object.__setattr__(self, "diag", _read_only(diag))

    @property
    def dim(self) -> int:
        return self.diag.shape[-1]


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
    with np.errstate(over="ignore"):  # an overflowed variance is inf, and Bandwidth rejects it
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
    with np.errstate(over="ignore"):  # as in silverman_bandwidth
        mean_var = float(np.mean(mat.var(axis=0, ddof=1)))
    h2 = mean_var * _silverman_factor(n, d) ** 2
    floor = 1e-12 * (1.0 + mean_var)
    return Bandwidth(np.full(d, max(h2, floor)))


@dataclass(frozen=True)
class DensityModel:
    """A fitted kernel density, or K of them on sets of one size (samples K x n x D,
    bandwidth diagonals K x D), with what every evaluation reuses computed once: the
    log normalizer -log(n) - 0.5 log det(2 pi Sigma) per KDE and :func:`_anchors`."""

    samples: np.ndarray
    bandwidth: Bandwidth
    log_norm: float | np.ndarray = field(init=False)
    anchors: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        diag = self.bandwidth.diag
        samples = _read_only(_as_sample_matrix(self.samples, diag.ndim - 1))
        if samples.shape[:-2] + samples.shape[-1:] != diag.shape:
            raise ValueError(f"bandwidth dimension {diag.shape[-1]} does not match sample dimension "
                             f"{samples.shape[-1]} (bandwidths {diag.shape}, samples {samples.shape})")
        log_norm = -np.log(samples.shape[-2]) - 0.5 * np.log(2.0 * np.pi * diag).sum(axis=-1)
        if not np.isfinite(log_norm).all():
            raise ValueError("log normalizer is not finite")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "log_norm", log_norm)
        object.__setattr__(self, "anchors", _anchors(samples, diag, log_norm))

    @property
    def n(self) -> int:
        return self.samples.shape[-2]

    @property
    def dim(self) -> int:
        return self.samples.shape[-1]


def _whitened(rows: np.ndarray, centre: np.ndarray, scale: np.ndarray, norm_last: bool) -> np.ndarray:
    """[w, -|w|^2/2, 1], or [w, 1, -|w|^2/2] if `norm_last`, w = (rows - centre) * scale."""
    out = np.empty(rows.shape[:-1] + (rows.shape[-1] + 2,))
    w = np.multiply(rows - centre, scale, out=out[..., :-2])
    out[..., -2 + norm_last] = -0.5 * np.einsum("...j,...j->...", w, w)
    out[..., -1 - norm_last] = 1.0
    return out


def _anchors(samples: np.ndarray, diag: np.ndarray, log_norm) -> tuple:
    """What every evaluation reads, each with a leading axis over the KDEs: (log_norm,
    samples, their means c, 1/sqrt(diag), rows [a, 1, -|a|^2/2]), a = (samples - c)/sqrt(diag)."""
    samples, diag = samples.reshape(-1, *samples.shape[-2:]), diag.reshape(-1, diag.shape[-1])
    centre, scale = samples.sum(axis=1) / samples.shape[1], 1.0 / np.sqrt(diag)  # the mean, bit-equal to np.mean
    rows = _whitened(samples, centre[:, None], scale[:, None], norm_last=True)
    return log_norm.reshape(-1), samples, centre, scale, rows


def _log_kernel_matrix(points: np.ndarray, centre: np.ndarray, scale: np.ndarray, runs):
    """Yields (first row, L[rows]) per chunk, L[k, i] = -0.5 * sum_j (points[k,j] - samples[i,j])^2 / diag[j]
    = x_k . a_i - |x_k|^2/2 - |a_i|^2/2, a GEMM in the centred coordinates of :func:`_anchors`. Absolute
    error about eps * max(|x_k|^2, |a_i|^2), also where L is near 0, so an entry may round above 0 (the
    reduction clamps it: :func:`_clamp_above_zero`); NaN once one overflows. Each
    row is whitened by its own KDE's `centre` and `scale` (broadcast). `runs` holds (P, n, a) per run of P
    blocks of n rows, a the P x (D+2) x n_b transposed anchors of their KDEs (or of the one they share): a
    batched matmul, one GEMM per block, so each is bit-equal on any core. The chunks reuse one buffer: all
    rows, or for one block of over `_LSE_BLOCK` entries, rows from fixed offsets, that many entries each
    (one row if a row is longer), so a block is cut alike on every path."""
    w = _whitened(points, centre, scale, norm_last=False)
    m, n_b = w.shape[0], runs[0][2].shape[2]
    step = max(_LSE_BLOCK // n_b, 1) if m * n_b > _LSE_BLOCK and runs[0][:2] == (1, m) else m or 1
    runs = runs if step >= m else [(1, step, runs[0][2])]  # each chunk: one run of `step` rows of the block
    buffer = np.empty((step, n_b))
    for first in range(0, m or 1, step):  # no points: one empty chunk
        out, start = buffer[:m - first], first
        for count, n, a in runs:
            stop = start + count * n
            if count == 1:
                np.matmul(w[start:stop], a[0], out=out[start - first:stop - first])
            else:
                np.matmul(w[start:stop].reshape(count, n, -1), a, out=out[start:stop].reshape(count, n, -1))
            start = stop
        yield first, out


# Entries per chunk of `_log_kernel_matrix`: 512 KiB of float64, so a large block's
# GEMM output, reduced in place, stays in cache and no m x n matrix is held.
_LSE_BLOCK = 2**16
# Window of `tiles`: 64 KiB of float64, under glibc's 128 KiB mmap threshold; tiling
# 100 x 100 blocks to 600 x 100 (512 KiB) raised peak RSS and time on a 2-core x86 host.
_STACK_BLOCK = 2**13


def _clamp_above_zero(a: np.ndarray, a_max: np.ndarray) -> int:
    """Clamps at 0, in place, the rows of log kernels `a` whose maxima `a_max` round above 0, and
    those maxima: a log kernel is at most 0, and only rounding lifts one above it. Every other row
    is left as it is, so the clamp costs nothing on a block with no such row. The clamped count."""
    above = np.flatnonzero(a_max > 0)
    if above.size:
        a[above] = np.minimum(a[above], 0.0)
        a_max[above] = 0.0
    return above.size


def _row_logsumexp(a: np.ndarray, in_place: bool = False) -> np.ndarray:
    """log(sum(exp(min(a, 0)), axis=1)) for rows of finite or -inf entries, by the algorithm of
    `scipy.special.logsumexp` and bit-equal to it on `np.minimum(a, 0)` row by row: find each row's
    maximum, clamp the rows whose maximum is above 0 (:func:`_clamp_above_zero`, in `a`), shift by the
    maximum, count the maxima apart, add log1p of the rest over that count. An `a` of entries <= 0 is
    left unchanged, unless `in_place`, which shifts and exponentiates long rows in `a` itself. A row
    whose maximum is -inf gives -inf (it is shifted by 0, so no -inf - -inf is formed); a NaN (a log
    kernel's inf - inf) is an error.
    Rows under 48 entries, in a chunk of up to half `_LSE_BLOCK`, find their exact maxima and counts
    across rows, on a transposed copy that stays in cache: numpy reduces short rows slowly. Longer
    rows find one maximum by its index (a NaN is the first argmax) and drop it from the shifted
    copy; a row whose rest still holds an entry >= 0 ties it (a - max is exact in sign), and only
    such rows count and drop their other maxima, so no mask of the whole chunk is formed. A clamped
    row drops each of its maxima, which are its entries that were >= 0, whichever it drops first."""
    if a.shape[1] < 48 and a.size <= _LSE_BLOCK // 2:
        t = a.T.copy()
        a_max = t.max(axis=0)
        if _clamp_above_zero(a, a_max):
            t = a.T.copy()
        count = (t == a_max).sum(axis=0, dtype=float)
        rest = np.where(a == a_max[:, None], -np.inf, a)
        rest -= np.where(a_max == -np.inf, 0.0, a_max)[:, None]
    else:
        rows = np.arange(len(a))
        first = a.argmax(axis=1)
        a_max = a[rows, first]
        _clamp_above_zero(a, a_max)
        rest = np.subtract(a, np.where(a_max == -np.inf, 0.0, a_max)[:, None], out=a if in_place else None)
        rest[rows, first] = -np.inf
        count = np.ones(len(a))
        ties = np.flatnonzero(rest[rows, rest.argmax(axis=1)] >= 0)  # argmax: numpy reduces rows by max slowly
        if ties.size:
            tied = rest[ties]
            is_max = tied >= 0
            count[ties] += is_max.sum(axis=1)
            tied[is_max] = -np.inf
            rest[ties] = tied
    if np.isnan(a_max).any():
        raise ValueError("a log kernel is NaN: a point or sample lies ~1e154 bandwidths from the samples' mean")
    np.exp(rest, out=rest)
    s = rest.sum(axis=1) / count
    return np.log1p(s) + np.log(count) + a_max


def _clamped_chunks(*args):
    """The chunks of :func:`_log_kernel_matrix` of `args`, formed again, each clamped at 0 as
    :func:`_row_logsumexp` clamps it, so each equals np.minimum of the log kernels and 0."""
    for first, chunk in _log_kernel_matrix(*args):
        _clamp_above_zero(chunk, chunk[np.arange(len(chunk)), chunk.argmax(axis=1)])
        yield first, chunk


def _log_mixture(log_norm, *args) -> tuple[np.ndarray, object, np.ndarray]:
    """KDE log density from the chunks of its log-kernel matrix, :func:`_log_kernel_matrix` of
    `args` (points first): each chunk's row log-sum-exp (:func:`_row_logsumexp`, which clamps
    it at 0) plus each row's log normalizer; then the clamped matrix if it was one chunk (else
    a function of no arguments that forms the clamped chunks again, :func:`_clamped_chunks`)
    and that log-sum-exp, from which a caller forms the component weights exp(L - lse) without
    a second reduction. A chunk of fewer than all the rows is reduced in place, as it is formed
    again on demand; a single chunk, the matrix a caller keeps, is not."""
    parts = [(kernels, _row_logsumexp(kernels, in_place=len(kernels) < len(args[0])))
             for _, kernels in _log_kernel_matrix(*args)]
    kernels, lse = parts[0] if len(parts) == 1 else (
        partial(_clamped_chunks, *args), np.concatenate([part for _, part in parts]))
    return lse + log_norm, kernels, lse


def _packed(blocks, width: int):
    """`blocks` (n, b, s) of a KDE of `width` samples in tiles: a block that would carry
    a tile past `_STACK_BLOCK` entries starts the next, so a larger tile is one block."""
    tile, entries = [], 0
    for block in blocks:
        if tile and entries + block[0] * width > _STACK_BLOCK:
            yield tile
            tile, entries = [], 0
        tile.append(block)
        entries += block[0] * width
    yield tile


Tile = namedtuple("Tile", "blocks runs at rows")
Plan = namedtuple("Plan", "tiles sets rows")


def plan(kdes, pairs) -> Plan:
    """The tiles of the blocks (KDE b, set s) that `pairs` of `kdes` ((model, k) per set) need, b at b and at each
    distinct partner: a model's blocks by set size, cut by :func:`_packed`. A tile holds its `blocks` (b, s) in row
    order, (count, n, k) per run of count blocks of n rows (k: their KDEs on the model's axis), each row's KDE
    (`at`, a slice if it has one, broadcast) and its `rows` among the plan's; a plan, its tiles, (s, its own block's
    rows, its partners r, theirs) per set s and its row count. It reads only which sets share a model, and sizes."""
    groups, tiled, rows, stop = {}, [], {}, 0  # id of a model: its blocks (n_s, b, s); s: {b: rows of (b, s)}
    for i, j in pairs:
        for b, s in ((i, i), (i, j), (j, j), (j, i)):
            groups.setdefault(id(kdes[b][0]), {})[kdes[s][0].n, b, s] = None
    for blocks in map(sorted, groups.values()):
        for tile in _packed(blocks, kdes[blocks[0][1]][0].n):
            runs = [(n, [kdes[b][1] for _, b, _ in run]) for n, run in groupby(tile, key=itemgetter(0))]
            ks = [k for _, run in runs for k in run]
            at = slice(ks[0], ks[0] + 1) if min(ks) == max(ks) else np.repeat(ks, [n for n, _, _ in tile])
            start = stop
            for n, b, s in tile:
                rows.setdefault(s, {})[b] = slice(stop, stop + n)
                stop += n
            runs = [(len(run), n, at if isinstance(at, slice) else run) for n, run in runs]
            tiled.append(Tile([(b, s) for _, b, s in tile], runs, at, slice(start, stop)))
    sets = [(s, by_kde.pop(s), list(by_kde), list(by_kde.values())) for s, by_kde in rows.items()]
    return Plan(tiled, sets, stop)


def tiles(kdes, plan: Plan):
    """Yields (points, *:func:`_log_mixture`) per tile of `plan` on the fits `kdes`. All but the GEMM
    is row by row and each block gets its own, so each is bit-equal to :func:`log_density_batch`."""
    for tile in plan.tiles:
        log_norm, _, centre, scale, a = kdes[tile.blocks[0][0]][0].anchors
        points = [kdes[s][0].anchors[1][kdes[s][1]] for _, s in tile.blocks]  # the samples of each block's set
        points = points[0] if len(points) == 1 else np.concatenate(points)
        yield points, *_log_mixture(log_norm[tile.at], points, centre[tile.at], scale[tile.at],
                                    [(count, n, a[k].transpose(0, 2, 1)) for count, n, k in tile.runs])


def log_ratios(plan: Plan, tiled):
    """Yields (s, its distinct partners r, z) per set s of `plan`, a row z[r] = log p_s - log p_r at the
    samples of s per partner, from its `tiled` blocks (:func:`tiles`), whose log kernels it drops."""
    logs = np.empty(plan.rows)
    for tile, (_, log_density, *kernels) in zip(plan.tiles, tiled):
        del kernels  # before the next tile is formed, so two never coexist
        logs[tile.rows] = log_density
    for s, own, partners, rows in plan.sets:
        yield s, partners, logs[own] - np.array([logs[r] for r in rows])


def log_density_batch(model: DensityModel, points) -> np.ndarray:
    """Log density of `model` (one KDE, with no leading axis) at each row of `points` (m x D),
    by :func:`_log_mixture`; a ValueError if a log kernel is NaN."""
    if model.samples.ndim != 2:
        raise ValueError(f"log_density_batch needs one KDE, got a stack of {model.samples.shape[0]}")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != model.dim:
        raise ValueError(f"expected points of shape (m, {model.dim}), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("evaluation points contain non-finite entries")
    _, _, centre, scale, a = model.anchors
    return _log_mixture(model.log_norm, pts, centre, scale, [(1, len(pts), a.transpose(0, 2, 1))])[0]
