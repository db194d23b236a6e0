"""Supervised dimensionality reduction on the subspace manifold.

The objective sums signed pairwise divergences of the projected sets:
within-class neighbor pairs enter with +1, between-class neighbor pairs
with -1, so minimizing pulls same-class sets together and pushes
different-class neighbors apart. The affinity and the projected-space
bandwidths are data: both are computed once and stay fixed during the
optimization, which runs a projection-based conjugate gradient over
orthonormal frames.

One pass per frame fits the projected sets' KDEs by size, reads them
through `density.tiles` and sums the signed estimates into the cost. The
optimizer asks for the gradient only at accepted frames, and it comes from
that same pass's tiles and log ratios: each sample is weighed by its
term's slope in its set's log ratios z (`divergence._TERMS`), and each
tile's blocks are summed by batched contractions and one GEMM per side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classify import _fix_column_signs
from .density import Bandwidth, _features_of, _read_only, log_ratios, tiles
from .divergence import _TERMS, DivergenceKind, _estimates, _kde_collection, divergence_matrix, resolve_bandwidths
from .manifold import CgOptions, CgResult, cg_minimize, random_orthonormal

__all__ = [
    "AffinityMatrix",
    "DrConfig",
    "DrResult",
    "build_affinity",
    "affinity_from_divergences",
    "project_sets",
    "dr_cost",
    "dr_euclidean_gradient",
    "learn_projection",
]


@dataclass(frozen=True)
class AffinityMatrix:
    """Signed neighbor structure: +1 within-class, -1 between-class, 0 otherwise."""

    values: np.ndarray
    nu_w: int
    nu_b: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.int8)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"affinity matrix must be square, got shape {values.shape}")
        if not np.array_equal(values, values.T):
            raise ValueError("affinity matrix is not symmetric")
        if np.any(np.diag(values) != 0):
            raise ValueError("affinity diagonal must be zero")
        if not np.all(np.isin(values, (-1, 0, 1))):
            raise ValueError("affinity entries must be in {-1, 0, 1}")
        object.__setattr__(self, "values", _read_only(values))

    @property
    def size(self) -> int:
        return self.values.shape[0]


def _neighbor_sets(distances: np.ndarray, eligible: np.ndarray, count: int) -> list[np.ndarray]:
    """Per row: indices of the `count` nearest eligible columns, ties by index."""
    m = distances.shape[0]
    out = []
    for i in range(m):
        candidates = np.flatnonzero(eligible[i])
        if count <= 0 or candidates.size == 0:
            out.append(np.empty(0, dtype=int))
            continue
        order = np.argsort(distances[i, candidates], kind="stable")
        out.append(candidates[order[: min(count, candidates.size)]])
    return out


def affinity_from_divergences(divergences, labels, nu_w="auto", nu_b: int = 1) -> AffinityMatrix:
    """Affinity from a precomputed pairwise divergence matrix.

    For each set, its nu_w nearest same-label sets and nu_b nearest
    different-label sets (self excluded, ties broken by index) define the
    neighborhoods; a pair is marked if either endpoint lists the other.
    nu_w="auto" uses (smallest class size) - 1.
    """
    values = np.asarray(getattr(divergences, "values", divergences), dtype=float)
    labels = np.asarray(labels, dtype=int)
    m = values.shape[0]
    if values.shape != (m, m):
        raise ValueError(f"divergence matrix must be square, got {values.shape}")
    if labels.shape != (m,):
        raise ValueError(f"labels length {labels.shape} does not match matrix size {m}")
    class_sizes = np.bincount(labels)
    class_sizes = class_sizes[class_sizes > 0]
    if nu_w == "auto":
        nu_w = int(class_sizes.min()) - 1
    nu_w = int(nu_w)
    nu_b = int(nu_b)
    if nu_w < 0 or nu_b < 0:
        raise ValueError(f"neighbor counts must be >= 0, got nu_w={nu_w}, nu_b={nu_b}")
    if nu_b > nu_w:
        raise ValueError(f"nu_b={nu_b} must not exceed nu_w={nu_w}")

    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    different = labels[:, None] != labels[None, :]

    within = np.zeros((m, m), dtype=np.int8)
    for i, neigh in enumerate(_neighbor_sets(values, same, nu_w)):
        within[i, neigh] = 1
    within = np.maximum(within, within.T)

    between = np.zeros((m, m), dtype=np.int8)
    for i, neigh in enumerate(_neighbor_sets(values, different, nu_b)):
        between[i, neigh] = 1
    between = np.maximum(between, between.T)

    return AffinityMatrix(values=within - between, nu_w=nu_w, nu_b=nu_b)


def build_affinity(sets, labels, nu_w="auto", nu_b: int = 1,
                   kind: DivergenceKind = DivergenceKind.HELLINGER_SQUARED,
                   bw_policy="silverman") -> AffinityMatrix:
    """Affinity from the full-dimensional pairwise divergences of `sets`."""
    div = divergence_matrix(sets, kind, bw_policy)
    return affinity_from_divergences(div.values, labels, nu_w=nu_w, nu_b=nu_b)


def project_sets(sets, w: np.ndarray) -> list[np.ndarray]:
    """Project each set's features through a D x d frame."""
    w = np.asarray(w, dtype=float)
    return [_features_of(s) @ w for s in sets]


def _mixture_gradient(omega: np.ndarray, points: np.ndarray, points_proj: np.ndarray, anchors: np.ndarray,
                      anchors_proj: np.ndarray, inv: np.ndarray, runs, kernels, lse) -> np.ndarray:
    """sum_x omega[x] * d(log p(x))/dW over the rows x of a tile, from its log `kernels` at the
    projected `points_proj` of the full-dimensional `points`; `runs` holds (P, n) per run of P
    blocks of n rows. Block k's KDE p is the projection of its full-dimensional samples
    `anchors[k]` (laid end to end), with samples `anchors_proj[k]` and inverse bandwidths `inv[k]`.
    The softmax weights of the mixture components at each point come from its log kernels; the
    gradient of each log kernel is the outer product of the full-dimensional offset with the
    scaled projected offset."""
    b = np.exp(kernels - lse[:, None])
    b *= omega[:, None]
    left = b.sum(axis=1)[:, None] * points_proj
    right = np.empty_like(anchors_proj)
    stop = last = 0
    for count, n in runs:
        rows, blocks = slice(stop, stop + count * n), slice(last, last + count)
        b3, left3, inv3 = b[rows].reshape(count, n, -1), left[rows].reshape(count, n, -1), inv[blocks, None]
        left3 -= b3 @ anchors_proj[blocks]
        left3 *= inv3
        right[blocks] = (b3.transpose(0, 2, 1) @ points_proj[rows].reshape(count, n, -1)
                         - b3.sum(axis=1)[..., None] * anchors_proj[blocks]) * inv3
        stop, last = rows.stop, blocks.stop
    return anchors.T @ right.reshape(-1, right.shape[-1]) - points.T @ left


def _dr_pass(w: np.ndarray, sets, affinity: AffinityMatrix, kind: DivergenceKind, bandwidths):
    """:func:`dr_cost` at `w`, and a function of no arguments that returns
    :func:`dr_euclidean_gradient` there from the same tiles and log ratios."""
    # Frozen bandwidths: a policy would recompute them from each W, and the gradient,
    # which holds them fixed, would no longer be the derivative of the cost.
    if isinstance(bandwidths, str):
        raise ValueError(
            f"bandwidths must be one Bandwidth per set in the projected dimension, got {bandwidths!r}")
    mats = [_features_of(s) for s in sets]
    kdes = _kde_collection(project_sets(mats, w), bandwidths)
    i, j = np.nonzero(np.triu(affinity.values, 1))
    pairs = list(zip(i.tolist(), j.tolist()))
    tiled = list(tiles(kdes, pairs))
    ratios = list(log_ratios(tiled))
    cost = 0.0
    for sign, estimate in zip(affinity.values[i, j].astype(float).tolist(), _estimates(kind, ratios, pairs)):
        cost += sign * estimate

    def gradient() -> np.ndarray:
        omega = {}  # (b, s): the weight of each sample of set s in d(log p_b)/dW
        for s, partners, z in ratios:
            weights = affinity.values[s, partners, None] * _TERMS[kind][1](z) / mats[s].shape[0]
            omega[s, s] = weights.sum(axis=0)
            omega.update(((r, s), -row) for r, row in zip(partners, weights))
        total = np.zeros(np.shape(w))
        for runs, points_proj, _, kernels, lse in tiled:
            blocks = [bs for _, run in runs for bs in run]
            model, one = kdes[blocks[0][0]][0], len({b for b, _ in blocks}) == 1  # one KDE: its blocks are one run
            own = [kdes[b][1] for b, _ in blocks[:1 if one else None]]
            weights = np.concatenate([omega[bs] for bs in blocks])
            points = np.concatenate([mats[s] for _, s in blocks])
            anchors = (np.concatenate([mats[b] for b, _ in blocks[:len(own)]]), model.anchors[1][own],
                       1.0 / model.bandwidth.diag.reshape(-1, model.dim)[own])
            # a tile of several chunks is one block: its gradient is the sum of its chunks' gradients
            for first, chunk in kernels() if callable(kernels) else [(0, kernels)]:
                rows = slice(first, first + len(chunk))
                total += _mixture_gradient(weights[rows], points[rows], points_proj[rows], *anchors,
                                           [(1, len(chunk))] if one else [(len(run), n) for n, run in runs],
                                           chunk, lse[rows])
        return total

    return cost, gradient


def dr_cost(w: np.ndarray, sets, affinity: AffinityMatrix,
            kind: DivergenceKind, bandwidths) -> float:
    """Sum over unordered neighbor pairs of (sign) * divergence of the
    projected sets.

    Each term is the symmetric estimator of
    :func:`statdiv.divergence.pair_divergence` on the projected pair.
    `bandwidths` holds one :class:`Bandwidth` per set, already in the
    projected dimension, so the objective is a pure function of `w`.
    """
    return _dr_pass(w, sets, affinity, kind, bandwidths)[0]


def dr_euclidean_gradient(w: np.ndarray, sets, affinity: AffinityMatrix,
                          kind: DivergenceKind, bandwidths) -> np.ndarray:
    """Matrix of partial derivatives of :func:`dr_cost` with respect to W.

    A sample of set s depends on W only through its log ratios z = log p_s - log p_r,
    each weighed by the pair's sign times the term's slope in z over the set's size:
    minus that under each partner's KDE r, the sum under its own KDE s, so each tile
    of the cost's blocks gives one :func:`_mixture_gradient`.
    """
    return _dr_pass(w, sets, affinity, kind, bandwidths)[1]()


@dataclass(frozen=True)
class DrConfig:
    """Options for learning the projection."""

    target_dim: int
    kind: DivergenceKind = DivergenceKind.HELLINGER_SQUARED
    nu_w: int | str = "auto"
    nu_b: int = 1
    cg: CgOptions = field(default_factory=CgOptions)
    init: str = "pca"
    seed: int = 0
    affinity_bw_policy: object = "silverman"

    def __post_init__(self):
        if self.target_dim < 1:
            raise ValueError(f"target_dim must be >= 1, got {self.target_dim}")
        if self.init not in ("pca", "random"):
            raise ValueError(f"init must be 'pca' or 'random', got {self.init!r}")


@dataclass(frozen=True)
class DrResult:
    """Learned frame plus everything needed to audit the run."""

    point: np.ndarray
    initial_point: np.ndarray
    cg: CgResult
    affinity: AffinityMatrix
    bandwidths: tuple[Bandwidth, ...]

    @property
    def trace(self) -> np.ndarray:
        return self.cg.trace


def _pca_frame(mats: list[np.ndarray], d: int) -> np.ndarray:
    pooled = np.vstack(mats)
    centered = pooled - pooled.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return _fix_column_signs(vt[:d].T.copy())


def learn_projection(sets, labels, config: DrConfig) -> DrResult:
    """Learn a D x d orthonormal frame whose projected divergences follow
    the class structure.

    The affinity is built once from the full-dimensional divergences; the
    projected-space bandwidths are materialized at the starting frame and
    frozen; the conjugate gradient then minimizes the signed-divergence
    cost over frames.
    """
    sets = list(sets)
    mats = [_features_of(s) for s in sets]
    dim = mats[0].shape[1]
    if not 1 <= config.target_dim < dim:
        raise ValueError(f"target_dim must satisfy 1 <= d < D={dim}, got {config.target_dim}")

    affinity = build_affinity(sets, labels, nu_w=config.nu_w, nu_b=config.nu_b,
                              kind=config.kind, bw_policy=config.affinity_bw_policy)

    if config.init == "pca":
        w0 = _pca_frame(mats, config.target_dim)
    else:
        w0 = random_orthonormal(dim, config.target_dim, np.random.default_rng(config.seed))

    # Isotropic bandwidths, fixed at the starting frame, keep the cost exactly
    # invariant to the choice of basis of W.
    bandwidths = tuple(resolve_bandwidths(project_sets(mats, w0), "isotropic"))

    result = cg_minimize(lambda w: _dr_pass(w, mats, affinity, config.kind, bandwidths), w0, config.cg)
    return DrResult(point=result.point, initial_point=w0, cg=result,
                    affinity=affinity, bandwidths=bandwidths)
