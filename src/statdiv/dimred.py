"""Supervised dimensionality reduction on the subspace manifold.

The objective sums signed pairwise divergences of the projected sets:
within-class neighbor pairs enter with +1, between-class neighbor pairs
with -1, so minimizing pulls same-class sets together and pushes
different-class neighbors apart. The affinity and the projected-space
bandwidths are data: both are computed once and stay fixed during the
optimization, which runs a projection-based conjugate gradient over
orthonormal frames.

The cost and both gradients evaluate the projected sets through the
estimators' `density._KdeCollection`, built once per call; the gradients
read one block per mixture at the stacked samples of each pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classify import _fix_column_signs
from .density import Bandwidth, _features_of, _KdeCollection, _read_only
from .divergence import (
    _FROM_LOGITS,
    T_CLAMP,
    DivergenceKind,
    _kde_collection,
    _stable_logistic,
    divergence_matrix,
    resolve_bandwidths,
)
from .manifold import CgOptions, CgResult, cg_minimize, random_orthonormal

__all__ = [
    "AffinityMatrix",
    "DrConfig",
    "DrResult",
    "build_affinity",
    "affinity_from_divergences",
    "project_sets",
    "dr_cost",
    "t_ratio_gradient",
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


def _active_pairs(affinity: AffinityMatrix) -> list[tuple[int, int, float]]:
    values = affinity.values
    m = values.shape[0]
    return [
        (i, j, float(values[i, j]))
        for i in range(m)
        for j in range(i + 1, m)
        if values[i, j] != 0
    ]


def dr_cost(w: np.ndarray, sets, affinity: AffinityMatrix,
            kind: DivergenceKind, bw_policy="isotropic") -> float:
    """Sum over unordered neighbor pairs of (sign) * divergence of the
    projected sets.

    Each term is the symmetric estimator of
    :func:`statdiv.divergence.pair_divergence` on the projected pair. Pass
    an explicit bandwidth list (one per set, already in the projected
    dimension) to keep the objective a pure function of `w`; string
    policies recompute bandwidths from the current projection.
    """
    kdes = _kde_collection(project_sets(sets, w), bw_policy)
    estimator = _FROM_LOGITS[kind]
    total = 0.0
    for i, j, sign in _active_pairs(affinity):
        total += sign * estimator(*kdes.logits(i, j))
    return total


def _mixture_gradient(omega: np.ndarray, points: np.ndarray, points_proj: np.ndarray,
                      anchors: np.ndarray, kdes: _KdeCollection, k: int, block) -> np.ndarray:
    """sum_x omega[x] * d(log density at point x)/dW for KDE `k` of `kdes`,
    from its `block` at the projected points.

    The softmax weights of the mixture components at each point come from
    its log kernels; the gradient of each log kernel is the outer product
    of the full-dimensional offset with the scaled projected offset.
    """
    _, rows, lse = block
    anchors_proj = kdes.samples[k]
    soft = np.exp(rows - lse[:, None])
    inv = 1.0 / kdes.diags[k]
    b = omega[:, None] * soft
    row_sum = b.sum(axis=1)
    col_sum = b.sum(axis=0)
    left = points.T @ ((row_sum[:, None] * points_proj - b @ anchors_proj) * inv)
    right = anchors.T @ ((b.T @ points_proj - col_sum[:, None] * anchors_proj) * inv)
    return -(left - right)


def t_ratio_gradient(w: np.ndarray, x, p_samples, q_samples,
                     bandwidth_p: Bandwidth, bandwidth_q: Bandwidth) -> np.ndarray:
    """Partial derivatives of T(W' x) = p/(p+q) with respect to the frame W.

    Densities are the projected-sample KDEs of the two sets with fixed
    (projected-space) bandwidths; equals T(1-T) times the difference of the
    log-density gradients, assembled in the log domain.
    """
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float).reshape(1, -1)
    p = _features_of(p_samples)
    q = _features_of(q_samples)
    kdes = _kde_collection(project_sets([p, q], w), [bandwidth_p, bandwidth_q])
    x_proj = x @ w
    block_p, block_q = kdes.block(x_proj, 0), kdes.block(x_proj, 1)
    z = block_p[0] - block_q[0]
    ones = np.ones(1)
    grad = (_mixture_gradient(ones, x, x_proj, p, kdes, 0, block_p)
            - _mixture_gradient(ones, x, x_proj, q, kdes, 1, block_q))
    return float(_stable_logistic(z)[0] * _stable_logistic(-z)[0]) * grad


def _pair_weights(z: np.ndarray, kind: DivergenceKind) -> np.ndarray:
    """d(per-sample divergence term)/dT times T(1-T), as a function of the
    log ratio z. The clamped Jeffrey term is flat outside the clamp, so its
    weight is masked there; the Hellinger term needs no clamp."""
    t, u = _stable_logistic(z), _stable_logistic(-z)
    if kind is DivergenceKind.HELLINGER_SQUARED:
        return (t - u) * np.sqrt(t * u)
    weights = 2.0 * z * t * u + (t - u)
    weights[(t <= T_CLAMP) | (t >= 1.0 - T_CLAMP)] = 0.0
    return weights


def dr_euclidean_gradient(w: np.ndarray, sets, affinity: AffinityMatrix,
                          kind: DivergenceKind, bw_policy="isotropic") -> np.ndarray:
    """Matrix of partial derivatives of :func:`dr_cost` with respect to W."""
    w = np.asarray(w, dtype=float)
    mats = [_features_of(s) for s in sets]
    kdes = _kde_collection(project_sets(mats, w), bw_policy)
    total = np.zeros_like(w)
    for i, j, sign in _active_pairs(affinity):
        p, q = mats[i], mats[j]
        n_p, n_q = p.shape[0], q.shape[0]
        points = np.vstack([p, q])
        # One block per mixture at the stacked points, so the sums over
        # points in _mixture_gradient run over both sets at once.
        points_proj = np.vstack([kdes.samples[i], kdes.samples[j]])
        block_p, block_q = kdes.block(points_proj, i), kdes.block(points_proj, j)
        z = block_p[0] - block_q[0]
        omega = sign * _pair_weights(z, kind) * np.repeat([1.0 / n_p, 1.0 / n_q], [n_p, n_q])
        grad_p = _mixture_gradient(omega, points, points_proj, p, kdes, i, block_p)
        grad_q = _mixture_gradient(omega, points, points_proj, q, kdes, j, block_q)
        total += grad_p - grad_q
    return total


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

    def cost(w: np.ndarray) -> float:
        return dr_cost(w, mats, affinity, config.kind, bandwidths)

    def egrad(w: np.ndarray) -> np.ndarray:
        return dr_euclidean_gradient(w, mats, affinity, config.kind, bandwidths)

    result = cg_minimize(cost, egrad, w0, config.cg)
    return DrResult(point=result.point, initial_point=w0, cg=result,
                    affinity=affinity, bandwidths=bandwidths)
