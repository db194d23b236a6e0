"""Gram matrices on collections of feature sets.

Three kernels act on pairwise divergences (Gaussian and Laplace maps of
the squared Hellinger distance, and an exponential map of the Jeffrey
divergence); two baselines act on per-set geometric summaries (projection
kernel between subspaces, log-Euclidean inner product between regularized
covariances). Each family is defined once, in `_DIVERGENCE_FAMILIES` or
`_BASELINES`. One builder gives, for any family in one pass, a gallery's
square matrix and its gallery x probe block (divergences for a divergence
family, from one fit of each KDE; kernel values for a baseline, from one
summary per set), and one map turns either into kernel values: the Gram,
the cross Gram and the kFDA runner are calls of this pair.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .dataset import ConfigError, _checked, _json_fields, _read_csv, _save_with_sidecar
from .density import _features_of, _read_only
from .divergence import (DivergenceKind, _ids_of, _is_positive_number, _square_and_cross as _divergences,
                         describe_bandwidth_policy)
from .manifold import _fix_column_signs

__all__ = [
    "KernelFamily",
    "KernelSpec",
    "GramMatrix",
    "SIGMA_GRID",
    "kernel_from_divergence",
    "gram",
    "cross_gram",
    "min_eigenvalue",
    "set_to_subspace",
    "set_to_covariance",
    "save_gram_matrix",
    "load_gram_matrix",
]

# Kernel bandwidth grid used by the experiment runner's search.
SIGMA_GRID = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0)


class KernelFamily(Enum):
    HELLINGER_GAUSSIAN = "hg"
    HELLINGER_LAPLACE = "hl"
    JEFFREY_EXPONENTIAL = "j"
    GRASSMANN_PROJECTION = "gda"
    SPD_LOG_EUCLIDEAN = "cdl"


def _kernel_family(raw, path: str) -> KernelFamily:
    """`raw` as a KernelFamily; a ConfigError naming `path` otherwise."""
    try:
        return KernelFamily(raw)
    except ValueError:
        raise ConfigError(f"{path}: must be one of {[f.value for f in KernelFamily]}, got {raw!r}") from None


# A divergence family: (the divergence it maps, its map kernel(d, sigma)).
_DIVERGENCE_FAMILIES = {
    KernelFamily.HELLINGER_GAUSSIAN: (DivergenceKind.HELLINGER_SQUARED, lambda d, sigma: np.exp(-sigma * d)),
    KernelFamily.HELLINGER_LAPLACE: (DivergenceKind.HELLINGER_SQUARED,
                                     lambda d, sigma: np.exp(-sigma * np.sqrt(np.maximum(d, 0.0)))),
    KernelFamily.JEFFREY_EXPONENTIAL: (DivergenceKind.JEFFREY, lambda d, sigma: np.exp(-sigma * d)),
}
# A baseline: (its per-set summary(set, spec), the kernel value inner(a, b) of two summaries,
# its name if its summary needs an integer `subspace_dim` >= 1, else None).
_BASELINES = {
    KernelFamily.GRASSMANN_PROJECTION: (lambda s, spec: set_to_subspace(s, spec.subspace_dim),
                                        lambda a, b: float(np.sum((a.T @ b) ** 2)), "the projection kernel"),
    KernelFamily.SPD_LOG_EUCLIDEAN: (lambda s, spec: _spd_log(set_to_covariance(s)),
                                     lambda a, b: float(np.sum(a * b)), None),
}


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its parameters.

    `sigma` scales the divergence-based kernels and is ignored by the two
    baselines; `subspace_dim` is required by the projection kernel only.
    """

    family: KernelFamily
    sigma: float = 0.1
    subspace_dim: int | None = None

    def __post_init__(self):
        if not _is_positive_number(self.sigma):
            raise ValueError(f"sigma must be a positive number, got {self.sigma!r}")
        needs_dim = self.family in _BASELINES and _BASELINES[self.family][2]
        if needs_dim:
            dim = self.subspace_dim
            if not isinstance(dim, numbers.Integral) or isinstance(dim, bool) or dim < 1:
                raise ValueError(f"{needs_dim} needs an integer subspace_dim >= 1, got {dim!r}")
            object.__setattr__(self, "subspace_dim", int(dim))


def kernel_from_divergence(delta, spec: KernelSpec):
    """Map a divergence value (or array) through the kernel of `spec`.

    Hellinger families expect the squared Hellinger distance, bounded by 2;
    the Laplace variant applies exp(-sigma * sqrt(delta)). The Jeffrey
    family applies exp(-sigma * delta) to the Jeffrey divergence itself
    (not its square). Results lie in (0, 1].
    """
    delta = np.asarray(delta, dtype=float)
    if np.any(delta < 0):
        raise ValueError("divergence values must be non-negative")
    if spec.family not in _DIVERGENCE_FAMILIES:
        raise ValueError(f"{spec.family} is not a divergence-based kernel")
    kind, kernel = _DIVERGENCE_FAMILIES[spec.family]
    if kind is DivergenceKind.HELLINGER_SQUARED and np.any(delta > 2.0 + 1e-9):
        raise ValueError(f"squared Hellinger values must be <= 2, got max {float(np.max(delta))}")
    out = kernel(delta, spec.sigma)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric m x m kernel matrix with its generating spec."""

    values: np.ndarray
    spec: KernelSpec
    set_ids: tuple[str, ...] = ()
    bw_policy: str = "silverman"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"gram matrix must be square, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("gram matrix contains non-finite entries")
        if np.max(np.abs(values - values.T), initial=0.0) > 1e-10:
            raise ValueError("gram matrix is not symmetric")
        if self.spec.family in _DIVERGENCE_FAMILIES:
            if np.max(np.abs(np.diag(values) - 1.0), initial=0.0) > 1e-12:
                raise ValueError("divergence-kernel gram diagonals must equal 1")
        object.__setattr__(self, "values", _read_only(values))
        object.__setattr__(self, "set_ids", tuple(self.set_ids))

    @property
    def size(self) -> int:
        return self.values.shape[0]


def set_to_subspace(samples, p: int) -> np.ndarray:
    """D x p orthonormal basis of the dominant directions of a set.

    Columns are the top-p left singular vectors of the centered, transposed
    feature matrix, with a deterministic sign convention.
    """
    mat = _features_of(samples)
    n, d = mat.shape
    if p < 1 or p > min(n, d):
        raise ValueError(f"subspace dimension p={p} must be in [1, min(n, D)] = [1, {min(n, d)}]")
    centered = mat - mat.mean(axis=0)
    u, _, _ = np.linalg.svd(centered.T, full_matrices=False)
    return _fix_column_signs(u[:, :p].copy())


def set_to_covariance(samples) -> np.ndarray:
    """Regularized sample covariance (1/n) Xc' Xc + ridge I, always SPD.

    The ridge is 1e-3 times the mean per-dimension variance (with a
    tiny absolute floor so degenerate sets stay invertible).
    """
    mat = _features_of(samples)
    n, d = mat.shape
    centered = mat - mat.mean(axis=0)
    cov = (centered.T @ centered) / n
    return cov + max(1e-3 * float(np.trace(cov)) / d, 1e-12) * np.eye(d)


def _spd_log(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    if np.min(w) <= 0:
        raise np.linalg.LinAlgError("matrix log needs a positive definite input")
    return (v * np.log(w)) @ v.T


def _square_and_cross(gallery, probe, spec: KernelSpec, bw_policy,
                      square: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """The square matrix of `gallery` (zero unless `square`) and its rows x `probe` block, in one pass:
    a divergence family's divergences (`divergence._square_and_cross`), or a baseline's kernel values
    from one summary per set, the subspace basis (projection) or covariance log (log-Euclidean), the
    square's upper triangle mirrored. :func:`_kernel_map` turns either into kernel values."""
    if spec.family in _DIVERGENCE_FAMILIES:
        div, cross = _divergences(gallery, probe, _DIVERGENCE_FAMILIES[spec.family][0], bw_policy, square)
        return div.values, cross
    (summary, inner, _), sets, g = _BASELINES[spec.family], [*gallery, *probe], len(gallery)
    summaries = [summary(s, spec) for s in sets]
    values = np.zeros((g, len(sets)))
    for i in range(g):
        for j in range(i if square else g, len(sets)):
            values[i, j] = inner(summaries[i], summaries[j])
    own, lower = values[:, :g], np.tril_indices(g, -1)
    own[lower] = own.T[lower]
    return own, values[:, g:].copy()


def _kernel_map(values: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Kernel values of a :func:`_square_and_cross` matrix: a divergence family's divergences mapped
    entrywise (:func:`kernel_from_divergence`; a zero diagonal maps to exactly 1), a baseline's as they are."""
    return np.asarray(kernel_from_divergence(values, spec)) if spec.family in _DIVERGENCE_FAMILIES else values


def gram(sets, spec: KernelSpec, bw_policy="silverman") -> GramMatrix:
    """Pairwise kernel matrix over `sets` (:func:`_square_and_cross`, :func:`_kernel_map`).

    Divergence families compute the divergence matrix once and map it
    entrywise; the projection kernel uses ||A' B||_F^2 on per-set subspace
    bases; the log-Euclidean kernel uses Tr(log(A)' log(B)) on regularized
    per-set covariances.
    """
    sets = list(sets)
    if not sets:
        raise ValueError("gram needs at least one set")
    policy = describe_bandwidth_policy(bw_policy) if spec.family in _DIVERGENCE_FAMILIES else "n/a"
    values = _kernel_map(_square_and_cross(sets, [], spec, bw_policy)[0], spec)
    return GramMatrix(values=values, spec=spec, set_ids=_ids_of(sets), bw_policy=policy)


def cross_gram(sets_a, sets_b, spec: KernelSpec, bw_policy="silverman") -> np.ndarray:
    """len(sets_a) x len(sets_b) kernel matrix between two collections."""
    sets_a = list(sets_a)
    sets_b = list(sets_b)
    if not sets_a or not sets_b:
        raise ValueError("cross_gram needs non-empty collections")
    return _kernel_map(_square_and_cross(sets_a, sets_b, spec, bw_policy, square=False)[1], spec)


def min_eigenvalue(gram_values) -> float:
    """Smallest eigenvalue of a symmetric matrix (the PSD diagnostic)."""
    values = getattr(gram_values, "values", gram_values)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {values.shape}")
    if np.max(np.abs(values - values.T), initial=0.0) > 1e-8:
        raise ValueError("matrix is not symmetric")
    return float(np.linalg.eigvalsh(values)[0])


def _spec_record(spec: KernelSpec) -> dict:
    """`spec` as the JSON fields that `train-kfda` and :func:`save_gram_matrix` write."""
    return {"family": spec.family.value, "sigma": spec.sigma, "subspace_dim": spec.subspace_dim}


def _load_spec(path, kinds: dict) -> tuple[KernelSpec, dict]:
    """The KernelSpec of the :func:`_spec_record` fields in the JSON file `path`, and
    every field, each read by `dataset._json_fields` (the others as their kind in `kinds`)."""
    fields = _json_fields(path, {"family": str, "sigma": float, "subspace_dim": (int, type(None)), **kinds})
    family = _kernel_family(fields["family"], f"{path}.family")
    return _checked(KernelSpec, str(path), family, fields["sigma"], fields["subspace_dim"]), fields


def save_gram_matrix(matrix: GramMatrix, csv_path) -> None:
    """Write values as CSV plus a JSON sidecar describing the kernel."""
    _save_with_sidecar(csv_path, matrix.values, {
        **_spec_record(matrix.spec),
        "set_ids": list(matrix.set_ids),
        "bandwidth_policy": matrix.bw_policy,
    })


def load_gram_matrix(csv_path) -> GramMatrix:
    spec, fields = _load_spec(Path(csv_path).with_suffix(".json"), {"set_ids": list[str], "bandwidth_policy": str})
    return GramMatrix(values=_read_csv(csv_path, "gram matrix"), spec=spec,
                      set_ids=tuple(fields["set_ids"]), bw_policy=fields["bandwidth_policy"])
