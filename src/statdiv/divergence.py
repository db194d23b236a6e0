"""Empirical divergences between sample sets.

The symmetric estimators average a per-sample term over the samples of
both sets. Each term, and its slope for the DR gradient (`_TERMS`), is a
closed form in the log ratio z = log p - log q = logit T, T = p / (p + q),
that `density.log_ratios` gives from the sets' KDEs (fitted by size), so
neither density is ever exponentiated on its own and T is never formed.
Each KDE is evaluated once per list of pairs, by one plan (`density.plan`),
and each set's log ratios against all its partners come as one array, so
a term runs once per set and a pair's estimate is the sum of two row means.
The square and cross matrices are two layouts of one builder, which fits
a gallery's and a probe's KDEs once and estimates the gallery's pairs,
its gallery x probe pairs, or both in one pass (a pair alone: 1 x 1 cross)."""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .dataset import ConfigError, _json_fields, _read_csv, _save_with_sidecar
from .density import (Bandwidth, DensityModel, _as_sample_matrix, _features_of, _read_only,
                      isotropic_silverman_bandwidth, log_ratios, plan, silverman_bandwidth, tiles)

__all__ = [
    "T_CLAMP",
    "DivergenceKind",
    "DivergenceMatrix",
    "hellinger_empirical",
    "jeffrey_empirical",
    "pair_divergence",
    "divergence_matrix",
    "cross_divergence_matrix",
    "resolve_bandwidths",
    "hellinger_bandwidth",
    "save_divergence_matrix",
    "load_divergence_matrix",
]

# Clamp on T for the Jeffrey summand, which is unbounded as T -> {0, 1}.
T_CLAMP = 1e-12


class DivergenceKind(Enum):
    HELLINGER_SQUARED = "hellinger"
    JEFFREY = "jeffrey"


def _divergence_kind(raw, path: str) -> DivergenceKind:
    """`raw` as a DivergenceKind; a ConfigError naming `path` otherwise."""
    try:
        return DivergenceKind(raw)
    except ValueError:
        raise ConfigError(f"{path}: must be 'hellinger' or 'jeffrey', got {raw!r}") from None


def hellinger_bandwidth(samples) -> Bandwidth:
    """Silverman's diagonal undersmoothed to the rate n^(-1/(D+3)).

    diag = silverman_bandwidth(samples).diag * n^(2/(D+4) - 2/(D+3)): the
    rule-of-thumb constant is kept and only the rate changes. The plug-in
    squared-Hellinger estimate carries an O(h^2) smoothing bias and an
    O(1/(n h^D)) resubstitution bias; a density-optimal h leaves the first
    in control at small D. At n = 2000, D = 1 the factor is 0.468.
    """
    mat = _features_of(samples)
    n, d = mat.shape
    return Bandwidth(silverman_bandwidth(mat).diag * n ** (2.0 / (d + 4) - 2.0 / (d + 3)))


def resolve_bandwidths(sample_matrices, bw_policy, kind: DivergenceKind | None = None) -> list[Bandwidth]:
    """Materialize one :class:`Bandwidth` per sample matrix.

    Policies:
      - "silverman": per-set, per-dimension rule (the default everywhere).
        When `kind` is the squared Hellinger distance, the rule is
        undersmoothed to the rate n^(-1/(D+3)) by :func:`hellinger_bandwidth`;
        for Jeffrey, or with no `kind`, it is :func:`silverman_bandwidth`;
      - "isotropic": per-set scalar from the mean per-dimension variance;
      - a positive number (not a bool): one shared isotropic variance for every set;
      - a sequence of Bandwidth / diagonal vectors, one per set.
    """
    mats = [_features_of(m) for m in sample_matrices]
    rule = _bandwidth_rule(bw_policy, kind, len(mats))
    return [rule(i, m) for i, m in enumerate(mats)]


def _bandwidth_rule(bw_policy, kind: DivergenceKind | None, n_sets: int):
    """The :func:`resolve_bandwidths` policy `bw_policy` for `n_sets` sets as a function
    bandwidth(i, matrix of set i); a ValueError now if the policy itself is invalid."""
    if isinstance(bw_policy, str):
        if bw_policy == "silverman":
            rule = hellinger_bandwidth if kind is DivergenceKind.HELLINGER_SQUARED else silverman_bandwidth
            return lambda i, m: rule(m)
        if bw_policy == "isotropic":
            return lambda i, m: isotropic_silverman_bandwidth(m)
        raise ValueError(f"unknown bandwidth policy {bw_policy!r}")
    if isinstance(bw_policy, numbers.Real):
        if not _is_positive_number(bw_policy):
            raise ValueError(f"shared isotropic bandwidth must be a positive number, got {bw_policy!r}")
        return lambda i, m: Bandwidth(np.full(m.shape[1], float(bw_policy)))
    bandwidths = list(bw_policy)
    if len(bandwidths) != n_sets:
        raise ValueError(
            f"got {len(bandwidths)} explicit bandwidths for {n_sets} sets"
        )
    return lambda i, m: (bandwidths[i] if isinstance(bandwidths[i], Bandwidth)
                         else Bandwidth(np.asarray(bandwidths[i], dtype=float)))


def _is_positive_number(value) -> bool:
    """Whether `value` is a positive, finite real number that is not a bool:
    a shared isotropic variance as a bandwidth policy, or a kernel scale."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and 0 < value < np.inf


def describe_bandwidth_policy(bw_policy) -> str:
    if isinstance(bw_policy, str):
        return bw_policy
    if _is_positive_number(bw_policy):
        return f"shared-isotropic:{float(bw_policy)!r}"
    return "fixed"


def _kde_collection(sets, bw_policy, kind: DivergenceKind | None = None) -> list[tuple[DensityModel, int]]:
    """The KDEs of `sets` (one dimension), bandwidths by :func:`resolve_bandwidths`, as (model,
    k) per set: the sets of one size are fitted at once, the KDEs on one model's leading axis.
    A set that is not n >= 2 finite rows in the first set's D, or whose bandwidth is not positive
    and finite, is a ValueError naming it by id or index."""
    mats, bandwidths, rule = [], [], _bandwidth_rule(bw_policy, kind, len(sets))
    for i, s in enumerate(sets):
        try:
            mats.append(_as_sample_matrix(s))
            if mats[i].shape[1] != mats[0].shape[1]:
                raise ValueError(
                    f"dimension mismatch: D={mats[i].shape[1]}, but the first set has D={mats[0].shape[1]}")
            bandwidths.append(rule(i, mats[i]))
        except ValueError as error:
            raise ValueError(f"set {getattr(s, 'id', i)!r}: {error}") from None
    by_size, kdes = {}, [None] * len(mats)
    for s, m in enumerate(mats):
        by_size.setdefault(len(m), []).append(s)
    for group in by_size.values():
        model = DensityModel(np.stack([mats[s] for s in group]),
                             Bandwidth(np.stack([bandwidths[s].diag for s in group])))
        for k, s in enumerate(group):
            kdes[s] = (model, k)
    return kdes


# The clamp on T as a bound on the log ratio: |z| <= log((1 - T_CLAMP) / T_CLAMP).
_Z_CLAMP = float(np.log((1.0 - T_CLAMP) / T_CLAMP))


def _hellinger_term(z: np.ndarray) -> np.ndarray:
    """(sqrt(T) - sqrt(1-T))^2 = expm1(-|z|/2)^2 / (1 + e^-|z|), in [0, 1]."""
    half = -0.5 * np.abs(z)
    return np.expm1(half) ** 2 / (1.0 + np.exp(2.0 * half))


def _hellinger_slope(z: np.ndarray) -> np.ndarray:
    """d/dz of :func:`_hellinger_term`: tanh(z/2) e / (1 + e^2), e = e^(-|z|/2)."""
    e = np.exp(-0.5 * np.abs(z))
    return np.tanh(0.5 * z) * e / (1.0 + e * e)


def _jeffrey_term(z: np.ndarray) -> np.ndarray:
    """(2T-1) log(T/(1-T)) = z tanh(z/2), with T clamped to [T_CLAMP, 1 - T_CLAMP],
    i.e. z clipped to +-_Z_CLAMP; even in z bit for bit."""
    zc = np.minimum(np.abs(z), _Z_CLAMP)
    return zc * np.tanh(0.5 * zc)


def _jeffrey_slope(z: np.ndarray) -> np.ndarray:
    """d/dz of :func:`_jeffrey_term`: tanh(z/2) + (z/2) sech^2(z/2) inside the
    clamp, 0 outside it, where the clamped term is flat."""
    half = 0.5 * np.clip(z, -_Z_CLAMP, _Z_CLAMP)
    return np.where(np.abs(z) < _Z_CLAMP, np.tanh(half) + half / np.cosh(half) ** 2, 0.0)


# (per-sample term, its derivative), both functions of z = logit T at the sample.
_TERMS = {
    DivergenceKind.HELLINGER_SQUARED: (_hellinger_term, _hellinger_slope),
    DivergenceKind.JEFFREY: (_jeffrey_term, _jeffrey_slope),
}


def _estimates(kind: DivergenceKind, ratios, pairs) -> list[float]:
    """Each pair's symmetric estimate (i, j) from the sets' log `ratios` (:func:`log_ratios`
    of the tiles of `pairs`): the mean per-sample term over set i plus that over set j."""
    means = {}  # s: {r: the mean term at the samples of s against partner r}
    for s, partners, z in ratios:
        means[s] = dict(zip(partners, np.mean(_TERMS[kind][0](z), axis=1)))
    return [float(means[i][j] + means[j][i]) for i, j in pairs]


def pair_divergence(p_samples, q_samples, kind: DivergenceKind,
                    bandwidth_p: Bandwidth, bandwidth_q: Bandwidth) -> float:
    """Symmetric empirical divergence between two sample matrices with
    explicitly fixed bandwidths. Identical inputs give exactly 0."""
    cross = _square_and_cross([p_samples], [q_samples], kind, [bandwidth_p, bandwidth_q], square=False)[1]
    return float(cross[0, 0])


def hellinger_empirical(p_samples, q_samples, bw_policy="silverman") -> float:
    """Symmetric squared-Hellinger estimate, in [0, 2].

    Each per-sample term is (sqrt(T) - sqrt(1-T))^2; the result sums the
    per-set means of these terms over both sets. Under the default
    "silverman" policy each set's bandwidth is Silverman's diagonal
    undersmoothed to the rate n^(-1/(D+3)) (:func:`hellinger_bandwidth`);
    for N(0,1) vs N(1,1) at n = 2000 the median relative error is 0.9%.
    """
    kind = DivergenceKind.HELLINGER_SQUARED
    bw_p, bw_q = resolve_bandwidths([p_samples, q_samples], bw_policy, kind)
    return pair_divergence(p_samples, q_samples, kind, bw_p, bw_q)


def jeffrey_empirical(p_samples, q_samples, bw_policy="silverman") -> float:
    """Symmetric Jeffrey (symmetrized KL) estimate.

    Per-sample terms (2T-1) log(T/(1-T)) with T clamped to
    [1e-12, 1 - 1e-12], so every term is finite and bounded by
    (1 - 2e-12) log((1-1e-12)/1e-12).
    """
    bw_p, bw_q = resolve_bandwidths([p_samples, q_samples], bw_policy)
    return pair_divergence(p_samples, q_samples, DivergenceKind.JEFFREY, bw_p, bw_q)


@dataclass(frozen=True)
class DivergenceMatrix:
    """Symmetric pairwise divergence matrix with zero diagonal."""

    values: np.ndarray
    kind: DivergenceKind
    set_ids: tuple[str, ...] = ()
    bw_policy: str = "silverman"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"divergence matrix must be square, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("divergence matrix contains non-finite entries")
        if np.max(np.abs(values - values.T), initial=0.0) > 1e-10:
            raise ValueError("divergence matrix is not symmetric")
        if np.max(np.abs(np.diag(values)), initial=0.0) > 1e-10:
            raise ValueError("divergence matrix diagonal is not zero")
        if np.min(values, initial=0.0) < -1e-10:
            raise ValueError("divergence matrix has negative entries")
        if self.kind is DivergenceKind.HELLINGER_SQUARED and np.max(values, initial=0.0) > 2.0 + 1e-10:
            raise ValueError("squared-Hellinger entries must not exceed 2")
        object.__setattr__(self, "values", _read_only(values))
        object.__setattr__(self, "set_ids", tuple(self.set_ids))

    @property
    def size(self) -> int:
        return self.values.shape[0]


def _ids_of(sets) -> tuple[str, ...]:
    return tuple(str(getattr(s, "id", f"set{i}")) for i, s in enumerate(sets))


def _square_and_cross(gallery, probe, kind: DivergenceKind, bw_policy,
                      square: bool = True) -> tuple[DivergenceMatrix, np.ndarray]:
    """The divergence matrix of `gallery` (zero unless `square`) and its rows x `probe` matrix,
    from one fit of every KDE and one evaluation of each for all the pairs (:func:`_estimates`)."""
    sets, g = [*gallery, *probe], len(gallery)
    pairs = [(i, j) for i in range(g) for j in range(i + 1, g) if square]
    pairs += [(i, j) for i in range(g) for j in range(g, len(sets))]
    values = np.zeros((g, len(sets)))
    kdes = _kde_collection(sets, bw_policy, kind)
    layout = plan(kdes, pairs)
    for (i, j), value in zip(pairs, _estimates(kind, log_ratios(layout, tiles(kdes, layout)), pairs)):
        values[i, j] = value
    own = values[:, :g] + values[:, :g].T
    return DivergenceMatrix(own, kind, _ids_of(gallery), describe_bandwidth_policy(bw_policy)), values[:, g:].copy()


def divergence_matrix(sets, kind: DivergenceKind, bw_policy="silverman") -> DivergenceMatrix:
    """All pairwise divergences among `sets`.

    Each KDE is fitted once; each unordered pair is computed once.
    """
    sets = list(sets)
    if not sets:
        raise ValueError("divergence_matrix needs at least one set")
    return _square_and_cross(sets, [], kind, bw_policy)[0]


def cross_divergence_matrix(sets_a, sets_b, kind: DivergenceKind, bw_policy="silverman") -> np.ndarray:
    """len(sets_a) x len(sets_b) matrix of pairwise divergences between two
    collections (e.g. gallery rows vs probe columns)."""
    sets_a = list(sets_a)
    sets_b = list(sets_b)
    if not sets_a or not sets_b:
        raise ValueError("cross_divergence_matrix needs non-empty collections")
    return _square_and_cross(sets_a, sets_b, kind, bw_policy, square=False)[1]


def save_divergence_matrix(matrix: DivergenceMatrix, csv_path) -> None:
    """Write the values as CSV plus a JSON sidecar (same stem, .json suffix)."""
    _save_with_sidecar(csv_path, matrix.values, {
        "kind": matrix.kind.value,
        "set_ids": list(matrix.set_ids),
        "bandwidth_policy": matrix.bw_policy,
    })


def load_divergence_matrix(csv_path) -> DivergenceMatrix:
    sidecar = Path(csv_path).with_suffix(".json")
    fields = _json_fields(sidecar, {"kind": str, "set_ids": list[str], "bandwidth_policy": str})
    return DivergenceMatrix(
        values=_read_csv(csv_path, "divergence matrix"),
        kind=_divergence_kind(fields["kind"], f"{sidecar}.kind"),
        set_ids=tuple(fields["set_ids"]),
        bw_policy=fields["bandwidth_policy"],
    )
