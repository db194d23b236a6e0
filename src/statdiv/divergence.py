"""Empirical divergences between sample sets.

The symmetric estimators express both divergences through the ratio
T(x) = p(x) / (p(x) + q(x)), evaluated at the samples of both sets. T is
computed from log densities through a stable logistic, so neither density
is ever exponentiated on its own. The naive one-sided estimators are kept
only for comparison; they are asymmetric and unstable exactly where T is
not.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .density import Bandwidth, DensityModel, _features_of, _read_only, fit_kde, isotropic_silverman_bandwidth, log_density_batch, silverman_bandwidth

__all__ = [
    "T_CLAMP",
    "DivergenceKind",
    "DivergenceMatrix",
    "t_ratio",
    "hellinger_empirical",
    "jeffrey_empirical",
    "hellinger_naive",
    "pair_divergence",
    "divergence_matrix",
    "cross_divergence_matrix",
    "resolve_bandwidths",
    "hellinger_bandwidth",
    "thread_count",
    "save_divergence_matrix",
    "load_divergence_matrix",
]

# Clamp on T for the Jeffrey summand, which is unbounded as T -> {0, 1}.
T_CLAMP = 1e-12

_JEFFREY_TERM_MAX = (1.0 - 2.0 * T_CLAMP) * (np.log1p(-T_CLAMP) - np.log(T_CLAMP))


class DivergenceKind(Enum):
    HELLINGER_SQUARED = "hellinger"
    JEFFREY = "jeffrey"


def thread_count() -> int:
    """Worker count for pairwise computations, from STATDIV_THREADS (default: all cores)."""
    raw = os.environ.get("STATDIV_THREADS", "")
    if raw:
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(f"STATDIV_THREADS must be an integer, got {raw!r}") from exc
        if value < 1:
            raise ValueError(f"STATDIV_THREADS must be >= 1, got {value}")
        return value
    return os.cpu_count() or 1


def _stable_logistic(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) without overflow on either tail."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def t_ratio(log_p, log_q):
    """T = p / (p + q) from log densities, clamped to [1e-12, 1 - 1e-12].

    Computed as a logistic of the log ratio; neither density is
    exponentiated alone. Accepts scalars or arrays.
    """
    log_p = np.asarray(log_p, dtype=float)
    log_q = np.asarray(log_q, dtype=float)
    if not (np.all(np.isfinite(log_p)) and np.all(np.isfinite(log_q))):
        raise ValueError("log densities must be finite")
    t = _stable_logistic(log_p - log_q)
    t = np.clip(t, T_CLAMP, 1.0 - T_CLAMP)
    if t.ndim == 0:
        return float(t)
    return t


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
      - a positive float: one shared isotropic variance for every set;
      - a sequence of Bandwidth / diagonal vectors, one per set.
    """
    mats = [_features_of(m) for m in sample_matrices]
    if isinstance(bw_policy, str):
        if bw_policy == "silverman":
            if kind is DivergenceKind.HELLINGER_SQUARED:
                return [hellinger_bandwidth(m) for m in mats]
            return [silverman_bandwidth(m) for m in mats]
        if bw_policy == "isotropic":
            return [isotropic_silverman_bandwidth(m) for m in mats]
        raise ValueError(f"unknown bandwidth policy {bw_policy!r}")
    if isinstance(bw_policy, (int, float)):
        h2 = float(bw_policy)
        if h2 <= 0 or not np.isfinite(h2):
            raise ValueError(f"shared isotropic bandwidth must be positive, got {bw_policy}")
        return [Bandwidth(np.full(m.shape[1], h2)) for m in mats]
    bandwidths = list(bw_policy)
    if len(bandwidths) != len(mats):
        raise ValueError(
            f"got {len(bandwidths)} explicit bandwidths for {len(mats)} sets"
        )
    return [b if isinstance(b, Bandwidth) else Bandwidth(np.asarray(b, dtype=float)) for b in bandwidths]


def describe_bandwidth_policy(bw_policy) -> str:
    if isinstance(bw_policy, str):
        return bw_policy
    if isinstance(bw_policy, (int, float)):
        return f"shared-isotropic:{float(bw_policy)!r}"
    return "fixed"


def _check_same_dim(p: np.ndarray, q: np.ndarray):
    if p.shape[1] != q.shape[1]:
        raise ValueError(
            f"dimension mismatch: first set has D={p.shape[1]}, second has D={q.shape[1]}"
        )


def _fit_models(sets, bw_policy, kind: DivergenceKind | None = None) -> list[DensityModel]:
    """One KDE per set, bandwidths by :func:`resolve_bandwidths`; the sets
    must share one dimension."""
    mats = [_features_of(s) for s in sets]
    for m in mats[1:]:
        _check_same_dim(mats[0], m)
    bandwidths = resolve_bandwidths(mats, bw_policy, kind)
    return [fit_kde(m, b) for m, b in zip(mats, bandwidths)]


def _pair_logits(model_p: DensityModel, model_q: DensityModel,
                 self_p: np.ndarray | None = None,
                 self_q: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Log ratios z = log p - log q at P's samples and at Q's samples."""
    lp_P = self_p if self_p is not None else log_density_batch(model_p, model_p.samples)
    lq_Q = self_q if self_q is not None else log_density_batch(model_q, model_q.samples)
    lq_P = log_density_batch(model_q, model_p.samples)
    lp_Q = log_density_batch(model_p, model_q.samples)
    return lp_P - lq_P, lp_Q - lq_Q


def _hellinger_from_logits(z_P: np.ndarray, z_Q: np.ndarray) -> float:
    total = 0.0
    for z in (z_P, z_Q):
        t = _stable_logistic(z)
        u = _stable_logistic(-z)
        total += float(np.mean((np.sqrt(t) - np.sqrt(u)) ** 2))
    return total


def _jeffrey_from_logits(z_P: np.ndarray, z_Q: np.ndarray) -> float:
    total = 0.0
    for z in (z_P, z_Q):
        t = np.clip(_stable_logistic(z), T_CLAMP, 1.0 - T_CLAMP)
        u = np.clip(_stable_logistic(-z), T_CLAMP, 1.0 - T_CLAMP)
        total += float(np.mean((t - u) * (np.log(t) - np.log(u))))
    return total


_FROM_LOGITS = {
    DivergenceKind.HELLINGER_SQUARED: _hellinger_from_logits,
    DivergenceKind.JEFFREY: _jeffrey_from_logits,
}


def pair_divergence(p_samples, q_samples, kind: DivergenceKind,
                    bandwidth_p: Bandwidth, bandwidth_q: Bandwidth) -> float:
    """Symmetric empirical divergence between two sample matrices with
    explicitly fixed bandwidths. Identical inputs give exactly 0."""
    model_p, model_q = _fit_models([p_samples, q_samples], [bandwidth_p, bandwidth_q])
    z_P, z_Q = _pair_logits(model_p, model_q)
    return _FROM_LOGITS[kind](z_P, z_Q)


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


def hellinger_naive(p_samples, q_samples, direction: str = "overP",
                    bw_policy="silverman") -> float:
    """One-sided squared-Hellinger estimate E[(1 - sqrt(q/p))^2].

    `direction` selects the expectation: "overP" averages over the first
    set's samples, "overQ" over the second's. Asymmetric by construction;
    kept only so tests can demonstrate why the symmetric form is preferred.
    """
    if direction not in ("overP", "overQ"):
        raise ValueError(f"direction must be 'overP' or 'overQ', got {direction!r}")
    model_p, model_q = _fit_models([p_samples, q_samples], bw_policy)
    if direction == "overQ":
        model_p, model_q = model_q, model_p
    points = model_p.samples
    log_own = log_density_batch(model_p, points)
    log_other = log_density_batch(model_q, points)
    # exp can blow up where the "other" density dominates; cap the exponent
    # to keep the (already meaningless) value finite.
    ratio_sqrt = np.exp(np.minimum(0.5 * (log_other - log_own), 350.0))
    return float(np.mean((1.0 - ratio_sqrt) ** 2))


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


def _map_pairs(fn, pairs):
    """Evaluate fn over index pairs, possibly threaded. Results keyed by pair,
    so scheduling cannot change the output."""
    workers = thread_count()
    if workers <= 1 or len(pairs) <= 1:
        return {pair: fn(pair) for pair in pairs}
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = pool.map(fn, pairs)
        return dict(zip(pairs, results))


def _pair_divergences(sets, kind: DivergenceKind, bw_policy, pairs) -> dict:
    """Divergences between `sets[i]` and `sets[j]` for each index pair (i, j).

    Every KDE and its self-density are computed once, however many pairs
    share the set. Pairs may be evaluated in parallel (STATDIV_THREADS);
    results are keyed by pair, so they are identical for any worker count.
    """
    models = _fit_models(sets, bw_policy, kind)
    self_logs = [log_density_batch(model, model.samples) for model in models]
    estimator = _FROM_LOGITS[kind]

    def one_pair(pair):
        i, j = pair
        z_P, z_Q = _pair_logits(models[i], models[j], self_p=self_logs[i], self_q=self_logs[j])
        return estimator(z_P, z_Q)

    return _map_pairs(one_pair, pairs)


def divergence_matrix(sets, kind: DivergenceKind, bw_policy="silverman") -> DivergenceMatrix:
    """All pairwise divergences among `sets`.

    Each KDE is fitted once; each unordered pair is computed once. Pairs
    may be evaluated in parallel (STATDIV_THREADS) with identical results
    for any worker count.
    """
    sets = list(sets)
    if not sets:
        raise ValueError("divergence_matrix needs at least one set")
    m = len(sets)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    values = np.zeros((m, m))
    for (i, j), value in _pair_divergences(sets, kind, bw_policy, pairs).items():
        values[i, j] = values[j, i] = value
    return DivergenceMatrix(values=values, kind=kind, set_ids=_ids_of(sets),
                            bw_policy=describe_bandwidth_policy(bw_policy))


def cross_divergence_matrix(sets_a, sets_b, kind: DivergenceKind, bw_policy="silverman") -> np.ndarray:
    """len(sets_a) x len(sets_b) matrix of pairwise divergences between two
    collections (e.g. gallery rows vs probe columns)."""
    sets_a = list(sets_a)
    sets_b = list(sets_b)
    if not sets_a or not sets_b:
        raise ValueError("cross_divergence_matrix needs non-empty collections")
    na = len(sets_a)
    pairs = [(i, na + j) for i in range(na) for j in range(len(sets_b))]
    values = np.zeros((na, len(sets_b)))
    for (i, j), value in _pair_divergences(sets_a + sets_b, kind, bw_policy, pairs).items():
        values[i, j - na] = value
    return values


def _save_with_sidecar(csv_path, values: np.ndarray, sidecar: dict) -> None:
    """Write `values` as CSV plus `sidecar` as JSON (same stem, .json suffix)."""
    csv_path = Path(csv_path)
    np.savetxt(csv_path, values, delimiter=",", fmt="%.17g")
    csv_path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def _read_json_fields(path, fields) -> dict:
    """The JSON object in `path`; a missing field is a ValueError naming the
    file and the field."""
    path = Path(path)
    meta = json.loads(path.read_text())
    if not isinstance(meta, dict):
        raise ValueError(f"{path} must hold a JSON object")
    for key in fields:
        if key not in meta:
            raise ValueError(f"{path} is missing the {key!r} field")
    return meta


def _load_with_sidecar(csv_path, fields) -> tuple[np.ndarray, dict]:
    """Values and sidecar written by :func:`_save_with_sidecar`."""
    csv_path = Path(csv_path)
    values = np.loadtxt(csv_path, delimiter=",", ndmin=2)
    return values, _read_json_fields(csv_path.with_suffix(".json"), fields)


def save_divergence_matrix(matrix: DivergenceMatrix, csv_path) -> None:
    """Write the values as CSV plus a JSON sidecar (same stem, .json suffix)."""
    _save_with_sidecar(csv_path, matrix.values, {
        "kind": matrix.kind.value,
        "set_ids": list(matrix.set_ids),
        "bandwidth_policy": matrix.bw_policy,
    })


def load_divergence_matrix(csv_path) -> DivergenceMatrix:
    values, sidecar = _load_with_sidecar(csv_path, ("kind", "set_ids", "bandwidth_policy"))
    return DivergenceMatrix(
        values=values,
        kind=DivergenceKind(sidecar["kind"]),
        set_ids=tuple(sidecar["set_ids"]),
        bw_policy=sidecar["bandwidth_policy"],
    )
