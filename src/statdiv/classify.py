"""Nearest-neighbor matching and kernel Fisher discriminant analysis.

NN matching works directly on a gallery x probe divergence matrix. kFDA
turns a training Gram matrix plus labels into a low-dimensional Euclidean
latent space: it solves the generalized eigenproblem between the
between-class and within-class dual scatters of the double-centered Gram,
with ridge regularization on the within part.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .dataset import _json_fields, _read_csv, _write_csv, _write_json
from .density import _read_only
from .manifold import _fix_column_signs

__all__ = [
    "KfdaModel",
    "nn_classify",
    "kfda_fit",
    "kfda_project",
    "accuracy",
    "save_kfda_model",
    "load_kfda_model",
]


def nn_classify(divergences_gallery_probe, gallery_labels) -> np.ndarray:
    """Label each probe (column) with the label of its nearest gallery row.

    Ties go to the smallest gallery index (np.argmin's convention).
    """
    values = np.asarray(divergences_gallery_probe, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"expected a gallery x probe matrix, got shape {values.shape}")
    labels = np.asarray(gallery_labels, dtype=int)
    if values.shape[0] == 0:
        raise ValueError("gallery is empty")
    if labels.shape != (values.shape[0],):
        raise ValueError(
            f"gallery_labels length {labels.shape} does not match gallery size {values.shape[0]}"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("divergence matrix contains non-finite entries")
    nearest = np.argmin(values, axis=0)
    return labels[nearest]


def accuracy(predicted, truth) -> float:
    """Fraction of equal entries."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise ValueError(f"length mismatch: {predicted.shape} vs {truth.shape}")
    if predicted.size == 0:
        raise ValueError("cannot score empty predictions")
    return float(np.mean(predicted == truth))


_MODEL_ARRAYS = ("coefficients", "train_latent", "train_row_means")  # a saved model's CSV files, by stem


@dataclass(frozen=True)
class KfdaModel:
    """Fitted discriminant directions in dual (coefficient) form.

    `coefficients` is m x r; latent coordinates of any set are its centered
    kernel column against the training sets, projected on these
    coefficients. Centering statistics of the training Gram are stored so
    the identical transformation applies to cross-Grams.
    """

    coefficients: np.ndarray
    train_latent: np.ndarray
    latent_dim: int
    regularization: float
    labels: np.ndarray
    train_row_means: np.ndarray
    train_grand_mean: float

    def __post_init__(self):
        for name in _MODEL_ARRAYS:
            object.__setattr__(self, name, _read_only(np.asarray(getattr(self, name), dtype=float)))
        object.__setattr__(self, "labels", _read_only(np.asarray(self.labels, dtype=int)))
        if not np.all(np.isfinite(self.train_latent)):
            raise ValueError("training latent coordinates are not finite")

    @property
    def train_size(self) -> int:
        return self.coefficients.shape[0]


def _class_block_matrix(labels: np.ndarray) -> np.ndarray:
    m = labels.size
    block = np.zeros((m, m))
    for label in np.unique(labels):
        members = np.flatnonzero(labels == label)
        block[np.ix_(members, members)] = 1.0 / members.size
    return block


def kfda_fit(gram_train, labels, latent_dim: int | None = None,
             regularization: float = 1e-4) -> KfdaModel:
    """Fit discriminant directions from an m x m training Gram and labels.

    Solves M a = nu (N + lambda I) a where M and N are the between- and
    within-class dual scatters of the double-centered Gram, keeps the top
    `latent_dim` eigenvectors (default: one fewer than the number of
    classes), and normalizes them so a' (N + lambda I) a = I. Signs are
    fixed by making each direction's largest-magnitude coefficient
    positive.
    """
    gram = np.asarray(gram_train, dtype=float)
    labels = np.asarray(labels, dtype=int)
    m = gram.shape[0]
    if gram.ndim != 2 or gram.shape != (m, m):
        raise ValueError(f"training gram must be square, got shape {gram.shape}")
    if np.max(np.abs(gram - gram.T), initial=0.0) > 1e-8:
        raise ValueError("training gram is not symmetric")
    if labels.shape != (m,):
        raise ValueError(f"labels length {labels.shape} does not match gram size {m}")
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValueError("kfda needs at least two classes")
    max_dim = classes.size - 1
    if latent_dim is None:
        latent_dim = max_dim
    if not 1 <= latent_dim <= max_dim:
        raise ValueError(f"latent_dim must be in [1, C-1] = [1, {max_dim}], got {latent_dim}")
    if regularization <= 0:
        raise ValueError(f"regularization must be positive, got {regularization}")

    row_means = gram.mean(axis=1)
    grand_mean = float(gram.mean())
    centered = gram - row_means[:, None] - row_means[None, :] + grand_mean
    centered = 0.5 * (centered + centered.T)

    block = _class_block_matrix(labels)
    between = centered @ block @ centered
    residual = centered - centered @ block  # K~ (I - B)
    within = residual @ centered
    between = 0.5 * (between + between.T)
    within = 0.5 * (within + within.T)

    try:
        eigvals, eigvecs = scipy.linalg.eigh(between, within + regularization * np.eye(m))
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise RuntimeError(
            f"generalized eigensolver failed; try a larger regularization "
            f"(current lambda={regularization})"
        ) from exc

    order = np.argsort(eigvals)[::-1][:latent_dim]
    coeff = _fix_column_signs(eigvecs[:, order])

    train_latent = centered @ coeff
    return KfdaModel(
        coefficients=coeff,
        train_latent=train_latent,
        latent_dim=latent_dim,
        regularization=regularization,
        labels=labels,
        train_row_means=row_means,
        train_grand_mean=grand_mean,
    )


def kfda_project(model: KfdaModel, gram_cross) -> np.ndarray:
    """Latent coordinates (q x r) for probes given the m x q cross Gram
    (rows aligned with the training sets). Applies the training-set
    centering before projecting."""
    cross = np.asarray(gram_cross, dtype=float)
    if cross.ndim != 2 or cross.shape[0] != model.train_size:
        raise ValueError(
            f"cross gram must have {model.train_size} rows (training sets), got shape {cross.shape}"
        )
    col_means = cross.mean(axis=0)
    centered = cross - col_means[None, :] - model.train_row_means[:, None] + model.train_grand_mean
    return centered.T @ model.coefficients


def _latent_distances(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Euclidean distances between the latent points `rows` (as rows) and `cols` (as columns)."""
    diff = rows[:, None, :] - cols[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def latent_nn_classify(model: KfdaModel, gram_cross) -> np.ndarray:
    """NN labels for probes using Euclidean distance in the latent space."""
    return nn_classify(_latent_distances(model.train_latent, kfda_project(model, gram_cross)), model.labels)


def save_kfda_model(model: KfdaModel, directory) -> None:
    """Persist a model as a directory of CSVs plus a JSON description."""
    directory = Path(directory)
    for name in _MODEL_ARRAYS:
        _write_csv(directory / f"{name}.csv", getattr(model, name))
    _write_json(directory / "model.json", {
        "latent_dim": model.latent_dim,
        "regularization": model.regularization,
        "labels": model.labels.tolist(),
        "train_grand_mean": model.train_grand_mean,
    })


def load_kfda_model(directory) -> KfdaModel:
    """A model saved by :func:`save_kfda_model`; each model.json field is read as its type."""
    directory = Path(directory)
    meta = _json_fields(directory / "model.json", {"latent_dim": int, "regularization": float,
                                                   "labels": list[int], "train_grand_mean": float})
    m, r = len(meta["labels"]), meta["latent_dim"]
    arrays = {name: _read_csv(directory / f"{name}.csv", "kfda model") for name in _MODEL_ARRAYS}
    for (name, values), shape in zip(arrays.items(), [(m, r), (m, r), (m, 1)]):
        if values.shape != shape:
            raise ValueError(f"kfda model: {directory / name}.csv holds a {values.shape} matrix, expected {shape} "
                             f"from the {m} labels and latent_dim {r} of {directory / 'model.json'}")
    arrays["train_row_means"] = arrays["train_row_means"].ravel()
    return KfdaModel(**arrays, **meta)
