"""Feature-set ingestion, synthetic generation, and gallery/probe splits.

A dataset is an ordered list of labeled feature sets, each an n x D matrix
with one sample per row. On disk a dataset is a JSON manifest pointing at
plain CSV files (no header, decimal floats), so any feature extractor can
produce them. The readers and writers here serve every JSON file and
every CSV file, with or without a header, that statdiv reads or writes;
the writers make the file's directory.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from types import GenericAlias

import numpy as np

from .density import _read_only

__all__ = [
    "ConfigError",
    "FeatureSet",
    "Dataset",
    "SyntheticSpec",
    "load_dataset",
    "save_dataset",
    "generate_synthetic",
    "split_gallery_probe",
    "standardize_dataset",
]


class ConfigError(ValueError):
    """Invalid configuration or manifest field; message carries the field path."""


_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string", dict: "an object",
               type(None): "null", list[int]: "a list of integers", list[str]: "a list of strings"}


def _is_kind(value, kind) -> bool:
    """JSON typing: a bool is no number, an integer is also a float, and list[k] holds only k."""
    if isinstance(kind, GenericAlias):
        return isinstance(value, list) and all(_is_kind(v, *kind.__args__) for v in value)
    if isinstance(value, bool):
        return kind in (bool, object)
    return isinstance(value, (int, float) if kind is float else kind)


def _field(raw: dict, key: str, path: str, kind, default=MISSING):
    """Pop `raw[key]`, a JSON value of `kind` or of one of a tuple of kinds,
    from the object at field path `path`: a float field returns a float, a
    dict field a copy. An absent key, or null where `default` is None, gives
    `default`; any other value is a ConfigError naming the field path."""
    name = f"{path}.{key}" if path else key
    value = raw.pop(key, default)
    if value is MISSING:
        raise ConfigError(f"{path or 'config'}: missing the {key!r} field")
    if value is None and default is None:
        return None
    kinds = kind if isinstance(kind, tuple) else (kind,)
    for k in kinds:
        if _is_kind(value, k):
            return float(value) if k is float else dict(value) if k is dict else value
    raise ConfigError(f"{name}: must be {' or '.join(_KIND_NAMES[k] for k in kinds)}, got {value!r}")


def _no_unread_keys(raw: dict, path: str) -> None:
    """A ConfigError naming the first key that no `_field` read from `raw`."""
    if raw:
        key = next(iter(raw))
        raise ConfigError(f"{path}.{key}: unknown key" if path else f"{key}: unknown key")


def _checked(cls, path: str, *args, **kwargs):
    """The dataclass `cls(*args, **kwargs)` read at field path `path`, with a ValueError
    from its own checks as a ConfigError naming the field that the message names first:
    `path.name: rest` for a message `name rest`, `path.name: message` for one that names
    it later, and `path: message` for one that names none."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        message, names = str(exc), {f.name for f in fields(cls)}
        name = next((word for word in message.split() if word in names), None)
        if name is None:
            raise ConfigError(f"{path}: {message}") from exc
        raise ConfigError(f"{path}.{name}: {message.removeprefix(name + ' ')}") from exc


def _read_json(path, where: str | None = None):
    """The JSON value saved in the file `path`; text that is not JSON (or not
    UTF-8) is a ConfigError naming `where` (by default the file)."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except ValueError as exc:
        raise ConfigError(f"{where or path} is not valid JSON: {exc}") from exc


def _write_json(path, value) -> None:
    """Save `value` in the file `path` as JSON, indented by 2, keys sorted."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(value, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _json_fields(path, kinds: dict) -> dict:
    """The fields of the JSON object saved in the file `path`, each read by
    :func:`_field` as its kind in `kinds`; an unknown key, or a file that
    holds no object, is a ConfigError naming the file."""
    where = str(path)
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: must hold a JSON object")
    fields = {key: _field(raw, key, where, kind) for key, kind in kinds.items()}
    _no_unread_keys(raw, where)
    return fields


@dataclass(frozen=True)
class FeatureSet:
    """One labeled set: an id, an integer class label, and an n x D matrix."""

    id: str
    label: int
    features: np.ndarray

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        if features.ndim != 2:
            raise ValueError(f"set {self.id!r}: features must be an n x D matrix, got shape {features.shape}")
        n, d = features.shape
        if n < 2:
            raise ValueError(f"set {self.id!r}: n >= 2 violated (got n={n})")
        if d < 1:
            raise ValueError(f"set {self.id!r}: D >= 1 violated")
        if not np.all(np.isfinite(features)):
            raise ValueError(f"set {self.id!r}: features contain non-finite entries")
        if int(self.label) < 0:
            raise ValueError(f"set {self.id!r}: label must be >= 0, got {self.label}")
        object.__setattr__(self, "features", _read_only(features))
        object.__setattr__(self, "label", int(self.label))
        object.__setattr__(self, "id", str(self.id))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of feature sets sharing one feature dimension, with the
    name of each integer label: its manifest string, by default its number."""

    sets: tuple[FeatureSet, ...]
    label_names: tuple[str, ...] = ()

    def __post_init__(self):
        sets = tuple(self.sets)
        if not sets:
            raise ValueError("dataset must contain at least one set")
        dim = sets[0].dim
        for fs in sets[1:]:
            if fs.dim != dim:
                raise ValueError(
                    f"dimension mismatch: set {sets[0].id!r} has D={dim} "
                    f"but set {fs.id!r} has D={fs.dim}"
                )
        top = max(fs.label for fs in sets)
        names = tuple(map(str, self.label_names or range(top + 1)))
        if len(names) <= top:
            raise ValueError(f"label {top} has no name: {len(names)} label names given")
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "label_names", names)

    @property
    def dim(self) -> int:
        return self.sets[0].dim

    @property
    def size(self) -> int:
        return len(self.sets)

    @property
    def labels(self) -> np.ndarray:
        return np.array([fs.label for fs in self.sets], dtype=int)

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def named_labels(self) -> list[str]:
        """Each set's label name."""
        return [self.label_names[fs.label] for fs in self.sets]

    def class_indices(self, label: int) -> list[int]:
        return [i for i, fs in enumerate(self.sets) if fs.label == label]


def _read_csv(path, owner: str) -> np.ndarray:
    """The matrix of floats in the headerless UTF-8 CSV file `path`, one row per
    line. Blank and whitespace-only lines are skipped, `#` starts no
    comment, and a cell may carry spaces around its number. An empty file, a
    ragged row or a cell that is not a finite decimal float is a ValueError
    naming `owner`, the file, the row and the column."""
    text = Path(path).read_text(encoding="utf-8-sig", errors="replace")  # a BOM is dropped, a bad byte is U+FFFD
    lines = [(row, line) for row, line in enumerate(text.split("\n"), start=1) if line.strip()]
    if not lines:
        raise ValueError(f"{owner}: file {path} is empty")
    try:
        values = np.loadtxt([line for _, line in lines], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        values = None
    # np.loadtxt also reads nan, inf and a number padded with \x1c-\x1f, which float() refuses
    if values is None or not np.isfinite(values).all() or any(c in text for c in "\x1c\x1d\x1e\x1f"):
        return _scan_csv(lines, path, owner)
    return values


def _scan_csv(lines: list[tuple[int, str]], path, owner: str) -> np.ndarray:
    """`lines` read cell by cell with float(), when np.loadtxt fails or reads
    a value float() refuses: the first fault in file order raises its error,
    and a file with none (a cell only float() reads, such as a non-ASCII
    digit) still loads."""
    rows: list[list[float]] = []
    for row, line in lines:
        rows.append([])
        for col, cell in enumerate(line.strip().split(","), start=1):
            try:
                value = float(cell) if "_" not in cell else None  # float() reads "1_0" as 10.0
            except ValueError:
                value = None
            if value is None or not np.isfinite(value):
                what = "non-numeric" if value is None else "non-finite"  # nan, inf or an overflow such as 1e999
                raise ValueError(f"{owner}: {what} cell {cell!r} in {path} at row {row}, column {col}")
            rows[-1].append(value)
        if (n := len(rows[-1])) != (width := len(rows[0])):
            raise ValueError(f"{owner}: ragged row in {path} at row {row}, column {min(n, width) + 1} "
                             f"({n} cells, expected {width})")
    return np.array(rows)


def _write_csv(path, values, header: str = "", fmt="%.17g") -> None:
    """Save the rows of `values` as a UTF-8 CSV file, under a `header` line if
    one is given, each cell by `fmt` (one format or one per column); the
    default's 17 significant digits let :func:`_read_csv` reproduce every
    float exactly."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(path, values, delimiter=",", fmt=fmt, header=header, comments="", encoding="utf-8")


def _save_with_sidecar(csv_path, values: np.ndarray, sidecar: dict) -> None:
    """Write `values` as CSV plus `sidecar` as JSON (same stem, .json suffix)."""
    _write_csv(csv_path, values)
    _write_json(Path(csv_path).with_suffix(".json"), sidecar)


def load_dataset(manifest_path) -> Dataset:
    """Load a dataset from a JSON manifest.

    Manifest format: {"sets": [{"id": str, "label": str, "path": str}, ...]}
    with feature-file paths relative to the manifest's directory; an id or
    a label may also be an integer. Labels are remapped to dense integers
    0..C-1 in first-seen order of their string form; set order is preserved.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise ValueError(f"manifest {manifest_path} does not exist")
    manifest = _read_json(manifest_path, f"manifest {manifest_path}")
    entries = manifest.get("sets") if isinstance(manifest, dict) else None
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"manifest {manifest_path} must be a JSON object with a non-empty 'sets' list")

    label_map: dict[str, int] = {}
    sets: list[FeatureSet] = []
    base = manifest_path.parent
    for idx, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"manifest {manifest_path} entry {idx} must be an object, got {entry!r}")
        for key in ("id", "label", "path"):
            if key not in entry:
                raise ValueError(f"manifest {manifest_path} entry {idx} is missing the {key!r} field")
        where, entry = f"manifest {manifest_path} sets[{idx}]", dict(entry)
        set_id, raw_label = (str(_field(entry, key, where, (str, int))) for key in ("id", "label"))
        if raw_label not in label_map:
            label_map[raw_label] = len(label_map)
        path = base / _field(entry, "path", where, str)
        if not path.exists():
            raise ValueError(f"set {set_id!r}: feature file {path} does not exist")
        features = _read_csv(path, f"set {set_id!r}")
        sets.append(FeatureSet(id=set_id, label=label_map[raw_label], features=features))
    return Dataset(sets=tuple(sets), label_names=tuple(label_map))


def save_dataset(dataset: Dataset, manifest_path) -> None:
    """Write a dataset as a manifest plus one CSV per set.

    Values are written with 17 significant digits, so reload reproduces
    every float exactly; each set's label is written as its label name.
    """
    manifest_path = Path(manifest_path)
    entries = []
    for i, (fs, label) in enumerate(zip(dataset.sets, dataset.named_labels)):
        rel = f"{manifest_path.stem}_set{i:04d}.csv"
        _write_csv(manifest_path.parent / rel, fs.features)
        entries.append({"id": fs.id, "label": label, "path": rel})
    _write_json(manifest_path, {"sets": entries})


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a labeled synthetic dataset of Gaussian-cloud sets."""

    classes: int
    sets_per_class: int
    samples_per_set: int
    dim: int
    class_separation: float
    within_class_jitter: float
    seed: int = 0

    def __post_init__(self):
        for name in ("classes", "sets_per_class", "samples_per_set", "dim"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.samples_per_set < 2:
            raise ValueError(f"samples_per_set must be >= 2, got {self.samples_per_set}")
        if self.class_separation < 0:
            raise ValueError(f"class_separation must be >= 0, got {self.class_separation}")
        if self.within_class_jitter < 0:
            raise ValueError(f"within_class_jitter must be >= 0, got {self.within_class_jitter}")


def _class_means(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Class means on a sphere of radius class_separation.

    When C <= D the directions are rows of a Haar-random orthonormal frame,
    which keeps all pairwise mean distances equal to sqrt(2) * separation;
    otherwise directions are independent points on the unit sphere.
    """
    c, d = spec.classes, spec.dim
    if spec.class_separation == 0:
        return np.zeros((c, d))
    if c <= d:
        gauss = rng.standard_normal((d, c))
        q, r = np.linalg.qr(gauss)
        q = q * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))
        dirs = q.T
    else:
        gauss = rng.standard_normal((c, d))
        dirs = gauss / np.linalg.norm(gauss, axis=1, keepdims=True)
    return spec.class_separation * dirs


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic synthetic dataset.

    Every set draws samples_per_set points from a unit-covariance Gaussian
    centered at its class mean plus a jitter-scaled per-set offset.
    """
    rng = np.random.default_rng(spec.seed)
    means = _class_means(spec, rng)
    sets = []
    for c in range(spec.classes):
        for s in range(spec.sets_per_class):
            offset = spec.within_class_jitter * rng.standard_normal(spec.dim)
            center = means[c] + offset
            features = center + rng.standard_normal((spec.samples_per_set, spec.dim))
            sets.append(FeatureSet(id=f"c{c}s{s}", label=c, features=features))
    return Dataset(sets=tuple(sets))


def split_gallery_probe(dataset: Dataset, per_class_gallery: int, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint gallery/probe partition with a fixed number of gallery sets
    per class, chosen uniformly at random under `seed`. Set order within
    each side follows the input dataset."""
    if per_class_gallery < 1:
        raise ValueError(f"per_class_gallery must be >= 1, got {per_class_gallery}")
    rng = np.random.default_rng(seed)
    gallery_idx: set[int] = set()
    for label in range(dataset.num_classes):
        members = dataset.class_indices(label)
        if len(members) <= per_class_gallery:
            raise ValueError(
                f"class {label} has {len(members)} sets; needs more than "
                f"per_class_gallery={per_class_gallery} so the probe side is non-empty"
            )
        chosen = rng.permutation(len(members))[:per_class_gallery]
        gallery_idx.update(members[i] for i in chosen)
    gallery = tuple(fs for i, fs in enumerate(dataset.sets) if i in gallery_idx)
    probe = tuple(fs for i, fs in enumerate(dataset.sets) if i not in gallery_idx)
    return replace(dataset, sets=gallery), replace(dataset, sets=probe)


def standardize_dataset(dataset: Dataset) -> Dataset:
    """Per-dimension standardization over the pooled samples of all sets.

    Off by default in every pipeline; exposed behind a config flag.
    Constant dimensions are left unscaled.
    """
    pooled = np.vstack([fs.features for fs in dataset.sets])
    mean = pooled.mean(axis=0)
    sd = pooled.std(axis=0, ddof=1)
    sd = np.where(sd == 0, 1.0, sd)
    sets = tuple(
        FeatureSet(id=fs.id, label=fs.label, features=(fs.features - mean) / sd)
        for fs in dataset.sets
    )
    return replace(dataset, sets=sets)
