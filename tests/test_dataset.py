import codecs
import json
import re

import numpy as np
import pytest

from statdiv.classify import accuracy, nn_classify
from statdiv.cli import main
from statdiv.dataset import (
    Dataset,
    FeatureSet,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_gallery_probe,
    standardize_dataset,
)
from statdiv.divergence import DivergenceKind, cross_divergence_matrix


def write_manifest(tmp_path, entries, features):
    for name, mat in features.items():
        with (tmp_path / name).open("w") as fh:
            for row in mat:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"sets": entries}))
    return manifest


class TestLoadDataset:
    def test_identity_ingestion(self, tmp_path):
        rng = np.random.default_rng(0)
        mats = {"a.csv": rng.standard_normal((5, 3)), "b.csv": rng.standard_normal((5, 3))}
        manifest = write_manifest(
            tmp_path,
            [{"id": "s1", "label": "a", "path": "a.csv"},
             {"id": "s2", "label": "a", "path": "b.csv"}],
            mats,
        )
        ds = load_dataset(manifest)
        assert ds.size == 2
        assert ds.num_classes == 1
        assert ds.dim == 3
        np.testing.assert_array_equal(ds.sets[0].features, mats["a.csv"])

    def test_labels_remap_in_first_seen_order(self, tmp_path):
        mats = {f"{k}.csv": np.arange(6.0).reshape(3, 2) for k in "xyz"}
        manifest = write_manifest(
            tmp_path,
            [{"id": "s1", "label": "bird", "path": "x.csv"},
             {"id": "s2", "label": "ant", "path": "y.csv"},
             {"id": "s3", "label": "bird", "path": "z.csv"}],
            mats,
        )
        ds = load_dataset(manifest)
        assert [fs.label for fs in ds.sets] == [0, 1, 0]

    def test_single_row_set_rejected(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            [{"id": "tiny", "label": "a", "path": "t.csv"}],
            {"t.csv": np.array([[1.0, 2.0, 3.0]])},
        )
        with pytest.raises(ValueError, match="n >= 2"):
            load_dataset(manifest)

    def test_dimension_mismatch_names_both_sets(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            [{"id": "first", "label": "a", "path": "a.csv"},
             {"id": "second", "label": "b", "path": "b.csv"}],
            {"a.csv": np.zeros((4, 3)) + np.arange(4)[:, None],
             "b.csv": np.zeros((4, 4)) + np.arange(4)[:, None]},
        )
        with pytest.raises(ValueError) as excinfo:
            load_dataset(manifest)
        assert "first" in str(excinfo.value) and "second" in str(excinfo.value)

    def test_missing_file_reported(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"sets": [{"id": "s", "label": "a", "path": "gone.csv"}]}))
        with pytest.raises(ValueError, match="gone.csv"):
            load_dataset(manifest)

    @pytest.mark.parametrize("content", [[], [{"id": "s"}], "sets", {"sets": {}}])
    def test_manifest_that_is_not_an_object_reported(self, tmp_path, content):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(content))
        with pytest.raises(ValueError, match=f"manifest {re.escape(str(manifest))} must be a JSON object"):
            load_dataset(manifest)

    @pytest.mark.parametrize("entry", ["s1", ["s1", "a", "x.csv"], None, 3])
    def test_entry_that_is_not_an_object_reported(self, tmp_path, entry):
        (tmp_path / "x.csv").write_text("1.0,2.0\n3.0,4.0\n")
        good = {"id": "s0", "label": "a", "path": "x.csv"}
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"sets": [good, entry]}))
        with pytest.raises(ValueError, match=f"manifest {re.escape(str(manifest))} entry 1 must be an object"):
            load_dataset(manifest)

    def test_entry_missing_field_names_manifest_and_index(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"sets": [{"id": "s", "path": "x.csv"}]}))
        with pytest.raises(ValueError, match="entry 0 is missing the 'label' field"):
            load_dataset(manifest)

    @pytest.mark.parametrize("field, value", [
        ("path", 5), ("path", None), ("path", ["a.csv"]),
        ("id", None), ("id", True), ("id", 1.5), ("id", ["s"]), ("id", {"s": 1}),
        ("label", None), ("label", False), ("label", ["x"]), ("label", {"x": 1}),
    ])
    def test_entry_field_of_wrong_type_names_manifest_index_and_field(self, tmp_path, capsys, field, value):
        good = {"id": "r", "label": "a", "path": "a.csv"}
        manifest = write_manifest(tmp_path, [good, {**good, "id": "s", field: value}],
                                  {"a.csv": np.eye(3)})
        with pytest.raises(ValueError, match=rf"^manifest {re.escape(str(manifest))} sets\[1\]\.{field}: must be"):
            load_dataset(manifest)
        capsys.readouterr()
        assert main(["dist", "--manifest", str(manifest), "--divergence", "hellinger",
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: manifest {manifest} sets[1].{field}: ")

    def test_integer_id_and_label_read_as_strings(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            [{"id": 7, "label": 1, "path": "a.csv"}, {"id": "8", "label": "1", "path": "a.csv"}],
            {"a.csv": np.eye(3)},
        )
        ds = load_dataset(manifest)
        assert [fs.id for fs in ds.sets] == ["7", "8"]
        assert [fs.label for fs in ds.sets] == [0, 0]

    def test_ragged_row_reports_row_index(self, tmp_path):
        (tmp_path / "r.csv").write_text("1.0,2.0\n3.0\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"sets": [{"id": "s", "label": "a", "path": "r.csv"}]}))
        with pytest.raises(ValueError, match="row 2"):
            load_dataset(manifest)

    def test_non_numeric_cell_reported(self, tmp_path):
        (tmp_path / "n.csv").write_text("1.0,2.0\n3.0,potato\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"sets": [{"id": "s", "label": "a", "path": "n.csv"}]}))
        with pytest.raises(ValueError, match="potato"):
            load_dataset(manifest)

    @pytest.mark.parametrize("cell, what", [("1_0", "non-numeric"), ("nan", "non-finite"),
                                            ("-inf", "non-finite"), ("1e999", "non-finite")])
    def test_bad_cell_names_set_file_row_and_column(self, tmp_path, cell, what):
        (tmp_path / "b.csv").write_text(f"1.0,2.0\n\n3.0,{cell}\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"sets": [{"id": "s", "label": "a", "path": "b.csv"}]}))
        message = f"set 's': {what} cell '{cell}' in {tmp_path / 'b.csv'} at row 3, column 2"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_dataset(manifest)

    def test_byte_that_is_not_utf8_names_set_file_row_and_column(self, tmp_path, capsys):
        (tmp_path / "x.csv").write_bytes(b"1.0,2.0\n3.0,\xff4.0\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"sets": [{"id": "s", "label": "a", "path": "x.csv"}]}))
        assert main(["dist", "--manifest", str(manifest), "--divergence", "hellinger",
                     "--out", str(tmp_path / "out")]) == 1
        message = f"set 's': non-numeric cell '\ufffd4.0' in {tmp_path / 'x.csv'} at row 2, column 2"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_byte_order_mark_is_dropped_from_a_feature_file(self, tmp_path):
        # spreadsheet programs save "CSV UTF-8" with a leading byte order mark
        rows = np.random.default_rng(9).standard_normal((6, 3))
        text = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows).encode()
        (tmp_path / "plain.csv").write_bytes(text)
        (tmp_path / "bom.csv").write_bytes(codecs.BOM_UTF8 + text)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"sets": [{"id": name, "label": "a", "path": f"{name}.csv"}
                                                 for name in ("plain", "bom")]}))
        plain, bom = load_dataset(manifest).sets
        assert bom.features.tobytes() == plain.features.tobytes()

    def test_manifest_with_a_byte_order_mark_loads(self, tmp_path):
        (tmp_path / "a.csv").write_text("1.0,2.0\n3.0,4.0\n")
        manifest = tmp_path / "manifest.json"
        entries = [{"id": "Zo\u00eb", "label": "a", "path": "a.csv"}]
        manifest.write_bytes(codecs.BOM_UTF8 + json.dumps({"sets": entries}, ensure_ascii=False).encode())
        [fs] = load_dataset(manifest).sets
        assert fs.id == "Zo\u00eb"
        np.testing.assert_array_equal(fs.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_blank_lines_skipped_and_padded_cells_read(self, tmp_path):
        (tmp_path / "w.csv").write_text("1.0, 2 \n  \t\n\n3.0,\t4.0\n \n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"sets": [{"id": "s", "label": "a", "path": "w.csv"}]}))
        np.testing.assert_array_equal(load_dataset(manifest).sets[0].features, [[1.0, 2.0], [3.0, 4.0]])

    def test_hash_starts_no_comment(self, tmp_path):
        (tmp_path / "h.csv").write_text("1.0,2.0\n# note\n3.0,4.0\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"sets": [{"id": "s", "label": "a", "path": "h.csv"}]}))
        message = f"set 's': non-numeric cell '# note' in {tmp_path / 'h.csv'} at row 2, column 1"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_dataset(manifest)

    def test_cells_read_as_python_floats(self, tmp_path):
        # numpy's parser skips \x1c-\x1f around a number and refuses non-ASCII
        # digits; float() does the opposite, and the reader follows float()
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"sets": [{"id": "s", "label": "a", "path": "u.csv"}]}))
        (tmp_path / "u.csv").write_text("1.0,\u0663\n3.0,4.0\n", encoding="utf-8")
        np.testing.assert_array_equal(load_dataset(manifest).sets[0].features, [[1.0, 3.0], [3.0, 4.0]])
        (tmp_path / "u.csv").write_text("1.0,\x1c2.0\n3.0,4.0\n")
        with pytest.raises(ValueError, match=re.escape(r"non-numeric cell '\x1c2.0'") + ".* at row 1, column 2"):
            load_dataset(manifest)

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        ds = generate_synthetic(SyntheticSpec(2, 2, 6, 3, 1.5, 0.2, seed=5))
        save_dataset(ds, tmp_path / "out" / "manifest.json")
        loaded = load_dataset(tmp_path / "out" / "manifest.json")
        assert loaded.size == ds.size
        for a, b in zip(ds.sets, loaded.sets):
            np.testing.assert_array_equal(a.features, b.features)
            assert a.label == b.label
            assert a.id == b.id


class TestGenerateSynthetic:
    def test_deterministic_under_seed(self):
        spec = SyntheticSpec(2, 3, 10, 4, 10.0, 0.1, seed=7)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        for x, y in zip(a.sets, b.sets):
            np.testing.assert_array_equal(x.features, y.features)

    def test_counts_and_labels(self):
        ds = generate_synthetic(SyntheticSpec(3, 4, 5, 2, 1.0, 0.1, seed=1))
        assert ds.size == 12
        labels = ds.labels
        assert sorted(set(labels)) == [0, 1, 2]
        assert all(np.sum(labels == c) == 4 for c in range(3))

    def test_mean_distances_scale_with_separation(self):
        spec = SyntheticSpec(3, 1, 500, 6, 12.0, 0.0, seed=3)
        ds = generate_synthetic(spec)
        centers = np.array([fs.features.mean(axis=0) for fs in ds.sets])
        for i in range(3):
            for j in range(i + 1, 3):
                gap = np.linalg.norm(centers[i] - centers[j])
                assert gap == pytest.approx(np.sqrt(2) * 12.0, rel=0.15)

    def test_zero_separation_gives_chance_nn_accuracy(self):
        # all sets drawn from one Gaussian: NN matching is a coin toss
        spec = SyntheticSpec(classes=3, sets_per_class=12, samples_per_set=20, dim=3,
                             class_separation=0.0, within_class_jitter=0.0, seed=2)
        ds = generate_synthetic(spec)
        gallery, probe = split_gallery_probe(ds, per_class_gallery=4, seed=0)
        cross = cross_divergence_matrix(gallery.sets, probe.sets,
                                        DivergenceKind.HELLINGER_SQUARED)
        acc = accuracy(nn_classify(cross, gallery.labels), probe.labels)
        three_sigma = 3.0 * np.sqrt((1.0 / 3.0) * (2.0 / 3.0) / probe.size)
        assert abs(acc - 1.0 / 3.0) <= three_sigma

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError, match="classes"):
            SyntheticSpec(0, 1, 5, 2, 1.0, 0.1)
        with pytest.raises(ValueError, match="class_separation"):
            SyntheticSpec(2, 1, 5, 2, -1.0, 0.1)


class TestSplit:
    def make(self, sets_per_class=4):
        return generate_synthetic(SyntheticSpec(3, sets_per_class, 5, 2, 2.0, 0.1, seed=9))

    def test_probe_gets_remainder(self):
        gallery, probe = split_gallery_probe(self.make(4), per_class_gallery=3, seed=0)
        assert all(np.sum(gallery.labels == c) == 3 for c in range(3))
        assert all(np.sum(probe.labels == c) == 1 for c in range(3))

    def test_partition_is_disjoint_and_complete(self):
        ds = self.make(5)
        gallery, probe = split_gallery_probe(ds, per_class_gallery=2, seed=1)
        gallery_ids = {fs.id for fs in gallery.sets}
        probe_ids = {fs.id for fs in probe.sets}
        assert gallery_ids.isdisjoint(probe_ids)
        assert gallery_ids | probe_ids == {fs.id for fs in ds.sets}

    def test_gallery_equal_to_class_size_rejected(self):
        with pytest.raises(ValueError, match="probe side"):
            split_gallery_probe(self.make(3), per_class_gallery=3, seed=0)

    def test_seed_determinism(self):
        ds = self.make(6)
        a1, _ = split_gallery_probe(ds, 3, seed=5)
        a2, _ = split_gallery_probe(ds, 3, seed=5)
        assert [fs.id for fs in a1.sets] == [fs.id for fs in a2.sets]
        b, _ = split_gallery_probe(ds, 3, seed=6)
        assert [fs.id for fs in a1.sets] != [fs.id for fs in b.sets]


class TestTypes:
    def test_feature_set_is_immutable(self):
        fs = FeatureSet(id="a", label=0, features=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            fs.features[0, 0] = 1.0

    def test_dataset_rejects_mixed_dims(self):
        a = FeatureSet(id="a", label=0, features=np.zeros((3, 2)))
        b = FeatureSet(id="b", label=1, features=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            Dataset(sets=(a, b))

    def test_standardize_centers_pooled_features(self):
        ds = generate_synthetic(SyntheticSpec(2, 2, 20, 3, 4.0, 0.5, seed=4))
        std = standardize_dataset(ds)
        pooled = np.vstack([fs.features for fs in std.sets])
        np.testing.assert_allclose(pooled.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(pooled.std(axis=0, ddof=1), 1.0, rtol=1e-12)
