import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from sfda2.data import (
    Dataset,
    ShiftSpec,
    default_shift_spec,
    dumps_json,
    gen_synthetic,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    save_dataset,
    validate_shift_spec,
)
from sfda2.errors import CheckpointError, DatasetFormatError, InvalidInputError
from sfda2.model import init_model
from sfda2.numerics import RngState


def two_class_spec(**overrides):
    base = dict(
        means=np.array([[2.0, 0.0], [0.0, 2.0]]),
        covariances=np.tile(np.eye(2), (2, 1, 1)),
        source_counts=np.array([1000, 1000]),
        target_counts=np.array([1000, 1000]),
        angle_degrees=0.0,
        translation=np.zeros(2),
        noise_scale=0.0,
    )
    base.update(overrides)
    return ShiftSpec(**base)


# -0.0, the smallest subnormal, the smallest normal, the largest double and
# two values with no short exact decimal; negated too, which adds 0.0.
EDGE_VALUES = np.array(
    [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3]
)
EDGE_VALUES = np.concatenate([EDGE_VALUES, -EDGE_VALUES])


def assert_same_bits(actual, expected):
    """Equal as float64 bit patterns, so -0.0 and 0.0 differ."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def class_means(dataset):
    return np.stack(
        [dataset.inputs[dataset.labels == c].mean(axis=0) for c in range(dataset.n_classes)]
    )


class TestGenSynthetic:
    def test_identity_shift_matches_distribution(self):
        source, target = gen_synthetic(two_class_spec(), seed=0)
        gap = np.linalg.norm(class_means(source) - class_means(target), axis=1)
        assert gap.max() < 0.1

    def test_half_turn_negates_means(self):
        _, target = gen_synthetic(two_class_spec(angle_degrees=180.0), seed=1)
        means = class_means(target)
        assert_allclose(means[0], [-2.0, 0.0], atol=0.15)
        assert_allclose(means[1], [0.0, -2.0], atol=0.15)

    def test_translation_shifts_means(self):
        _, target = gen_synthetic(two_class_spec(translation=np.array([10.0, -5.0])), seed=2)
        assert_allclose(class_means(target)[0], [12.0, -5.0], atol=0.15)

    def test_imbalanced_counts_exact(self):
        spec = two_class_spec(
            means=np.zeros((3, 2)),
            covariances=np.tile(np.eye(2), (3, 1, 1)),
            source_counts=np.array([400, 40, 4]),
            target_counts=np.array([4, 40, 400]),
        )
        source, target = gen_synthetic(spec, seed=3)
        assert_array_equal(np.bincount(source.labels), [400, 40, 4])
        assert_array_equal(np.bincount(target.labels), [4, 40, 400])
        assert source.size == 444 and target.size == 444

    def test_deterministic_per_seed(self):
        a_src, a_tgt = gen_synthetic(two_class_spec(), seed=7)
        b_src, b_tgt = gen_synthetic(two_class_spec(), seed=7)
        assert_array_equal(a_src.inputs, b_src.inputs)
        assert_array_equal(a_tgt.inputs, b_tgt.inputs)
        c_src, _ = gen_synthetic(two_class_spec(), seed=8)
        assert not np.array_equal(a_src.inputs, c_src.inputs)

    def test_noise_perturbs_target_only(self):
        clean_src, clean_tgt = gen_synthetic(two_class_spec(), seed=4)
        noisy_src, noisy_tgt = gen_synthetic(two_class_spec(noise_scale=1.0), seed=4)
        assert_array_equal(clean_src.inputs, noisy_src.inputs)
        assert not np.array_equal(clean_tgt.inputs, noisy_tgt.inputs)

    def test_degenerate_specs_rejected(self):
        with pytest.raises(InvalidInputError):
            validate_shift_spec(two_class_spec(source_counts=np.array([0, 10])))
        with pytest.raises(InvalidInputError, match="^target counts must be integers >= 1 for every class$"):
            validate_shift_spec(two_class_spec(target_counts=np.array([1.5, 2.7])))
        with pytest.raises(InvalidInputError):
            validate_shift_spec(two_class_spec(means=np.array([[1.0, 0.0]])))
        with pytest.raises(InvalidInputError):
            validate_shift_spec(two_class_spec(angle_degrees=360.0))
        with pytest.raises(InvalidInputError):
            validate_shift_spec(two_class_spec(noise_scale=-0.5))
        with pytest.raises(InvalidInputError):
            validate_shift_spec(two_class_spec(translation=np.zeros(3)))

    def test_covariance_psd_boundary(self):
        # Eigenvalues 3 and -1 fail; the identity and a rank-one outer(u, u)
        # (eigenvalues 5 and 0 up to rounding) pass.
        u = np.array([1.0, 2.0])
        for cov in (np.eye(2), np.outer(u, u)):
            validate_shift_spec(two_class_spec(covariances=np.stack([cov, np.eye(2)])))
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(InvalidInputError, match="^class 1 covariance is not positive semidefinite$"):
            validate_shift_spec(two_class_spec(covariances=np.stack([np.eye(2), indefinite])))

    def test_default_benchmark_geometry(self):
        spec = default_shift_spec(samples_per_class=50)
        assert spec.n_classes == 3
        assert_allclose(np.linalg.norm(spec.means, axis=1), np.full(3, 3.0), atol=1e-12)
        # neighboring means subtend 120 degrees
        cosines = spec.means @ spec.means.T / 9.0
        off = cosines[~np.eye(3, dtype=bool)]
        assert_allclose(off, np.full(6, -0.5), atol=1e-12)
        assert spec.angle_degrees == 45.0
        assert_array_equal(spec.source_counts, [50, 50, 50])

    def test_unlabeled_view_drops_labels_only(self):
        source, _ = gen_synthetic(two_class_spec(), seed=5)
        view = source.unlabeled()
        assert view.labels is None
        assert view.inputs is source.inputs
        assert view.n_classes == source.n_classes


class TestDatasetFiles:
    def test_labeled_round_trip_is_exact(self, tmp_path):
        source, _ = gen_synthetic(two_class_spec(source_counts=np.array([3, 3]), target_counts=np.array([3, 3])), seed=6)
        path = str(tmp_path / "ds.csv")
        save_dataset(source, path)
        loaded = load_dataset(path)
        assert_same_bits(loaded.inputs, source.inputs)
        assert_array_equal(loaded.labels, source.labels)
        assert loaded.n_classes == 2

    def test_unlabeled_round_trip(self, tmp_path):
        ds = Dataset(inputs=np.array([[1.5, -2.25], [0.0, 3.75]]), labels=None, n_classes=None)
        path = str(tmp_path / "ds.csv")
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.labels is None
        assert_array_equal(loaded.inputs, ds.inputs)

    def test_hand_written_file(self, tmp_path):
        path = tmp_path / "hand.csv"
        path.write_text("f0,f1,label\n1.5,2.5,0\n-3.25,0,1\n")
        ds = load_dataset(str(path))
        assert ds.size == 2
        assert_array_equal(ds.inputs, [[1.5, 2.5], [-3.25, 0.0]])
        assert_array_equal(ds.labels, [0, 1])

    def test_row_order_preserved(self, tmp_path):
        inputs = np.arange(12, dtype=np.float64).reshape(6, 2)[::-1].copy()
        ds = Dataset(inputs=inputs, labels=None, n_classes=None)
        path = str(tmp_path / "ordered.csv")
        save_dataset(ds, path)
        assert_array_equal(load_dataset(path).inputs, inputs)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("f0,f1\n1.0,2.0\n3.0\n")
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(str(path))
        assert err.value.line == 3

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1\n1.0,oops\n")
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(str(path))
        assert err.value.line == 2

    def test_label_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "range.csv"
        path.write_text("f0,label\n1.0,5\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(str(path), n_classes=3)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("x0,x1\n1.0,2.0\n")
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(str(path))
        assert err.value.line == 1

    def test_file_without_rows_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("f0,f1\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(str(path))

    def test_edge_values_round_trip_bitwise(self, tmp_path):
        ds = Dataset(inputs=EDGE_VALUES.reshape(-1, 2), labels=np.arange(6) % 2, n_classes=2)
        path = tmp_path / "edges.csv"
        save_dataset(ds, str(path))
        assert_same_bits(load_dataset(str(path)).inputs, ds.inputs)
        assert path.read_text().splitlines()[1:3] == [
            "-0.0,5e-324,0",
            "2.2250738585072014e-308,1.7976931348623157e+308,1",
        ]

    def test_seventeen_digit_file_loads_to_the_same_bits(self, tmp_path):
        # The earlier writer printed every cell with 17 significant digits,
        # integral values without a decimal point.
        old = tmp_path / "old.csv"
        old.write_text("f0,f1,label\n0,1,0\n0.84999999999999998,-0,1\n0.10000000000000001,0.33333333333333331,1\n")
        loaded = load_dataset(str(old))
        assert_same_bits(loaded.inputs, [[0.0, 1.0], [0.85, -0.0], [0.1, 1 / 3]])
        new = tmp_path / "new.csv"
        save_dataset(loaded, str(new))
        assert new.read_text() == "f0,f1,label\n0.0,1.0,0\n0.85,-0.0,1\n0.1,0.3333333333333333,1\n"
        assert_same_bits(load_dataset(str(new)).inputs, loaded.inputs)


    @pytest.mark.parametrize(
        "text, line, message",
        [
            # one long and one short row: the total cell count still matches
            ("f0,f1\n1,2\n3,4,5\n6\n", 3, "expected 2 cells, found 3"),
            ("f0,label\n1,0\n2,x\n3\n", 3, "non-integer label cell"),
            ("f0,label\n1,0\nnan,1\n2,-1\n", 3, "non-finite feature value"),
            ("f0,label\n1,0\n2,-1\ninf,0\n", 3, "negative label"),
            ("f0,label\n1,0\n1e400,0\n", 3, "non-finite feature value"),
            ("f0,label\n1,0\n2,1\n3,2\n4,3\n", 5, "label 3 out of range [0, 3)"),
            ("f0,f1,label\n1,2,0\n\n", 3, "expected 3 cells, found 1"),
            ("f0\n1\n\n", 3, "non-numeric feature cell"),
        ],
    )
    def test_first_bad_line_and_message(self, tmp_path, text, line, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(str(path), n_classes=3)
        assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")

    def test_cells_follow_python_number_syntax(self, tmp_path):
        path = tmp_path / "loose.csv"
        path.write_text("f0,f1,label\n 1.5 ,1_000,+2\n-0,1E-3, 0\n")
        ds = load_dataset(str(path))
        assert ds.inputs.tobytes() == np.array([[1.5, 1000.0], [-0.0, 1e-3]]).tobytes()
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [2, 0]
        assert ds.n_classes == 3

    def test_label_beyond_int64(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text(f"f0,label\n1,0\n2,{2**70}\n")
        with pytest.raises(DatasetFormatError, match=f"line 3: label {2**70} out of range"):
            load_dataset(str(path), n_classes=3)
        with pytest.raises(OverflowError):
            load_dataset(str(path))


class TestCheckpoints:
    def build(self):
        return init_model(2, (5, 4), 3, 3, RngState(11))

    def test_round_trip_bitwise_equal(self, tmp_path):
        model = self.build()
        path = str(tmp_path / "ck.json")
        save_checkpoint(model, path)
        loaded_model = load_checkpoint(path)
        assert_same_bits(loaded_model.params, model.params)
        assert [l.activation for l in loaded_model.layers] == [l.activation for l in model.layers]
        payload = json.loads((tmp_path / "ck.json").read_text())
        assert payload["format_version"] == 2
        assert sorted(payload) == ["classifier", "extractor_layers", "format_version"]

    def test_edge_values_round_trip_bitwise(self, tmp_path):
        model = self.build()
        model.params[: EDGE_VALUES.size] = EDGE_VALUES
        path = str(tmp_path / "ck.json")
        save_checkpoint(model, path)
        assert_same_bits(load_checkpoint(path).params, model.params)

    def test_seventeen_digit_file_loads_to_the_same_bits(self, tmp_path):
        # A checkpoint as the earlier writer printed it: 17 significant
        # digits, integral values without a decimal point. Its "-0" is the
        # JSON integer 0, so it reads as +0.0, as it always did; -0.0 now
        # round-trips because it is written "-0.0".
        old = tmp_path / "old.json"
        old.write_text(
            '{"format_version":2,"extractor_layers":[{"activation":"relu",'
            '"weights":[[0,1],[0.84999999999999998,-0]],"bias":[0.10000000000000001,-1]}],'
            '"classifier":{"weights":[[0.33333333333333331,2],[-0.5,1e-300]],"bias":[0,0]}}\n'
        )
        loaded = load_checkpoint(str(old))
        assert_same_bits(loaded.params, [0.0, 1.0, 0.85, 0.0, 0.1, -1.0, 1 / 3, 2.0, -0.5, 1e-300, 0.0, 0.0])
        new = tmp_path / "new.json"
        save_checkpoint(loaded, str(new))
        assert new.read_text() == (
            '{"format_version":2,"extractor_layers":[{"activation":"relu",'
            '"weights":[[0.0,1.0],[0.85,0.0]],"bias":[0.1,-1.0]}],'
            '"classifier":{"weights":[[0.3333333333333333,2.0],[-0.5,1e-300]],"bias":[0.0,0.0]}}\n'
        )
        assert_same_bits(load_checkpoint(str(new)).params, loaded.params)

    def test_loaded_model_is_view_backed(self, tmp_path):
        path = str(tmp_path / "ck.json")
        save_checkpoint(self.build(), path)
        loaded = load_checkpoint(path)
        arrays = [a for layer in loaded.layers for a in (layer.weights, layer.bias)]
        arrays += [loaded.clf_weights, loaded.clf_bias]
        assert [a.shape for a in arrays] == [(5, 2), (5,), (4, 5), (4,), (3, 4), (3,), (3, 3), (3,)]
        assert all(np.shares_memory(a, loaded.params) for a in arrays)
        loaded.params[-1] = 7.0
        assert loaded.clf_bias[-1] == 7.0

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(self.build(), str(path))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_version_bump_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(self.build(), str(path))
        text = path.read_text().replace('"format_version":2', '"format_version":3', 1)
        path.write_text(text)
        with pytest.raises(CheckpointError, match="format_version"):
            load_checkpoint(str(path))

    def test_v1_file_rejected_with_rerun_hint(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(self.build(), str(path))
        payload = json.loads(path.read_text())
        payload["format_version"] = 1
        payload["optimizer"] = {"momentum": 0.9, "lr": 0.05, "buffers": []}
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="v1 checkpoint") as err:
            load_checkpoint(str(path))
        assert "re-run `sfda2 pretrain`" in str(err.value)

    def test_missing_section_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text('{"format_version":2,"extractor_layers":[]}')
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_inconsistent_shapes_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(self.build(), str(path))
        payload = json.loads(path.read_text())
        payload["classifier"]["bias"] = [0.0, 0.0]  # model has 3 classes
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "absent.json"))


class TestDumpsJson:
    def test_compact_shortest_floats(self):
        payload = {"a": [0.0, -0.0, 0.85, 1 / 3, np.float64(0.1)], "b": True, "c": None, "d": 2}
        assert dumps_json(payload) == '{"a":[0.0,-0.0,0.85,0.3333333333333333,0.1],"b":true,"c":null,"d":2}'

    @pytest.mark.parametrize(
        "value, message",
        [
            (float("nan"), "not JSON compliant"),
            (float("inf"), "not JSON compliant"),
            (-np.inf, "not JSON compliant"),
            (np.int64(3), "int64 is not JSON serializable"),
            (object(), "object is not JSON serializable"),
        ],
    )
    def test_unwritable_value_is_invalid_input(self, value, message):
        with pytest.raises(InvalidInputError, match=f"^cannot serialize: .*{message}") as err:
            dumps_json({"nested": [1.0, value]})
        assert type(err.value) is InvalidInputError
