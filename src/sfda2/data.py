"""Synthetic domain-shift data, CSV dataset files, and text checkpoints.

Dataset CSV: UTF-8, header ``f0,...,f{d-1}`` with an optional trailing
``label`` column. Checkpoints and every other JSON file are written by
`dumps_json`. Both write a float as Python's `repr`, the shortest decimal
that parses back to the same float64, so every value round-trips exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, DatasetFormatError, InvalidInputError
from .model import Layer, Model, validate_model
from .numerics import RngState, check_symmetric, sample_gaussian

CHECKPOINT_FORMAT_VERSION = 2


@dataclass
class Dataset:
    inputs: np.ndarray  # (M, d)
    labels: np.ndarray | None  # (M,) int64, or None for the unlabeled view
    n_classes: int | None

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def unlabeled(self) -> "Dataset":
        """Label-free view of the same rows (what adaptation is allowed to see)."""
        return Dataset(inputs=self.inputs, labels=None, n_classes=self.n_classes)


@dataclass
class ShiftSpec:
    """Mixture definition plus the transform applied to the target domain."""

    means: np.ndarray  # (C, d)
    covariances: np.ndarray  # (C, d, d)
    source_counts: np.ndarray  # (C,)
    target_counts: np.ndarray  # (C,)
    angle_degrees: float
    translation: np.ndarray  # (d,)
    noise_scale: float

    @property
    def n_classes(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def validate_shift_spec(spec: ShiftSpec) -> None:
    means = np.asarray(spec.means, dtype=np.float64)
    if means.ndim != 2 or means.shape[0] < 2:
        raise InvalidInputError("spec needs at least 2 class means")
    c, d = means.shape
    covs = np.asarray(spec.covariances, dtype=np.float64)
    if covs.shape != (c, d, d):
        raise InvalidInputError("covariances must be one d x d matrix per class")
    for i in range(c):
        check_symmetric(covs[i], f"class {i} covariance")
    for name, counts in (("source", spec.source_counts), ("target", spec.target_counts)):
        arr = np.asarray(counts)
        if arr.shape != (c,) or arr.min() < 1:
            raise InvalidInputError(f"{name} counts must be >= 1 for every class")
    if not 0.0 <= spec.angle_degrees < 360.0:
        raise InvalidInputError("rotation angle must lie in [0, 360)")
    if spec.angle_degrees != 0.0 and d < 2:
        raise InvalidInputError("rotation needs at least 2 input dimensions")
    if np.asarray(spec.translation, dtype=np.float64).shape != (d,):
        raise InvalidInputError("translation width must match the input dimension")
    if spec.noise_scale < 0.0:
        raise InvalidInputError("noise scale must be >= 0")


def default_shift_spec(samples_per_class: int = 200, angle_degrees: float = 45.0) -> ShiftSpec:
    """Toy benchmark: 3 Gaussian classes, means 120 degrees apart on a
    radius-3 circle, identity covariance, target rotated by `angle_degrees`."""
    angles = np.deg2rad([90.0, 210.0, 330.0])
    means = 3.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    counts = np.full(3, samples_per_class, dtype=np.int64)
    return ShiftSpec(
        means=means,
        covariances=np.tile(np.eye(2), (3, 1, 1)),
        source_counts=counts.copy(),
        target_counts=counts.copy(),
        angle_degrees=angle_degrees,
        translation=np.zeros(2),
        noise_scale=0.0,
    )


def _draw_mixture(spec: ShiftSpec, counts: np.ndarray, rngs: list[RngState]) -> tuple[np.ndarray, np.ndarray]:
    blocks = []
    labels = []
    for c in range(spec.n_classes):
        n = int(counts[c])
        blocks.append(sample_gaussian(spec.means[c], spec.covariances[c], n, rngs[c]))
        labels.append(np.full(n, c, dtype=np.int64))
    return np.vstack(blocks), np.concatenate(labels)


def gen_synthetic(spec: ShiftSpec, seed: int) -> tuple[Dataset, Dataset]:
    """(source, target) draws; rows grouped by class, counts exact.

    Target rows are drawn from the same mixture, then rotated in the first
    two coordinates, translated, and perturbed with isotropic noise. Target
    labels ride along for evaluation only.
    """
    validate_shift_spec(spec)
    src_rng, tgt_rng, noise_rng = RngState(seed).split(3)
    src_x, src_y = _draw_mixture(spec, np.asarray(spec.source_counts), src_rng.split(spec.n_classes))
    tgt_x, tgt_y = _draw_mixture(spec, np.asarray(spec.target_counts), tgt_rng.split(spec.n_classes))

    if spec.angle_degrees != 0.0:
        theta = math.radians(spec.angle_degrees)
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        tgt_x = tgt_x.copy()
        tgt_x[:, :2] = tgt_x[:, :2] @ rot.T
    tgt_x = tgt_x + np.asarray(spec.translation, dtype=np.float64)
    if spec.noise_scale > 0.0:
        tgt_x = tgt_x + spec.noise_scale * noise_rng.generator.standard_normal(tgt_x.shape)

    source = Dataset(inputs=src_x, labels=src_y, n_classes=spec.n_classes)
    target = Dataset(inputs=tgt_x, labels=tgt_y, n_classes=spec.n_classes)
    return source, target


def save_dataset(dataset: Dataset, path: str) -> None:
    if dataset.inputs.ndim != 2 or dataset.size == 0:
        raise InvalidInputError("dataset must contain at least one row")
    columns = [f"f{j}" for j in range(dataset.dim)]
    if dataset.labels is not None:
        columns.append("label")
    lines = [",".join(columns)]
    for i, row in enumerate(dataset.inputs):
        cells = [repr(v) for v in row.tolist()]
        if dataset.labels is not None:
            cells.append(str(int(dataset.labels[i])))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(path: str, n_classes: int | None = None) -> Dataset:
    """Parse a dataset CSV; errors carry the 1-based line number. All cells
    are parsed in one flat pass; only if that fails does a per-line scan run
    to name the first bad line."""
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.read().split("\n")
    if raw_lines and raw_lines[-1] == "":
        raw_lines.pop()
    if not raw_lines:
        raise DatasetFormatError(1, "empty file")

    header = raw_lines[0].split(",")
    has_label = header[-1] == "label"
    feature_cols = header[:-1] if has_label else header
    if not feature_cols or feature_cols != [f"f{j}" for j in range(len(feature_cols))]:
        raise DatasetFormatError(1, f"malformed header {raw_lines[0]!r}")
    width = len(header)
    lines = raw_lines[1:]
    if not lines:
        raise DatasetFormatError(2, "no data rows")
    try:
        if any(line.count(",") != width - 1 for line in lines):
            raise ValueError("wrong cell count")
        cells = ",".join(lines).split(",")
        label_arr = np.fromiter(map(int, cells[width - 1 :: width]), np.int64) if has_label else None
        if has_label:
            del cells[width - 1 :: width]
        inputs = np.fromiter(map(float, cells), np.float64).reshape(len(lines), -1)
        if not np.isfinite(inputs).all() or has_label and (
            label_arr.min() < 0 or n_classes is not None and label_arr.max() >= n_classes
        ):
            raise ValueError("value out of range")
    except (ValueError, OverflowError) as exc:
        # The scan passes every line only when a label overflows int64: re-raise that.
        raise (_first_bad_line(lines, width, has_label, n_classes) or exc) from None
    if has_label and n_classes is None:
        n_classes = int(label_arr.max()) + 1
    return Dataset(inputs=inputs, labels=label_arr, n_classes=n_classes)


def _first_bad_line(lines: list[str], width: int, has_label: bool, n_classes: int | None):
    """The DatasetFormatError of the first malformed data line, or None."""
    for lineno, line in enumerate(lines, start=2):
        cells = line.split(",")
        if len(cells) != width:
            return DatasetFormatError(lineno, f"expected {width} cells, found {len(cells)}")
        try:
            values = [float(cell) for cell in (cells[:-1] if has_label else cells)]
        except ValueError:
            return DatasetFormatError(lineno, "non-numeric feature cell")
        if not all(math.isfinite(v) for v in values):
            return DatasetFormatError(lineno, "non-finite feature value")
        if has_label:
            try:
                label = int(cells[-1])
            except ValueError:
                return DatasetFormatError(lineno, "non-integer label cell")
            if label < 0:
                return DatasetFormatError(lineno, "negative label")
            if n_classes is not None and label >= n_classes:
                return DatasetFormatError(lineno, f"label {label} out of range [0, {n_classes})")
    return None


def dumps_json(obj) -> str:
    """Compact JSON; InvalidInputError on NaN, inf or a type json can't write."""
    try:
        return json.dumps(obj, allow_nan=False, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"cannot serialize: {exc}") from None


def save_checkpoint(model: Model, path: str) -> None:
    validate_model(model)
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "extractor_layers": [
            {
                "activation": layer.activation,
                "weights": layer.weights.tolist(),
                "bias": layer.bias.tolist(),
            }
            for layer in model.layers
        ],
        "classifier": {
            "weights": model.clf_weights.tolist(),
            "bias": model.clf_bias.tolist(),
        },
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_json(payload) + "\n")


def load_checkpoint(path: str) -> Model:
    """Parse and validate fully before constructing; no partial models."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path!r}: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointError("checkpoint root must be an object")
    version = payload.get("format_version")
    if version == 1:
        raise CheckpointError(
            f"{path!r} is a v1 checkpoint (with an optimizer section), which this "
            f"version no longer reads; re-run `sfda2 pretrain` to write a "
            f"v{CHECKPOINT_FORMAT_VERSION} checkpoint"
        )
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"format_version {version!r} unsupported (expected {CHECKPOINT_FORMAT_VERSION})"
        )
    try:
        layers = [
            Layer(
                weights=np.asarray(entry["weights"], dtype=np.float64),
                bias=np.asarray(entry["bias"], dtype=np.float64),
                activation=entry["activation"],
            )
            for entry in payload["extractor_layers"]
        ]
        clf = payload["classifier"]
        model = Model(
            layers=layers,
            clf_weights=np.asarray(clf["weights"], dtype=np.float64),
            clf_bias=np.asarray(clf["bias"], dtype=np.float64),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc

    try:
        validate_model(model)
    except InvalidInputError as exc:
        raise CheckpointError(f"inconsistent checkpoint shapes: {exc}") from exc
    return model
