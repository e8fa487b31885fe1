"""Feature generation and ingestion.

Synthetic scenes are class-conditional Gaussians, one distribution per agent
and class.  Image scenes are split into a grid of patches, one patch per
agent, so every agent observes a different slice of the same picture.  Both
sources drive balanced training sets and regime-switching prediction streams
that are deterministic given their seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .mlp import LabeledDataset
from .seeds import generators
from .social import RegimeSchedule


class DataError(ValueError):
    """Invalid data specification or file content."""


@dataclass(frozen=True)
class GaussianClassModel:
    """Mean and covariance of one agent's features under one class."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if cov.shape != (mean.size, mean.size):
            raise DataError(f"covariance {cov.shape} vs mean dimension {mean.size}")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise DataError("covariance must be symmetric")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise DataError("covariance must be positive definite") from exc
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_chol", chol)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.transform(rng.standard_normal((n, self.mean.size)))

    def transform(self, z) -> np.ndarray:
        """Map standard normals of shape (..., n, d) to draws of this class."""
        return self.mean + z @ self._chol.T

    def log_density(self, features) -> np.ndarray:
        h = np.atleast_2d(np.asarray(features, dtype=float)) - self.mean
        chol = self._chol
        solved = np.linalg.solve(chol, h.T)
        quad = np.sum(solved**2, axis=0)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        d = self.mean.size
        return -0.5 * (quad + logdet + d * np.log(2.0 * np.pi))


@dataclass(frozen=True)
class GaussianSceneSpec:
    """Per-agent, per-class Gaussian models: ``models[k][label]``."""

    models: tuple
    classes: tuple

    def __post_init__(self):
        classes = tuple(self.classes)
        models = tuple(dict(per_agent) for per_agent in self.models)
        for k, per_agent in enumerate(models):
            missing = set(classes) - set(per_agent)
            if missing:
                raise DataError(f"agent {k} lacks models for classes {missing}")
        object.__setattr__(self, "models", models)
        object.__setattr__(self, "classes", classes)

    @property
    def n_agents(self) -> int:
        return len(self.models)

    def dimension(self, agent: int) -> int:
        return self.models[agent][self.classes[0]].mean.size


def gaussian_training_set(
    spec: GaussianSceneSpec, agent: int, per_class: int, seed
) -> LabeledDataset:
    """Balanced labeled draws, ``per_class`` samples for every class."""
    (rng,) = generators([seed])
    feats = []
    labels = []
    for label in spec.classes:
        feats.append(spec.models[agent][label].sample(rng, per_class))
        labels.extend([label] * per_class)
    dataset = LabeledDataset(np.vstack(feats), np.array(labels, dtype=object), spec.classes)
    order = rng.permutation(len(dataset))
    return LabeledDataset(dataset.features[order], dataset.labels[order], spec.classes)


def one_informative_gaussian_spec(
    n_agents: int = 4, informative: int = 1, dim: int = 2, variance_ratio: float = 1.5
) -> GaussianSceneSpec:
    """Binary scene where only one agent's class -1 covariance differs.

    Class +1 is standard normal for everyone; class -1 is standard normal
    scaled by ``variance_ratio`` at the informative agent and identical to
    class +1 elsewhere, so the other agents carry no class information.
    """
    base = GaussianClassModel(np.zeros(dim), np.eye(dim))
    wide = GaussianClassModel(np.zeros(dim), variance_ratio * np.eye(dim))
    models = []
    for k in range(n_agents):
        models.append({+1: base, -1: wide if k == informative else base})
    return GaussianSceneSpec(tuple(models), (+1, -1))


def mean_shift_gaussian_spec(
    n_agents: int, dim: int = 1, shift: float = 1.0
) -> GaussianSceneSpec:
    """Binary scene where every agent sees unit Gaussians at means +-shift."""
    plus = GaussianClassModel(np.full(dim, shift), np.eye(dim))
    minus = GaussianClassModel(np.full(dim, -shift), np.eye(dim))
    return GaussianSceneSpec(tuple({+1: plus, -1: minus} for _ in range(n_agents)), (+1, -1))


def two_class_log_likelihood(spec: GaussianSceneSpec, agent: int):
    """Evaluator returning (log p(h|+1), log p(h|-1)) for one agent."""
    if set(spec.classes) != {-1, +1}:
        raise DataError("likelihood pair is defined for classes {-1, +1}")
    plus = spec.models[agent][+1]
    minus = spec.models[agent][-1]
    return lambda h: (plus.log_density(h), minus.log_density(h))


def true_log_ratio(spec: GaussianSceneSpec, agent: int):
    """True log-likelihood-ratio statistic for one agent, +1 over -1."""
    pair = two_class_log_likelihood(spec, agent)

    def ratio(features):
        lp, lm = pair(features)
        return lp - lm

    return ratio


@dataclass(frozen=True)
class PatchLayout:
    """Grid partition of an image; agents read patches in row-major order.

    When the image size is not divisible by the grid, the last row/column of
    patches absorbs the remainder pixels.
    """

    height: int
    width: int
    rows: int
    cols: int

    def __post_init__(self):
        if min(self.height, self.width, self.rows, self.cols) < 1:
            raise DataError("layout dimensions must be positive")
        if self.rows > self.height or self.cols > self.width:
            raise DataError("grid is finer than the image")

    @property
    def n_agents(self) -> int:
        return self.rows * self.cols

    def _edges(self) -> tuple:
        row_step = self.height // self.rows
        col_step = self.width // self.cols
        row_edges = [r * row_step for r in range(self.rows)] + [self.height]
        col_edges = [c * col_step for c in range(self.cols)] + [self.width]
        return row_edges, col_edges

    def patch_slices(self, agent: int) -> tuple:
        row_edges, col_edges = self._edges()
        r, c = divmod(agent, self.cols)
        return (
            slice(row_edges[r], row_edges[r + 1]),
            slice(col_edges[c], col_edges[c + 1]),
        )

    def patch_shape(self, agent: int) -> tuple:
        rs, cs = self.patch_slices(agent)
        return (rs.stop - rs.start, cs.stop - cs.start)

    def view_dim(self, agent: int) -> int:
        shape = self.patch_shape(agent)
        return shape[0] * shape[1]


def scale_pixels(images) -> np.ndarray:
    """Map integer pixel values to [0, 1] by /255; floats pass through."""
    arr = np.asarray(images)
    if np.issubdtype(arr.dtype, np.integer):
        return arr / 255.0
    return arr.astype(float)


def split_patches(images, layout: PatchLayout) -> list:
    """Per-agent flattened views of a batch of images, scaled to [0, 1].

    Returns a list of (n, d_k) arrays in the layout's agent order; stacking
    the views back with ``reassemble_patches`` reproduces the scaled images
    exactly.
    """
    return _patches(scale_pixels(images), layout)


def _patches(arr: np.ndarray, layout: PatchLayout) -> list:
    """``split_patches`` on images that are already scaled."""
    single = arr.ndim == 2
    if single:
        arr = arr[None]
    if arr.shape[1:] != (layout.height, layout.width):
        raise DataError(f"images {arr.shape[1:]} vs layout {(layout.height, layout.width)}")
    views = []
    for agent in range(layout.n_agents):
        rs, cs = layout.patch_slices(agent)
        patch = arr[:, rs, cs].reshape(arr.shape[0], -1)
        views.append(patch[0] if single else patch)
    return views


def reassemble_patches(views, layout: PatchLayout) -> np.ndarray:
    """Invert ``split_patches`` on a batch of per-agent views."""
    first = np.atleast_2d(np.asarray(views[0], dtype=float))
    n = first.shape[0]
    out = np.empty((n, layout.height, layout.width))
    for agent in range(layout.n_agents):
        rs, cs = layout.patch_slices(agent)
        shape = layout.patch_shape(agent)
        patch = np.asarray(views[agent], dtype=float).reshape(n, *shape)
        out[:, rs, cs] = patch
    return out[0] if np.asarray(views[0]).ndim == 1 else out


@dataclass(frozen=True)
class PredictionStream:
    """Time-indexed per-agent features plus the true-state track."""

    features_per_agent: tuple  # K arrays of shape (S, T, d_k), one row per stream
    true_states: np.ndarray  # (T,) labels, shared by every stream of a batch


def prediction_streams(
    source, schedule: RegimeSchedule, length: int, seeds, layout: PatchLayout | None = None
) -> PredictionStream:
    """One stream per seed, each drawn one scene per step from the class the
    schedule puts in force; agent k's features have shape (S, T, d_k).

    ``source`` is either a ``GaussianSceneSpec`` (each agent gets a fresh
    draw from its own likelihood) or a mapping label -> image array, in which
    case one image per step is picked with replacement and split through
    ``layout``.  Draws are independent across steps, and stream s reads only
    its own generator ``generators(seeds)[s]``, so it is the same stream
    whatever batch it is drawn in.
    """
    states = schedule.states(length)
    rngs = generators(seeds)
    n_streams = len(rngs)
    # draws grouped by class in order of first appearance keep the stream
    # i.i.d. over time while staying seed-deterministic
    active = list(dict.fromkeys(states.tolist()))
    if isinstance(source, GaussianSceneSpec):
        dims = [source.dimension(k) for k in range(source.n_agents)]
        # a generator keeps no state between normal draws, so one draw per
        # stream, sliced in (class, agent) order, equals the per-block draws
        z = np.empty((n_streams, length * sum(dims)))
        for rng, row in zip(rngs, z):
            rng.standard_normal(out=row)
        views = [np.empty((n_streams, length, d)) for d in dims]
        offset = 0
        for label in active:
            idx = np.flatnonzero(states == label)
            for k, d in enumerate(dims):
                block = z[:, offset : offset + idx.size * d].reshape(n_streams, idx.size, d)
                views[k][:, idx] = source.models[k][label].transform(block)
                offset += idx.size * d
        return PredictionStream(tuple(views), states)
    if layout is None:
        raise DataError("image sources need a patch layout")
    for label in active:
        if label not in source:
            raise DataError(f"class {label!r} missing from the image source")
        if len(source[label]) == 0:
            raise DataError(f"class {label!r} has no images")
    # only the picked images are scaled, never a whole pool
    picks = np.empty((n_streams, length, layout.height, layout.width))
    for label in active:
        idx = np.flatnonzero(states == label)
        pool = np.asarray(source[label])
        chosen = np.stack([rng.integers(pool.shape[0], size=idx.size) for rng in rngs])
        picks[:, idx] = scale_pixels(pool[chosen])
    flat = _patches(picks.reshape(-1, layout.height, layout.width), layout)
    return PredictionStream(tuple(v.reshape(n_streams, length, -1) for v in flat), states)


# --- image file ingestion -------------------------------------------------

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def read_idx_images(path) -> np.ndarray:
    """Big-endian IDX image file -> uint8 array (n, rows, cols)."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16:
            raise DataError(f"{path}: truncated IDX header")
        magic, count, rows, cols = struct.unpack(">IIII", header)
        if magic != IDX_IMAGES_MAGIC:
            raise DataError(f"{path}: bad image magic 0x{magic:08x}")
        body = fh.read(count * rows * cols)
    if len(body) != count * rows * cols:
        raise DataError(f"{path}: truncated IDX image body")
    return np.frombuffer(body, dtype=np.uint8).reshape(count, rows, cols)


def read_idx_labels(path) -> np.ndarray:
    """Big-endian IDX label file -> uint8 array (n,)."""
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise DataError(f"{path}: truncated IDX header")
        magic, count = struct.unpack(">II", header)
        if magic != IDX_LABELS_MAGIC:
            raise DataError(f"{path}: bad label magic 0x{magic:08x}")
        body = fh.read(count)
    if len(body) != count:
        raise DataError(f"{path}: truncated IDX label body")
    return np.frombuffer(body, dtype=np.uint8)


def read_label_pixel_csv(path, height: int, width: int) -> tuple:
    """CSV fallback ``label,p0,...,pN`` -> (images uint-valued, labels)."""
    rows = np.loadtxt(path, delimiter=",", ndmin=2)
    if rows.shape[1] != height * width + 1:
        raise DataError(
            f"{path}: {rows.shape[1]} columns, expected {height * width + 1}"
        )
    if not np.array_equal(rows[:, 0], np.round(rows[:, 0])):
        raise DataError(f"{path}: label column (column 0) holds non-integer values")
    labels = rows[:, 0].astype(int)
    images = rows[:, 1:].reshape(-1, height, width)
    return images, labels


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def verify_manifest(manifest_path) -> list:
    """Check SHA-256 entries of a dataset manifest; returns failures.

    The manifest is JSON with a ``files`` map of name -> {path, sha256};
    relative paths resolve against the manifest location.
    """
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    base = os.path.dirname(os.path.abspath(manifest_path))
    failures = []
    for name, entry in manifest.get("files", {}).items():
        path = entry["path"]
        if not os.path.isabs(path):
            path = os.path.join(base, path)
        if not os.path.exists(path):
            failures.append(f"{name}: missing file {path}")
            continue
        actual = file_sha256(path)
        if actual != entry["sha256"]:
            failures.append(f"{name}: sha256 {actual} != expected {entry['sha256']}")
    return failures
