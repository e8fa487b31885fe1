"""Feature generation and ingestion.

Synthetic scenes are class-conditional Gaussians, one distribution per agent
and class.  Image scenes are split into a grid of patches, one patch per
agent, so every agent observes a different slice of the same picture.  Both
sources drive balanced training sets and regime-switching prediction streams
that are deterministic given their seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import struct
import warnings

import numpy as np

from .base import Record, ValidationError
from .seeds import generators
from .social import RegimeSchedule


class DataError(ValidationError):
    """Invalid data specification or file content."""


class GaussianClassModel(Record):
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


class GaussianSceneSpec(Record):
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


def gaussian_training_set(spec: GaussianSceneSpec, agent: int, per_class: int, seed) -> tuple:
    """Balanced labeled draws, ``per_class`` samples for every class:
    ``(features, labels)``, each label an index into ``spec.classes``."""
    (rng,) = generators([seed])
    feats = np.vstack([spec.models[agent][label].sample(rng, per_class) for label in spec.classes])
    order = rng.permutation(feats.shape[0])
    return feats[order], np.repeat(np.arange(len(spec.classes)), per_class)[order]


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


def true_log_ratio(spec: GaussianSceneSpec, agent: int):
    """True log-likelihood-ratio statistic for one agent, +1 over -1."""
    if set(spec.classes) != {-1, +1}:
        raise DataError("likelihood pair is defined for classes {-1, +1}")
    plus, minus = spec.models[agent][+1], spec.models[agent][-1]
    return lambda features: plus.log_density(features) - minus.log_density(features)


class PatchLayout(Record):
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
    exactly.  Each patch is scaled on its own, so no scaled copy of the
    whole batch is ever held.
    """
    return [scale_pixels(view) for view in _patches(np.asarray(images), layout)]


def _patches(arr: np.ndarray, layout: PatchLayout) -> list:
    """``split_patches`` without the scaling."""
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


def prediction_streams(
    source, schedule: RegimeSchedule, length: int, seeds, layout: PatchLayout | None = None
) -> tuple:
    """One stream per seed, each drawn one scene per step from the class the
    schedule puts in force.

    Returns ``(views, states)``: ``views[k]`` holds agent k's features, shape
    (S, T, d_k) with one row per stream, and ``states`` the (T,) true
    class-index track that every stream of the batch shares.

    ``source`` is either a ``GaussianSceneSpec`` (each agent gets a fresh
    draw from its own likelihood) or the image arrays of the classes in class
    order, in which case one image per step is picked with replacement and
    split through ``layout``.  Draws are independent across steps, and stream
    s reads only its own generator ``generators(seeds)[s]``, so it is the
    same stream whatever batch it is drawn in.  A state that is no class
    index of the source raises ``DataError`` naming it.
    """
    states = schedule.states(length)
    rngs = generators(seeds)
    n_streams = len(rngs)
    # draws grouped by class in order of first appearance keep the stream
    # i.i.d. over time while staying seed-deterministic
    active = list(dict.fromkeys(states.tolist()))
    gaussian = isinstance(source, GaussianSceneSpec)
    for j in active:
        # a negative index would pick a class from the end of the list
        if j < 0 or (gaussian and j >= len(source.classes)):
            raise DataError(f"schedule state {j} is not a class index of the source")
    if gaussian:
        dims = [source.dimension(k) for k in range(source.n_agents)]
        # a generator keeps no state between normal draws, so one draw per
        # stream, sliced in (class, agent) order, equals the per-block draws
        z = np.empty((n_streams, length * sum(dims)))
        for rng, row in zip(rngs, z):
            rng.standard_normal(out=row)
        views = [np.empty((n_streams, length, d)) for d in dims]
        offset = 0
        for j in active:
            idx = np.flatnonzero(states == j)
            for k, d in enumerate(dims):
                block = z[:, offset : offset + idx.size * d].reshape(n_streams, idx.size, d)
                views[k][:, idx] = source.models[k][source.classes[j]].transform(block)
                offset += idx.size * d
        return views, states
    if layout is None:
        raise DataError("image sources need a patch layout")
    for j in active:
        if j >= len(source) or len(source[j]) == 0:
            raise DataError(f"class {j} has no images in the image source")
    # only the picked images are scaled, never a whole pool
    picks = np.empty((n_streams, length, layout.height, layout.width))
    for j in active:
        idx = np.flatnonzero(states == j)
        pool = np.asarray(source[j])
        chosen = np.stack([rng.integers(pool.shape[0], size=idx.size) for rng in rngs])
        picks[:, idx] = scale_pixels(pool[chosen])
    flat = _patches(picks.reshape(-1, layout.height, layout.width), layout)
    return [v.reshape(n_streams, length, -1) for v in flat], states


# --- image file ingestion -------------------------------------------------

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
# Images per block of an image file: an IDX body is read, and a label-pixel
# CSV parsed, this many rows at a time.  A CSV block is parsed as float64, 8
# bytes per one-byte pixel: 256 lines of 28x28 images take 1.6 MB; an IDX
# block of them takes 200 KB.
IMAGE_BLOCK_ROWS = 256


def class_positions(labels, raw_labels) -> tuple:
    """Where each labelled row goes in one class-sorted array.

    Returns ``(positions, counts)``.  The array holds the rows labelled
    ``raw_labels[0]``, then those labelled ``raw_labels[1]``, and so on, each
    class in file order; row i goes to ``positions[i]``, or nowhere (-1) when
    its label is not listed.  ``counts[c]`` is the number of rows labelled
    ``raw_labels[c]``.  The raw labels must be distinct.
    """
    labels = np.asarray(labels)
    # unlisted rows take the class after the last, so they sort to the end
    which = np.full(labels.shape, len(raw_labels))
    for c, raw in enumerate(raw_labels):
        which[labels == raw] = c
    counts = np.bincount(which, minlength=len(raw_labels) + 1)[:-1]
    order = np.argsort(which, kind="stable")[: counts.sum()]
    positions = np.full(labels.shape, -1, dtype=np.intp)
    positions[order] = np.arange(order.size)
    return positions, counts


def _idx_header(fh, path, magic: int, kind: str) -> tuple:
    """The fields after the magic number of an IDX file's header."""
    size = 16 if magic == IDX_IMAGES_MAGIC else 8
    header = fh.read(size)
    if len(header) != size:
        raise DataError(f"{path}: truncated IDX header")
    found, *fields = struct.unpack(f">{size // 4}I", header)
    if found != magic:
        raise DataError(f"{path}: bad {kind} magic 0x{found:08x}")
    return fields


def read_idx_images(path, positions, labels_path) -> np.ndarray:
    """Big-endian IDX image file -> uint8 array (kept rows, rows, cols).

    Image i goes to row ``positions[i]`` of the result, and an image whose
    position is negative is never kept.  ``positions`` holds one entry per
    image, from the label file ``labels_path``, which a count mismatch names.
    The body is read ``IMAGE_BLOCK_ROWS`` images at a time into one reused
    buffer, so besides the result only one block is held.
    """
    with open(path, "rb") as fh:
        count, rows, cols = _idx_header(fh, path, IDX_IMAGES_MAGIC, "image")
        # the header's sizes are checked against the file before any is allocated
        if os.fstat(fh.fileno()).st_size - 16 < count * rows * cols:
            raise DataError(f"{path}: truncated IDX image body")
        if len(positions) != count:
            raise DataError(
                f"{labels_path} holds {len(positions)} labels but {path} holds {count} images"
            )
        out = np.empty((int(np.count_nonzero(positions >= 0)), rows, cols), dtype=np.uint8)
        buffer = np.empty((min(count, IMAGE_BLOCK_ROWS), rows, cols), dtype=np.uint8)
        for start in range(0, count, IMAGE_BLOCK_ROWS):
            block = buffer[: min(IMAGE_BLOCK_ROWS, count - start)]
            if fh.readinto(block) != block.nbytes:
                raise DataError(f"{path}: truncated IDX image body")
            dest = positions[start : start + len(block)]
            kept = dest >= 0
            out[dest[kept]] = block[kept]
    return out


def read_idx_labels(path) -> np.ndarray:
    """Big-endian IDX label file -> uint8 array (n,)."""
    with open(path, "rb") as fh:
        (count,) = _idx_header(fh, path, IDX_LABELS_MAGIC, "label")
        body = fh.read(count)
    if len(body) != count:
        raise DataError(f"{path}: truncated IDX label body")
    return np.frombuffer(body, dtype=np.uint8)


def read_label_pixel_csv(path, height: int, width: int) -> tuple:
    """CSV fallback ``label,p0,...,pN`` -> (uint8 images, labels).

    Pixels are integers in [0, 255], as in an IDX file, so both formats give
    the models the same scaled inputs.  The file is parsed ``IMAGE_BLOCK_ROWS``
    lines at a time, so only one block is ever held as float64.
    """
    images, labels = [], []
    with open(path) as fh:
        while lines := list(itertools.islice(fh, IMAGE_BLOCK_ROWS)):
            with warnings.catch_warnings():
                # a block of comment or blank lines holds no rows
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(lines, delimiter=",", ndmin=2)
            if rows.shape[0] == 0:
                continue
            if rows.shape[1] != height * width + 1:
                raise DataError(
                    f"{path}: {rows.shape[1]} columns, expected {height * width + 1}"
                )
            if not np.array_equal(rows[:, 0], np.round(rows[:, 0])):
                raise DataError(f"{path}: label column (column 0) holds non-integer values")
            labels.append(rows[:, 0].astype(int))
            # the cast changes every pixel that is not an integer in [0, 255], NaN too
            with np.errstate(invalid="ignore"):
                images.append(rows[:, 1:].astype(np.uint8))
            if not np.array_equal(images[-1], rows[:, 1:]):
                raise DataError(
                    f"{path}: pixel columns hold values that are not integers in [0, 255]"
                )
    if not images:
        raise DataError(f"{path}: no data rows")
    return np.concatenate(images).reshape(-1, height, width), np.concatenate(labels)


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# the manifest entries each dataset format reads
FORMAT_FILES = {"idx": ("images", "labels"), "csv": ("data",)}


def read_manifest(path) -> dict:
    """The dataset manifest at ``path``, ``{"format": ..., "files": {name:
    {"path": ..., "sha256": ...}}}``, with every path resolved against its
    directory.  ``format`` may be left out by a checksum-only manifest; a
    given one must be a key of ``FORMAT_FILES`` whose files are listed and
    exist.  A bad field raises ``DataError`` naming it and the file."""
    where = f"dataset manifest {path}"
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DataError(f"{where} is not a readable JSON file: {exc}") from None
    files = manifest.get("files") if isinstance(manifest, dict) else None
    if not isinstance(files, dict):
        raise DataError(f"{where}: files must be an object of name -> {{path, sha256}}")
    for name, entry in files.items():
        if not isinstance(entry, dict) or not isinstance(entry.get("path"), str):
            raise DataError(f"{where}: files.{name}.path must be a string")
        entry["path"] = os.path.join(os.path.dirname(os.path.abspath(path)), entry["path"])
    fmt = manifest.setdefault("format", None)
    if fmt is not None and fmt not in FORMAT_FILES:
        raise DataError(f"{where}: unknown dataset format {fmt!r}")
    for name in FORMAT_FILES.get(fmt, ()):
        if name not in files:
            raise DataError(f"{where}: files.{name} is missing; format {fmt!r} reads it")
        if not os.path.exists(files[name]["path"]):
            raise DataError(f"{where}: files.{name}.path: no file {files[name]['path']}")
    return manifest


def verify_manifest(manifest_path) -> list:
    """Check the ``sha256`` entry that every file of a dataset manifest must
    carry; returns the failures."""
    failures = []
    for name, entry in read_manifest(manifest_path)["files"].items():
        if not isinstance(entry.get("sha256"), str):
            raise DataError(f"dataset manifest {manifest_path}: files.{name}.sha256 is missing")
        path = entry["path"]
        if not os.path.exists(path):
            failures.append(f"{name}: missing file {path}")
        elif (actual := file_sha256(path)) != entry["sha256"]:
            failures.append(f"{name}: sha256 {actual} != expected {entry['sha256']}")
    return failures
