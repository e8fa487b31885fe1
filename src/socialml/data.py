"""Feature generation and ingestion.

Synthetic scenes are class-conditional Gaussians, one distribution per agent
and class.  Image scenes are split into a grid of patches, one patch per
agent, so every agent observes a different slice of the same picture, as its
uint8 pixels; the models scale them as they read them.  Both
sources drive balanced training sets and regime-switching prediction streams,
each drawn from the one generator it is handed.
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
    """Per-agent, per-class Gaussian models: ``models[k][j]`` is agent k's
    model under class index j.  Every agent has one model per class."""

    models: tuple

    def __post_init__(self):
        models = tuple(tuple(per_agent) for per_agent in self.models)
        if len({len(per_agent) for per_agent in models}) != 1:
            raise DataError("every agent needs one model per class")
        object.__setattr__(self, "models", models)

    @property
    def n_agents(self) -> int:
        return len(self.models)

    @property
    def n_classes(self) -> int:
        return len(self.models[0])

    def dimension(self, agent: int) -> int:
        return self.models[agent][0].mean.size


def true_log_ratio(spec: GaussianSceneSpec, agent: int):
    """True log-likelihood-ratio statistic for one agent, class 0 over class 1."""
    if spec.n_classes != 2:
        raise DataError("likelihood pair is defined for two classes")
    first, second = spec.models[agent]
    return lambda features: first.log_density(features) - second.log_density(features)


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


class ImageSource(Record):
    """An image scene: ``images``, an array of uint8 images or an
    ``IdxImages`` reader; ``rows[j]``, the indices of class j's images in
    it, in class order; and the patch ``layout`` that splits each image
    into the agents' views."""

    images: object
    rows: tuple
    layout: PatchLayout

    @property
    def n_classes(self) -> int:
        return len(self.rows)

    def dimension(self, agent: int) -> int:
        return self.layout.view_dim(agent)


def split_patches(images, layout: PatchLayout) -> list:
    """Per-agent flattened views of one image or a batch, in the images'
    own type: uint8 pixels stay one byte each.

    Returns a list of (n, d_k) arrays, or (d_k,) for one image, in the
    layout's agent order.  The models read uint8 views as intensities
    scaled to [0, 1] when they copy them into their inputs
    (``mlp._augment``), so no scaled copy of a view is ever held.
    """
    arr = np.asarray(images)
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


def training_scene(source, per_class: int, rng) -> tuple:
    """One balanced training scene, ``per_class`` rows of every class, drawn
    from the generator ``rng``: ``(views, labels)``.

    ``labels`` holds the rows' class indices in shuffled order, one scene for
    the whole network, and ``views[k]`` agent k's (N, d_k) features of each
    row: a float draw from its own Gaussian model, or the uint8 pixels of its
    patch of an image picked from the class's rows without replacement.
    ``source`` is as in ``prediction_streams``; an image class must hold
    ``per_class`` rows.
    """
    labels = np.repeat(np.arange(source.n_classes), per_class)
    labels = labels[rng.permutation(labels.size)]
    if isinstance(source, GaussianSceneSpec):
        views = []
        for per_agent in source.models:
            view = np.empty((labels.size, per_agent[0].mean.size))
            for j, model in enumerate(per_agent):
                idx = np.flatnonzero(labels == j)
                view[idx] = model.sample(rng, idx.size)
            views.append(view)
        return views, labels
    chosen = np.empty(labels.size, np.intp)
    for j, class_rows in enumerate(source.rows):
        idx = np.flatnonzero(labels == j)
        chosen[idx] = class_rows[rng.choice(class_rows.size, size=idx.size, replace=False)]
    # one read of the picked images, split into uint8 patches
    return split_patches(source.images[chosen], source.layout), labels


def prediction_streams(source, states, n_streams: int, rng) -> list:
    """``n_streams`` streams over the class-index track ``states``, each
    drawn one scene per step from the class the track puts in force, all
    from the generator ``rng``.

    Returns ``views``: ``views[k]`` holds agent k's features, shape
    (S, T, d_k) with one row per stream, where T is the length of
    ``states``, the track every stream of the batch shares.

    ``source`` is either a ``GaussianSceneSpec`` (each agent gets a fresh
    draw from its own likelihood) or an ``ImageSource``: one image per step
    is then picked with replacement from the class's rows and split, and
    the views hold its raw uint8 pixels, which the models scale as they
    read them.  One draw of shape (S, T, ...), stream after stream, feeds
    every stream: a batch begins with any smaller batch drawn from the same
    generator state, and equals its streams drawn in consecutive groups.
    With one stream the draw is a time series, so a stream can be drawn in
    time blocks: calls over consecutive pieces of a track give the bits of
    one call over the whole track.  A state that is no class index of the
    source, or an image class without rows, raises ``DataError`` naming it.
    """
    states = np.asarray(states, dtype=np.intp)
    length = states.size
    active = sorted(set(states.tolist()))
    for j in active:
        # a negative index would pick a class from the end of the list
        if not 0 <= j < source.n_classes:
            raise DataError(f"schedule state {j} is not a class index of the source")
    if isinstance(source, GaussianSceneSpec):
        dims = [source.dimension(k) for k in range(source.n_agents)]
        # agent k reads its own columns of every step's standard normals
        z = rng.standard_normal((n_streams, length, sum(dims)))
        blocks = np.split(z, np.cumsum(dims)[:-1], axis=2)
        views = [np.empty((n_streams, length, d)) for d in dims]
        for j in active:
            idx = np.flatnonzero(states == j)
            # a lone step would take BLAS's matrix-vector path, whose last
            # bits differ from the matrix product a longer stream takes
            steps = np.resize(idx, max(idx.size, 2))
            for view, block, per_agent in zip(views, blocks, source.models):
                view[:, idx] = per_agent[j].transform(block[:, steps])[:, : idx.size]
        return views
    sizes = np.array([len(rows) for rows in source.rows])
    for j in active:
        if sizes[j] == 0:
            raise DataError(f"class {j} has no images in the image source")
    picks = rng.integers(0, sizes[states], size=(n_streams, length))
    # pick i of class j is row i of class j's rows in the concatenation
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    chosen = np.concatenate(source.rows)[starts[states] + picks]
    # one read of the picked images, split into uint8 patches
    flat = split_patches(source.images[chosen.reshape(-1)], source.layout)
    return [v.reshape(n_streams, length, -1) for v in flat]


# --- image file ingestion -------------------------------------------------

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
IDX_IMAGES_HEADER = 16  # bytes before the first image
# An IDX image draw reads spans of picked rows into a scratch window.  A span
# bridges gaps of at most IDX_GAP_BYTES unpicked bytes, as one more read costs
# about as much as copying 16 KB, and lies in one aligned IDX_WINDOW_BYTES of
# the file, the scratch's size, so a draw holds no more of the file than
# that.  Of 12,000 28x28 images (one vCPU, numpy 2.4.6), 4,000 picks of one
# class took 5.7 ms with no gap bridged (2,217 reads), 2.4 ms with 4 KiB gaps
# (559) and 1.9 ms with 16 KiB (46 reads, 9.1 MB of the file's 9.4); 160
# picks took 0.31-0.34 ms with each of these, and 0.50 ms with 64 KiB gaps.
# With 16 KiB gaps, 64 KiB windows took 3.1 ms on the 4,000 picks, 1 MiB 2.0.
IDX_GAP_BYTES = 1 << 14
IDX_WINDOW_BYTES = 1 << 18
# Lines per parsed block of a label-pixel CSV.  A block is parsed as
# float64, 8 bytes per one-byte pixel: 128 lines of 28x28 images take 0.8 MB.
# Reading 5,000 such lines, 2 of 4 labels kept (1.97 MB), took 0.32-0.35 s at
# 64 to 512 lines a block, and its traced peak was 2.4 MB at 128 lines and
# 3.7 MB at 256 (numpy 2.4.6).
IMAGE_BLOCK_ROWS = 128


def _idx_header(fh, path, magic: int, kind: str) -> tuple:
    """The fields after the magic number of an IDX file's header."""
    size = IDX_IMAGES_HEADER if magic == IDX_IMAGES_MAGIC else 8
    header = fh.read(size)
    if len(header) != size:
        raise DataError(f"{path}: truncated IDX header")
    found, *fields = struct.unpack(f">{size // 4}I", header)
    if found != magic:
        raise DataError(f"{path}: bad {kind} magic 0x{found:08x}")
    return fields


class IdxImages(Record):
    """The body of an IDX image file, read on demand: ``path`` and the
    ``shape`` (n, rows, cols) of its uint8 images.

    Indexing with an integer array of any shape, each entry a row in
    [0, n), duplicates included, returns a new array of the picked images,
    of the index's shape followed by (rows, cols), as a fancy index of the
    whole array would.  Each call opens the file, reads the picked rows in
    file order, nearby ones in one read, and closes it: only the picked
    images and one scratch window are held, and no descriptor outlives the
    call.  A file that has shrunk since it was validated raises
    ``DataError`` naming it.  ``np.asarray`` reads every row.  The images
    cannot be assigned to.
    """

    path: str
    shape: tuple
    dtype = np.dtype(np.uint8)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, index) -> np.ndarray:
        index = np.asarray(index)
        if index.dtype.kind not in "iu":
            raise IndexError(f"IDX images take integer row indices, got {index.dtype}")
        n, height, width = self.shape
        # as intp: a narrow index type would wrap in the span arithmetic
        flat = index.astype(np.intp).ravel()
        order = np.argsort(flat)
        rows = flat[order]
        if rows.size and not (0 <= rows[0] and rows[-1] < n):
            raise IndexError(f"row indices must lie in [0, {n})")
        picked = np.empty((rows.size, height * width), self.dtype)
        if rows.size:
            self._read(rows, order, picked)
        return picked.reshape(*index.shape, height, width)

    def _read(self, rows, order, picked) -> None:
        """Fill ``picked[order[i]]`` with image ``rows[i]``, ``rows`` sorted.

        A span of rows from one aligned window of the file, whose gaps hold at
        most ``IDX_GAP_BYTES``, is one read into a scratch window, and the
        rows read go to their places whenever the next span would not fit.
        """
        size = picked.shape[1]
        window = max(1, IDX_WINDOW_BYTES // size)
        steps = rows[1:] - rows[:-1]
        cut = (steps > IDX_GAP_BYTES // size + 1) | (rows[1:] // window != rows[:-1] // window)
        # each pick's row among the spans' rows laid back to back
        steps[cut] = 1
        places = np.concatenate(([0], np.cumsum(steps)))
        heads = np.concatenate(([0], np.flatnonzero(cut) + 1))
        offsets = (IDX_IMAGES_HEADER + rows[heads] * size).tolist()
        bounds = (np.append(places[heads], places[-1] + 1) * size).tolist()
        scratch = np.empty((min(window, places[-1] + 1), size), self.dtype)
        buffer = memoryview(scratch.reshape(-1))
        room = scratch.nbytes
        base = done = 0  # the byte of the spans at scratch[0]; picks placed so far
        with open(self.path, "rb", buffering=0) as fh:
            for offset, lo, hi in zip(offsets, bounds, bounds[1:]):
                if hi - base > room:
                    stop = np.searchsorted(places, lo // size)
                    picked[order[done:stop]] = scratch[places[done:stop] - base // size]
                    base, done = lo, stop
                fh.seek(offset)
                if fh.readinto(buffer[lo - base : hi - base]) != hi - lo:
                    raise DataError(f"{self.path}: truncated IDX image body")
        picked[order[done:]] = scratch[places[done:] - base // size]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        images = self[np.arange(len(self))]
        return images if dtype is None else images.astype(dtype)


def read_idx_images(path) -> IdxImages:
    """Big-endian IDX image file -> its ``IdxImages`` reader.

    The header and the body's length are checked here, and no image is
    read: a draw reads the rows it picks.
    """
    with open(path, "rb") as fh:
        count, rows, cols = _idx_header(fh, path, IDX_IMAGES_MAGIC, "image")
        if os.fstat(fh.fileno()).st_size - IDX_IMAGES_HEADER < count * rows * cols:
            raise DataError(f"{path}: truncated IDX image body")
    return IdxImages(str(path), (count, rows, cols))


def read_idx_labels(path) -> np.ndarray:
    """Big-endian IDX label file -> uint8 array (n,)."""
    with open(path, "rb") as fh:
        (count,) = _idx_header(fh, path, IDX_LABELS_MAGIC, "label")
        body = fh.read(count)
    if len(body) != count:
        raise DataError(f"{path}: truncated IDX label body")
    return np.frombuffer(body, dtype=np.uint8)


def read_label_pixel_csv(path, height: int, width: int, keep=None) -> tuple:
    """CSV fallback ``label,p0,...,pN`` -> (uint8 images, labels).

    Pixels are integers in [0, 255], as in an IDX file, so both formats give
    the models the same uint8 views.  Every row is checked, and those whose
    label is in ``keep`` (all of them by default) are returned in file order.
    The file is parsed ``IMAGE_BLOCK_ROWS`` lines at a time, so only one block
    is ever held as float64, and the kept pixels of each block are appended to
    one buffer, which the result reads in place.
    """
    pixels, labels = bytearray(), []
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
            # the cast changes every pixel that is not an integer in [0, 255], NaN too
            with np.errstate(invalid="ignore"):
                block = rows[:, 1:].astype(np.uint8)
            if not np.array_equal(block, rows[:, 1:]):
                raise DataError(
                    f"{path}: pixel columns hold values that are not integers in [0, 255]"
                )
            block_labels = rows[:, 0].astype(int)
            kept = slice(None) if keep is None else np.isin(block_labels, keep)
            labels.append(block_labels[kept])
            pixels += block[kept].tobytes()
            # freed before the next block is read and parsed
            del lines, rows, block
    if not labels:
        raise DataError(f"{path}: no data rows")
    return np.frombuffer(pixels, np.uint8).reshape(-1, height, width), np.concatenate(labels)


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
