"""Experiment configuration: JSON schema, validation, and seed discipline.

All randomness in an experiment descends from one master seed.  Derived
seeds are produced by feeding ``(master, phase, *indices)`` into a seed
sequence, where ``phase`` is a fixed small integer naming the consumer
(training data, model init, streams, ...).  Because every consumer owns a
distinct path, adding replications or agents never perturbs the draws of
existing ones.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import data as data_mod
from .data import DataError, GaussianClassModel, GaussianSceneSpec, PatchLayout
from .graph import (
    CombinationMatrix,
    build_averaging_matrix,
    directed_ring_adjacency,
    grid_adjacency,
    load_combination_matrix,
)
from .mlp import MLPArchitecture, TrainingHyperparameters


class ConfigError(ValueError):
    """Configuration fails schema validation."""


# phase codes for derived seeds
PHASE_TRAIN_DATA = 0
PHASE_TRAIN_MODEL = 1
PHASE_BOOST_MODEL = 2
PHASE_STREAM = 3
PHASE_SAMPLER = 4


def derived_seed(master: int, phase: int, *indices) -> int:
    """Stable 64-bit seed for one consumer of the master seed."""
    entropy = [int(master), int(phase), *[int(i) for i in indices]]
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


def config_digest(raw: dict) -> str:
    """SHA-256 of the canonical JSON form of the validated configuration."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict = field(repr=False)
    base_dir: str
    seed: int
    classes: tuple
    engine: str
    delta: float | None
    matrix: CombinationMatrix
    arch_by_agent: tuple
    hyper: TrainingHyperparameters
    repetitions: int
    train_per_class: int
    schedule_spec: dict
    stream_length: int
    montecarlo: dict
    theory: dict
    data_spec: dict

    @property
    def digest(self) -> str:
        return config_digest(self.raw)

    @property
    def n_agents(self) -> int:
        return self.matrix.size

    @functools.cached_property
    def scene(self) -> tuple:
        """The data source, built once per config: (gaussian spec, None) or
        (label -> image pool, patch layout)."""
        if self.data_spec["type"] == "gaussian":
            return build_gaussian_spec(self.data_spec, self.classes), None
        return _image_pools(self), image_layout(self.data_spec)


def _require(raw: dict, key: str, kind=None):
    if key not in raw:
        raise ConfigError(f"missing required key {key!r}")
    value = raw[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"key {key!r} must be {kind}, got {type(value)}")
    return value


def _build_matrix(spec: dict, base_dir: str) -> CombinationMatrix:
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError("graph spec must be one of ring/grid/file/matrix")
    kind, value = next(iter(spec.items()))
    if kind == "ring":
        return build_averaging_matrix(directed_ring_adjacency(int(value)))
    if kind == "grid":
        rows, cols = value
        return build_averaging_matrix(grid_adjacency(int(rows), int(cols)))
    if kind == "file":
        path = value if os.path.isabs(value) else os.path.join(base_dir, value)
        if not os.path.exists(path):
            raise ConfigError(f"graph file not found: {path}")
        return load_combination_matrix(path)
    if kind == "matrix":
        return CombinationMatrix(np.asarray(value, dtype=float))
    raise ConfigError(f"unknown graph spec {kind!r}")


def _feature_dims(data_spec: dict, classes, n_agents: int) -> list:
    if data_spec["type"] == "gaussian":
        spec = build_gaussian_spec(data_spec, classes)
        if spec.n_agents != n_agents:
            raise ConfigError(
                f"data describes {spec.n_agents} agents, graph has {n_agents}"
            )
        return [spec.dimension(k) for k in range(n_agents)]
    layout = image_layout(data_spec)
    if layout.n_agents != n_agents:
        raise ConfigError(f"layout has {layout.n_agents} patches, graph {n_agents} agents")
    return [layout.view_dim(k) for k in range(n_agents)]


def build_gaussian_spec(data_spec: dict, classes) -> GaussianSceneSpec:
    """Gaussian scene from the JSON block; class keys are stringified labels."""
    agents = data_spec.get("agents")
    if not agents:
        raise ConfigError("gaussian data needs an 'agents' list")
    models = []
    for k, per_agent in enumerate(agents):
        table = {}
        for label in classes:
            entry = per_agent.get(str(label))
            if entry is None:
                raise ConfigError(f"agent {k}: no gaussian block for class {label!r}")
            try:
                table[label] = GaussianClassModel(entry["mean"], entry["cov"])
            except (KeyError, DataError) as exc:
                raise ConfigError(f"agent {k}, class {label!r}: {exc}") from exc
        models.append(table)
    return GaussianSceneSpec(tuple(models), tuple(classes))


def image_layout(data_spec: dict) -> PatchLayout:
    rows, cols = data_spec["layout"]
    return PatchLayout(
        int(data_spec["height"]), int(data_spec["width"]), int(rows), int(cols)
    )


def _image_pools(cfg: ExperimentConfig) -> dict:
    """label -> image array (uint-valued), read from the dataset manifest."""
    manifest_rel = cfg.data_spec["manifest"]
    manifest_path = (
        manifest_rel
        if os.path.isabs(manifest_rel)
        else os.path.join(cfg.base_dir, manifest_rel)
    )
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    base = os.path.dirname(os.path.abspath(manifest_path))

    def _resolve(name):
        path = manifest["files"][name]["path"]
        return path if os.path.isabs(path) else os.path.join(base, path)

    height, width = int(cfg.data_spec["height"]), int(cfg.data_spec["width"])
    if manifest.get("format") == "idx":
        images = data_mod.read_idx_images(_resolve("images"))
        labels = data_mod.read_idx_labels(_resolve("labels"))
    elif manifest.get("format") == "csv":
        images, labels = data_mod.read_label_pixel_csv(_resolve("data"), height, width)
    else:
        raise ConfigError(f"unknown dataset format {manifest.get('format')!r}")
    if images.shape[1:] != (height, width):
        raise ConfigError(f"images {images.shape[1:]} vs config {(height, width)}")
    # optional class -> raw-label map, e.g. {"1": 0, "-1": 1} for digit pairs
    label_map = cfg.data_spec.get("label_map", {})
    pools = {}
    for label in cfg.classes:
        raw = label_map.get(str(label), label)
        mask = labels == raw
        if not np.any(mask):
            raise ConfigError(f"class {label!r} (raw label {raw!r}) absent from the dataset")
        pools[label] = images[mask]
    return pools


def gaussian_spec_to_json(spec: GaussianSceneSpec) -> dict:
    agents = []
    for per_agent in spec.models:
        agents.append(
            {
                str(label): {
                    "mean": per_agent[label].mean.tolist(),
                    "cov": per_agent[label].cov.tolist(),
                }
                for label in spec.classes
            }
        )
    return {"type": "gaussian", "agents": agents}


def load_config(path) -> ExperimentConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return validate_config(raw, os.path.dirname(os.path.abspath(path)))


def _validate_montecarlo(block, stream_length: int, n_agents: int) -> dict:
    """The ``montecarlo`` block with its defaults filled in."""
    if not isinstance(block, dict):
        raise ConfigError("montecarlo must be an object")
    mc = {
        "replications": 1,
        "eval_streams": 1,
        "horizon": stream_length or 1,
        "observe_agent": 0,
        "strategies": ["sml", "adaboost"],
        **block,
    }
    for key in ("replications", "eval_streams", "horizon", "observe_agent"):
        value = mc[key]
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"montecarlo.{key} must be an integer, got {value!r}")
        if key != "observe_agent" and value < 1:
            raise ConfigError(f"montecarlo.{key} must be at least 1, got {value}")
    if not 0 <= mc["observe_agent"] < n_agents:
        raise ConfigError(
            f"montecarlo.observe_agent {mc['observe_agent']} out of range for {n_agents} agents"
        )
    strategies = mc["strategies"]
    if not isinstance(strategies, list) or not strategies:
        raise ConfigError(f"montecarlo.strategies must be a non-empty list, got {strategies!r}")
    unknown = [s for s in strategies if s not in ("sml", "adaboost")]
    if unknown or len(set(strategies)) != len(strategies):
        raise ConfigError(
            f"montecarlo.strategies must list distinct names from 'sml', 'adaboost', "
            f"got {strategies!r}"
        )
    return mc


def validate_config(raw: dict, base_dir: str = ".") -> ExperimentConfig:
    seed = _require(raw, "seed", int)
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    classes = tuple(_require(raw, "classes", list))
    for label in classes:
        # labels are written unquoted into CSV fields
        if isinstance(label, bool) or not (
            isinstance(label, int)
            or (isinstance(label, str) and not any(c in label for c in ',"\n\r'))
        ):
            raise ConfigError(
                "classes must be integers or strings without ',', '\"' or line breaks, "
                f"got {label!r}"
            )
    if len(classes) < 2 or len(set(classes)) != len(classes):
        raise ConfigError("classes must list at least two distinct labels")

    engine = _require(raw, "engine", str)
    if engine not in ("sl", "asl"):
        raise ConfigError(f"engine must be 'sl' or 'asl', got {engine!r}")
    delta = raw.get("delta")
    if engine == "asl":
        if delta is None:
            raise ConfigError("adaptive engine needs 'delta'")
        if not 0.0 < float(delta) < 1.0:
            raise ConfigError("delta must lie strictly in (0, 1)")
        delta = float(delta)
    elif delta is not None:
        raise ConfigError("'delta' is only valid with engine 'asl'")

    matrix = _build_matrix(_require(raw, "graph", dict), base_dir)

    data_spec = _require(raw, "data", dict)
    if data_spec.get("type") not in ("gaussian", "images"):
        raise ConfigError("data type must be 'gaussian' or 'images'")
    if data_spec["type"] == "images":
        manifest = data_spec.get("manifest")
        if manifest is None:
            raise ConfigError("image data needs a 'manifest' path")
        manifest_path = (
            manifest if os.path.isabs(manifest) else os.path.join(base_dir, manifest)
        )
        if not os.path.exists(manifest_path):
            raise ConfigError(f"dataset manifest not found: {manifest_path}")
        for key in ("height", "width", "layout"):
            _require(data_spec, key)
    dims = _feature_dims(data_spec, classes, matrix.size)

    model = _require(raw, "model", dict)
    hidden = tuple(int(h) for h in model.get("hidden", []))
    activation = model.get("activation", "tanh")
    norm_bound = model.get("norm_bound")
    archs = []
    for k in range(matrix.size):
        layer_sizes = (dims[k] + 1, *hidden, len(classes))
        archs.append(
            MLPArchitecture(
                layer_sizes,
                activation=activation,
                bias=True,
                norm_bound=norm_bound,
                input_bound=float(model.get("input_bound", 1.0)),
            )
        )
    hyper = TrainingHyperparameters(
        epochs=int(_require(model, "epochs", int)),
        batch_size=int(_require(model, "batch_size", int)),
        learning_rate=float(_require(model, "learning_rate")),
        seed=seed,
        optimizer=model.get("optimizer", "gd"),
        init_scale=float(model.get("init_scale", 1.0)),
    )
    repetitions = int(model.get("repetitions", 1))
    if repetitions < 1:
        raise ConfigError("repetitions must be positive")

    train_per_class = int(raw.get("train_per_class", 0))
    if train_per_class < 0:
        raise ConfigError("train_per_class must be nonnegative")

    schedule_spec = raw.get("schedule", {"segments": [[0, classes[0]]]})
    stream_length = int(raw.get("stream_length", 0))
    if stream_length < 0:
        raise ConfigError("stream_length must be nonnegative")

    montecarlo = _validate_montecarlo(raw.get("montecarlo", {}), stream_length, matrix.size)

    return ExperimentConfig(
        raw=raw,
        base_dir=base_dir,
        seed=seed,
        classes=classes,
        engine=engine,
        delta=delta,
        matrix=matrix,
        arch_by_agent=tuple(archs),
        hyper=hyper,
        repetitions=repetitions,
        train_per_class=train_per_class,
        schedule_spec=schedule_spec,
        stream_length=stream_length,
        montecarlo=montecarlo,
        theory=dict(raw.get("theory", {})),
        data_spec=data_spec,
    )
