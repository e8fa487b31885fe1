"""Experiment configuration: JSON schema, validation, and seed discipline.

All randomness in an experiment descends from one master seed.  Derived
seeds are produced by feeding ``(master, phase, *indices)`` into numpy's
``SeedSequence`` hash, where ``phase`` is a fixed small integer naming the
consumer (training data, model init, streams, ...).  Because every consumer
owns a distinct path, adding replications or agents never perturbs the draws
of existing ones.  Derived seeds and the generators they seed come from one
vectorized kernel, ``seeds.derived_seeds`` and ``seeds.generators``, which
is bit-equal to ``SeedSequence`` and ``default_rng``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os

import numpy as np

from . import data as data_mod
from .base import Record, ValidationError
from .data import DataError, GaussianClassModel, GaussianSceneSpec, PatchLayout
from .graph import (
    CombinationMatrix,
    build_averaging_matrix,
    directed_ring_adjacency,
    grid_adjacency,
    load_combination_matrix,
)
from .mlp import ACTIVATIONS, OPTIMIZERS, MLPArchitecture, TrainingHyperparameters
from .social import RegimeSchedule, SocialLearningError, periodic_schedule


class ConfigError(ValidationError):
    """Configuration fails schema validation."""


# phase codes for derived seeds
PHASE_TRAIN_DATA = 0
PHASE_TRAIN_MODEL = 1
PHASE_BOOST_MODEL = 2
PHASE_STREAM = 3
PHASE_SAMPLER = 4


def config_digest(raw: dict) -> str:
    """SHA-256 of the canonical JSON form of the validated configuration."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class ExperimentConfig(Record, hidden=("raw",)):
    raw: dict
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
        return build_averaging_matrix(directed_ring_adjacency(_integer(value, "graph.ring", 1)))
    if kind == "grid":
        rows, cols = _integer_pair(value, "graph.grid")
        return build_averaging_matrix(grid_adjacency(rows, cols))
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
    return PatchLayout(
        _integer(data_spec["height"], "data.height", 1),
        _integer(data_spec["width"], "data.width", 1),
        *_integer_pair(data_spec["layout"], "data.layout"),
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

    height, width = cfg.data_spec["height"], cfg.data_spec["width"]
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


def _integer(value, name: str, minimum: int | None = None) -> int:
    """``value`` if it is an integer (not a bool) of at least ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value}")
    return value


def _integer_pair(value, name: str) -> tuple:
    """``value`` as two integers of at least 1, given as a two-element list."""
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{name} must be a list of two integers, got {value!r}")
    return tuple(_integer(n, name, 1) for n in value)


def _number(value, name: str) -> float:
    """``value`` as a finite float if it is an integer or a float (not a bool).

    Python's ``json`` reads ``NaN`` and ``Infinity``, and an integer literal
    can lie beyond the float range.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return number


def _choice(value, name: str, choices) -> str:
    """``value`` if it is one of the strings ``choices``."""
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(f"{name} must be one of {', '.join(map(repr, choices))}, got {value!r}")
    return value


def _known_keys(block: dict, name: str, keys) -> None:
    """Reject a key of ``block`` outside ``keys``, naming it: a misspelled
    key would otherwise leave its field at the default."""
    unknown = sorted(set(block) - set(keys))
    if unknown:
        prefix = f"{name}." if name else ""
        raise ConfigError(
            f"unknown config key {prefix}{unknown[0]}; {name or 'the top level'} takes "
            f"{', '.join(keys)}"
        )


_TOP_LEVEL_KEYS = (
    "seed", "classes", "engine", "delta", "graph", "data", "model", "train_per_class",
    "schedule", "stream_length", "montecarlo", "theory",
)
_MODEL_KEYS = (
    "hidden", "activation", "norm_bound", "input_bound", "epochs", "batch_size",
    "learning_rate", "optimizer", "init_scale", "repetitions",
)
_DATA_KEYS = {
    "gaussian": ("type", "agents"),
    "images": ("type", "manifest", "height", "width", "layout", "label_map"),
}
_SCHEDULE_KEYS = ("period", "states", "segments")
_THEORY_KEYS = (
    "sample_counts", "grid_points", "target_risk", "epsilon", "beta", "complexity_constants",
)
_MONTECARLO_KEYS = ("replications", "eval_streams", "horizon", "observe_agent", "strategies")


def _validate_schedule(spec, classes) -> None:
    """Reject a schedule that ``experiments.build_schedule`` cannot build.

    Every state must equal a class label of the same type, so ``true`` or
    ``1.0`` does not pass for the class ``1``.  The ordering rules are the
    ones ``periodic_schedule`` and ``RegimeSchedule`` enforce.  ``segments``
    stands alone: beside it, ``period`` would win and ``states`` would be
    ignored.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"schedule must be an object, got {spec!r}")
    _known_keys(spec, "schedule", _SCHEDULE_KEYS)
    if "segments" in spec:
        for key in ("period", "states"):
            if key in spec:
                raise ConfigError(f"schedule.{key} cannot be combined with schedule.segments")
    if "period" in spec:
        period = _integer(spec["period"], "schedule.period")
        states = spec.get("states", list(classes))
        if not isinstance(states, list) or not states:
            raise ConfigError(f"schedule.states must be a non-empty list, got {states!r}")
    else:
        segments = spec.get("segments")
        if not isinstance(segments, list) or not segments:
            raise ConfigError("schedule needs 'period' or a non-empty 'segments' list")
        for pair in segments:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError(f"schedule segments must be [start, state] pairs, got {pair!r}")
            _integer(pair[0], "schedule segment start")
        states = [state for _, state in segments]
    for state in states:
        if not any(type(state) is type(label) and state == label for label in classes):
            raise ConfigError(f"schedule state {state!r} is not one of the classes {list(classes)}")
    try:
        if "period" in spec:
            periodic_schedule(period, states, 1)
        else:
            RegimeSchedule(tuple(segments))
    except SocialLearningError as exc:
        raise ConfigError(f"schedule: {exc}") from exc


def _per_agent(block: dict, key: str, n_agents: int) -> list:
    """``block[key]`` if it is a list with one entry per agent."""
    values = block[key]
    if not isinstance(values, list):
        raise ConfigError(f"theory.{key} must be a list, got {values!r}")
    if len(values) != n_agents:
        raise ConfigError(
            f"theory.{key} must hold one entry per agent ({n_agents}), got {len(values)}"
        )
    return values


def _validate_theory(block, n_agents: int) -> dict:
    """The ``theory`` block with its constant defaults filled in, its counts
    and numbers checked, and its per-agent lists one entry per agent;
    ``cmd_theory`` derives the sample counts and the complexity constants
    that the block leaves out."""
    if not isinstance(block, dict):
        raise ConfigError("theory must be an object")
    _known_keys(block, "theory", _THEORY_KEYS)
    block = {"target_risk": 0.0, "beta": 1.0, "epsilon": 0.05, "grid_points": 50, **block}
    if "sample_counts" in block:
        for n in _per_agent(block, "sample_counts", n_agents):
            _integer(n, "theory.sample_counts", 1)
    _integer(block["grid_points"], "theory.grid_points", 1)
    for key in ("target_risk", "epsilon"):
        _number(block[key], f"theory.{key}")
    beta = block["beta"]
    if isinstance(beta, list):
        for b in _per_agent(block, "beta", n_agents):
            _number(b, "theory.beta")
    elif beta != "analytic":
        _number(beta, "theory.beta")
    if "complexity_constants" in block:
        for c in _per_agent(block, "complexity_constants", n_agents):
            _number(c, "theory.complexity_constants")
    return block


def _validate_montecarlo(block, stream_length: int, n_agents: int) -> dict:
    """The ``montecarlo`` block with its defaults filled in."""
    if not isinstance(block, dict):
        raise ConfigError("montecarlo must be an object")
    _known_keys(block, "montecarlo", _MONTECARLO_KEYS)
    mc = {
        "replications": 1,
        "eval_streams": 1,
        "horizon": stream_length or 1,
        "observe_agent": 0,
        "strategies": ["sml", "adaboost"],
        **block,
    }
    for key in ("replications", "eval_streams", "horizon"):
        _integer(mc[key], f"montecarlo.{key}", 1)
    if not 0 <= _integer(mc["observe_agent"], "montecarlo.observe_agent") < n_agents:
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
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    _known_keys(raw, "", _TOP_LEVEL_KEYS)
    seed = _integer(_require(raw, "seed"), "seed", 0)
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

    engine = _choice(_require(raw, "engine"), "engine", ("sl", "asl"))
    delta = raw.get("delta")
    if engine == "asl":
        if delta is None:
            raise ConfigError("adaptive engine needs 'delta'")
        delta = _number(delta, "delta")
        if not 0.0 < delta < 1.0:
            raise ConfigError("delta must lie strictly in (0, 1)")
    elif delta is not None:
        raise ConfigError("'delta' is only valid with engine 'asl'")

    matrix = _build_matrix(_require(raw, "graph", dict), base_dir)

    data_spec = _require(raw, "data", dict)
    if data_spec.get("type") not in ("gaussian", "images"):
        raise ConfigError("data type must be 'gaussian' or 'images'")
    _known_keys(data_spec, "data", _DATA_KEYS[data_spec["type"]])
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
    _known_keys(model, "model", _MODEL_KEYS)
    hidden = model.get("hidden", [])
    if not isinstance(hidden, list):
        raise ConfigError(f"model.hidden must be a list, got {hidden!r}")
    hidden = tuple(_integer(h, "model.hidden", 1) for h in hidden)
    activation = _choice(model.get("activation", "tanh"), "model.activation", ACTIVATIONS)
    norm_bound = model.get("norm_bound")
    if norm_bound is not None:
        # kept as written: saved models carry it verbatim
        _number(norm_bound, "model.norm_bound")
    input_bound = _number(model.get("input_bound", 1.0), "model.input_bound")
    archs = []
    for k in range(matrix.size):
        layer_sizes = (dims[k] + 1, *hidden, len(classes))
        archs.append(
            MLPArchitecture(
                layer_sizes,
                activation=activation,
                bias=True,
                norm_bound=norm_bound,
                input_bound=input_bound,
            )
        )
    hyper = TrainingHyperparameters(
        epochs=_integer(_require(model, "epochs"), "model.epochs", 1),
        batch_size=_integer(_require(model, "batch_size"), "model.batch_size", 1),
        learning_rate=_number(_require(model, "learning_rate"), "model.learning_rate"),
        optimizer=_choice(model.get("optimizer", "gd"), "model.optimizer", OPTIMIZERS),
        init_scale=_number(model.get("init_scale", 1.0), "model.init_scale"),
    )
    repetitions = _integer(model.get("repetitions", 1), "model.repetitions", 1)
    train_per_class = _integer(raw.get("train_per_class", 0), "train_per_class", 0)
    schedule_spec = raw.get("schedule", {"segments": [[0, classes[0]]]})
    _validate_schedule(schedule_spec, classes)
    stream_length = _integer(raw.get("stream_length", 0), "stream_length", 0)

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
        theory=_validate_theory(raw.get("theory", {}), matrix.size),
        data_spec=data_spec,
    )
