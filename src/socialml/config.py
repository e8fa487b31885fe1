"""Experiment configuration: JSON schema, validation, and seed discipline.

All randomness in an experiment descends from one master seed.  Derived
seeds are produced by feeding ``(master, phase, *indices)`` into numpy's
``SeedSequence`` hash, where ``phase`` is a fixed small integer naming the
consumer (training data, model init, streams, ...).  Because every consumer
owns a distinct path, adding replications or agents never perturbs the draws
of existing ones.  ``seeds.derived_seeds`` derives the seeds and
``seeds.generators`` builds one ``default_rng`` per seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from . import data as data_mod
from .base import Record, ValidationError
from .data import DataError, GaussianClassModel, GaussianSceneSpec, ImageSource, PatchLayout
from .graph import (
    CombinationMatrix,
    build_averaging_matrix,
    directed_ring_adjacency,
    grid_adjacency,
    load_combination_matrix,
)
from .mlp import ACTIVATIONS, OPTIMIZERS, MLPArchitecture, ModelError, TrainingHyperparameters
from .social import RegimeSchedule, SocialLearningError, periodic_schedule


class ConfigError(ValidationError):
    """Configuration fails schema validation."""


# phase codes for derived seeds, each with its one row width: SeedSequence
# pads its pool with zeros, so a shorter row would reuse a longer row's seed
PHASE_TRAIN_DATA = 0  # (rep,)
PHASE_TRAIN_MODEL = 1  # (rep, agent)
PHASE_BOOST_MODEL = 2  # (rep, agent)
PHASE_STREAM = 3  # (rep,): all of a replication's streams
PHASE_SAMPLER = 4  # reserved; its rows keep one width


def config_digest(raw: dict) -> str:
    """SHA-256 of the canonical JSON form of the validated configuration."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class ExperimentConfig(Record, hidden=("raw",)):
    raw: dict
    seed: int
    classes: tuple
    engine: str
    delta: float | None
    matrix: CombinationMatrix
    arch_by_agent: tuple
    hyper: TrainingHyperparameters
    repetitions: int
    train_per_class: int
    schedule: RegimeSchedule  # class indices over max(stream_length, montecarlo horizon) steps
    stream_length: int
    montecarlo: dict
    theory: dict | None  # None without a theory block or with an empty one
    # the data source that ``data.training_scene`` and
    # ``data.prediction_streams`` draw from, as ``_validate_data`` returns it
    scene: GaussianSceneSpec | ImageSource

    @property
    def digest(self) -> str:
        return config_digest(self.raw)

    @property
    def n_agents(self) -> int:
        return self.matrix.size

    def __setstate__(self, state):
        # a config pickles as its fields, an IDX scene as its file's path and
        # a CSV one as its parsed images, which unpickle writeable
        vars(self).update(state)
        images = getattr(self.scene, "images", None)
        if isinstance(images, np.ndarray):
            images.flags.writeable = False


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
        if not isinstance(value, str):
            raise ConfigError(f"graph.file must be a path string, got {value!r}")
        path = value if os.path.isabs(value) else os.path.join(base_dir, value)
        if not os.path.exists(path):
            raise ConfigError(f"graph file not found: {path}")
        return load_combination_matrix(path)
    if kind == "matrix":
        rows = _numbers(value, "graph.matrix")
        try:
            return CombinationMatrix(np.asarray(rows, dtype=float))
        except ValueError as exc:
            # GraphError, or rows of uneven lengths
            raise ConfigError(f"graph.matrix: {exc}") from exc
    raise ConfigError(f"unknown graph spec {kind!r}")


def build_gaussian_spec(data_spec: dict, classes) -> GaussianSceneSpec:
    """Gaussian scene from the JSON block, whose class keys are the labels'
    text; the spec holds each agent's models in class order.  An agent's
    classes must share one feature dimension."""
    agents = data_spec.get("agents")
    if not isinstance(agents, list) or not agents:
        raise ConfigError("gaussian data needs a non-empty 'agents' list")
    models = []
    for k, per_agent in enumerate(agents):
        where = f"data.agents[{k}]"
        if not isinstance(per_agent, dict):
            raise ConfigError(f"{where} must be an object of class -> {{mean, cov}}")
        agent_models = []
        for label in classes:
            entry = per_agent.get(str(label))
            if not isinstance(entry, dict) or not {"mean", "cov"} <= entry.keys():
                raise ConfigError(f"{where}: class {label!r} needs a {{mean, cov}} block")
            name = f"{where}, class {label!r}"
            mean, cov = (_numbers(entry[key], f"{name}, {key}") for key in ("mean", "cov"))
            try:
                model = GaussianClassModel(mean, cov)
            except ValueError as exc:
                # DataError, or lists of uneven lengths
                raise ConfigError(f"{name}: {exc}") from exc
            if agent_models and model.mean.size != agent_models[0].mean.size:
                raise ConfigError(
                    f"{name}: dimension {model.mean.size}, but class {classes[0]!r} has "
                    f"{agent_models[0].mean.size}"
                )
            agent_models.append(model)
        models.append(agent_models)
    return GaussianSceneSpec(tuple(models))


def read_config(path) -> tuple:
    """``(raw, base_dir)``: the JSON object in the config file at ``path``
    and the directory its relative paths resolve against."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    return raw, os.path.dirname(os.path.abspath(path))


def load_config(path) -> ExperimentConfig:
    return validate_config(*read_config(path))


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


def _numbers(value, name: str):
    """``value``, a number or nested lists of numbers, each checked by ``_number``."""
    if isinstance(value, list):
        return [_numbers(item, name) for item in value]
    return _number(value, name)


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


def _validate_schedule(spec, classes, length: int) -> RegimeSchedule:
    """The true-state schedule of ``spec`` in class indices, a periodic one
    over ``length`` steps: the longest stream a command draws, each reading a
    prefix.

    Every state must equal a class label of the same type, so ``true`` or
    ``1.0`` does not pass for the class ``1``.  The ordering rules are the
    ones ``periodic_schedule`` and ``RegimeSchedule`` enforce.  ``segments``
    stands alone: beside it, ``period`` would win and ``states`` would be
    ignored.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"schedule must be an object, got {spec!r}")
    _known_keys(spec, "schedule", _SCHEDULE_KEYS)
    if "segments" in spec and len(spec) > 1:
        other = min(set(spec) - {"segments"})  # "period" before "states"
        raise ConfigError(f"schedule.{other} cannot be combined with schedule.segments")
    if "period" in spec:
        period = _integer(spec["period"], "schedule.period", 1)
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
    keys = [(type(label), label) for label in classes]
    for state in states:
        if (type(state), state) not in keys:
            raise ConfigError(f"schedule state {state!r} is not one of the classes {list(classes)}")
    indices = [keys.index((type(state), state)) for state in states]
    try:
        if "period" in spec:
            return periodic_schedule(period, indices, length)
        return RegimeSchedule(tuple(zip((start for start, _ in segments), indices)))
    except SocialLearningError as exc:
        raise ConfigError(f"schedule: {exc}") from exc


def _validate_data(
    block: dict, classes, n_agents: int, train_per_class: int, base_dir: str
) -> GaussianSceneSpec | ImageSource:
    """The data source of the block: a Gaussian spec, or an image source
    whose rows of each class are in file order.  An IDX file gives its
    ``data.IdxImages`` reader, which reads no image until a draw picks it; a
    CSV gives a read-only array of only the rows of labels some class uses.
    Every image class must hold ``train_per_class`` images, as a training
    scene draws that many."""
    kind = block.get("type")
    if kind not in _DATA_KEYS:
        raise ConfigError("data type must be 'gaussian' or 'images'")
    _known_keys(block, "data", _DATA_KEYS[kind])
    if kind == "gaussian":
        spec = build_gaussian_spec(block, classes)
        if spec.n_agents != n_agents:
            raise ConfigError(f"data describes {spec.n_agents} agents, graph has {n_agents}")
        return spec
    manifest = _require(block, "manifest", str)
    layout = PatchLayout(
        _integer(_require(block, "height"), "data.height", 1),
        _integer(_require(block, "width"), "data.width", 1),
        *_integer_pair(_require(block, "layout"), "data.layout"),
    )
    if layout.n_agents != n_agents:
        raise ConfigError(f"layout has {layout.n_agents} patches, graph {n_agents} agents")
    try:
        # a relative path resolves against the config's directory
        dataset = data_mod.read_manifest(os.path.join(base_dir, manifest))
    except DataError as exc:
        raise ConfigError(f"data.manifest: {exc}") from exc
    if dataset["format"] is None:
        raise ConfigError(f"data.manifest: {manifest} names no dataset format")
    # optional class -> raw-label map, e.g. {"1": 0, "-1": 1} for digit pairs
    label_map = block.get("label_map", {})
    if not isinstance(label_map, dict) or not all(
        key in map(str, classes) and type(raw) is int for key, raw in label_map.items()
    ):
        raise ConfigError(
            f"data.label_map must map class labels, written as strings, to integers, "
            f"got {label_map!r}"
        )
    raw_by_class = [label_map.get(str(c), c) for c in classes]
    if len(set(raw_by_class)) < len(classes):
        raise ConfigError(f"data.label_map sends two classes to one label: {raw_by_class!r}")
    files = {name: entry["path"] for name, entry in dataset["files"].items()}
    if dataset["format"] == "idx":
        labels = data_mod.read_idx_labels(files["labels"])
        images = data_mod.read_idx_images(files["images"])
        if len(images) != labels.size:
            raise ConfigError(
                f"{files['labels']} holds {labels.size} labels but {files['images']} holds "
                f"{len(images)} images"
            )
        if images.shape[1:] != (layout.height, layout.width):
            raise ConfigError(
                f"{files['images']}: images {images.shape[1:]} vs config "
                f"{(layout.height, layout.width)}"
            )
    else:
        images, labels = data_mod.read_label_pixel_csv(
            files["data"], layout.height, layout.width, keep=raw_by_class
        )
        # every draw of every replication reads these rows, so none may change them
        images.flags.writeable = False
    rows = []
    for label, raw in zip(classes, raw_by_class):
        rows.append(np.flatnonzero(labels == raw))
        if rows[-1].size == 0:
            raise ConfigError(f"class {label!r} (raw label {raw!r}) absent from the dataset")
        if rows[-1].size < train_per_class:
            raise ConfigError(
                f"class {label!r} (raw label {raw!r}): {rows[-1].size} images < "
                f"train_per_class {train_per_class}"
            )
    return ImageSource(images, tuple(rows), layout)


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


def _validate_theory(block, n_agents: int) -> dict | None:
    """The ``theory`` block with its constant defaults filled in, its counts
    and numbers checked, and its per-agent lists one entry per agent, or
    None for an empty block; ``cmd_theory`` derives the sample counts and
    the complexity constants that the block leaves out."""
    if not isinstance(block, dict):
        raise ConfigError("theory must be an object")
    if not block:
        return None
    _known_keys(block, "theory", _THEORY_KEYS)
    block = {"target_risk": 0.0, "beta": 1.0, "epsilon": 0.05, "grid_points": 50, **block}
    if "sample_counts" in block:
        for n in _per_agent(block, "sample_counts", n_agents):
            _integer(n, "theory.sample_counts", 1)
    _integer(block["grid_points"], "theory.grid_points", 1)
    # the ranges the bounds are defined on, checked here so that the error
    # names its field: the exponent is measured from the log 2 boundary
    target_risk = block["target_risk"]
    if not 0.0 <= _number(target_risk, "theory.target_risk") < math.log(2):
        raise ConfigError(f"theory.target_risk must lie in [0, log 2), got {target_risk!r}")
    epsilon = block["epsilon"]
    if not 0.0 < _number(epsilon, "theory.epsilon") < 1.0:
        raise ConfigError(f"theory.epsilon must lie strictly in (0, 1), got {epsilon!r}")
    beta = block["beta"]
    if beta != "analytic":
        for b in _per_agent(block, "beta", n_agents) if isinstance(beta, list) else [beta]:
            if _number(b, "theory.beta") <= 0.0:
                raise ConfigError(f"theory.beta must be positive, got {b!r}")
    if "complexity_constants" in block:
        for c in _per_agent(block, "complexity_constants", n_agents):
            if _number(c, "theory.complexity_constants") < 0.0:
                raise ConfigError(f"theory.complexity_constants must be nonnegative, got {c!r}")
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
    """The checked config, with the schedule and the data source built once:
    every input file is read here, so a config that validates runs."""
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
    # data blocks, label maps and artifacts name a class by its text, so 1
    # and "1" would be one class under two indices
    if len(classes) < 2 or len(set(map(str, classes))) != len(classes):
        raise ConfigError(
            f"classes must list at least two labels whose texts differ, got {list(classes)!r}"
        )

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

    train_per_class = _integer(raw.get("train_per_class", 0), "train_per_class", 0)
    scene = _validate_data(
        _require(raw, "data", dict), classes, matrix.size, train_per_class, base_dir
    )

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
    try:
        archs = tuple(
            # layer sizes (the bias slot included), activation, norm bound, input bound
            MLPArchitecture((d + 1, *hidden, len(classes)), activation, norm_bound, input_bound)
            for d in map(scene.dimension, range(matrix.size))
        )
        hyper = TrainingHyperparameters(
            epochs=_integer(_require(model, "epochs"), "model.epochs", 1),
            batch_size=_integer(_require(model, "batch_size"), "model.batch_size", 1),
            learning_rate=_number(_require(model, "learning_rate"), "model.learning_rate"),
            optimizer=_choice(model.get("optimizer", "gd"), "model.optimizer", OPTIMIZERS),
            init_scale=_number(model.get("init_scale", 1.0), "model.init_scale"),
        )
    except ModelError as exc:
        raise ConfigError(f"model.{exc}") from exc
    repetitions = _integer(model.get("repetitions", 1), "model.repetitions", 1)
    stream_length = _integer(raw.get("stream_length", 0), "stream_length", 0)
    montecarlo = _validate_montecarlo(raw.get("montecarlo", {}), stream_length, matrix.size)
    schedule = _validate_schedule(
        raw.get("schedule", {"segments": [[0, classes[0]]]}),
        classes,
        max(stream_length, montecarlo["horizon"]),
    )

    return ExperimentConfig(
        raw=raw,
        seed=seed,
        classes=classes,
        engine=engine,
        delta=delta,
        matrix=matrix,
        arch_by_agent=archs,
        hyper=hyper,
        repetitions=repetitions,
        train_per_class=train_per_class,
        schedule=schedule,
        stream_length=stream_length,
        montecarlo=montecarlo,
        theory=_validate_theory(raw.get("theory", {}), matrix.size),
        scene=scene,
    )
