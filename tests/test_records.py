import pickle
from unittest import mock

import numpy as np
import pytest

import socialml.theory  # noqa: F401 - loads the theory records for the coverage check
from socialml import data as data_mod
from socialml.base import Record
from socialml.boosting import BoostedEnsemble
from socialml.config import validate_config
from socialml.data import GaussianClassModel, IdxImages, ImageSource, PatchLayout, prediction_streams
from socialml.experiments import shared_scene_training
from socialml.graph import CombinationMatrix
from socialml.mlp import (
    MLPArchitecture,
    TrainingHyperparameters,
    initialize_model,
)
from socialml.social import PredictionRun, RegimeSchedule
from socialml.stats import DebiasedStatistic
from socialml.theory import ClassMeans, ConsistencyBound, RademacherEstimate, TrainingProfile
from helpers import mean_shift_gaussian_spec
from test_cli import base_config
from test_data import pooled_config, write_image_files


def _model():
    return initialize_model(MLPArchitecture((3, 4, 2)), np.random.default_rng(0))


def _config():
    return validate_config(base_config(), ".")


EXAMPLES = {
    "MLPArchitecture": lambda: MLPArchitecture((3, 4, 2), norm_bound=2.0),
    "TrainingHyperparameters": lambda: TrainingHyperparameters(3, 10, 0.05, optimizer="adam"),
    "MLPModel": _model,
    "DebiasedStatistic": lambda: DebiasedStatistic(_model(), np.zeros(1)),
    "CombinationMatrix": lambda: CombinationMatrix(np.full((2, 2), 0.5)),
    "GaussianClassModel": lambda: GaussianClassModel(np.zeros(2), np.eye(2)),
    "GaussianSceneSpec": lambda: mean_shift_gaussian_spec(2),
    "PatchLayout": lambda: PatchLayout(4, 4, 2, 2),
    "IdxImages": lambda: IdxImages("images.idx", (2, 28, 28)),
    "ImageSource": lambda: ImageSource(
        np.zeros((3, 4, 4), np.uint8), (np.array([0, 2]), np.array([1])), PatchLayout(4, 4, 2, 2)
    ),
    "RegimeSchedule": lambda: RegimeSchedule(((0, 0), (5, 1))),
    "PredictionRun": lambda: PredictionRun(
        np.zeros((3, 2, 1)), np.zeros((3, 2), dtype=np.intp), np.ones((3, 2), dtype=bool)
    ),
    "BoostedEnsemble": lambda: BoostedEnsemble(
        (_model(),), np.ones(1), np.zeros(1), np.full((2, 4), 0.25), ()
    ),
    "ExperimentConfig": _config,
    "TrainingProfile": lambda: TrainingProfile((10, 20), np.array([0.5, 0.5])),
    "ConsistencyBound": lambda: ConsistencyBound(0.1, 0.5, 0.5, False),
    "ClassMeans": lambda: ClassMeans(
        np.array([[[1.0], [-1.0]]] * 2), np.full((2, 2, 1), 0.1), np.full(2, 0.5)
    ),
    "RademacherEstimate": lambda: RademacherEstimate(0.1, 0.01, 10, "monte-carlo"),
}


# the field each record leaves out of its repr: the raw config and the weights
HIDDEN = {"ExperimentConfig": "raw", "MLPModel": "weights"}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _copy(record):
    """A second record built from the same field values."""
    return type(record)(*(getattr(record, name) for name in record.__match_args__))


def test_every_record_class_has_an_example():
    names = {cls.__name__ for cls in _subclasses(Record) if cls.__module__.startswith("socialml.")}
    assert names == set(EXAMPLES)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
class TestRecordSemantics:
    def test_fields_are_frozen(self, name):
        record = EXAMPLES[name]()
        field = record.__match_args__[0]
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value

    def test_equal_fields_equal_records(self, name):
        record = EXAMPLES[name]()
        twin = _copy(record)
        assert twin is not record
        assert twin == record
        try:
            hash(tuple(getattr(record, field) for field in record.__match_args__))
        except TypeError:
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(twin) == hash(record)

    def test_repr_shows_the_fields_but_raw_and_weights(self, name):
        record = EXAMPLES[name]()
        text = repr(record)
        assert text.startswith(f"{name}(")
        for field in record.__match_args__:
            assert (f"{field}=" in text) == (field != HIDDEN.get(name))


def test_hashable_records_key_dicts():
    # train_agents groups agents by architecture
    groups = {MLPArchitecture((3, 4, 2)): "a", MLPArchitecture((3, 4, 2), activation="relu"): "b"}
    assert groups[MLPArchitecture((3, 4, 2))] == "a"
    assert MLPArchitecture((3, 4, 2)) != MLPArchitecture((3, 5, 2))
    assert MLPArchitecture((3, 4, 2)) != (3, 4, 2)


@pytest.mark.parametrize("drawn", [False, True])
def test_experiment_config_pickles(drawn):
    cfg = _config()
    if drawn:
        # a training draw and a stream draw read the scene and leave nothing
        # behind on the config
        shared_scene_training(cfg, [0])
        states = cfg.schedule.states(cfg.stream_length)
        prediction_streams(cfg.scene, states, 2, np.random.default_rng(1))
    blob = pickle.dumps(cfg)
    assert blob == pickle.dumps(_config())
    # a config pickles as its validated fields
    assert len(blob) < 16 << 10, len(blob)
    restored = pickle.loads(blob)
    assert restored.digest == cfg.digest
    assert restored.raw == cfg.raw and restored.arch_by_agent == cfg.arch_by_agent
    for before, after in zip(cfg.scene.models, restored.scene.models, strict=True):
        for a, b in zip(before, after, strict=True):
            assert np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)


@pytest.mark.parametrize("fmt", ["idx", "csv"])
def test_image_config_pickles(tmp_path, fmt):
    # 1.1 MB of IDX images; the CSV twin is kept small, as parsing is slow
    n, side = (1400, 28) if fmt == "idx" else (60, 8)
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 2, n)
    write_image_files(tmp_path, rng.integers(0, 256, (n, side, side), np.uint8), labels, fmt)
    cfg = pooled_config(tmp_path, (side, side), [0, 1])
    images, rows, layout = cfg.scene.images, cfg.scene.rows, cfg.scene.layout
    blob = pickle.dumps(cfg)
    # an IDX scene pickles as its file's path and row indices, never as its
    # images; a CSV one as its parsed images
    assert len(blob) < 16 << 10, len(blob)
    readers = ("read_idx_images", "read_idx_labels", "read_label_pixel_csv")
    with mock.patch.multiple(data_mod, **{name: mock.DEFAULT for name in readers}) as calls:
        restored = pickle.loads(blob)
    # unpickling validates nothing again: no file is read or parsed
    assert all(calls[name].call_count == 0 for name in readers)
    assert restored.digest == cfg.digest
    assert restored.raw == cfg.raw and restored.arch_by_agent == cfg.arch_by_agent
    again, again_rows, again_layout = (
        restored.scene.images, restored.scene.rows, restored.scene.layout
    )
    assert again_layout == layout
    assert all(np.array_equal(a, b) for a, b in zip(again_rows, rows))
    if fmt == "idx":
        assert np.prod(images.shape) >= 1 << 20
        # the unpickled config reads the same file
        assert again == images and again.path == str(tmp_path / "images.idx")
    else:
        assert np.array_equal(again, images) and not again.flags.writeable


class Point(Record):
    x: int
    y: int = 0
    label: str = "p"

    def __post_init__(self):
        object.__setattr__(self, "x", int(self.x))


class TestRecordBase:
    def test_fields_in_annotation_order_with_defaults(self):
        assert Point.__match_args__ == ("x", "y", "label")
        assert Point(1) == Point(1, 0, "p") == Point(x=1, label="p")
        assert Point(1, label="q").label == "q"

    def test_post_init_normalizes(self):
        assert Point(2.0).x == 2 and type(Point(2.0).x) is int

    def test_bad_arguments_rejected(self):
        with pytest.raises(TypeError, match="missing field 'x'"):
            Point()
        with pytest.raises(TypeError, match="'z'"):
            Point(1, z=2)
        with pytest.raises(TypeError, match="'x'"):
            Point(1, x=2)
        with pytest.raises(TypeError, match="takes 3 fields"):
            Point(1, 2, "a", 4)

    def test_not_equal_to_a_tuple_or_another_class(self):
        class Other(Record):
            x: int
            y: int = 0
            label: str = "p"

        assert Point(1) != (1, 0, "p")
        assert Point(1) != Other(1)
        assert len({Point(1), Point(1), Point(2)}) == 2
        with pytest.raises(TypeError):
            iter(Point(1))

    def test_pickle_round_trip(self):
        point = Point(3, 4)
        assert pickle.loads(pickle.dumps(point)) == point
