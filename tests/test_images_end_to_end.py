"""Image-backed experiment pipeline on small synthetic digit-like scenes,
plus the optional extended run against user-supplied MNIST IDX files."""

import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from socialml import mlp as mlp_mod
from socialml.cli import main
from socialml.config import validate_config
from socialml.data import ImageSource, file_sha256
from socialml.experiments import (
    cmd_montecarlo,
    cmd_predict,
    cmd_train,
    montecarlo_chunk,
    shared_scene_training,
    train_agents,
)
from helpers import write_idx


def synthetic_digit_images(rng, n, bright="top"):
    """8x8 uint8 images: one class lights the top rows, the other the bottom."""
    images = rng.integers(0, 60, size=(n, 8, 8), dtype=np.uint8)
    rows = slice(0, 3) if bright == "top" else slice(5, 8)
    images[:, rows, :] = rng.integers(160, 256, size=(n, 3, 8), dtype=np.uint8)
    return images


def write_idx_dataset(tmp_path, rng, n_per_class=160):
    images = np.vstack(
        [
            synthetic_digit_images(rng, n_per_class, "top"),
            synthetic_digit_images(rng, n_per_class, "bottom"),
        ]
    )
    labels = np.array([0] * n_per_class + [1] * n_per_class, dtype=np.uint8)
    order = rng.permutation(len(labels))
    images, labels = images[order], labels[order]

    img_path, lab_path = write_idx(tmp_path, images, labels)

    manifest = tmp_path / "dataset.json"
    manifest.write_text(
        json.dumps(
            {
                "format": "idx",
                "files": {
                    "images": {"path": "images.idx", "sha256": file_sha256(img_path)},
                    "labels": {"path": "labels.idx", "sha256": file_sha256(lab_path)},
                },
            }
        )
    )
    return manifest


def write_csv_dataset(directory, images, labels):
    """The same pixels as ``write_idx_dataset``, as a ``label,p0,...`` CSV."""
    directory.mkdir(exist_ok=True)
    path = directory / "data.csv"
    path.write_text(
        "".join(
            f"{label}," + ",".join(str(p) for p in image.ravel()) + "\n"
            for label, image in zip(labels, images)
        )
    )
    manifest = directory / "dataset.json"
    manifest.write_text(
        json.dumps(
            {"format": "csv", "files": {"data": {"path": "data.csv", "sha256": file_sha256(path)}}}
        )
    )
    return path


def image_config(manifest_name, **overrides):
    cfg = {
        "seed": 99,
        "classes": [1, -1],
        "engine": "sl",
        "graph": {"grid": [2, 2]},
        "data": {
            "type": "images",
            "manifest": manifest_name,
            "height": 8,
            "width": 8,
            "layout": [2, 2],
            "label_map": {"1": 0, "-1": 1},
        },
        "model": {
            "hidden": [8],
            "activation": "tanh",
            "epochs": 8,
            "batch_size": 10,
            "learning_rate": 0.05,
            "repetitions": 1,
        },
        "train_per_class": 30,
        "schedule": {"segments": [[0, 1]]},
        "stream_length": 30,
        "montecarlo": {
            "replications": 8,
            "eval_streams": 25,
            "horizon": 30,
            "observe_agent": 0,
            "strategies": ["sml", "adaboost"],
        },
    }
    cfg.update(overrides)
    return cfg


class TestSyntheticImagePipeline:
    def test_train_predict_montecarlo(self, tmp_path):
        rng = np.random.default_rng(17)
        write_idx_dataset(tmp_path, rng)
        cfg = validate_config(image_config("dataset.json"), str(tmp_path))

        train_out = tmp_path / "train"
        assert cmd_train(cfg, str(train_out))["models"] == 4

        predict_out = tmp_path / "predict"
        summary = cmd_predict(cfg, str(predict_out))
        assert summary["cycles"][0]["accuracy_per_agent"]

        mc_out = tmp_path / "mc"
        cmd_montecarlo(cfg, str(mc_out))
        lines = (mc_out / "montecarlo.csv").read_text().splitlines()[2:]
        sml_errors = {}
        ada_errors = {}
        for line in lines:
            i, strategy, err, _ = line.split(",")
            (sml_errors if strategy == "sml" else ada_errors)[int(i)] = float(err)
        # patch views carry strong class signal: the sequential strategy ends
        # essentially perfect and no worse than the one-shot vote
        assert sml_errors[30] <= ada_errors[30] + 1e-12
        assert sml_errors[30] < 0.05


class TestImageTrainingScene:
    def test_scene_scales_each_picked_pixel_once(self, tmp_path, monkeypatch):
        write_idx_dataset(tmp_path, np.random.default_rng(5), n_per_class=40)
        cfg = validate_config(image_config("dataset.json"), str(tmp_path))
        scaled = []
        original = mlp_mod._augment

        def counting(arch, features, out=None):
            if np.asarray(features).dtype == np.uint8:
                scaled.append(np.asarray(features).size)
            return original(arch, features, out)

        monkeypatch.setattr(mlp_mod, "_augment", counting)
        ((views, labels),) = shared_scene_training(cfg, [0])
        # drawing scales nothing: the views are the picked uint8 patches
        assert scaled == []
        assert all(view.dtype == np.uint8 for view in views)
        models, risks, logits = train_agents(cfg, [0], [(views, labels)])
        # each agent's training input fill converts its patch of every
        # picked image once
        assert sum(scaled) == labels.size * 8 * 8
        # the same draws from images scaled up front train the same models
        scene = cfg.scene
        up_front = np.asarray(scene.images) / 255.0
        vars(cfg)["scene"] = ImageSource(up_front, scene.rows, scene.layout)
        ((again, again_labels),) = shared_scene_training(cfg, [0])
        assert np.array_equal(labels, again_labels)
        for got, want in zip(views, again):
            assert want.dtype == np.float64
            assert np.array_equal(got / 255.0, want)
        again_models, again_risks, again_logits = train_agents(cfg, [0], [(again, again_labels)])
        assert np.array_equal(risks, again_risks)
        for got, want in zip(models[0], again_models[0]):
            assert all(np.array_equal(a, b) for a, b in zip(got.weights, want.weights))
        for got, want in zip(logits[0], again_logits[0]):
            assert np.array_equal(got, want)


class TestImageSceneMemory:
    """Image views hold one byte a pixel until a model's input copy scales
    them; traced by tracemalloc on 8x8 images in 2x2 patches."""

    def config(self, tmp_path):
        write_idx_dataset(tmp_path, np.random.default_rng(6))
        cfg = validate_config(image_config("dataset.json", train_per_class=60), str(tmp_path))
        # a first chunk outside the trace loads every lazily built module state
        montecarlo_chunk(cfg, range(1))
        return cfg

    def test_training_scenes_hold_one_byte_a_pixel(self, tmp_path):
        cfg = self.config(tmp_path)
        tracemalloc.start()
        try:
            scenes = shared_scene_training(cfg, range(4))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        views = [view for scene_views, _ in scenes for view in scene_views]
        pixels = sum(view.size for view in views)
        assert pixels == 4 * 120 * 8 * 8
        labels = sum(labels.nbytes for _, labels in scenes)
        # one byte a pixel; slack: the headers of 20 arrays and 5 lists, 5 KiB
        # here (numpy 2.4.6), doubled for other numpy versions; float views
        # would hold 7 bytes a pixel more, 210 KiB
        assert held <= pixels + labels + (12 << 10), (held, pixels, labels)
        assert all(view.dtype == np.uint8 for view in views)

    def test_one_chunk_peaks_at_its_training_plus_the_scene_bytes(self, tmp_path):
        cfg = self.config(tmp_path)
        reps = range(4)
        scenes = shared_scene_training(cfg, reps)
        pixels = sum(view.size for views, _ in scenes for view in views)
        labels = sum(labels.nbytes for _, labels in scenes)
        tracemalloc.start()
        try:
            train_agents(cfg, reps, scenes, trace=False)
            _, training = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del scenes
        tracemalloc.start()
        try:
            montecarlo_chunk(cfg, reps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the chunk peaks inside SML training, with its scenes, one byte a
        # pixel, beside the stacked float inputs; the evaluation streams stay
        # below that.  Slack: array headers and seeds, 5 KiB here (numpy
        # 2.4.6), with room for other numpy versions
        assert peak <= training + pixels + labels + (16 << 10), (peak, training, pixels)


class TestImageSceneLoading:
    """Each loaded config reads its own image pools; bad datasets exit 1."""

    def train(self, tmp_path, cfg_dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg_dict))
        return main(["train", "--config", str(path), "--out", str(tmp_path / "out")])

    def test_relabeled_dataset_read_by_fresh_config(self, tmp_path, capsys):
        write_idx_dataset(tmp_path, np.random.default_rng(3), n_per_class=40)
        manifest = tmp_path / "dataset.json"
        stamp = os.stat(manifest).st_mtime_ns
        assert self.train(tmp_path, image_config("dataset.json")) == 0
        # every image becomes raw label 0, so class -1 (raw 1) is gone; the
        # manifest itself is untouched
        lab_path = tmp_path / "labels.idx"
        lab_path.write_bytes(struct.pack(">II", 0x00000801, 80) + bytes(80))
        assert os.stat(manifest).st_mtime_ns == stamp
        capsys.readouterr()
        assert self.train(tmp_path, image_config("dataset.json")) == 1
        assert "class -1" in capsys.readouterr().err

    def test_csv_and_idx_datasets_train_alike(self, tmp_path):
        from test_cli import erring_strategies, noisy_image_config  # test_cli imports this module

        (tmp_path / "csv").mkdir()
        for directory, fmt in ((tmp_path, "idx"), (tmp_path / "csv", "csv")):
            assert self.train(directory, noisy_image_config(directory, fmt)) == 0
            config = ["--config", str(directory / "config.json")]
            assert main(["predict", *config, "--out", str(directory / "predict")]) == 0
            argv = ["montecarlo", *config, "--out", str(directory / "mc")]
            assert main([*argv, "--replications-override", "2"]) == 0
        for out in ("out", "predict", "mc"):
            names = sorted(p.relative_to(tmp_path / out) for p in (tmp_path / out).rglob("*.*"))
            csv_dir = tmp_path / "csv" / out
            assert names == sorted(p.relative_to(csv_dir) for p in csv_dir.rglob("*.*"))
            for name in names:
                idx_bytes = (tmp_path / out / name).read_bytes()
                assert (tmp_path / "csv" / out / name).read_bytes() == idx_bytes, name
        # a reader that moved a pixel would move these rows
        rows = (tmp_path / "mc" / "montecarlo.csv").read_text().splitlines()[2:]
        assert erring_strategies(rows) == {"sml", "adaboost"}

    def test_csv_fractional_pixel_exits_1(self, tmp_path, capsys):
        images = np.full((2, 8, 8), 128.0)
        images[1, 3, 3] = 0.5
        write_csv_dataset(tmp_path, images, [0, 1])
        assert self.train(tmp_path, image_config("dataset.json")) == 1
        assert "data.csv: pixel columns" in capsys.readouterr().err

    def test_unknown_format(self, tmp_path, capsys):
        manifest = write_idx_dataset(tmp_path, np.random.default_rng(3), n_per_class=40)
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "format": "png"}))
        assert self.train(tmp_path, image_config("dataset.json")) == 1
        assert "unknown dataset format 'png'" in capsys.readouterr().err

    def test_image_shape_mismatch(self, tmp_path, capsys):
        write_idx_dataset(tmp_path, np.random.default_rng(3), n_per_class=40)
        cfg = image_config("dataset.json")
        cfg["data"]["height"] = 10
        assert self.train(tmp_path, cfg) == 1
        assert "images (8, 8) vs config (10, 8)" in capsys.readouterr().err

    def test_class_absent_from_dataset(self, tmp_path, capsys):
        # an absent class, a class short of a training scene's draws and a
        # label file shorter than its image file each exit 1 naming the fault
        # from every command that trains, before any output is written
        write_idx_dataset(tmp_path, np.random.default_rng(3), n_per_class=40)
        absent = image_config("dataset.json")
        absent["data"]["label_map"] = {"1": 0, "-1": 7}
        short = image_config("dataset.json", train_per_class=41)
        cut = tmp_path / "cut"
        cut.mkdir()
        write_idx_dataset(cut, np.random.default_rng(3), n_per_class=40)
        (cut / "labels.idx").write_bytes(struct.pack(">II", 0x00000801, 70) + bytes(70))
        cases = [
            (tmp_path, absent, "class -1 (raw label 7) absent"),
            (tmp_path, short, "class 1 (raw label 0): 40 images < train_per_class 41"),
            (cut, image_config("dataset.json"), "labels.idx holds 70 labels but"),
        ]
        commands = [["train"], ["predict"], ["montecarlo", "--threads", "1"],
                    ["montecarlo", "--threads", "2"]]
        for directory, cfg, message in cases:
            path = directory / "config.json"
            path.write_text(json.dumps(cfg))
            for command in commands:
                out = directory / "out"
                assert main([*command, "--config", str(path), "--out", str(out)]) == 1
                assert message in capsys.readouterr().err
                assert not out.exists()


def _not_json(manifest, tmp_path):
    manifest.write_text("{not json")


def _without_images(manifest, tmp_path):
    payload = json.loads(manifest.read_text())
    del payload["files"]["images"]
    manifest.write_text(json.dumps(payload))


def _images_file_gone(manifest, tmp_path):
    (tmp_path / "images.idx").unlink()


def _without_sha256(manifest, tmp_path):
    payload = json.loads(manifest.read_text())
    del payload["files"]["labels"]["sha256"]
    manifest.write_text(json.dumps(payload))


# how the manifest is broken, what the error names besides the manifest file,
# and whether training needs the broken field
MALFORMED_MANIFESTS = [
    (_not_json, "not a readable JSON file", True),
    (_without_images, "files.images", True),
    (_images_file_gone, "files.images.path", True),
    (_without_sha256, "files.labels.sha256", False),
]


class TestMalformedManifests:
    """A broken dataset manifest exits 1 naming the file and the field,
    from ``train`` before any output is written and from ``validate-data``."""

    @pytest.mark.parametrize(
        "breaks, field, trains",
        MALFORMED_MANIFESTS,
        ids=[breaks.__name__.strip("_") for breaks, _, _ in MALFORMED_MANIFESTS],
    )
    def test_exits_1_naming_file_and_field(self, tmp_path, capsys, breaks, field, trains):
        manifest = write_idx_dataset(tmp_path, np.random.default_rng(3), n_per_class=40)
        breaks(manifest, tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(image_config("dataset.json")))
        out = tmp_path / "out"
        code = main(["train", "--config", str(config), "--out", str(out)])
        if trains:
            assert code == 1
            err = capsys.readouterr().err
            assert str(manifest) in err and field in err
            assert not out.exists()
        else:
            # the checksums are for validate-data only
            assert code == 0
        capsys.readouterr()
        assert main(["validate-data", "--config", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert str(manifest) in err and field in err


MNIST_DIR = os.environ.get("SOCIALML_MNIST_DIR")


@pytest.mark.mnist
@pytest.mark.skipif(
    not MNIST_DIR, reason="set SOCIALML_MNIST_DIR to a directory with MNIST IDX files"
)
def test_mnist_digit_pair_ordering(tmp_path):
    """Extended check on the real dataset: with 9 patch agents trained on a
    balanced sample of digits 0/1, the sequential strategy's error at i=50
    stays below the centralized vote's."""
    images_file = os.path.join(MNIST_DIR, "train-images-idx3-ubyte")
    labels_file = os.path.join(MNIST_DIR, "train-labels-idx1-ubyte")
    if not (os.path.exists(images_file) and os.path.exists(labels_file)):
        pytest.skip("MNIST IDX files not found in SOCIALML_MNIST_DIR")

    manifest = tmp_path / "dataset.json"
    manifest.write_text(
        json.dumps(
            {
                "format": "idx",
                "files": {
                    "images": {"path": images_file, "sha256": file_sha256(images_file)},
                    "labels": {"path": labels_file, "sha256": file_sha256(labels_file)},
                },
            }
        )
    )
    cfg_dict = image_config(
        "dataset.json",
        seed=11,
        graph={"grid": [3, 3]},
        data={
            "type": "images",
            "manifest": "dataset.json",
            "height": 28,
            "width": 28,
            "layout": [3, 3],
            "label_map": {"1": 0, "-1": 1},
        },
        model={
            "hidden": [64],
            "activation": "tanh",
            "epochs": 30,
            "batch_size": 10,
            "learning_rate": 0.001,
            "repetitions": 1,
        },
        train_per_class=100,
        stream_length=51,
        montecarlo={
            "replications": 10,
            "eval_streams": 40,
            "horizon": 51,
            "observe_agent": 0,
            "strategies": ["sml", "adaboost"],
        },
    )
    cfg = validate_config(cfg_dict, str(tmp_path))
    out = tmp_path / "out"
    cmd_montecarlo(cfg, str(out))
    curves = {}
    for line in (out / "montecarlo.csv").read_text().splitlines()[2:]:
        i, strategy, err, _ = line.split(",")
        curves.setdefault(strategy, {})[int(i)] = float(err)
    assert curves["sml"][50] < curves["adaboost"][50]
