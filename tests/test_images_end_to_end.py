"""Image-backed experiment pipeline on small synthetic digit-like scenes,
plus the optional extended run against user-supplied MNIST IDX files."""

import json
import os
import struct

import numpy as np
import pytest

from socialml.cli import main
from socialml.config import validate_config
from socialml.data import file_sha256, read_idx_images, read_idx_labels
from socialml.experiments import cmd_montecarlo, cmd_predict, cmd_train, shared_scene_training


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

    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    n, h, w = images.shape
    img_path.write_bytes(struct.pack(">IIII", 0x00000803, n, h, w) + images.tobytes())
    lab_path.write_bytes(struct.pack(">II", 0x00000801, n) + labels.tobytes())

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
        import socialml.data as data_mod

        write_idx_dataset(tmp_path, np.random.default_rng(5), n_per_class=40)
        cfg = validate_config(image_config("dataset.json"), str(tmp_path))
        scaled = []
        original = data_mod.scale_pixels

        def counting(images):
            scaled.append(np.asarray(images).size)
            return original(images)

        monkeypatch.setattr(data_mod, "scale_pixels", counting)
        views, labels = shared_scene_training(cfg, rep=0)
        assert sum(scaled) == labels.size * 8 * 8
        # the same draws from images scaled up front give the same views
        (images, rows), layout = cfg.scene
        vars(cfg)["scene"] = ((images / 255.0, rows), layout)
        again, again_labels = shared_scene_training(cfg, rep=0)
        assert np.array_equal(labels, again_labels)
        for got, want in zip(views, again):
            assert np.array_equal(got, want)


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
        write_idx_dataset(tmp_path, np.random.default_rng(3), n_per_class=40)
        labels = read_idx_labels(tmp_path / "labels.idx")
        images = read_idx_images(tmp_path / "images.idx")
        write_csv_dataset(tmp_path / "csv", images, labels)
        for directory in (tmp_path, tmp_path / "csv"):
            assert self.train(directory, image_config("dataset.json")) == 0
            argv = ["montecarlo", "--config", str(directory / "config.json")]
            assert main([*argv, "--out", str(directory / "mc"), "--replications-override", "2"]) == 0
        for out in ("out", "mc"):
            names = sorted(p.relative_to(tmp_path / out) for p in (tmp_path / out).rglob("*.*"))
            csv_dir = tmp_path / "csv" / out
            assert names == sorted(p.relative_to(csv_dir) for p in csv_dir.rglob("*.*"))
            for name in names:
                idx_bytes = (tmp_path / out / name).read_bytes()
                assert (tmp_path / "csv" / out / name).read_bytes() == idx_bytes, name

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
        write_idx_dataset(tmp_path, np.random.default_rng(3), n_per_class=40)
        cfg = image_config("dataset.json")
        cfg["data"]["label_map"] = {"1": 0, "-1": 7}
        assert self.train(tmp_path, cfg) == 1
        assert "class -1 (raw label 7) absent" in capsys.readouterr().err


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
