"""The benchmark's workloads: configs, generated inputs and CLI commands.

Each workload is a config file plus the ``socialml`` subcommands one round
runs on it.  Every command writes into its own output directory, so each
``manifest.json`` can be checked against exactly the files that command
wrote.  Inputs depend only on the seed and the size ("full" for measuring,
"tiny" for the smoke tests); the package is never imported here.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

IMAGE_SIDE = 28


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    commands: tuple  # subcommands run in order, one output directory each
    claim: str | None = None  # strategy ordering a Monte Carlo run must show
    dataset_manifest: str | None = None  # generated IDX manifest, image workloads

    def argv(self, command: str, config_path: str, out_dir: str) -> list:
        argv = [command, "--config", config_path, "--out", out_dir]
        if command == "montecarlo":
            argv += ["--threads", "1"]
        return argv


def _demo_train(seed: int, size: str, work_dir: str) -> Workload:
    """The gaussian_demo scene: only agent 1 sees a covariance contrast."""
    tiny = size == "tiny"
    agents = []
    for k in range(4):
        minus_cov = [[1.5, 0.0], [0.0, 1.5]] if k == 1 else [[1.0, 0.0], [0.0, 1.0]]
        agents.append(
            {
                "1": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
                "-1": {"mean": [0.0, 0.0], "cov": minus_cov},
            }
        )
    config = {
        "seed": seed,
        "classes": [1, -1],
        "engine": "sl",
        "graph": {"ring": 4},
        "data": {"type": "gaussian", "agents": agents},
        "model": {
            "hidden": [10, 10],
            "activation": "tanh",
            "epochs": 1 if tiny else 6,
            "batch_size": 3,
            "learning_rate": 1e-4,
            "optimizer": "adam",
            "init_scale": 3.0,
            "repetitions": 3,
        },
        "train_per_class": 10 if tiny else 100,
        "schedule": {"segments": [[0, 1]]},
        "stream_length": 50 if tiny else 2000,
    }
    return Workload("demo_train", config, ("train", "predict"))


def _mc_compare(seed: int, size: str, work_dir: str) -> Workload:
    """The criterion-09 comparison: 1-D Gaussians shifted by +-0.35."""
    tiny = size == "tiny"
    shift = 0.35
    agents = [
        {"1": {"mean": [shift], "cov": [[1.0]]}, "-1": {"mean": [-shift], "cov": [[1.0]]}}
        for _ in range(4)
    ]
    config = {
        "seed": seed,
        "classes": [1, -1],
        "engine": "sl",
        "graph": {"ring": 4},
        "data": {"type": "gaussian", "agents": agents},
        "model": {
            "hidden": [10],
            "activation": "tanh",
            "epochs": 12,
            "batch_size": 10,
            "learning_rate": 0.05,
            "repetitions": 1,
        },
        "train_per_class": 20,
        "schedule": {"segments": [[0, 1]]},
        "stream_length": 51,
        "montecarlo": {
            "replications": 3 if tiny else 12,
            "eval_streams": 20 if tiny else 200,
            "horizon": 51,
            "observe_agent": 0,
            "strategies": ["sml", "adaboost"],
        },
    }
    return Workload("mc_compare", config, ("montecarlo",), claim="sml_below_adaboost")


def _long_stream(seed: int, size: str, work_dir: str) -> Workload:
    """Three classes switching every 500 steps, adaptive engine, tiny models."""
    tiny = size == "tiny"
    means = {"1": [0.6, 0.0], "2": [-0.3, 0.52], "3": [-0.3, -0.52]}
    agents = [
        {label: {"mean": mean, "cov": [[1.0, 0.0], [0.0, 1.0]]} for label, mean in means.items()}
        for _ in range(4)
    ]
    config = {
        "seed": seed,
        "classes": [1, 2, 3],
        "engine": "asl",
        "delta": 0.05,
        "graph": {"ring": 4},
        "data": {"type": "gaussian", "agents": agents},
        "model": {
            "hidden": [4],
            "activation": "tanh",
            "epochs": 2,
            "batch_size": 10,
            "learning_rate": 0.05,
            "repetitions": 1,
        },
        "train_per_class": 20,
        "schedule": {"period": 500, "states": [1, 2, 3]},
        "stream_length": 1200 if tiny else 8000,
    }
    return Workload("long_stream", config, ("train", "predict"))


def _templates() -> dict:
    """Two 28x28 stroke templates in [0, 1]: a vertical bar and a ring."""
    rows, cols = np.mgrid[0:IMAGE_SIDE, 0:IMAGE_SIDE]
    bar = ((cols >= 11) & (cols <= 16) & (rows >= 4) & (rows <= 23)).astype(float)
    radius = np.hypot(rows - 13.5, cols - 13.5)
    ring = ((radius >= 6.0) & (radius <= 9.5)).astype(float)
    return {0: bar, 1: ring}


def synthetic_digits(rng: np.random.Generator, per_class: int) -> tuple:
    """Shuffled uint8 images (n, 28, 28) and labels (n,) of two overlapping classes.

    Each image is its class template at low contrast under heavy pixel noise,
    so one patch of one image leaves both classes plausible.
    """
    templates = _templates()
    images = []
    labels = []
    for label, template in templates.items():
        noise = rng.normal(0.0, 60.0, size=(per_class, IMAGE_SIDE, IMAGE_SIDE))
        pixels = 70.0 + 22.0 * template + noise
        images.append(np.clip(np.rint(pixels), 0, 255).astype(np.uint8))
        labels.append(np.full(per_class, label, dtype=np.uint8))
    images = np.concatenate(images)
    labels = np.concatenate(labels)
    order = rng.permutation(labels.size)
    return images[order], labels[order]


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_idx_dataset(work_dir: str, images: np.ndarray, labels: np.ndarray) -> str:
    """IDX image and label files plus their sha256 manifest; returns its path."""
    n, height, width = images.shape
    paths = {"images": "images.idx", "labels": "labels.idx"}
    with open(os.path.join(work_dir, paths["images"]), "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, height, width) + images.tobytes())
    with open(os.path.join(work_dir, paths["labels"]), "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, n) + labels.tobytes())
    manifest = {
        "format": "idx",
        "files": {
            name: {"path": rel, "sha256": _sha256(os.path.join(work_dir, rel))}
            for name, rel in paths.items()
        },
    }
    manifest_path = os.path.join(work_dir, "dataset.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest_path


def _image_mc(seed: int, size: str, work_dir: str) -> Workload:
    """Monte Carlo on synthetic IDX digits split into 2x2 patch agents."""
    tiny = size == "tiny"
    rng = np.random.default_rng([seed, 4])
    images, labels = synthetic_digits(rng, 150 if tiny else 6000)
    manifest = write_idx_dataset(work_dir, images, labels)
    config = {
        "seed": seed,
        "classes": [1, -1],
        "engine": "sl",
        "graph": {"grid": [2, 2]},
        "data": {
            "type": "images",
            "manifest": os.path.basename(manifest),
            "height": IMAGE_SIDE,
            "width": IMAGE_SIDE,
            "layout": [2, 2],
            "label_map": {"1": 0, "-1": 1},
        },
        "model": {
            "hidden": [8],
            "activation": "tanh",
            "epochs": 5,
            "batch_size": 20,
            "learning_rate": 0.05,
            "repetitions": 1,
        },
        "train_per_class": 100,
        "schedule": {"segments": [[0, 1]]},
        "stream_length": 20,
        "montecarlo": {
            "replications": 2 if tiny else 3,
            "eval_streams": 5 if tiny else 8,
            "horizon": 20,
            "observe_agent": 0,
            "strategies": ["sml", "adaboost"],
        },
    }
    return Workload(
        "image_mc", config, ("montecarlo",), claim="sml_at_most_adaboost", dataset_manifest=manifest
    )


BUILDERS = {
    "demo_train": _demo_train,
    "mc_compare": _mc_compare,
    "long_stream": _long_stream,
    "image_mc": _image_mc,
}


def build(name: str, seed: int, size: str, work_dir: str) -> tuple:
    """Generate the workload's inputs under ``work_dir``; returns (workload, config path)."""
    workload = BUILDERS[name](seed, size, work_dir)
    config_path = os.path.join(work_dir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(workload.config, fh, indent=2, sort_keys=True)
    return workload, config_path
