"""Every command's manifest.json lists exactly the files it wrote: the
relative path of every file under ``--out``, each once, and nothing else."""

import json
import os

import numpy as np
import pytest

from socialml.cli import main
from test_cli import base_config, write_config
from test_images_end_to_end import image_config, write_idx_dataset


def written_files(out) -> list:
    return sorted(
        os.path.relpath(os.path.join(root, name), out)
        for root, _, names in os.walk(out)
        for name in names
    )


def assert_manifest_exact(out) -> None:
    with open(os.path.join(out, "manifest.json")) as fh:
        listed = json.load(fh)["artifacts"]
    assert len(listed) == len(set(listed)), listed
    assert sorted(listed) == written_files(out)


def gaussian(tmp_path):
    return write_config(tmp_path, base_config())


def idx_images(tmp_path):
    write_idx_dataset(tmp_path, np.random.default_rng(3), n_per_class=40)
    cfg = image_config("dataset.json", train_per_class=20)
    cfg["model"]["epochs"] = 2
    cfg["montecarlo"].update(replications=2, eval_streams=3, horizon=10)
    return write_config(tmp_path, cfg)


@pytest.mark.parametrize(
    "command, options, config",
    [
        ("train", [], gaussian),
        ("predict", [], gaussian),
        ("montecarlo", ["--threads", "1"], gaussian),
        ("montecarlo", ["--threads", "2"], gaussian),
        ("theory", [], gaussian),
        ("montecarlo", ["--threads", "1"], idx_images),
    ],
    ids=["train", "predict", "montecarlo-serial", "montecarlo-pool", "theory", "montecarlo-idx"],
)
def test_manifest_lists_exactly_the_files_written(tmp_path, command, options, config):
    out = tmp_path / "out"
    path = config(tmp_path)
    assert main([command, "--config", str(path), "--out", str(out), *options]) == 0
    assert_manifest_exact(out)
    if command == "train":
        # models/ is listed file by file, one model per agent
        assert len(os.listdir(out / "models")) == 4
