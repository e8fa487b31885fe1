#!/usr/bin/env python3
"""The byte ledger: the sha256 of every artifact of a small config matrix.

The matrix runs every command (``train``, ``predict``, ``montecarlo`` and
``theory``) through ``socialml.cli.main`` on eight small scenes:

- ``gauss2``: two classes on heterogeneous Gaussian agents (1-D and 2-D),
  ``sl``, a periodic schedule, norm-bounded models and an analytic-beta
  theory block; ``montecarlo`` runs SML and AdaBoost serially and with
  ``--threads 2``, both recorded under one hash;
- ``gauss3``: three string classes, ``asl``, a ``segments`` schedule, adam;
- ``idx``: two classes of an IDX image dataset, ``asl``, periodic, SML and
  AdaBoost;
- ``csv``: three string classes of a CSV image dataset through a label map,
  ``sl``, ``segments``, a 2x3 patch grid whose last column is wider;
- ``ties``: three classes of blank images, so every statistic and every
  log-belief ratio is exactly 0 and each decision is ``decide``'s tie rule;
- ``long``: two classes of 1-D Gaussian agents on a 4-ring, ``(2, 32, 2)``
  networks, ``asl`` and a periodic schedule whose segments cross block
  edges, over a ``predict`` stream of 2,600 steps: two time blocks of 1,300;
- ``cycle``: two classes of 1-D Gaussian agents, ``sl``, a period-3
  schedule whose Monte Carlo horizon of 11 steps runs past the 5-step
  ``predict`` stream, so ``montecarlo`` reads the schedule's cycle again
  beyond ``stream_length``;
- ``grouped``: two classes of the IDX dataset, relu, adam and a norm bound,
  seven repetitions and seven Monte Carlo replications of four patch
  agents, so ``train`` (trace on) and each ``montecarlo`` chunk train 28
  uint8 models in one stack.

The hashes hold only under the environment they were recorded in: the
Python minor version, the numpy version and the BLAS that numpy reports.
``tests/test_byte_ledger.py`` compares them when the key matches and skips,
naming both keys, when it does not.

Usage: ``byte_ledger.py`` checks the ledger and exits 1 on a moved hash;
``byte_ledger.py --write`` records it again.  Run it with the package
installed, or with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

from socialml.cli import main as socialml

LEDGER = Path(__file__).resolve().parents[1] / "tests" / "bytes_ledger.json"

MODEL = {"hidden": [3], "epochs": 2, "batch_size": 5, "learning_rate": 0.05}


def _gaussian(means_by_agent) -> dict:
    """A Gaussian data block: per agent, class text -> mean, unit covariance."""
    return {
        "type": "gaussian",
        "agents": [
            {label: {"mean": mean, "cov": np.eye(len(mean)).tolist()} for label, mean in agent}
            for agent in means_by_agent
        ],
    }


CONFIGS = {
    "gauss2": {
        "seed": 1, "classes": [1, -1], "engine": "sl", "graph": {"ring": 2},
        "data": _gaussian([
            [("1", [0.5]), ("-1", [-0.5])],
            [("1", [0.3, 0.0]), ("-1", [-0.3, 0.2])],
        ]),
        "model": {**MODEL, "norm_bound": 4.0, "repetitions": 2},
        "train_per_class": 10, "schedule": {"period": 4}, "stream_length": 12,
        "montecarlo": {"replications": 3, "eval_streams": 3, "horizon": 8},
        "theory": {"target_risk": 0.2, "beta": "analytic", "grid_points": 5},
    },
    "gauss3": {
        "seed": 2, "classes": ["b", "a", "5%"], "engine": "asl", "delta": 0.2,
        "graph": {"ring": 3},
        "data": _gaussian(
            [[("b", [0.8]), ("a", [0.0]), ("5%", [-0.8])]] * 2
            + [[("b", [0.4, 0.4]), ("a", [0.0, 0.0]), ("5%", [-0.4, 0.4])]]
        ),
        "model": {**MODEL, "optimizer": "adam"},
        "train_per_class": 10, "stream_length": 12,
        "schedule": {"segments": [[0, "a"], [4, "5%"], [8, "b"]]},
        "montecarlo": {"replications": 2, "eval_streams": 2, "strategies": ["sml"]},
    },
    "idx": {
        "seed": 4, "classes": [1, -1], "engine": "asl", "delta": 0.3, "graph": {"grid": [2, 2]},
        "data": {"type": "images", "manifest": "dataset.json", "height": 8, "width": 8,
                 "layout": [2, 2], "label_map": {"1": 1, "-1": 2}},
        "model": {**MODEL, "hidden": [4]},
        "train_per_class": 12, "schedule": {"period": 3}, "stream_length": 9,
        "montecarlo": {"replications": 2, "eval_streams": 3, "horizon": 6},
    },
    "csv": {
        "seed": 5, "classes": ["x", "y", "z"], "engine": "sl", "graph": {"grid": [2, 3]},
        "data": {"type": "images", "manifest": "csv/dataset.json", "height": 8, "width": 8,
                 "layout": [2, 3], "label_map": {"x": 0, "y": 1, "z": 2}},
        "model": MODEL,
        "train_per_class": 8, "stream_length": 8,
        "schedule": {"segments": [[0, "z"], [5, "x"]]},
        "montecarlo": {"replications": 2, "eval_streams": 2, "strategies": ["sml"]},
    },
    # 8 rows a class: a pair's 16 equal logits average to their value exactly
    "ties": {
        "seed": 6, "classes": ["u", "v", "w"], "engine": "sl", "graph": {"grid": [1, 2]},
        "data": {"type": "images", "manifest": "dataset.json", "height": 8, "width": 8,
                 "layout": [1, 2], "label_map": {"u": 3, "v": 4, "w": 5}},
        "model": MODEL,
        "train_per_class": 8, "stream_length": 6, "schedule": {"period": 2},
    },
    # long enough for predict's time blocks: a segment crosses the block edge
    # at step 1,300
    "long": {
        "seed": 7, "classes": [1, -1], "engine": "asl", "delta": 0.1, "graph": {"ring": 4},
        "data": _gaussian([[("1", [0.4]), ("-1", [-0.4])]] * 4),
        "model": {**MODEL, "hidden": [32]},
        "train_per_class": 10, "schedule": {"period": 700}, "stream_length": 2600,
    },
    # the Monte Carlo horizon is longer than the predict stream, and the
    # schedule repeats within each
    "cycle": {
        "seed": 8, "classes": [1, -1], "engine": "sl", "graph": {"ring": 2},
        "data": _gaussian([[("1", [0.5]), ("-1", [-0.5])]] * 2),
        "model": MODEL,
        "train_per_class": 8, "schedule": {"period": 3}, "stream_length": 5,
        "montecarlo": {"replications": 2, "eval_streams": 3, "horizon": 11, "strategies": ["sml"]},
    },
    # 28 byte-row models a stack: risk passes in groups of 3, the last of 1
    "grouped": {
        "seed": 9, "classes": [1, -1], "engine": "sl", "graph": {"grid": [2, 2]},
        "data": {"type": "images", "manifest": "dataset.json", "height": 8, "width": 8,
                 "layout": [2, 2], "label_map": {"1": 0, "-1": 2}},
        "model": {**MODEL, "hidden": [4], "activation": "relu", "optimizer": "adam",
                  "norm_bound": 3.0, "repetitions": 7},
        "train_per_class": 10, "schedule": {"period": 3}, "stream_length": 6,
        "montecarlo": {"replications": 7, "eval_streams": 3, "horizon": 6},
    },
}

# (config, command, extra arguments); a run's ledger entry is
# "<config>/<command>", so both montecarlo runs of gauss2 write under one
# entry and a process pool must write the serial bytes
RUNS = [
    *((name, command, ()) for name in CONFIGS for command in ("train", "predict", "montecarlo")
      if name not in ("ties", "long", "cycle", "grouped")),
    ("gauss2", "montecarlo", ("--threads", "2")),
    ("ties", "predict", ()),
    ("long", "predict", ()),
    ("cycle", "predict", ()),
    ("cycle", "montecarlo", ()),
    ("grouped", "train", ()),
    ("grouped", "montecarlo", ()),
    ("gauss2", "theory", ()),
]


def environment_key() -> dict:
    """The Python minor version, the numpy version and numpy's BLAS."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = "unknown"
    return {
        "python": "{}.{}".format(*sys.version_info[:2]),
        "numpy": np.__version__,
        "blas": blas,
    }


def write_datasets(root: Path) -> None:
    """An 8x8 IDX dataset and its CSV twin under ``csv/``: 90 noisy images of
    labels 0-2, then 8 blank images each of labels 3-5."""
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 3, 90).astype(np.uint8)
    images = rng.integers(0, 256, (90, 8, 8), dtype=np.uint8)
    images[labels == 1, :3] = 255
    images[labels == 2, :, :2] = 0
    labels = np.concatenate([labels, np.repeat(np.arange(3, 6, dtype=np.uint8), 8)])
    images = np.concatenate([images, np.zeros((24, 8, 8), np.uint8)])
    files = {
        "images": ("images.idx", struct.pack(">IIII", 0x803, labels.size, 8, 8) + images.tobytes()),
        "labels": ("labels.idx", struct.pack(">II", 0x801, labels.size) + labels.tobytes()),
    }
    text = "".join(
        f"{label}," + ",".join(map(str, image.ravel().tolist())) + "\n"
        for label, image in zip(labels.tolist(), images)
    )
    for fmt, where, blobs in (
        ("idx", root, files),
        ("csv", root / "csv", {"data": ("data.csv", text.encode())}),
    ):
        where.mkdir(exist_ok=True)
        entries = {}
        for name, (path, blob) in blobs.items():
            (where / path).write_bytes(blob)
            entries[name] = {"path": path, "sha256": hashlib.sha256(blob).hexdigest()}
        (where / "dataset.json").write_text(json.dumps({"format": fmt, "files": entries}))


def run_matrix(root) -> list:
    """Run every entry of ``RUNS`` under ``root``: one ``(entry, {artifact:
    sha256})`` pair per run, in ``RUNS`` order."""
    root = Path(root)
    write_datasets(root)
    for name, raw in CONFIGS.items():
        (root / f"{name}.json").write_text(json.dumps(raw))
    results = []
    for i, (name, command, extra) in enumerate(RUNS):
        entry, out = f"{name}/{command}", root / "out" / str(i)
        argv = [command, "--config", str(root / f"{name}.json"), "--out", str(out), *extra]
        with contextlib.redirect_stdout(io.StringIO()):
            status = socialml(argv)
        if status != 0:
            raise RuntimeError(f"{entry}: socialml {' '.join(argv)} exited {status}")
        hashes = {}
        for path in sorted(out.rglob("*")):
            if path.is_file():
                hashes[path.relative_to(out).as_posix()] = hashlib.sha256(
                    path.read_bytes()
                ).hexdigest()
        results.append((entry, hashes))
    return results


def moved_entries(ledger: dict, results) -> list:
    """The entries whose hashes differ from ``ledger``'s, or that it lacks or
    that no run wrote."""
    recorded = ledger["entries"]
    moved = [entry for entry, hashes in results if recorded.get(entry) != hashes]
    moved += sorted(set(recorded) - {entry for entry, _ in results})
    return list(dict.fromkeys(moved))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="record the ledger again")
    parser.add_argument("--ledger", default=str(LEDGER))
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        results = run_matrix(tmp)
    if args.write:
        entries = {}
        for entry, hashes in results:
            if entries.setdefault(entry, hashes) != hashes:
                print(f"{entry}: two runs wrote different bytes", file=sys.stderr)
                return 1
        ledger = {"key": environment_key(), "entries": entries}
        with open(args.ledger, "w") as fh:
            json.dump(ledger, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{len(entries)} entries written to {args.ledger}")
        return 0
    with open(args.ledger) as fh:
        ledger = json.load(fh)
    if ledger["key"] != environment_key():
        print(f"ledger key {ledger['key']} differs from this environment's "
              f"{environment_key()}; nothing compared")
        return 0
    moved = moved_entries(ledger, results)
    for entry in moved:
        print(f"moved: {entry}", file=sys.stderr)
    if not moved:
        print(f"all {len(ledger['entries'])} entries match")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
