#!/usr/bin/env python3
"""Run the 4-agent 2-D Gaussian demo end to end.

Only agent 1 (0-indexed) can tell the two classes apart, and only through a
covariance contrast, so single-shot accuracy is barely above chance for
everyone.  Under a fixed true state the log-belief ratio of every agent
drifts linearly with time via diffusion over the directed ring, at the
network's drift: the Perron-weighted mean of the debiased statistics under
that class.  It grows toward the true class only when the trained network
meets the consistency conditions, and at this budget it often does not:
over seeds 1-5 and 3 repetitions each, 5 of 15 trained networks drifted
with the right signs under both classes (point estimates from 100,000 draws
a class).  Trains the agents, runs one long prediction stream, and writes
risk_trace.csv / trajectory.csv / summary.json under --out, printing the
growth checkpoints.
"""

import argparse
import json
import sys

import numpy as np

from socialml.config import gaussian_spec_to_json, validate_config
from socialml.data import one_informative_gaussian_spec
from socialml.experiments import cmd_predict, cmd_train


def build_config(seed: int, stream_length: int) -> dict:
    spec = one_informative_gaussian_spec(n_agents=4, informative=1, dim=2)
    classes = [1, -1]
    return {
        "seed": seed,
        "classes": classes,
        "engine": "sl",
        "graph": {"ring": 4},
        "data": gaussian_spec_to_json(spec, classes),
        "model": {
            "hidden": [10, 10],
            "activation": "tanh",
            "epochs": 300,
            "batch_size": 3,
            "learning_rate": 1e-4,
            "optimizer": "adam",
            "init_scale": 3.0,
            "repetitions": 3,
        },
        "train_per_class": 100,
        "schedule": {"segments": [[0, 1]]},
        "stream_length": stream_length,
    }


def growth_checkpoints(out_dir: str, agent: int = 0):
    lam = {}
    with open(f"{out_dir}/trajectory.csv") as fh:
        for line in fh.read().splitlines()[2:]:
            _, i, k, _, value, *_ = line.split(",")
            if int(k) == agent:
                lam[int(i)] = float(value)
    steps = sorted(lam)
    marks = [steps[len(steps) * q // 4 - 1] for q in (1, 2, 3, 4)]
    return {i: lam[i] for i in marks}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/gaussian_demo")
    parser.add_argument("--seed", type=int, default=2029)
    parser.add_argument("--stream-length", type=int, default=2000)
    args = parser.parse_args()

    cfg = validate_config(build_config(args.seed, args.stream_length), ".")
    train_summary = cmd_train(cfg, args.out)
    predict_summary = cmd_predict(cfg, args.out)
    checkpoints = growth_checkpoints(args.out)
    accuracy = predict_summary["cycles"][0]["accuracy_per_agent"]
    print(json.dumps({
        "train": train_summary,
        "agent0_lambda_checkpoints": checkpoints,
        "accuracy_per_agent": [round(a, 3) for a in accuracy],
    }, indent=2))
    slope = np.polyfit(list(checkpoints), list(checkpoints.values()), 1)[0]
    print(f"agent 0 log-ratio slope over the stream: {slope:.4f} per step")
    print(f"artifacts written under {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
