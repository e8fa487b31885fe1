"""Span tracing for the benchmark's traced rounds.

``install`` wraps the public functions of the layer modules, plus the
evaluation methods of ``DebiasedStatistic``, in every ``socialml`` module
namespace that holds them: ``experiments``, ``boosting`` and ``cli`` import
names directly, so patching the defining module alone would miss their
calls.  Each call records a span (id, parent, name, start, end) in memory.
Counters at the same boundaries record the work done.  ``layer_metrics``
turns spans and counters into the per-layer metrics; every ``*_s`` metric is
the self time (span minus child spans) summed over its functions, so the
time metrics never overlap and their sum over ``run_s`` is the share of the
run that the named layers cover.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYER_MODULES = ("mlp", "stats", "data", "social", "boosting", "experiments", "config")

# metric -> functions whose self time it sums
SELF_TIME = {
    "mlp.train_s": ("mlp.train_erm", "mlp.initialize_model"),
    "mlp.forward_s": (
        "mlp.output_preactivations",
        "mlp.forward",
        "mlp.binary_logit",
        "mlp.reference_logits",
        "mlp.softmax",
    ),
    "stats.statistic_s": ("stats.DebiasedStatistic.__call__", "stats.DebiasedStatistic.scalar"),
    "stats.debias_s": ("stats.make_debiased_statistic",),
    "data.stream_s": ("data.prediction_stream",),
    "data.idx_read_s": ("data.read_idx_images", "data.read_idx_labels"),
    "data.scale_s": ("data.scale_pixels",),
    "data.split_s": ("data.split_patches",),
    "social.run_prediction_s": ("social.run_prediction", "social.sl_step", "social.asl_step"),
    "social.decide_s": ("social.decide",),
    "boosting.adaboost_self_s": ("boosting.adaboost_train",),
    "experiments.training_scene_s": ("experiments.shared_scene_training",),
    "experiments.mc_replication_self_s": ("experiments.montecarlo_replication",),
    "experiments.command_self_s": (
        "experiments.cmd_train",
        "experiments.cmd_predict",
        "experiments.cmd_montecarlo",
        "experiments.cmd_theory",
    ),
    "config.validate_s": ("config.validate_config", "config.load_config"),
}


def _rows(features) -> int:
    shape = np.shape(features)
    return 1 if len(shape) < 2 else int(shape[0])


def train_flop(n_rows: int, layer_sizes, epochs: int) -> int:
    """Matmul FLOPs of ``train_erm``: every epoch runs forward and backward
    over all rows in mini-batches, then once more as the full-batch risk pass.

    Per row: forward 2*sum(n_{l-1} n_l), weight gradients the same, and
    delta propagation 2*sum over layers above the first.  Elementwise work
    is not counted.
    """
    pairs = [a * b for a, b in zip(layer_sizes[:-1], layer_sizes[1:])]
    per_row = 4 * sum(pairs) + 2 * sum(pairs[1:])
    return epochs * 2 * n_rows * per_row


def _count_train(counts, args):
    dataset, arch, hyper = args["dataset"], args["arch"], args["hyper"]
    n = len(dataset)
    counts["train_steps"] += hyper.epochs * math.ceil(n / hyper.batch_size)
    counts["train_flop"] += train_flop(n, arch.layer_sizes, hyper.epochs)


def _count_stream(counts, args):
    length = int(args["length"])
    counts["stream_rows"] += length
    layout = args.get("layout")
    if layout is not None:
        counts["pixels_streamed"] += length * layout.height * layout.width


def _count_pixels(counts, args):
    counts["pixels_scaled"] += int(np.asarray(args["images"]).size)


COUNTERS = {
    "mlp.train_erm": _count_train,
    "mlp.output_preactivations": lambda c, a: c.update(forward_rows=_rows(a["features"])),
    "stats.DebiasedStatistic.__call__": lambda c, a: c.update(
        statistic_rows=_rows(a["features"])
    ),
    "data.prediction_stream": _count_stream,
    "data.scale_pixels": _count_pixels,
}


class Tracer:
    """In-memory spans and counters of one traced round."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []  # (span id, parent id, name, start, end)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []  # [span id, start, child time]
        self._next_id = 0

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts, bound.arguments)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - frame[1]
                self.self_s[name] += duration - frame[2]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][2] += duration
                self.spans.append((span_id, parent, name, frame[1], end))

        return traced

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("span_id,parent_id,name,start_s,end_s\n")
            for span_id, parent, name, start, end in sorted(self.spans):
                fh.write(
                    f"{span_id},{parent},{name},{start - self.origin!r},{end - self.origin!r}\n"
                )


def install(tracer: Tracer) -> None:
    """Replace every public layer function, wherever a package module holds it."""
    package = [m for n, m in sys.modules.items() if n == "socialml" or n.startswith("socialml.")]
    wrapped = {}
    for short in LAYER_MODULES:
        module = sys.modules[f"socialml.{short}"]
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                wrapped[id(value)] = (value, tracer.wrap(f"{short}.{attr}", value))
    for module in package:
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    statistic = sys.modules["socialml.stats"].DebiasedStatistic
    for method in ("__call__", "scalar"):
        original = vars(statistic)[method]
        setattr(statistic, method, tracer.wrap(f"stats.DebiasedStatistic.{method}", original))


def layer_metrics(tracer: Tracer, run_s: float) -> dict:
    """Per-layer metrics of one traced round, as name -> (value, unit)."""
    times = {
        metric: sum(tracer.self_s.get(name, 0.0) for name in names)
        for metric, names in SELF_TIME.items()
    }
    calls, counts = tracer.calls, tracer.counts
    steps = counts["train_steps"]
    gflop = counts["train_flop"] / 1e9
    social_steps = calls["social.sl_step"] + calls["social.asl_step"]
    streamed = counts["pixels_streamed"]
    metrics = {
        "mlp.train_calls": (calls["mlp.train_erm"], "count"),
        "mlp.train_steps": (steps, "count"),
        "mlp.train_s": (times["mlp.train_s"], "s"),
        "mlp.step_us": (1e6 * times["mlp.train_s"] / steps if steps else 0.0, "us"),
        "mlp.train_gflop": (gflop, "GFLOP"),
        "mlp.train_gflop_per_s": (gflop / times["mlp.train_s"] if steps else 0.0, "GFLOP/s"),
        "mlp.forward_rows": (counts["forward_rows"], "count"),
        "mlp.forward_s": (times["mlp.forward_s"], "s"),
        "stats.statistic_rows": (counts["statistic_rows"], "count"),
        "stats.statistic_s": (times["stats.statistic_s"], "s"),
        "stats.debias_s": (times["stats.debias_s"], "s"),
        "data.stream_calls": (calls["data.prediction_stream"], "count"),
        "data.stream_rows": (counts["stream_rows"], "count"),
        "data.stream_s": (times["data.stream_s"], "s"),
        "data.idx_reads": (calls["data.read_idx_images"] + calls["data.read_idx_labels"], "count"),
        "data.idx_read_s": (times["data.idx_read_s"], "s"),
        "data.pixels_scaled": (counts["pixels_scaled"], "count"),
        "data.scale_s": (times["data.scale_s"], "s"),
        "data.split_s": (times["data.split_s"], "s"),
        "data.pixels_scaled_per_streamed": (
            counts["pixels_scaled"] / streamed if streamed else 0.0,
            "ratio",
        ),
        "social.steps": (social_steps, "count"),
        "social.run_prediction_s": (times["social.run_prediction_s"], "s"),
        "social.step_us": (
            1e6 * (times["social.run_prediction_s"] + times["social.decide_s"]) / social_steps
            if social_steps
            else 0.0,
            "us",
        ),
        "social.decide_s": (times["social.decide_s"], "s"),
        "boosting.adaboost_calls": (calls["boosting.adaboost_train"], "count"),
        "boosting.adaboost_self_s": (times["boosting.adaboost_self_s"], "s"),
        "experiments.training_scene_s": (times["experiments.training_scene_s"], "s"),
        "experiments.mc_replication_self_s": (times["experiments.mc_replication_self_s"], "s"),
        "experiments.command_self_s": (times["experiments.command_self_s"], "s"),
        "config.validate_s": (times["config.validate_s"], "s"),
        "config.derived_seeds": (calls["config.derived_seed"], "count"),
        "trace.covered_share": (sum(times.values()) / run_s, "share"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    return metrics
