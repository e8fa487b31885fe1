"""Experiment runners behind the CLI subcommands.

Every command reads a validated configuration, derives all randomness from
the master seed through fixed phase paths, and writes through one
``_Output``: it creates the output directory at the first write, so a failed
command leaves nothing behind, heads CSVs with a ``# config=... seed=...``
line and JSON artifacts with a ``meta`` block, and lists in ``manifest.json``
exactly the files it wrote.  ``_evaluate`` draws and runs every prediction
stream, ``predict``'s in time blocks that it holds one at a time, so
``predict``'s stream is a prefix of Monte Carlo replication 0's first
stream, whatever the two lengths.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from functools import partial

import numpy as np

from . import data as data_mod
from .boosting import adaboost_decide, adaboost_train_stack
from .config import (
    PHASE_BOOST_MODEL,
    PHASE_STREAM,
    PHASE_TRAIN_DATA,
    PHASE_TRAIN_MODEL,
    ConfigError,
    ExperimentConfig,
)
from .graph import perron_eigenvector
from .mlp import FORWARD_BLOCK_ROWS, TrainingDiverged, save_model, train_stack
from .seeds import derived_seeds, generators
from .social import PredictionRun, run_prediction
from .stats import make_debiased_statistic

# Cap on the stacked SML training inputs of one Monte Carlo chunk, counted at
# 8 bytes per augmented input entry, summed over agents and replications:
# the size of ``train_stack``'s stack of float rows.  Image rows stay uint8 in
# that stack, so for them the cap bounds eight times the stacked bytes, and
# training adds one float buffer, of a mini-batch of every model or of a risk
# group whose floats fit in the stack's bytes.  A 28x28 image replication of
# 4 patch agents with 200 training rows counts 1.26 MB and stacks 158 kB.
# Three of them (the image_mc benchmark scene at seed 3, one process, 2
# vCPUs, numpy 2.4.6) peak at 38.4 MiB resident (2.8 MiB traced by
# tracemalloc) in one chunk and at 37.8 MiB (1.8 MiB traced) one per chunk;
# a float stack peaked at 41.2 and 38.4 MiB.  Neither peak holds any of the
# IDX body beyond the images a draw picks and its scratch window
# (``data.IDX_WINDOW_BYTES``), as draws read the file.  4 MiB fits those 3
# replications in one chunk, and 1,638 of the criterion-09 scene (4 agents,
# 40 rows of 1 feature).
CHUNK_INPUT_BYTES = 1 << 22


# Rows per trajectory.csv text block.  Each block's lists and strings are
# freed before the next is built, so memory stays flat as the stream grows.
# On long_stream's 64,000 rows (one vCPU in a slow phase, numpy 2.4.6) the
# float reprs alone took 57.5 ms and the writer 72.6, 69.8 and 67.0 ms at
# 128, 256 and 512 rows a block, its traced allocations peaking at 37, 71
# and 139 KiB.  256 rows gives the benchmark the peak RSS of 128 on
# demo_train and long_stream; 512 added about 0.1 MiB on long_stream.
TRAJECTORY_BLOCK_ROWS = 256


class _Output:
    """One command's output directory: ``path`` records every file it hands
    out, and ``close`` lists them, its own too, in ``manifest.json``."""

    def __init__(self, cfg: ExperimentConfig, out_dir, command: str):
        self.cfg, self.out_dir, self.command, self.names = cfg, out_dir, command, []

    def path(self, name: str) -> str:
        path = os.path.join(self.out_dir, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self.names.append(name)
        return path

    def csv(self, name: str, columns, blocks) -> None:
        """Header, column names, then ``blocks``: preformatted lines of text.

        Floats are formatted as ``repr`` of Python floats (``.tolist()``
        values), the shortest text that reads back to the same number.  If
        ``blocks`` raises, the partial file goes, and so does the output
        directory once it is empty.
        """
        path = self.path(name)
        try:
            with open(path, "w") as fh:
                fh.write(f"# config={self.cfg.digest[:16]} seed={self.cfg.seed}\n")
                fh.write(",".join(columns) + "\n")
                fh.writelines(blocks)
        except BaseException:
            os.remove(path)
            with contextlib.suppress(OSError):
                os.rmdir(self.out_dir)
            raise

    def json(self, name: str, payload: dict) -> None:
        meta = {"config_sha256": self.cfg.digest, "seed": self.cfg.seed, "command": self.command}
        with open(self.path(name), "w") as fh:
            json.dump({"meta": meta, **payload}, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def close(self) -> None:
        self.json("manifest.json", {"artifacts": sorted([*self.names, "manifest.json"])})


def _trajectory_lines(run: PredictionRun, states, classes, first: int = 0):
    """trajectory.csv rows of one run, one text block per
    ``TRAJECTORY_BLOCK_ROWS`` rows.

    A row is (run_id, i, agent, gamma, lambda, decision, true_state,
    correct) for every step i, agent and lambda component ``gamma``, the
    classes after the reference one; ``states`` is the run's true
    class-index track and ``first`` the index of its first step, so a
    stream's time blocks write the rows of one run.  The class labels
    become text here.
    """
    _, n_agents, width = run.lam.shape
    per_step = n_agents * width
    steps = max(1, TRAJECTORY_BLOCK_ROWS // per_step)
    texts = [str(label) for label in classes]
    # a row is four pieces, each built a column at a time: "0,<i>",
    # ",<agent>,<gamma>,", repr(lambda) and ",<decision>,<true_state>,<correct>\n"
    fixed = [f",{k},{gamma}," for k in range(n_agents) for gamma in texts[1:]] * steps
    # tails[t, p, c] ends a row whose true state is class t, whose pick is
    # class p and whose correct flag is c
    tails = np.array(
        [[[f",{d},{t},{c}\n" for c in (0, 1)] for d in texts] for t in texts], dtype=object
    )
    pieces = [None] * (4 * steps * per_step)
    for lo in range(0, run.horizon, steps):
        hi = min(lo + steps, run.horizon)
        rows = (hi - lo) * per_step
        del pieces[4 * rows :]  # only the last block can be shorter
        lead = np.array([f"0,{i}" for i in range(first + lo, first + hi)], dtype=object)
        pieces[0::4] = np.repeat(lead, per_step).tolist()
        pieces[1::4] = fixed[:rows]
        pieces[2::4] = map(repr, run.lam[lo:hi].ravel().tolist())
        # a bool array would index as a mask, so correct goes in as 0 or 1
        tail = tails[states[lo:hi, None], run.picks[lo:hi], run.correct[lo:hi].view(np.uint8)]
        pieces[3::4] = np.repeat(tail, width, axis=1).ravel().tolist()
        yield "".join(pieces)


# --- data assembly ---------------------------------------------------------


def shared_scene_training(cfg: ExperimentConfig, reps) -> list:
    """Balanced training scenes shared by all agents, one ``(views, labels)``
    pair of ``data.training_scene`` per repetition in ``reps``, each drawn
    from its own training-data generator."""
    if cfg.train_per_class < 1:
        raise ConfigError("training needs train_per_class >= 1")
    rngs = generators(derived_seeds(cfg.seed, PHASE_TRAIN_DATA, [(rep,) for rep in reps]))
    return [data_mod.training_scene(cfg.scene, cfg.train_per_class, rng) for rng in rngs]


def train_agents(cfg: ExperimentConfig, reps, scenes, trace=True):
    """Per-agent empirical risk minimization for every repetition in ``reps``.

    ``scenes[i]`` is the ``(views, labels)`` scene repetition ``reps[i]``
    trains on, and the model seeds follow the repetition index.  All
    (repetition, agent) pairs whose agents share an architecture train in
    one ``train_stack`` call.  Returns ``(models, risks, logits)``:
    ``models`` indexed ``[position in reps][agent]``, ``risks`` the
    (len(reps), K, epochs) empirical risk of every model after each epoch,
    or None with ``trace`` off, and ``logits`` indexed like ``models``, each
    model's (N, M-1) reference logits on its training rows, as
    ``train_stack`` returns them.  A diverging model raises
    ``TrainingDiverged`` naming its agent, with ``model`` set to its
    position in ``reps``.
    """
    groups: dict = {}
    for i in range(len(reps)):
        for k, arch in enumerate(cfg.arch_by_agent):
            groups.setdefault(arch, []).append((i, k))
    models = [[None] * cfg.n_agents for _ in reps]
    logits = [[None] * cfg.n_agents for _ in reps]
    risks = np.empty((len(reps), cfg.n_agents, cfg.hyper.epochs)) if trace else None
    for arch, pairs in groups.items():
        seeds = derived_seeds(cfg.seed, PHASE_TRAIN_MODEL, [(reps[i], k) for i, k in pairs])
        try:
            trained, risk, scores = train_stack(
                [scenes[i][0][k] for i, k in pairs],
                [scenes[i][1] for i, _ in pairs],
                arch,
                cfg.hyper,
                seeds,
                trace=trace,
            )
        except TrainingDiverged as exc:
            i, k = pairs[exc.model]
            raise TrainingDiverged(f"agent {k}: {exc}", i) from exc
        for (i, k), model, score in zip(pairs, trained, scores):
            models[i][k] = model
            logits[i][k] = score
        if trace:
            for (i, k), row in zip(pairs, risk):
                risks[i, k] = row
    return models, risks, logits


def _trained_statistics(cfg: ExperimentConfig, reps, scenes) -> list:
    """``train_agents`` with the trace off, then the debiased statistic of
    every model, indexed like the models, centred with its logits on the
    training scene it was trained on."""
    models, _, logits = train_agents(cfg, reps, scenes, trace=False)
    return [
        [
            make_debiased_statistic(model, scores, labels, cfg.classes, agent=k)
            for k, (model, scores) in enumerate(zip(row, row_logits))
        ]
        for row, row_logits, (_, labels) in zip(models, logits, scenes)
    ]


def _evaluate(cfg: ExperimentConfig, rep: int, statistics, n_streams: int, edges):
    """Replication ``rep``'s first ``n_streams`` prediction streams in time
    blocks between consecutive ``edges``: per block, its views, its
    class-index track and its ``run_prediction`` run over ``statistics``
    from the lambda the block before ended on, or None without them.

    All blocks draw from the one generator on the seed path ``(rep,)``, so
    a stream run in blocks has the bits of one run, and ``predict``'s stream
    is a prefix of Monte Carlo replication 0's first stream.
    """
    (rng,) = generators(derived_seeds(cfg.seed, PHASE_STREAM, [(rep,)]))
    run = None
    for lo, hi in zip(edges, edges[1:]):
        states = cfg.schedule.states(hi, lo)
        views = data_mod.prediction_streams(cfg.scene, states, n_streams, rng)
        if statistics is not None:
            lam = None if run is None else run.lam[:, -1]
            run = run_prediction(
                cfg.matrix, statistics, views, states, len(cfg.classes), delta=cfg.delta, lam0=lam
            )
        yield views, states, run


# --- commands ---------------------------------------------------------------


def cmd_train(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Train every agent (repeatedly) and record the risk traces."""
    (scene,) = shared_scene_training(cfg, [0])
    lines = []
    try:
        models, risks, _ = train_agents(cfg, range(cfg.repetitions), [scene] * cfg.repetitions)
    except TrainingDiverged as exc:
        raise TrainingDiverged(f"repetition {exc.model}, {exc}", exc.model) from exc
    out = _Output(cfg, out_dir, "train")
    for rep, row in enumerate(models):
        for k, model in enumerate(row):
            if rep == 0:
                save_model(model, out.path(f"models/agent_{k}.json"))
            lines += (
                f"{k},{rep},{epoch},{risk!r}\n"
                for epoch, risk in enumerate(risks[rep, k].tolist())
            )
    out.csv("risk_trace.csv", ("agent", "repetition", "epoch", "empirical_risk"), lines)
    out.close()
    return {"models": cfg.n_agents, "trace_rows": len(lines)}


def cmd_predict(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Train once, run one prediction stream, write trajectory and summary.

    The stream of T = ``stream_length`` steps runs in ``n = max(1, T //
    FORWARD_BLOCK_ROWS)`` time blocks, cut at ``T * i // n``: every block
    but a lone one holds 1,024 to 2,047 steps, one row a step.  Each block
    is ``_evaluate``'s run of a batch of one stream; it writes its
    trajectory.csv rows and adds to each schedule segment's hit counts and
    last wrong step, from which summary.json is built.  So only one block
    of the stream is held at a time, and the bytes are those of one pass
    over the whole stream.
    """
    horizon = cfg.stream_length
    if horizon < 1:
        raise ConfigError("prediction needs stream_length >= 1")
    scenes = shared_scene_training(cfg, [0])
    (statistics,) = _trained_statistics(cfg, [0], scenes)
    n_blocks = max(1, horizon // FORWARD_BLOCK_ROWS)
    edges = [horizon * i // n_blocks for i in range(n_blocks + 1)]
    # a row per segment, through the one in force at the last step
    n_segments = next(cfg.schedule.spans(horizon, horizon - 1))[0] + 1
    hits = np.zeros((n_segments, cfg.n_agents), dtype=np.intp)
    # one past the last wrong step of each segment and agent, 0 while none is
    last_wrong = np.zeros_like(hits)

    def blocks():
        for lo, (_, states, run) in zip(edges, _evaluate(cfg, 0, statistics, 1, edges)):
            run = PredictionRun(run.lam[0], run.picks[0], run.correct[0])
            # the segments this block overlaps, [first, last), cut at its edges
            block = list(cfg.schedule.spans(lo + run.horizon, lo))
            first, last = block[0][0], block[-1][0] + 1
            cuts = [start - lo for _, start, _, _ in block]
            hits[first:last] += np.add.reduceat(run.correct, cuts, axis=0, dtype=np.intp)
            wrong = np.where(run.correct, 0, np.arange(lo + 1, lo + run.horizon + 1)[:, None])
            seen = last_wrong[first:last]
            np.maximum(seen, np.maximum.reduceat(wrong, cuts, axis=0), out=seen)
            yield from _trajectory_lines(run, states, cfg.classes, lo)

    out = _Output(cfg, out_dir, "predict")
    out.csv(
        "trajectory.csv",
        ("run_id", "i", "agent", "gamma_or_binary", "lambda", "decision", "true_state", "correct"),
        blocks(),
    )
    cycles = [
        {
            "start": start,
            "end": end,
            "state": str(cfg.classes[state]),
            "accuracy_per_agent": (hit / (end - start)).tolist(),
            "adaptation_steps_per_agent": np.where(wrong > 0, wrong - start, 0).tolist(),
        }
        for (_, start, end, state), hit, wrong in zip(cfg.schedule.spans(horizon), hits, last_wrong)
    ]
    summary = {"engine": cfg.engine, "delta": cfg.delta, "cycles": cycles}
    out.json("summary.json", summary)
    out.close()
    return summary


def montecarlo_chunk(cfg: ExperimentConfig, reps) -> list:
    """Train+evaluate the replications ``reps``; per-step error per strategy.

    Returns one dict per replication, strategy -> (T,) error rates.  Training
    runs in lockstep over the chunk: each SML architecture in one
    ``train_stack`` call, each AdaBoost round in another.  Evaluation runs one
    replication at a time: ``_evaluate`` draws its ``eval_streams``
    independent prediction streams in one block and runs its statistics on
    them, AdaBoost decides on the same views, and the per-step error
    probability is the mean decision error over the streams.  Every
    replication reads only its own seed paths, so its curves do not depend on
    the chunk it runs in.
    """
    mc = cfg.montecarlo
    horizon, n_streams = mc["horizon"], mc["eval_streams"]
    strategies = mc["strategies"]

    scenes = shared_scene_training(cfg, reps)
    stats, ensembles = [None] * len(reps), None
    try:
        if "sml" in strategies:
            stats = _trained_statistics(cfg, reps, scenes)
        if "adaboost" in strategies:
            rows = [(rep, k) for rep in reps for k in range(cfg.n_agents)]
            seeds = derived_seeds(cfg.seed, PHASE_BOOST_MODEL, rows).reshape(len(reps), -1)
            ensembles = adaboost_train_stack(scenes, list(cfg.arch_by_agent), cfg.hyper, seeds)
    except TrainingDiverged as exc:
        raise TrainingDiverged(f"replication {reps[exc.model]}, {exc}", exc.model) from exc
    del scenes

    out = []
    for i, rep in enumerate(reps):
        ((views, states, run),) = _evaluate(cfg, rep, stats[i], n_streams, (0, horizon))
        errors = {}
        if run is not None:
            errors["sml"] = np.mean(~run.correct[:, :, mc["observe_agent"]], axis=0)
        del run  # the generator has ended: freed before AdaBoost evaluates its models
        if ensembles is not None:
            flat = [feats.reshape(n_streams * horizon, -1) for feats in views]
            picks = adaboost_decide(ensembles[i], flat).reshape(n_streams, horizon)
            errors["adaboost"] = np.mean(picks != states, axis=0)
        out.append(errors)
    return out


def replication_chunks(cfg: ExperimentConfig, workers: int) -> list:
    """The replication indices cut into one list of chunks per worker.

    Workers get near-equal contiguous shares.  Each share is cut into chunks
    whose stacked SML training inputs fit in ``CHUNK_INPUT_BYTES``, with one
    replication per chunk at least.
    """
    reps = cfg.montecarlo["replications"]
    rows = cfg.train_per_class * len(cfg.classes)
    per_rep = 8 * rows * sum(arch.layer_sizes[0] for arch in cfg.arch_by_agent)
    cap = max(1, CHUNK_INPUT_BYTES // max(per_rep, 1))
    share = math.ceil(reps / workers)
    shares = []
    for start in range(0, reps, share):
        stop = min(start + share, reps)
        shares.append([range(lo, min(lo + cap, stop)) for lo in range(start, stop, cap)])
    return shares


def _montecarlo_share(cfg: ExperimentConfig, chunks) -> list:
    return [res for chunk in chunks for res in montecarlo_chunk(cfg, chunk)]


def usable_cpus() -> int:
    """The CPUs this process may run on, fewer than the host's if pinned."""
    if hasattr(os, "process_cpu_count"):
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_montecarlo(cfg: ExperimentConfig, out_dir: str, threads: int = 1) -> dict:
    """Replicate train+predict, write per-step error rates per strategy."""
    mc = cfg.montecarlo
    reps = mc["replications"]
    strategies = sorted(mc["strategies"])
    if "adaboost" in strategies and len(cfg.classes) != 2:
        raise ConfigError("the adaboost strategy needs two classes")

    workers = min(threads, reps, usable_cpus())
    # one task per worker: each unpickles cfg as its validated fields, an IDX
    # scene as its file's path and a CSV one as its parsed images, so no
    # worker validates or parses again
    run_share = partial(_montecarlo_share, cfg)
    shares = replication_chunks(cfg, workers)
    if workers > 1:
        # imported here: only a pooled run pays for concurrent.futures
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_share, shares))
    else:
        parts = [run_share(share) for share in shares]
    results = [res for part in parts for res in part]

    horizon = mc["horizon"]
    curves = {}
    for strategy in strategies:
        table = np.stack([res[strategy] for res in results])  # (R, T)
        rate = table.mean(axis=0)
        stderr = (
            table.std(axis=0, ddof=1) / math.sqrt(reps) if reps > 1 else np.zeros(horizon)
        )
        curves[strategy] = (rate.tolist(), stderr.tolist())
    out = _Output(cfg, out_dir, "montecarlo")
    out.csv(
        "montecarlo.csv",
        ("i", "strategy", "error_rate", "stderr"),
        (
            f"{i + 1},{s},{curves[s][0][i]!r},{curves[s][1][i]!r}\n"
            for i in range(horizon)
            for s in strategies
        ),
    )
    summary = {
        "replications": reps,
        "eval_streams": mc["eval_streams"],
        "horizon": horizon,
        "degenerate_stderr": reps == 1,
        "final_error": {s: curves[s][0][-1] for s in strategies},
    }
    out.json("mc_summary.json", summary)
    out.close()
    return summary


def cmd_theory(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Evaluate the consistency bounds on supplied numbers, plus the exponent grid."""
    # imported here: only this command pays for the theory module
    from .theory import (
        TrainingProfile,
        approx_exponent,
        exact_exponent,
        logit_bound,
        mlp_rademacher_bound,
        network_complexity_bound,
        pc_lower_bound,
        self_consistency_check,
    )

    if cfg.theory is None:
        raise ConfigError("theory command needs a 'theory' config block")
    if len(cfg.classes) != 2:
        raise ConfigError(f"theory's bounds take two classes, classes lists {len(cfg.classes)}")
    block = cfg.theory
    pi = perron_eigenvector(cfg.matrix)

    counts = block.get("sample_counts")
    if counts is None:
        if cfg.train_per_class < 1:
            raise ConfigError("theory needs sample_counts or train_per_class")
        counts = [cfg.train_per_class * len(cfg.classes)] * cfg.n_agents
    profile = TrainingProfile(tuple(counts), pi)

    target_risk = float(block["target_risk"])
    beta = block["beta"]
    constants = block.get("complexity_constants")
    # the config gives every agent's architecture the one model.norm_bound
    if cfg.arch_by_agent[0].norm_bound is None:
        if beta == "analytic":
            raise ConfigError("beta='analytic' needs norm-constrained architectures")
        if constants is None:
            raise ConfigError(
                "theory needs complexity_constants unless architectures are norm-constrained"
            )
    if beta == "analytic":
        # per-agent logit bounds from the norm-constrained architectures
        beta_val = np.array([logit_bound(arch) for arch in cfg.arch_by_agent])
        beta_source = "analytic-norm-product"
    else:
        beta_val = np.asarray(beta, dtype=float)
        beta_source = "supplied"
    if constants is None:
        # the bound scales as C_k / sqrt(N), so C_k is the bound at N = 1
        constants = [mlp_rademacher_bound(arch, 1) for arch in cfg.arch_by_agent]
    constants = [float(c) for c in constants]
    rho_bound, c_mixed = network_complexity_bound(constants, profile)

    bound = pc_lower_bound(target_risk, beta_val, rho_bound, profile)

    epsilon = float(block["epsilon"])
    beta_scalar = float(np.max(beta_val))
    consistent, check = self_consistency_check(
        c_mixed, target_risk, profile.alpha, beta_scalar, epsilon
    )

    out = _Output(cfg, out_dir, "theory")
    grid_points = block["grid_points"]
    risks = [0.999 * math.log(2) * j / max(grid_points - 1, 1) for j in range(grid_points)]
    out.csv(
        "exponent_grid.csv",
        ("target_risk", "exact_exponent", "approx_exponent"),
        (f"{r!r},{exact_exponent(r)!r},{approx_exponent(r)!r}\n" for r in risks),
    )

    report = {
        "inputs": {
            "target_risk": target_risk,
            "beta": beta_val.tolist() if beta_val.ndim else float(beta_val),
            "beta_source": beta_source,
            "complexity_constants": constants,
            "sample_counts": list(profile.sample_counts),
            "alpha": profile.alpha,
            "epsilon": epsilon,
        },
        "exponent_exact": bound.exponent,
        "exponent_approx": approx_exponent(target_risk),
        "network_complexity_bound": rho_bound,
        "mixed_constant": c_mixed,
        "pc_lower_bound": bound.value,
        "pc_raw": bound.raw,
        "vacuous": bound.vacuous,
        "sample_complexity": check["n_max"],
        "self_consistency": {"ok": consistent, **check},
    }
    out.json("theory_report.json", report)
    out.close()
    return report
