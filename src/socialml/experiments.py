"""Experiment runners behind the CLI subcommands.

Every command reads a validated configuration, derives all randomness from
the master seed through fixed phase paths, and writes tidy artifacts under
one output directory: CSVs carry a ``# config=... seed=...`` header line,
JSON artifacts carry the same fields under ``meta``, and ``manifest.json``
indexes everything.
"""

from __future__ import annotations

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
from .mlp import TrainingDiverged, save_model, train_stack
from .seeds import derived_seeds, generators
from .social import PredictionRun, run_prediction
from .stats import make_debiased_statistic

# Cap on the stacked SML training inputs of one Monte Carlo chunk (8 bytes
# per augmented input entry, summed over agents and replications).  A chunk
# holds its replications' training scenes, and ``train_stack`` one stacked
# copy of their inputs, so peak memory grows by about twice the inputs a
# chunk stacks beyond one replication.  A 28x28 image replication of 4 patch
# agents with 200 training rows stacks 1.26 MB.  Three of them (the image_mc
# benchmark scene at seed 3, one process, 2 vCPUs, numpy 2.4.6) peak at
# 53.7-53.8 MiB resident (9.0 MiB traced by tracemalloc) in one chunk and
# at 48.5-48.6 MiB (3.7 MiB traced) one per chunk: 2.5 MB more inputs,
# about 5.2 MiB higher.  Both resident peaks include about 9 MiB of mapped
# file pages (RssFile): the IDX body, whose pages random picks touch and
# which tracemalloc does not see.  4 MiB fits those 3 replications
# in one chunk, and 1,638 of the criterion-09 scene (4 agents, 40 rows of
# 1 feature).
CHUNK_INPUT_BYTES = 1 << 22


# Rows per trajectory.csv text block.  Each block's lists and strings are
# freed before the next is built, so memory stays flat as the stream grows.
# On long_stream's 64,000 rows (one vCPU in a slow phase, numpy 2.4.6) the
# float reprs alone took 57.5 ms and the writer 72.6, 69.8 and 67.0 ms at
# 128, 256 and 512 rows a block, its traced allocations peaking at 37, 71
# and 139 KiB.  256 rows gives the benchmark the peak RSS of 128 on
# demo_train and long_stream; 512 added about 0.1 MiB on long_stream.
TRAJECTORY_BLOCK_ROWS = 256


def _header(cfg: ExperimentConfig) -> str:
    return f"# config={cfg.digest[:16]} seed={cfg.seed}\n"


def _write_csv(path, cfg, columns, blocks) -> None:
    """Header, column names, then ``blocks``: preformatted lines of text.

    Floats are formatted as ``repr`` of Python floats (``.tolist()``
    values), the shortest text that reads back to the same number.
    """
    with open(path, "w") as fh:
        fh.write(_header(cfg))
        fh.write(",".join(columns) + "\n")
        fh.writelines(blocks)


def _write_json(path, cfg, payload, command: str) -> None:
    payload = {
        "meta": {"config_sha256": cfg.digest, "seed": cfg.seed, "command": command},
        **payload,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir, cfg, command, artifacts) -> None:
    path = os.path.join(out_dir, "manifest.json")
    _write_json(path, cfg, {"artifacts": sorted(artifacts)}, command)


def _trajectory_lines(run: PredictionRun, states, classes):
    """trajectory.csv rows of one run, one text block per
    ``TRAJECTORY_BLOCK_ROWS`` rows.

    A row is (run_id, i, agent, gamma, lambda, decision, true_state,
    correct) for every step i, agent and lambda component ``gamma``, the
    classes after the reference one; ``states`` is the true class-index
    track.  The class labels become text here.
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
        lead = np.array([f"0,{i}" for i in range(lo, hi)], dtype=object)
        pieces[0::4] = np.repeat(lead, per_step).tolist()
        pieces[1::4] = fixed[:rows]
        pieces[2::4] = map(repr, run.lam[lo:hi].ravel().tolist())
        # a bool array would index as a mask, so correct goes in as 0 or 1
        tail = tails[states[lo:hi, None], run.picks[lo:hi], run.correct[lo:hi].view(np.uint8)]
        pieces[3::4] = np.repeat(tail, width, axis=1).ravel().tolist()
        yield "".join(pieces)


# --- data assembly ---------------------------------------------------------


def _scene_generators(cfg: ExperimentConfig, reps) -> list:
    """The training-data generator of every repetition in ``reps``."""
    return generators(derived_seeds(cfg.seed, PHASE_TRAIN_DATA, [(rep,) for rep in reps]))


def shared_scene_training(cfg: ExperimentConfig, rep: int, rng=None) -> tuple:
    """Balanced training scenes shared by all agents: (views, labels).

    Labels are class indices, common to the network (all agents observe the
    same scenes); each agent's view is its own draw (gaussian) or patch
    (images).  ``rng`` is repetition ``rep``'s training-data generator, for
    callers that derive those of many repetitions at once; by default it is
    derived here.
    """
    per_class = cfg.train_per_class
    if per_class < 1:
        raise ConfigError("training needs train_per_class >= 1")
    if rng is None:
        (rng,) = _scene_generators(cfg, [rep])
    labels = np.repeat(np.arange(len(cfg.classes)), per_class)
    labels = labels[rng.permutation(labels.size)]
    source, layout = cfg.scene
    if layout is None:
        views = []
        for k in range(cfg.n_agents):
            view = np.empty((labels.size, source.dimension(k)))
            for j, label in enumerate(cfg.classes):
                idx = np.flatnonzero(labels == j)
                view[idx] = source.models[k][label].sample(rng, idx.size)
            views.append(view)
        return views, labels
    # the picked images keep their pixel type, so split_patches scales each once
    images, rows = source
    picks = np.empty((labels.size, layout.height, layout.width), dtype=images.dtype)
    for j, class_rows in enumerate(rows):
        idx = np.flatnonzero(labels == j)
        if class_rows.size < per_class:
            raise ConfigError(f"class {cfg.classes[j]!r}: {class_rows.size} images < {per_class}")
        chosen = rng.choice(class_rows.size, size=idx.size, replace=False)
        picks[idx] = images[class_rows[chosen]]
    return data_mod.split_patches(picks, layout), labels


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


# --- commands ---------------------------------------------------------------


def cmd_train(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Train every agent (repeatedly) and record the risk traces."""
    os.makedirs(out_dir, exist_ok=True)
    model_dir = os.path.join(out_dir, "models")
    os.makedirs(model_dir, exist_ok=True)
    scene = shared_scene_training(cfg, rep=0)
    lines = []
    artifacts = ["risk_trace.csv", "manifest.json"]
    try:
        models, risks, _ = train_agents(cfg, range(cfg.repetitions), [scene] * cfg.repetitions)
    except TrainingDiverged as exc:
        raise TrainingDiverged(f"repetition {exc.model}, {exc}", exc.model) from exc
    for rep, row in enumerate(models):
        for k, model in enumerate(row):
            if rep == 0:
                name = f"models/agent_{k}.json"
                save_model(model, os.path.join(out_dir, name))
                artifacts.append(name)
            lines += (
                f"{k},{rep},{epoch},{risk!r}\n"
                for epoch, risk in enumerate(risks[rep, k].tolist())
            )
    _write_csv(
        os.path.join(out_dir, "risk_trace.csv"),
        cfg,
        ("agent", "repetition", "epoch", "empirical_risk"),
        lines,
    )
    _write_manifest(out_dir, cfg, "train", artifacts)
    return {"models": cfg.n_agents, "trace_rows": len(lines)}


def cmd_predict(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Train once, run one prediction stream, write trajectory and summary."""
    if cfg.stream_length < 1:
        raise ConfigError("prediction needs stream_length >= 1")
    os.makedirs(out_dir, exist_ok=True)
    scenes = [shared_scene_training(cfg, rep=0)]
    (statistics,) = _trained_statistics(cfg, [0], scenes)
    source, layout = cfg.scene
    seeds = derived_seeds(cfg.seed, PHASE_STREAM, [(0, 0)])
    views, states = data_mod.prediction_streams(
        source, cfg.schedule, cfg.stream_length, seeds, layout
    )
    run = run_prediction(
        cfg.matrix, statistics, [v[0] for v in views], states, len(cfg.classes), delta=cfg.delta
    )

    _write_csv(
        os.path.join(out_dir, "trajectory.csv"),
        cfg,
        ("run_id", "i", "agent", "gamma_or_binary", "lambda", "decision", "true_state", "correct"),
        _trajectory_lines(run, states, cfg.classes),
    )

    cycles = []
    # the schedule's segments that start within the stream, each to the next
    segments = [seg for seg in cfg.schedule.segments if seg[0] < run.horizon]
    ends = [start for start, _ in segments[1:]] + [run.horizon]
    for (start, state), end in zip(segments, ends):
        window = run.correct[start:end]
        accuracy = window.mean(axis=0)
        adaptation = []
        for k in range(cfg.n_agents):
            ok = window[:, k]
            wrong = np.flatnonzero(~ok)
            adaptation.append(int(wrong[-1] + 1) if wrong.size else 0)
        cycles.append(
            {
                "start": start,
                "end": end,
                "state": str(cfg.classes[state]),
                "accuracy_per_agent": accuracy.tolist(),
                "adaptation_steps_per_agent": adaptation,
            }
        )
    summary = {"engine": cfg.engine, "delta": cfg.delta, "cycles": cycles}
    _write_json(os.path.join(out_dir, "summary.json"), cfg, summary, "predict")
    _write_manifest(out_dir, cfg, "predict", ["trajectory.csv", "summary.json", "manifest.json"])
    return summary


def montecarlo_chunk(cfg: ExperimentConfig, reps) -> list:
    """Train+evaluate the replications ``reps``; per-step error per strategy.

    Returns one dict per replication, strategy -> (T,) error rates.  Training
    runs in lockstep over the chunk: each SML architecture in one
    ``train_stack`` call, each AdaBoost round in another.  Evaluation runs one
    replication at a time: its ``eval_streams`` independent prediction
    streams are drawn in one batch and run through its models, and the
    per-step error probability is the mean decision error over them.  Every
    replication reads only its own seed paths, so its curves do not depend on
    the chunk it runs in.
    """
    mc = cfg.montecarlo
    horizon, n_streams = mc["horizon"], mc["eval_streams"]
    strategies = mc["strategies"]

    scenes = [
        shared_scene_training(cfg, rep, rng)
        for rep, rng in zip(reps, _scene_generators(cfg, reps))
    ]
    stats = ensembles = None
    try:
        if "sml" in strategies:
            stats = _trained_statistics(cfg, reps, scenes)
        if "adaboost" in strategies:
            # AdaBoost takes the labels +1 and -1 themselves: signs[j] for class j
            signs = np.array(cfg.classes)
            rows = [(rep, k) for rep in reps for k in range(cfg.n_agents)]
            seeds = derived_seeds(cfg.seed, PHASE_BOOST_MODEL, rows).reshape(len(reps), -1)
            ensembles = adaboost_train_stack(
                [(views, signs[labels]) for views, labels in scenes],
                list(cfg.arch_by_agent),
                cfg.hyper,
                seeds,
            )
    except TrainingDiverged as exc:
        raise TrainingDiverged(f"replication {reps[exc.model]}, {exc}", exc.model) from exc
    del scenes

    source, layout = cfg.scene
    out = []
    for i, rep in enumerate(reps):
        rows = np.column_stack((np.full(n_streams, rep), np.arange(n_streams)))
        seeds = derived_seeds(cfg.seed, PHASE_STREAM, rows)
        views, states = data_mod.prediction_streams(source, cfg.schedule, horizon, seeds, layout)
        errors = {}
        if stats is not None:
            run = run_prediction(
                cfg.matrix, stats[i], views, states, len(cfg.classes), delta=cfg.delta
            )
            errors["sml"] = np.mean(~run.correct[:, :, mc["observe_agent"]], axis=0)
            del run  # freed before the AdaBoost pass evaluates its models
        if ensembles is not None:
            flat = [feats.reshape(n_streams * horizon, -1) for feats in views]
            picks = adaboost_decide(ensembles[i], flat).reshape(n_streams, horizon)
            errors["adaboost"] = np.mean(picks != signs[states], axis=0)
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


def cmd_montecarlo(cfg: ExperimentConfig, out_dir: str, threads: int = 1) -> dict:
    """Replicate train+predict, write per-step error rates per strategy."""
    mc = cfg.montecarlo
    reps = mc["replications"]
    strategies = sorted(mc["strategies"])
    if "adaboost" in strategies and set(cfg.classes) != {-1, +1}:
        raise ConfigError("the adaboost strategy needs classes {-1, +1}")
    os.makedirs(out_dir, exist_ok=True)

    workers = min(threads, reps, os.cpu_count() or 1)
    # one task per worker: each unpickles cfg and loads its scene once
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
    _write_csv(
        os.path.join(out_dir, "montecarlo.csv"),
        cfg,
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
    _write_json(os.path.join(out_dir, "mc_summary.json"), cfg, summary, "montecarlo")
    _write_manifest(
        out_dir, cfg, "montecarlo", ["montecarlo.csv", "mc_summary.json", "manifest.json"]
    )
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
        sample_complexity,
        self_consistency_check,
    )

    if not cfg.raw.get("theory"):
        raise ConfigError("theory command needs a 'theory' config block")
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
    if beta == "analytic":
        # per-agent logit bounds from the norm-constrained architectures
        try:
            beta_val = np.array([logit_bound(arch) for arch in cfg.arch_by_agent])
        except Exception as exc:
            raise ConfigError(
                f"beta='analytic' needs norm-constrained architectures ({exc})"
            ) from exc
        beta_source = "analytic-norm-product"
    else:
        beta_val = np.asarray(beta, dtype=float)
        beta_source = "supplied"

    constants = block.get("complexity_constants")
    if constants is None:
        try:
            # the bound scales as C_k / sqrt(N), so C_k is the bound at N = 1
            constants = [mlp_rademacher_bound(arch, 1) for arch in cfg.arch_by_agent]
        except Exception as exc:
            raise ConfigError(
                "theory needs complexity_constants unless architectures are "
                f"norm-constrained ({exc})"
            ) from exc
    constants = [float(c) for c in constants]
    rho_bound, c_mixed = network_complexity_bound(constants, profile)

    bound = pc_lower_bound(target_risk, beta_val, rho_bound, profile)

    epsilon = float(block["epsilon"])
    beta_scalar = float(np.max(beta_val))
    n_needed = sample_complexity(c_mixed, target_risk, profile.alpha, beta_scalar, epsilon)
    consistent, check = self_consistency_check(
        c_mixed, target_risk, profile.alpha, beta_scalar, epsilon
    )

    # created once every input has passed, so a rejected config writes nothing
    os.makedirs(out_dir, exist_ok=True)
    grid_points = block["grid_points"]
    risks = [0.999 * math.log(2) * j / max(grid_points - 1, 1) for j in range(grid_points)]
    _write_csv(
        os.path.join(out_dir, "exponent_grid.csv"),
        cfg,
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
        "exponent_exact": exact_exponent(target_risk),
        "exponent_approx": approx_exponent(target_risk),
        "network_complexity_bound": rho_bound,
        "mixed_constant": c_mixed,
        "pc_lower_bound": bound.value,
        "pc_raw": bound.raw,
        "vacuous": bound.vacuous,
        "sample_complexity": n_needed,
        "self_consistency": {"ok": consistent, **check},
    }
    _write_json(os.path.join(out_dir, "theory_report.json"), cfg, report, "theory")
    _write_manifest(
        out_dir,
        cfg,
        "theory",
        ["theory_report.json", "exponent_grid.csv", "manifest.json"],
    )
    return report
