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
from .mlp import LabeledDataset, TrainingDiverged, logit_bound, save_model, train_stack
from .seeds import derived_seeds, generators
from .social import PredictionRun, RegimeSchedule, periodic_schedule, run_prediction
from .stats import make_debiased_statistic, mlp_rademacher_bound
from .theory import (
    BoundInputs,
    TrainingProfile,
    approx_exponent,
    exact_exponent,
    network_complexity_bound,
    pc_lower_bound,
    sample_complexity,
    self_consistency_check,
)
from .graph import perron_eigenvector

# Cap on the stacked SML training inputs of one Monte Carlo chunk (8 bytes
# per augmented input entry, summed over agents and replications).  Peak
# memory grows by about four times the inputs a chunk stacks beyond one
# replication: three 28x28 image replications of 4 patch agents in one chunk
# stack 2.5 MB more inputs than one and peak 10.4 MiB higher.  So 512 KiB
# keeps a chunk within about 2 MiB of a one-replication run, under 5% of that
# image run's 55 MiB.  The criterion-09 scene (4 agents, 40 rows of 1
# feature) fits 204 replications in one chunk; a 28x28 image scene, one.
CHUNK_INPUT_BYTES = 1 << 19


# Rows per trajectory.csv text block.  Each block's lists and strings are
# freed before the next is built, so memory stays flat as the stream grows.
# 128 rows already amortise the per-block ``.tolist()`` calls, and keep the
# benchmark's peak RSS at the row-at-a-time writer's; 512 rows cost
# demo_train about 0.2 MiB more.
TRAJECTORY_BLOCK_ROWS = 128


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


def _trajectory_lines(run: PredictionRun, gammas):
    """trajectory.csv rows of one run, one text block per few hundred rows.

    A row is (run_id, i, agent, gamma, lambda, decision, true_state,
    correct) for every step i, agent and lambda component ``gammas[j]``.
    """
    _, n_agents, width = run.lam.shape
    steps = max(1, TRAJECTORY_BLOCK_ROWS // (n_agents * width))
    # one step's rows as a %-template; labels are text in it, so '%' doubles
    step_rows = "".join(
        f"0,%d,{k},{str(gamma).replace('%', '%%')},%r,%s,%s,%d\n"
        for k in range(n_agents)
        for gamma in gammas
    )
    # a block's (i, lambda, decision, true_state, correct) per row, as Python
    # objects: %r on a float is its repr, %s on a label its str
    args = np.empty((steps, n_agents, width, 5), dtype=object)
    for lo in range(0, run.horizon, steps):
        hi = min(lo + steps, run.horizon)
        cells = args[: hi - lo]
        cells[..., 0] = np.arange(lo, hi)[:, None, None]
        cells[..., 1] = run.lam[lo:hi]
        cells[..., 2] = run.decisions[lo:hi, :, None]
        cells[..., 3] = run.true_states[lo:hi, None, None]
        cells[..., 4] = run.correct[lo:hi, :, None]
        yield step_rows * (hi - lo) % tuple(cells.reshape(-1).tolist())


def build_schedule(cfg: ExperimentConfig, length: int) -> RegimeSchedule:
    """The true-state schedule over ``length`` steps; ``validate_config`` has
    already checked the spec."""
    spec = cfg.schedule_spec
    if "period" in spec:
        return periodic_schedule(spec["period"], spec.get("states", list(cfg.classes)), length)
    return RegimeSchedule(tuple(spec["segments"]))


# --- data assembly ---------------------------------------------------------


def _scene_generators(cfg: ExperimentConfig, reps) -> list:
    """The training-data generator of every repetition in ``reps``."""
    return generators(derived_seeds(cfg.seed, PHASE_TRAIN_DATA, [(rep,) for rep in reps]))


def shared_scene_training(cfg: ExperimentConfig, rep: int, rng=None) -> tuple:
    """Balanced training scenes shared by all agents: (views, labels).

    Labels are common to the network (all agents observe the same scenes);
    each agent's view is its own draw (gaussian) or patch (images).  ``rng``
    is repetition ``rep``'s training-data generator, for callers that derive
    those of many repetitions at once; by default it is derived here.
    """
    per_class = cfg.train_per_class
    if per_class < 1:
        raise ConfigError("training needs train_per_class >= 1")
    if rng is None:
        (rng,) = _scene_generators(cfg, [rep])
    labels = np.repeat(np.array(cfg.classes, dtype=object), per_class)
    labels = labels[rng.permutation(labels.size)]
    source, layout = cfg.scene
    if layout is None:
        views = []
        for k in range(cfg.n_agents):
            view = np.empty((labels.size, source.dimension(k)))
            for label in cfg.classes:
                idx = np.flatnonzero(labels == label)
                view[idx] = source.models[k][label].sample(rng, idx.size)
            views.append(view)
        return views, labels
    picks = np.empty((labels.size, layout.height, layout.width))
    for label in cfg.classes:
        idx = np.flatnonzero(labels == label)
        pool = source[label]
        if pool.shape[0] < per_class:
            raise ConfigError(f"class {label!r}: {pool.shape[0]} images < {per_class}")
        chosen = rng.choice(pool.shape[0], size=idx.size, replace=False)
        picks[idx] = data_mod.scale_pixels(pool[chosen])
    return data_mod.split_patches(picks, layout), labels


def train_agents(cfg: ExperimentConfig, reps, scenes):
    """Per-agent empirical risk minimization for every repetition in ``reps``.

    ``scenes[i]`` is the ``(views, labels)`` scene repetition ``reps[i]``
    trains on, and the model seeds follow the repetition index.  All
    (repetition, agent) pairs whose agents share an architecture train in
    one ``train_stack`` call.  Returns ``(results, statistics)``, each
    indexed ``[position in reps][agent]``.  A diverging model raises
    ``TrainingDiverged`` naming its agent, with ``model`` set to its
    position in ``reps``.
    """
    datasets = [
        [LabeledDataset(views[k], labels, cfg.classes) for k in range(cfg.n_agents)]
        for views, labels in scenes
    ]
    groups: dict = {}
    for i in range(len(reps)):
        for k, arch in enumerate(cfg.arch_by_agent):
            groups.setdefault(arch, []).append((i, k))
    results = [[None] * cfg.n_agents for _ in reps]
    for arch, pairs in groups.items():
        seeds = derived_seeds(cfg.seed, PHASE_TRAIN_MODEL, [(reps[i], k) for i, k in pairs])
        try:
            trained = train_stack([datasets[i][k] for i, k in pairs], arch, cfg.hyper, seeds)
        except TrainingDiverged as exc:
            i, k = pairs[exc.model]
            raise TrainingDiverged(f"agent {k}: {exc}", i) from exc
        for (i, k), result in zip(pairs, trained):
            results[i][k] = result
    statistics = [
        [make_debiased_statistic(r.model, datasets[i][k], agent=k) for k, r in enumerate(row)]
        for i, row in enumerate(results)
    ]
    return results, statistics


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
        results, _ = train_agents(cfg, range(cfg.repetitions), [scene] * cfg.repetitions)
    except TrainingDiverged as exc:
        raise TrainingDiverged(f"repetition {exc.model}, {exc}", exc.model) from exc
    for rep, row in enumerate(results):
        for k, result in enumerate(row):
            if rep == 0:
                name = f"models/agent_{k}.json"
                save_model(result.model, os.path.join(out_dir, name))
                artifacts.append(name)
            lines += (
                f"{k},{rep},{epoch},{risk!r}\n"
                for epoch, risk in enumerate(result.risk_trace.tolist())
            )
    _write_csv(
        os.path.join(out_dir, "risk_trace.csv"),
        cfg,
        ("agent", "repetition", "epoch", "empirical_risk"),
        lines,
    )
    _write_manifest(out_dir, cfg, "train", artifacts)
    return {"models": cfg.n_agents, "trace_rows": len(lines)}


def _segment_bounds(schedule: RegimeSchedule, horizon: int):
    starts = [s for s, _ in schedule.segments if s < horizon]
    ends = starts[1:] + [horizon]
    states = [g for s, g in schedule.segments if s < horizon]
    return list(zip(starts, ends, states))


def cmd_predict(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Train once, run one prediction stream, write trajectory and summary."""
    if cfg.stream_length < 1:
        raise ConfigError("prediction needs stream_length >= 1")
    os.makedirs(out_dir, exist_ok=True)
    _, (statistics,) = train_agents(cfg, [0], [shared_scene_training(cfg, rep=0)])
    schedule = build_schedule(cfg, cfg.stream_length)
    source, layout = cfg.scene
    seeds = derived_seeds(cfg.seed, PHASE_STREAM, [(0, 0)])
    stream = data_mod.prediction_streams(source, schedule, cfg.stream_length, seeds, layout)
    run = run_prediction(
        cfg.engine,
        cfg.matrix,
        statistics,
        [v[0] for v in stream.features_per_agent],
        stream.true_states,
        cfg.classes,
        delta=cfg.delta,
    )

    _write_csv(
        os.path.join(out_dir, "trajectory.csv"),
        cfg,
        ("run_id", "i", "agent", "gamma_or_binary", "lambda", "decision", "true_state", "correct"),
        _trajectory_lines(run, cfg.classes[1:]),
    )

    cycles = []
    for start, end, state in _segment_bounds(schedule, run.horizon):
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
                "state": str(state),
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
            _, stats = train_agents(cfg, reps, scenes)
        if "adaboost" in strategies:
            rows = [(rep, k) for rep in reps for k in range(cfg.n_agents)]
            seeds = derived_seeds(cfg.seed, PHASE_BOOST_MODEL, rows).reshape(len(reps), -1)
            ensembles = adaboost_train_stack(scenes, list(cfg.arch_by_agent), cfg.hyper, seeds)
    except TrainingDiverged as exc:
        raise TrainingDiverged(f"replication {reps[exc.model]}, {exc}", exc.model) from exc
    del scenes

    schedule = build_schedule(cfg, horizon)
    source, layout = cfg.scene
    out = []
    for i, rep in enumerate(reps):
        rows = np.column_stack((np.full(n_streams, rep), np.arange(n_streams)))
        seeds = derived_seeds(cfg.seed, PHASE_STREAM, rows)
        stream = data_mod.prediction_streams(source, schedule, horizon, seeds, layout)
        errors = {}
        if stats is not None:
            run = run_prediction(
                cfg.engine,
                cfg.matrix,
                stats[i],
                stream.features_per_agent,
                stream.true_states,
                cfg.classes,
                delta=cfg.delta,
            )
            errors["sml"] = np.mean(~run.correct[:, :, mc["observe_agent"]], axis=0)
            del run  # freed before the AdaBoost pass evaluates its models
        if ensembles is not None:
            flat = [feats.reshape(n_streams * horizon, -1) for feats in stream.features_per_agent]
            picks = adaboost_decide(ensembles[i], flat).reshape(n_streams, horizon)
            errors["adaboost"] = np.mean(picks != stream.true_states, axis=0)
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
    os.makedirs(out_dir, exist_ok=True)
    block = cfg.theory
    if not block:
        raise ConfigError("theory command needs a 'theory' config block")
    pi = perron_eigenvector(cfg.matrix).values

    counts = block.get("sample_counts")
    if counts is None:
        if cfg.train_per_class < 1:
            raise ConfigError("theory needs sample_counts or train_per_class")
        counts = [cfg.train_per_class * len(cfg.classes)] * cfg.n_agents
    profile = TrainingProfile(tuple(counts), pi)

    target_risk = float(block.get("target_risk", 0.0))
    beta = block.get("beta", 1.0)
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

    inputs = BoundInputs(target_risk, beta_val if beta_val.ndim else float(beta_val), rho_bound, profile)
    bound = pc_lower_bound(inputs)

    epsilon = float(block.get("epsilon", 0.05))
    beta_scalar = float(np.max(beta_val))
    n_needed = sample_complexity(c_mixed, target_risk, profile.alpha, beta_scalar, epsilon)
    consistent, check = self_consistency_check(
        c_mixed, target_risk, profile.alpha, beta_scalar, epsilon
    )

    grid_points = block.get("grid_points", 50)
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
