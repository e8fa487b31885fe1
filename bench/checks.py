"""Checks on a workload's artifacts, computed apart from the package.

Every check returns a list of problems; an empty list means the artifacts
pass.  Decisions, true-state tracks, cycle summaries, model shapes and the
config digest in each CSV header are recomputed here from the config and
the written numbers, never by calling ``socialml``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

REL_TOL = 1e-9


def config_digest(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def file_hashes(out_dir: str) -> dict:
    """Relative path -> sha256 of every file under ``out_dir``."""
    hashes = {}
    for dirpath, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                hashes[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(hashes.items()))


def read_csv(path: str) -> tuple:
    """(header comment line, column names, rows of string fields)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0], lines[1].split(","), [line.split(",") for line in lines[2:]]


def check_header(path: str, raw: dict) -> list:
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
    want = f"# config={config_digest(raw)[:16]} seed={raw['seed']}"
    return [] if first == want else [f"{path}: header {first!r}, expected {want!r}"]


def check_manifest(out_dir: str) -> list:
    """``manifest.json`` lists exactly the files under ``out_dir``."""
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(path):
        return [f"{out_dir}: no manifest.json"]
    with open(path) as fh:
        listed = json.load(fh)["artifacts"]
    written = set(file_hashes(out_dir))
    problems = [f"{out_dir}: manifest lists {name} twice" for name in set(listed) if listed.count(name) > 1]
    problems += [f"{out_dir}: manifest lists missing {name}" for name in sorted(set(listed) - written)]
    problems += [f"{out_dir}: {name} written but not in manifest" for name in sorted(written - set(listed))]
    return problems


def segments(schedule: dict, classes: list, length: int) -> list:
    """(start, end, state) of every regime segment within [0, length)."""
    if "period" in schedule:
        period = int(schedule["period"])
        states = schedule.get("states", classes)
        starts = list(range(0, length, period))
        labels = [states[(s // period) % len(states)] for s in starts]
    else:
        pairs = sorted((int(s), g) for s, g in schedule["segments"])
        starts = [s for s, _ in pairs if s < length]
        labels = [g for s, g in pairs if s < length]
    ends = starts[1:] + [length]
    return list(zip(starts, ends, labels))


def decision(lams: list, classes: list):
    """Largest belief wins; the reference class scores 0, class j+1 scores -lam[j]."""
    scores = [0.0] + [-lam for lam in lams]
    return classes[scores.index(max(scores))]


def agent_count(raw: dict) -> int:
    data = raw["data"]
    return len(data["agents"]) if data["type"] == "gaussian" else math.prod(data["layout"])


def check_trajectory(path: str, raw: dict) -> tuple:
    """Recompute every decision and score; returns (problems, correct[i][k])."""
    classes = raw["classes"]
    length = int(raw["stream_length"])
    n_agents = agent_count(raw)
    gammas = [str(g) for g in classes[1:]]
    track = [state for start, end, state in segments(raw["schedule"], classes, length) for _ in range(start, end)]
    _, columns, rows = read_csv(path)
    want_columns = ["run_id", "i", "agent", "gamma_or_binary", "lambda", "decision", "true_state", "correct"]
    if columns != want_columns:
        return [f"{path}: columns {columns}"], None
    if len(rows) != length * n_agents * len(gammas):
        return [f"{path}: {len(rows)} rows, expected {length * n_agents * len(gammas)}"], None
    problems = []
    correct = [[False] * n_agents for _ in range(length)]
    width = len(gammas)
    for start in range(0, len(rows), width):
        group = rows[start : start + width]
        i, k = int(group[0][1]), int(group[0][2])
        where = f"{path}: i={i} agent={k}"
        if (i, k) != divmod(start // width, n_agents) or [r[3] for r in group] != gammas:
            problems.append(f"{where}: rows out of order")
            continue
        if len({tuple(r[5:]) for r in group}) != 1:
            problems.append(f"{where}: decision fields differ between components")
            continue
        lams = [float(r[4]) for r in group]
        if not all(math.isfinite(v) for v in lams):
            problems.append(f"{where}: non-finite lambda")
        _, _, _, _, _, decided, true_state, flag = group[0]
        expected = str(decision(lams, classes))
        if decided != expected:
            problems.append(f"{where}: decision {decided}, argmax rule gives {expected}")
        if true_state != str(track[i]):
            problems.append(f"{where}: true state {true_state}, schedule gives {track[i]}")
        correct[i][k] = expected == str(track[i])
        if flag != str(int(correct[i][k])):
            problems.append(f"{where}: correct={flag}, recomputed {int(correct[i][k])}")
        if len(problems) > 20:
            break
    return problems, correct


def check_summary(path: str, raw: dict, correct: list) -> list:
    """Per-cycle accuracy and adaptation steps recomputed from the trajectory."""
    with open(path) as fh:
        summary = json.load(fh)
    n_agents = len(correct[0])
    expected = segments(raw["schedule"], raw["classes"], len(correct))
    cycles = summary["cycles"]
    if len(cycles) != len(expected):
        return [f"{path}: {len(cycles)} cycles, expected {len(expected)}"]
    problems = []
    for cycle, (start, end, state) in zip(cycles, expected):
        if (cycle["start"], cycle["end"], cycle["state"]) != (start, end, str(state)):
            problems.append(f"{path}: cycle {cycle['start']}-{cycle['end']} vs {start}-{end}")
            continue
        for k in range(n_agents):
            window = [correct[i][k] for i in range(start, end)]
            accuracy = sum(window) / len(window)
            wrong = [j for j, ok in enumerate(window) if not ok]
            adaptation = wrong[-1] + 1 if wrong else 0
            if not math.isclose(cycle["accuracy_per_agent"][k], accuracy, rel_tol=REL_TOL, abs_tol=1e-15):
                problems.append(f"{path}: cycle {start} agent {k} accuracy {cycle['accuracy_per_agent'][k]} vs {accuracy}")
            if cycle["adaptation_steps_per_agent"][k] != adaptation:
                problems.append(f"{path}: cycle {start} agent {k} adaptation {cycle['adaptation_steps_per_agent'][k]} vs {adaptation}")
    return problems


def check_risk_trace(path: str, raw: dict) -> list:
    n_agents = agent_count(raw)
    reps = int(raw["model"].get("repetitions", 1))
    epochs = int(raw["model"]["epochs"])
    _, _, rows = read_csv(path)
    keys = {(int(r[0]), int(r[1]), int(r[2])) for r in rows}
    want = {(k, r, e) for k in range(n_agents) for r in range(reps) for e in range(epochs)}
    problems = []
    if len(rows) != len(want) or keys != want:
        problems.append(f"{path}: {len(rows)} rows, expected one per agent x repetition x epoch ({len(want)})")
    if not all(math.isfinite(float(r[3])) for r in rows):
        problems.append(f"{path}: non-finite empirical risk")
    return problems


def layer_sizes(raw: dict, agent: int) -> list:
    """Configured widths of one agent's network, bias slot included."""
    data = raw["data"]
    if data["type"] == "gaussian":
        dim = len(data["agents"][agent][str(raw["classes"][0])]["mean"])
    else:
        rows, cols = data["layout"]
        height, width = data["height"], data["width"]
        r, c = divmod(agent, cols)
        patch_h = height // rows if r < rows - 1 else height - (rows - 1) * (height // rows)
        patch_w = width // cols if c < cols - 1 else width - (cols - 1) * (width // cols)
        dim = patch_h * patch_w
    return [dim + 1, *raw["model"].get("hidden", []), len(raw["classes"])]


def check_models(model_dir: str, raw: dict) -> list:
    problems = []
    for k in range(agent_count(raw)):
        path = os.path.join(model_dir, f"agent_{k}.json")
        with open(path) as fh:
            weights = json.load(fh)["weights"]
        sizes = layer_sizes(raw, k)
        shapes = [(len(w), len(w[0])) for w in weights]
        want = list(zip(sizes[1:], sizes[:-1]))
        if shapes != want:
            problems.append(f"{path}: weight shapes {shapes}, expected {want}")
        elif not all(math.isfinite(v) for w in weights for row in w for v in row):
            problems.append(f"{path}: non-finite weight")
    return problems


def check_montecarlo(out_dir: str, raw: dict, claim: str) -> list:
    """Error rates on the 1/(R*S) grid, stderr bounds, summary, the strategy claim."""
    mc = raw["montecarlo"]
    reps, streams, horizon = int(mc["replications"]), int(mc["eval_streams"]), int(mc["horizon"])
    strategies = sorted(mc["strategies"])
    path = os.path.join(out_dir, "montecarlo.csv")
    _, _, rows = read_csv(path)
    keys = [(int(r[0]), r[1]) for r in rows]
    if keys != [(i, s) for i in range(1, horizon + 1) for s in strategies]:
        return [f"{path}: rows do not cover steps 1..{horizon} x {strategies} in order"]
    problems = []
    curves = {s: {} for s in strategies}
    trials = reps * streams
    for i, strategy, rate_text, se_text in rows:
        rate, se = float(rate_text), float(se_text)
        where = f"{path}: i={i} {strategy}"
        curves[strategy][int(i)] = rate
        if not 0.0 <= rate <= 1.0:
            problems.append(f"{where}: error rate {rate} outside [0, 1]")
        if abs(rate * trials - round(rate * trials)) > 1e-6:
            problems.append(f"{where}: error rate {rate} is not a multiple of 1/{trials}")
        limit = math.sqrt(max(rate * (1.0 - rate), 0.0) / (reps - 1)) if reps > 1 else 0.0
        if not 0.0 <= se <= limit * (1.0 + REL_TOL) + 1e-15:
            problems.append(f"{where}: stderr {se} outside [0, {limit}]")
    with open(os.path.join(out_dir, "mc_summary.json")) as fh:
        summary = json.load(fh)
    for strategy in strategies:
        if summary["final_error"].get(strategy) != curves[strategy][horizon]:
            problems.append(f"mc_summary.json: final_error[{strategy}] != montecarlo.csv at i={horizon}")
    if (summary["replications"], summary["eval_streams"], summary["horizon"]) != (reps, streams, horizon):
        problems.append("mc_summary.json: counts differ from the config")
    sml, ada = curves["sml"], curves["adaboost"]
    if claim == "sml_below_adaboost":
        if not (sml[horizon] < ada[horizon] and sml[horizon] < sml[1]):
            problems.append(f"claim: sml({horizon})={sml[horizon]} not below adaboost {ada[horizon]} and sml(1) {sml[1]}")
    elif claim == "sml_at_most_adaboost":
        if not sml[horizon] <= ada[horizon]:
            problems.append(f"claim: sml({horizon})={sml[horizon]} above adaboost {ada[horizon]}")
    return problems


def _required(command: str, raw: dict) -> list:
    if command == "train":
        return ["risk_trace.csv"] + [f"models/agent_{k}.json" for k in range(agent_count(raw))]
    if command == "predict":
        return ["trajectory.csv", "summary.json"]
    return ["montecarlo.csv", "mc_summary.json"]


def check_outputs(workload, out_dirs: dict, codes: list) -> list:
    """Every check that applies to the workload; ``out_dirs`` maps command -> directory."""
    raw = workload.config
    problems = [f"{cmd}: exit code {code}" for cmd, code in zip(workload.commands, codes) if code != 0]
    if problems:
        return problems
    complete = {}
    for command, out_dir in out_dirs.items():
        problems += check_manifest(out_dir)
        written = file_hashes(out_dir)
        for name in written:
            if name.endswith(".csv"):
                problems += check_header(os.path.join(out_dir, name), raw)
        missing = [name for name in _required(command, raw) if name not in written]
        problems += [f"{out_dir}: {name} not written" for name in missing]
        if not missing:
            complete[command] = out_dir
    if "train" in complete:
        problems += check_risk_trace(os.path.join(complete["train"], "risk_trace.csv"), raw)
        problems += check_models(os.path.join(complete["train"], "models"), raw)
    if "predict" in complete:
        found, correct = check_trajectory(os.path.join(complete["predict"], "trajectory.csv"), raw)
        problems += found
        if correct is not None:
            problems += check_summary(os.path.join(complete["predict"], "summary.json"), raw, correct)
    if "montecarlo" in complete:
        problems += check_montecarlo(complete["montecarlo"], raw, workload.claim)
    return problems
