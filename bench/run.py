"""The socialml benchmark: one workload, timed end to end or traced by layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Generates the workload's inputs from the seed, then runs whole rounds of the
workload's CLI commands, each round in a fresh process that also times the
package's set-up, until ``--seconds`` have passed.  The first round's
artifacts are checked; every later round must write the same bytes.  The
sha256 of every artifact is printed, then one JSON line with the result.

``setup_s`` and ``run_s`` are scaled by a speed probe timed just before
and just after each round, on the round's vCPU (README.md says why); every
metric is the median over rounds.  With ``--trace 1`` untraced and traced
rounds alternate, and the result holds the per-layer metrics instead of the
end-to-end ones.
``--size tiny`` shrinks every workload for smoke tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 150
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB"}
PROBE_CALLS = 10_000
PROBE_CONVERSIONS = 4
PROBE_PIXELS = (6000, 784)  # one image_mc class pool
# the probe's time at full speed on the 2-vCPU sandbox of the README figures
PROBE_REFERENCE_S = 0.055
# one BLAS thread: the workloads run serially, and a second thread on a
# shared 2-CPU machine adds noise, not speed, at these matrix sizes
CHILD_ENV = {
    **os.environ,
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def speed_probe() -> float:
    """Seconds for a fixed amount of the package's two kinds of work: a loop
    of small numpy calls (training, forward passes, diffusion) and a few
    conversions of a large uint8 array to float64 (pixel scaling), which
    stream memory instead.  It reads up to twice as long when the host
    slows.  It runs here, not in the worker, so that its arrays never count
    in the worker's peak memory."""
    a, w = np.ones((3, 10)), np.ones((10, 10))
    pixels = np.full(PROBE_PIXELS, 7, dtype=np.uint8)
    start = time.perf_counter()
    for _ in range(PROBE_CALLS):
        np.tanh(a @ w)
    for _ in range(PROBE_CONVERSIONS):
        pixels / 255.0
    return time.perf_counter() - start


def _child(spec_path: str) -> dict:
    """Run a worker to completion; its last stdout line is a JSON object."""
    proc = subprocess.run(
        [sys.executable, WORKER, spec_path],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {spec_path} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _round(workload, config_path, round_dir, trace_path, cpu=None) -> tuple:
    out_dirs = {cmd: os.path.join(round_dir, cmd) for cmd in workload.commands}
    spec = {
        "config": config_path,
        "commands": [workload.argv(cmd, config_path, out) for cmd, out in out_dirs.items()],
        "out_dirs": list(out_dirs.values()),
        "trace": trace_path,
    }
    os.makedirs(round_dir)
    spec_path = os.path.join(round_dir, "round.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})  # the worker inherits it
    probe_before = speed_probe()
    result = _child(spec_path)
    result["probe_s"] = (probe_before + speed_probe()) / 2
    os.remove(spec_path)
    scale = PROBE_REFERENCE_S / result["probe_s"]
    result["wall_setup_s"], result["wall_run_s"] = result["setup_s"], result["run_s"]
    result["setup_s"] *= scale
    result["run_s"] *= scale
    return result, out_dirs


def _hashes(out_dirs: dict) -> dict:
    return {
        f"{cmd}/{name}": digest
        for cmd, out in out_dirs.items()
        for name, digest in checks.file_hashes(out).items()
    }


def _validate_data(manifest: str) -> list:
    proc = subprocess.run(
        [sys.executable, "-m", "socialml.cli", "validate-data", "--config", manifest],
        capture_output=True,
        text=True,
        env={**CHILD_ENV, "PYTHONPATH": os.path.join(ROOT, "src")},
        timeout=CHILD_TIMEOUT_S,
    )
    return [] if proc.returncode == 0 else [f"validate-data exited {proc.returncode}"]


def run(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    work = os.path.join(RUNS_DIR, f"{name}-s{seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        workload, config_path = workloads.build(name, seed, size, work)
        cpus = sorted(os.sched_getaffinity(0))
        rounds = []  # (traced, worker result)
        reference = None
        problems = []
        start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
            traced = trace and len(rounds) % 2 == 1
            round_dir = os.path.join(work, f"round_{len(rounds)}")
            trace_path = os.path.join(RUNS_DIR, f"spans-{name}-s{seed}.csv") if traced else None
            # each pair of rounds shares a vCPU, so traced and untraced rounds
            # see every vCPU equally often
            cpu = cpus[len(rounds) // 2 % len(cpus)]
            result, out_dirs = _round(workload, config_path, round_dir, trace_path, cpu)
            rounds.append((traced, result))
            print(
                f"round {len(rounds) - 1}{' traced' if traced else ''} cpu {cpu}: "
                f"setup_s={result['setup_s']:.4f} run_s={result['run_s']:.4f} "
                f"wall_run_s={result['wall_run_s']:.4f} probe_s={result['probe_s']:.5f} peak_rss_mib={result['peak_rss_mib']:.1f}",
                file=sys.stderr,
            )
            hashes = _hashes(out_dirs)
            if reference is None:
                reference = hashes
                problems += checks.check_outputs(workload, out_dirs, result["returncodes"])
                if workload.dataset_manifest:
                    problems += _validate_data(workload.dataset_manifest)
            else:
                if hashes != reference:
                    problems.append(f"round {len(rounds) - 1}: artifacts differ from round 0")
                shutil.rmtree(round_dir)

        for artifact, digest in reference.items():
            print(f"artifact {name} {artifact} sha256={digest}")
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        codes = [code for _, result in rounds for code in result["returncodes"]]
        if trace:
            metrics = _layer_metrics(rounds)
        else:
            metrics = {
                metric: {"value": statistics.median(r[metric] for _, r in rounds), "unit": unit}
                for metric, unit in END_TO_END.items()
            }
        return {
            "correct": not problems,
            "attempted": len(codes),
            "failed": sum(code != 0 for code in codes),
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _layer_metrics(rounds: list) -> dict:
    """Layer metrics of the median traced round; the overhead is the median
    ``run_s`` of the traced rounds minus that of the untraced ones."""
    traced = sorted((r for was_traced, r in rounds if was_traced), key=lambda r: r["run_s"])
    untraced = [r["run_s"] for was_traced, r in rounds if not was_traced]
    middle = traced[(len(traced) - 1) // 2]
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in middle["layers"].items()}
    overhead = statistics.median(r["run_s"] for r in traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "socialml", "cli.py")):
        print(f"socialml sources not found under {ROOT}/src", file=sys.stderr)
        return 1
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
