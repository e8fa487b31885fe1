"""The benchmark's own checks reject corrupted artifacts, and every workload
runs end to end at tiny size.

    python3 -m pytest bench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One tiny round of every workload: name -> (workload, out_dirs)."""
    made = {}
    for name in workloads.BUILDERS:
        work = tmp_path_factory.mktemp(name)
        workload, config_path = workloads.build(name, 7, "tiny", str(work))
        result, out_dirs = run._round(workload, config_path, str(work / "round"), None)
        assert result["returncodes"] == [0] * len(workload.commands)
        made[name] = (workload, out_dirs)
    return made


@pytest.fixture
def copy_of(artifacts, tmp_path):
    """Fresh copies of one workload's artifacts, safe to corrupt."""

    def _copy(name):
        workload, out_dirs = artifacts[name]
        copies = {}
        for command, out in out_dirs.items():
            copies[command] = str(tmp_path / command)
            shutil.copytree(out, copies[command])
        return workload, copies

    return _copy


def _rewrite_row(path, row_index, column, value):
    lines = Path(path).read_text().splitlines()
    fields = lines[2 + row_index].split(",")
    fields[column] = value
    lines[2 + row_index] = ",".join(fields)
    Path(path).write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_untouched_artifacts_pass(artifacts, name):
    workload, out_dirs = artifacts[name]
    assert checks.check_outputs(workload, out_dirs, [0] * len(out_dirs)) == []


@pytest.mark.parametrize("name", ["demo_train", "long_stream"])
def test_flipped_decision_is_rejected(copy_of, name):
    workload, out_dirs = copy_of(name)
    path = os.path.join(out_dirs["predict"], "trajectory.csv")
    row = Path(path).read_text().splitlines()[2].split(",")
    classes = workload.config["classes"]
    other = next(str(c) for c in classes if str(c) != row[5])
    for component in range(len(classes) - 1):  # one row per lambda component
        _rewrite_row(path, component, 5, other)
    problems = checks.check_outputs(workload, out_dirs, [0] * len(out_dirs))
    assert any("argmax rule" in p for p in problems)


def test_flipped_correct_flag_is_rejected(copy_of):
    workload, out_dirs = copy_of("demo_train")
    path = os.path.join(out_dirs["predict"], "trajectory.csv")
    flag = Path(path).read_text().splitlines()[2].split(",")[7]
    _rewrite_row(path, 0, 7, "1" if flag == "0" else "0")
    problems = checks.check_outputs(workload, out_dirs, [0] * len(out_dirs))
    assert any("correct=" in p for p in problems)


def test_summary_accuracy_off_is_rejected(copy_of):
    workload, out_dirs = copy_of("long_stream")
    path = Path(out_dirs["predict"]) / "summary.json"
    summary = json.loads(path.read_text())
    summary["cycles"][1]["accuracy_per_agent"][2] += 0.01
    path.write_text(json.dumps(summary))
    problems = checks.check_outputs(workload, out_dirs, [0] * len(out_dirs))
    assert any("accuracy" in p for p in problems)


@pytest.mark.parametrize("name", ["mc_compare", "image_mc"])
def test_error_rate_off_grid_is_rejected(copy_of, name):
    workload, out_dirs = copy_of(name)
    mc = workload.config["montecarlo"]
    path = os.path.join(out_dirs["montecarlo"], "montecarlo.csv")
    rate = float(Path(path).read_text().splitlines()[2].split(",")[2])
    half_step = 0.5 / (mc["replications"] * mc["eval_streams"])
    _rewrite_row(path, 0, 2, repr(rate + half_step if rate < 0.5 else rate - half_step))
    problems = checks.check_outputs(workload, out_dirs, [0] * len(out_dirs))
    assert any("not a multiple" in p for p in problems)


def test_stderr_above_bound_is_rejected(copy_of):
    workload, out_dirs = copy_of("mc_compare")
    path = os.path.join(out_dirs["montecarlo"], "montecarlo.csv")
    _rewrite_row(path, 0, 3, "0.9")
    problems = checks.check_outputs(workload, out_dirs, [0] * len(out_dirs))
    assert any("stderr" in p for p in problems)


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_stray_manifest_entry_is_rejected(copy_of, name):
    workload, out_dirs = copy_of(name)
    out = next(iter(out_dirs.values()))
    Path(out, "stray.csv").write_text("# not written by the command\n")
    problems = checks.check_outputs(workload, out_dirs, [0] * len(out_dirs))
    assert any("stray.csv written but not in manifest" in p for p in problems)


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_missing_manifest_entry_is_rejected(copy_of, name):
    workload, out_dirs = copy_of(name)
    out = next(iter(out_dirs.values()))
    manifest = json.loads(Path(out, "manifest.json").read_text())
    victim = next(a for a in manifest["artifacts"] if a != "manifest.json")
    os.remove(os.path.join(out, victim))
    problems = checks.check_outputs(workload, out_dirs, [0] * len(out_dirs))
    assert any(f"manifest lists missing {victim}" in p for p in problems)


def test_wrong_header_and_model_shape_are_rejected(copy_of):
    workload, out_dirs = copy_of("demo_train")
    trace = Path(out_dirs["train"]) / "risk_trace.csv"
    lines = trace.read_text().splitlines()
    trace.write_text("\n".join(["# config=0000000000000000 seed=7", *lines[1:]]) + "\n")
    model = Path(out_dirs["train"]) / "models" / "agent_2.json"
    payload = json.loads(model.read_text())
    payload["weights"][0] = [row[:-1] for row in payload["weights"][0]]
    model.write_text(json.dumps(payload))
    problems = checks.check_outputs(workload, out_dirs, [0] * len(out_dirs))
    assert any("risk_trace.csv: header" in p for p in problems)
    assert any("agent_2.json: weight shapes" in p for p in problems)


def test_nonzero_exit_is_reported():
    workload = workloads.Workload("x", {}, ("train", "predict"))
    assert checks.check_outputs(workload, {}, [0, 2]) == ["predict: exit code 2"]


def test_peak_memory_is_the_workers_own(tmp_path):
    """The benchmark process's high-water mark must not leak into the
    worker's peak_rss_mib."""
    ballast = np.ones(100 * 2**20 // 8)  # touch 100 MiB, then free it
    del ballast
    workload, config_path = workloads.build("demo_train", 7, "tiny", str(tmp_path))
    result, _ = run._round(workload, config_path, str(tmp_path / "round"), None)
    assert result["peak_rss_mib"] < 90


def _bench(*args, cwd):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=120
    )
    return proc


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run(name, trace):
    proc = _bench(
        "--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", trace, "--size", "tiny",
        cwd=BENCH.parent,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert any(line.startswith(f"artifact {name} ") for line in proc.stdout.splitlines())


def test_fails_without_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "demo_train", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
