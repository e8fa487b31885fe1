"""The runnable demos under ``scripts/``, run end to end on small settings."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from socialml.config import validate_config
from socialml.experiments import cmd_predict, cmd_train

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )


def load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def manifest_artifacts(out):
    return json.loads((out / "manifest.json").read_text())["artifacts"]


def test_theory_report(tmp_path):
    out = tmp_path / "theory"
    run_script("theory_report.py", "--out", str(out))
    assert manifest_artifacts(out) == ["exponent_grid.csv", "manifest.json", "theory_report.json"]
    report = json.loads((out / "theory_report.json").read_text())
    assert report["meta"]["command"] == "theory"
    assert report["vacuous"] and report["pc_lower_bound"] == 0.0
    assert report["sample_complexity"] > 0
    rows = (out / "exponent_grid.csv").read_text().splitlines()
    assert rows[1] == "target_risk,exact_exponent,approx_exponent"
    assert len(rows) == 2 + 50


def test_boost_comparison(tmp_path):
    out = tmp_path / "boost"
    run_script("boost_comparison.py", "--replications", "2", "--out", str(out))
    assert manifest_artifacts(out) == ["manifest.json", "mc_summary.json", "montecarlo.csv"]
    summary = json.loads((out / "mc_summary.json").read_text())
    assert summary["replications"] == 2
    assert set(summary["final_error"]) == {"adaboost", "sml"}
    rows = (out / "montecarlo.csv").read_text().splitlines()[2:]
    assert len(rows) == 51 * 2
    assert {row.split(",")[1] for row in rows} == {"adaboost", "sml"}


def test_gaussian_demo_steps(tmp_path):
    demo = load_script("gaussian_demo.py")
    raw = demo.build_config(2029, 2000)
    raw["model"]["epochs"] = 1
    cfg = validate_config(raw, str(tmp_path))
    assert cfg.n_agents == 4
    out = str(tmp_path / "demo")
    train = cmd_train(cfg, out)
    assert train == {"models": 4, "trace_rows": 4 * 3 * 1}
    predict = cmd_predict(cfg, out)
    assert len(predict["cycles"]) == 1
    checkpoints = demo.growth_checkpoints(out)
    assert list(checkpoints) == [499, 999, 1499, 1999]
