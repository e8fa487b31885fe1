"""The example configs under ``configs/``, run end to end through the CLI on
small settings."""

import json

from socialml.cli import main
from helpers import CONFIGS
from test_manifests import assert_manifest_exact


def manifest_artifacts(out):
    return json.loads((out / "manifest.json").read_text())["artifacts"]


def test_theory_report(tmp_path):
    out = tmp_path / "theory"
    config = str(CONFIGS / "theory_report.json")
    assert main(["theory", "--config", config, "--out", str(out)]) == 0
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
    config = str(CONFIGS / "boost_comparison.json")
    argv = ["montecarlo", "--config", config, "--replications-override", "2", "--out", str(out)]
    assert main(argv) == 0
    assert manifest_artifacts(out) == ["manifest.json", "mc_summary.json", "montecarlo.csv"]
    summary = json.loads((out / "mc_summary.json").read_text())
    assert summary["replications"] == 2
    assert set(summary["final_error"]) == {"adaboost", "sml"}
    rows = (out / "montecarlo.csv").read_text().splitlines()[2:]
    assert len(rows) == 51 * 2
    assert {row.split(",")[1] for row in rows} == {"adaboost", "sml"}


def test_gaussian_demo_steps(tmp_path, capsys):
    raw = json.loads((CONFIGS / "gaussian_demo.json").read_text())
    raw["model"]["epochs"] = 1
    config = tmp_path / "gaussian_demo.json"
    config.write_text(json.dumps(raw))
    train, predict = tmp_path / "train", tmp_path / "predict"
    assert main(["train", "--config", str(config), "--out", str(train)]) == 0
    assert capsys.readouterr().out == f"trained 4 agents, {4 * 3 * 1} trace rows\n"
    assert main(["predict", "--config", str(config), "--out", str(predict)]) == 0
    summary = json.loads((predict / "summary.json").read_text())
    assert len(summary["cycles"]) == 1
    # each command's manifest lists exactly what it wrote
    assert_manifest_exact(train)
    assert_manifest_exact(predict)
