"""Same bytes as a tier-1 check: the artifacts of ``scripts/byte_ledger.py``'s
config matrix against the hashes recorded in ``tests/bytes_ledger.json``.

The hashes hold under the environment key they were recorded with; under
another key the comparison is skipped, naming both.  After a change that
moves bytes on purpose, ``scripts/byte_ledger.py --write`` records them
again.  The script's command line is checked on fixed hashes.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "byte_ledger.py"
spec = importlib.util.spec_from_file_location("byte_ledger", SCRIPT)
byte_ledger = importlib.util.module_from_spec(spec)
spec.loader.exec_module(byte_ledger)


def test_artifacts_match_the_ledger(tmp_path):
    ledger = json.loads(byte_ledger.LEDGER.read_text())
    key = byte_ledger.environment_key()
    if ledger["key"] != key:
        pytest.skip(f"ledger recorded under {ledger['key']}, this environment is {key}")
    results = byte_ledger.run_matrix(tmp_path)
    assert byte_ledger.moved_entries(ledger, results) == []


def test_a_moved_or_missing_entry_is_named():
    ledger = {"entries": {"a/train": {"x": "1"}, "b/train": {"x": "2"}}}
    results = [("a/train", {"x": "1"}), ("a/train", {"x": "9"}), ("c/predict", {"x": "3"})]
    assert byte_ledger.moved_entries(ledger, results) == ["a/train", "c/predict", "b/train"]


# the script's command line, with the config matrix replaced by fixed hashes
RESULTS = [("a/train", {"x": "1"}), ("b/predict", {"y": "2"})]


def run_main(monkeypatch, results, *argv) -> int:
    monkeypatch.setattr(byte_ledger, "run_matrix", lambda root: results)
    monkeypatch.setattr(sys, "argv", ["byte_ledger.py", *argv])
    return byte_ledger.main()


def test_write_records_the_key_and_entries(tmp_path, monkeypatch, capsys):
    ledger = tmp_path / "ledger.json"
    assert run_main(monkeypatch, RESULTS, "--write", "--ledger", str(ledger)) == 0
    recorded = json.loads(ledger.read_text())
    assert recorded == {"key": byte_ledger.environment_key(), "entries": dict(RESULTS)}
    assert run_main(monkeypatch, RESULTS, "--ledger", str(ledger)) == 0
    assert "all 2 entries match" in capsys.readouterr().out


def test_a_moved_hash_exits_1_naming_the_entry(tmp_path, monkeypatch, capsys):
    ledger = tmp_path / "ledger.json"
    assert run_main(monkeypatch, RESULTS, "--write", "--ledger", str(ledger)) == 0
    moved = [RESULTS[0], ("b/predict", {"y": "3"})]
    assert run_main(monkeypatch, moved, "--ledger", str(ledger)) == 1
    assert capsys.readouterr().err == "moved: b/predict\n"


def test_a_foreign_key_compares_nothing(tmp_path, monkeypatch, capsys):
    ledger = tmp_path / "ledger.json"
    key = {**byte_ledger.environment_key(), "numpy": "0.0"}
    ledger.write_text(json.dumps({"key": key, "entries": {"a/train": {"x": "9"}}}))
    assert run_main(monkeypatch, RESULTS, "--ledger", str(ledger)) == 0
    assert "nothing compared" in capsys.readouterr().out
