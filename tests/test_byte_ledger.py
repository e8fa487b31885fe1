"""Same bytes as a tier-1 check: the artifacts of ``scripts/byte_ledger.py``'s
config matrix against the hashes recorded in ``tests/bytes_ledger.json``.

The hashes hold under the environment key they were recorded with; under
another key the comparison is skipped, naming both.  After a change that
moves bytes on purpose, ``scripts/byte_ledger.py --write`` records them
again.
"""

import importlib.util
import json
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
