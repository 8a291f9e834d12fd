"""Every valid pair's files match the frozen golden table (see golden.py)."""

import json

from golden import BUDGET, SEEDS, TABLE, run_pairs, versions


def test_every_valid_pair_writes_the_golden_files(tmp_path):
    table = json.loads(TABLE.read_text())
    assert (table["budget"], table["seeds"]) == (BUDGET, list(SEEDS))
    got = run_pairs(tmp_path)
    moved = {}
    for pair, entry in got.items():
        want = table["pairs"].get(pair, {"files": {}, "best_value": None})
        if entry != want:
            moved[pair] = {
                "files": sorted(name for name in entry["files"].keys() | want["files"].keys()
                                if entry["files"].get(name) != want["files"].get(name)),
                "best_value": {"recorded": want["best_value"], "now": entry["best_value"]}}
    missing = sorted(set(table["pairs"]) - set(got))
    assert not moved and not missing, (
        f"outputs differ from {TABLE.name}: moved {moved}, missing pairs {missing}; "
        f"table frozen with {table['versions']}, running with {versions()}. "
        "A deliberate output change rewrites the table with "
        "`PYTHONPATH=src python tests/golden.py`.")
