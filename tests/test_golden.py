"""Every valid pair's files, and the comparisons of their reports, match the
frozen golden table (see golden.py)."""

import json

import pytest
from golden import BUDGET, SEEDS, TABLE, compare_pairs, run_pairs, versions


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    """Run every valid pair once; returns the output directory and its entries."""
    out = tmp_path_factory.mktemp("golden")
    return out, run_pairs(out)


def _frozen(table) -> str:
    return (f"table frozen with {table['versions']}, running with {versions()}. "
            "A deliberate output change rewrites the table with "
            "`PYTHONPATH=src python tests/golden.py`.")


def test_every_valid_pair_writes_the_golden_files(ran):
    table = json.loads(TABLE.read_text())
    assert (table["budget"], table["seeds"]) == (BUDGET, list(SEEDS))
    got = ran[1]
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
        + _frozen(table))


def test_every_comparison_writes_the_golden_files(ran):
    table = json.loads(TABLE.read_text())
    got = compare_pairs(ran[0])
    moved = {call: sorted(k for k in entry if entry[k] != table["compare"].get(call, {}).get(k))
             for call, entry in got.items()}
    moved = {call: keys for call, keys in moved.items() if keys}
    missing = sorted(set(table["compare"]) - set(got))
    assert not moved and not missing, (
        f"comparisons differ from {TABLE.name}: moved {moved}, missing calls {missing}; "
        + _frozen(table))
