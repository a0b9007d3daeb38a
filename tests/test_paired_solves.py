"""tools/paired_solves.py on the working tree loaded twice; no timing is asserted."""

import importlib.util
import math
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "paired_solves.py"
_SPEC = importlib.util.spec_from_file_location("paired_solves", _PATH)
paired_solves = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(paired_solves)


def test_two_loads_of_one_tree_are_distinct_and_agree():
    first = paired_solves.load(paired_solves.ROOT, "kuiperpair_first")
    second = paired_solves.load(paired_solves.ROOT, "kuiperpair_second")
    assert first is not second
    assert first.KuiperPair is not second.KuiperPair
    assert first.quantile.kuiper_pair_solver is not second.quantile.kuiper_pair_solver

    reading = paired_solves.paired_ratios(first, second, seed=3, rounds=2, size=64)
    outs = reading["outs"]
    assert len(outs["parent"]) == len(outs["change"]) == 128
    assert outs["parent"] == outs["change"]
    assert any(len(out) == 5 for out in outs["parent"])  # solved KuiperPairs
    for route, ratios in reading["ratios"].items():
        assert len(ratios) == 2, route
        assert all(math.isfinite(ratio) and ratio > 0.0 for ratio in ratios)
