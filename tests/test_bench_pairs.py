"""Verdict and summary rules of tools/bench_pairs.py, on synthetic runs."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [{"name": "op_p50_us", "unit": "us", "better": "lower",
                        "bound": 0.25}]}


def run(pair, side, op_p50_us, *, correct=True, attempted=100, failed=0):
    return {"pair": pair, "workload": "w", "seed": pair, "side": side, "trace": 0,
            "exit": 0, "result": {"correct": correct, "attempted": attempted,
                                  "failed": failed,
                                  "metrics": {"op_p50_us": {"value": op_p50_us}}}}


def pairs(parent, change, **change_kwargs):
    return [r for i, (p, c) in enumerate(zip(parent, change))
            for r in (run(i, "parent", p), run(i, "change", c, **change_kwargs))]


PARENT = [200.0, 201.0, 199.0, 202.0, 198.0, 200.0, 203.0, 197.0, 201.0, 199.0]
FASTER = [120.0] * 10


def test_nine_wins_past_the_spread_is_a_gain():
    row = bench_pairs.verdict(PARENT, FASTER, "lower", 0.25, fails_more=False)
    assert (row["change_wins"], row["verdict"]) == (10, "gain")
    change = FASTER[:9] + [250.0]
    assert bench_pairs.verdict(PARENT, change, "lower", 0.25, False)["verdict"] == "gain"
    change = FASTER[:8] + [250.0, 250.0]
    assert bench_pairs.verdict(PARENT, change, "lower", 0.25, False)["verdict"] == "no move"


def test_more_failures_withhold_a_gain():
    row = bench_pairs.verdict(PARENT, FASTER, "lower", 0.25, fails_more=True)
    assert row["verdict"] == "no move"


def test_slower_past_the_bound_is_worse():
    row = bench_pairs.verdict(PARENT, [260.0] * 10, "lower", 0.25, fails_more=False)
    assert row["verdict"] == "worse"


def test_summary_counts_failed_shares_and_withholds_the_gain():
    summary = bench_pairs.summarise(pairs(PARENT, FASTER, failed=1), SPEC)["w"]
    assert summary["failed_share"] == {"parent": 0.0, "change": 0.01}
    assert summary["metrics"]["op_p50_us"]["verdict"] == "no move"
    summary = bench_pairs.summarise(pairs(PARENT, FASTER), SPEC)["w"]
    assert summary["failed_share"] == {"parent": 0.0, "change": 0.0}
    assert summary["metrics"]["op_p50_us"]["verdict"] == "gain"


def test_incorrect_runs_give_no_metric_values():
    runs = pairs(PARENT, FASTER)
    runs[1]["result"]["correct"] = False  # the change side of pair 0
    summary = bench_pairs.summarise(runs, SPEC)["w"]
    row = summary["metrics"]["op_p50_us"]
    assert (summary["pairs"], summary["incorrect_runs"]) == (9, 1)
    assert row["parent"]["values"] == PARENT[1:]
    assert row["pairs"] == 9
