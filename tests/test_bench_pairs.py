"""Verdict and summary rules of tools/bench_pairs.py, on synthetic runs."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [{"name": "op_p50_us", "unit": "us", "better": "lower",
                        "bound": 0.25}],
        "per_layer": [{"name": "kernel_ns", "unit": "ns", "better": "lower"}]}


def run(pair, side, op_p50_us, *, correct=True, attempted=100, failed=0):
    return {"pair": pair, "workload": "w", "seed": pair, "side": side, "trace": 0,
            "exit": 0, "wall_s": 30.0,
            "result": {"correct": correct, "attempted": attempted, "failed": failed,
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


def test_summary_gives_each_sides_median_wall_seconds_over_timed_runs():
    runs = pairs(PARENT[:3], FASTER[:3])  # parent, change, parent, ...
    for r, seconds in zip(runs, [100.0, 60.0, 104.0, 61.0, 98.0, 63.0]):
        r["wall_s"] = seconds
    runs[0]["result"] = None  # a crashed run still took its wall time
    slow = traced("change", 10.0)
    slow["wall_s"] = 999.0  # traced runs are left out
    summary = bench_pairs.summarise(runs + [slow], SPEC)["w"]
    assert summary["wall_s"] == {"parent": 100.0, "change": 61.0}
    assert bench_pairs.summarise([slow], SPEC)["w"]["wall_s"] == {
        "parent": None, "change": None}


def traced(side, kernel_ns, *, correct=True):
    return {"pair": None, "workload": "w", "seed": 0, "side": side, "trace": 1, "exit": 0,
            "result": {"correct": correct, "attempted": 100, "failed": 0,
                       "metrics": {"kernel_ns": {"value": kernel_ns}}}}


def test_per_layer_metrics_get_quartiles_over_traced_runs_and_no_verdict():
    runs = pairs(PARENT, FASTER) + [
        traced("parent", 30.0), traced("change", 10.0), traced("change", 12.0),
        traced("parent", 20.0), traced("parent", 25.0), traced("change", 11.0),
        traced("change", 99.0, correct=False),
    ]
    row = bench_pairs.summarise(runs, SPEC)["w"]["per_layer"]["kernel_ns"]
    assert row["parent"]["values"] == [30.0, 20.0, 25.0]
    assert row["change"]["values"] == [10.0, 12.0, 11.0]
    assert (row["parent"]["median"], row["change"]["median"]) == (25.0, 11.0)
    assert row["parent"]["q1"] <= 25.0 <= row["parent"]["q3"]
    assert "verdict" not in row
    # Timed runs give no per-layer values, and traced runs no end-to-end ones.
    assert bench_pairs.summarise(pairs(PARENT, FASTER), SPEC)["w"]["per_layer"] == {}
    assert bench_pairs.summarise(runs, SPEC)["w"]["metrics"]["op_p50_us"]["pairs"] == 10


def test_plan_traces_the_first_three_seeds_on_both_sides_alternating():
    plan = bench_pairs.plan_runs([7, 8, 9, 10], ["a", "b"])
    timed = [step for step in plan if step[4] == 0]
    traced = [step for step in plan if step[4] == 1]
    assert len(timed) == 4 * 2 * 2
    assert {(pair, seed) for pair, _, seed, _, _ in timed} == {(0, 7), (1, 8), (2, 9), (3, 10)}
    assert plan[len(timed):] == traced  # the traced runs follow the pairs
    assert [(w, seed, side) for _, w, seed, side, _ in traced] == [
        ("a", 7, "parent"), ("a", 7, "change"), ("b", 7, "parent"), ("b", 7, "change"),
        ("a", 8, "change"), ("a", 8, "parent"), ("b", 8, "change"), ("b", 8, "parent"),
        ("a", 9, "parent"), ("a", 9, "change"), ("b", 9, "parent"), ("b", 9, "change"),
    ]
    assert all(pair is None for pair, *_ in traced)


def test_workload_free_layers_are_pooled_over_every_workload():
    spec = {"end_to_end": [], "per_layer": [
        {"name": "empirical.kernel_ns", "unit": "ns", "better": "lower"},
        {"name": "cli.main_us", "unit": "us", "better": "lower"},
        {"name": "fixed_point.solve_us", "unit": "us", "better": "lower"}]}

    def traced_in(workload, side, value, correct=True):
        metrics = {name: {"value": value} for name in
                   ("empirical.kernel_ns", "cli.main_us", "fixed_point.solve_us")}
        return {"pair": None, "workload": workload, "seed": 0, "side": side, "trace": 1,
                "exit": 0, "result": {"correct": correct, "attempted": 1, "failed": 0,
                                      "metrics": metrics}}

    runs = [traced_in(w, side, value + (10.0 if side == "change" else 0.0))
            for w, base in (("a", 1.0), ("b", 4.0), ("c", 7.0))
            for value in (base, base + 1.0, base + 2.0) for side in ("parent", "change")]
    runs.append(traced_in("a", "change", 99.0, correct=False))
    runs += pairs(PARENT, FASTER)  # timed runs add nothing to the pool
    pooled = bench_pairs.pool_layers(runs, spec)
    assert set(pooled) == {"empirical.kernel_ns", "cli.main_us"}
    row = pooled["empirical.kernel_ns"]
    assert row["parent"]["values"] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
    assert (row["parent"]["median"], row["change"]["median"]) == (5.0, 15.0)
    assert row["parent"]["q1"] < 5.0 < row["parent"]["q3"]
    assert "verdict" not in row
    # Each workload still reports its own three traced runs.
    per_workload = bench_pairs.summarise(runs, spec)["b"]["per_layer"]
    assert per_workload["empirical.kernel_ns"]["parent"]["values"] == [4.0, 5.0, 6.0]


def test_null_per_layer_values_are_dropped_and_an_empty_side_is_absent():
    def traced_null(side, value):
        return {"pair": None, "workload": "w", "seed": 0, "side": side, "trace": 1,
                "exit": 0, "result": {"correct": True, "attempted": 1, "failed": 0,
                                      "metrics": {"kernel_ns": {"value": value}}}}

    runs = [traced_null("parent", 30.0), traced_null("parent", None),
            traced_null("parent", 20.0), traced_null("change", None),
            traced_null("change", None)]
    row = bench_pairs.summarise(runs, SPEC)["w"]["per_layer"]["kernel_ns"]
    assert row["parent"]["values"] == [30.0, 20.0]
    assert row["change"] is None
    assert bench_pairs.layer_medians(row) == "parent 25 change absent ns"
    # A metric that every run of both sides reports as null gives no row.
    runs = [traced_null("parent", None), traced_null("change", None)]
    assert bench_pairs.summarise(runs, SPEC)["w"]["per_layer"] == {}
