"""Self-test of the benchmark: tiny smoke runs, fault injection, format checks.

    python3 benchmarks/selftest.py

Exits 0 when every case passes.  The fault-injection cases feed deliberately
wrong outputs (a root moved by 1e-3, a statistic moved by 1/n, a changed CLI
line) to the correctness gate and require each to be flagged.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import traceback

import run

ROOT = run.ROOT
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

import workloads as W  # noqa: E402

W.single_threaded_blas()

CASES = []


def case(fn):
    CASES.append(fn)
    return fn


@case
def benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, sorted(spec)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(W.RUNNERS)


@case
def smoke_every_workload():
    for name, runner in W.RUNNERS.items():
        result = runner(W.Ctx(seed=3, seconds=0.2, sizes=W.TINY))
        assert result.wrong == 0, (name, result.errors)
        assert set(result.metrics) == set(run.END_TO_END), (name, sorted(result.metrics))
        for metric, (value, _unit) in result.metrics.items():
            assert value > 0 and math.isfinite(value), (name, metric, value)
        traced = run.traced_run(name, 4, 0.2, W.TINY)
        assert traced.wrong == 0, (name, traced.errors)
        assert set(traced.metrics) == set(run.PER_LAYER), name
        missing = [m for m, (value, _u) in traced.metrics.items() if value is None]
        assert not missing, (name, missing)


@case
def perturbed_root_is_flagged():
    import kuiperpair as kp

    for kind in kp.TestKind:
        pair = kp.kuiper_pair_solver(2.45, 0.05, 30, kind)
        cell = ("pair", kind.value, "newton", 0.05, 30, None)
        clean = W.Result()
        W.check_table_cell(clean, cell, pair)
        assert clean.wrong == 0, clean.errors
        moved = dataclasses.replace(pair, critical_value=pair.critical_value + 1e-3)
        bad = W.Result()
        W.check_table_cell(bad, cell, moved)
        assert bad.wrong > 0, kind
    inv = kp.kuiper_inv_cdf(0.95, 30)
    bad = W.Result()
    W.check_table_cell(bad, ("invcdf", "vn", "newton", None, 30, 0.95),
                       inv + 1e-3 / math.sqrt(30))
    assert bad.wrong > 0


@case
def statistic_off_by_one_over_n_is_flagged():
    import kuiperpair as kp

    for kind, alpha, arrays in W.small_datasets(5, 0, 1):
        n = arrays[0].size
        if kind == "vn":
            res = kp.kuiper_statistic_one_sample(arrays[0])
            decision = kp.run_test(res, alpha)
        else:
            res = kp.kuiper_statistic_two_sample(*arrays)
            decision = kp.run_test(res, alpha, kp.TestKind.TWO_SAMPLE_EQUAL)
        clean = W.Result()
        W.DataGate(clean).decision(kind, alpha, arrays, res, decision, None)
        assert clean.wrong == 0, clean.errors
        moved = dataclasses.replace(res, d_plus=res.d_plus + 1 / n, v=res.v + 1 / n,
                                    k=math.sqrt(n) * (res.v + 1 / n))
        bad = W.Result()
        W.DataGate(bad).decision(kind, alpha, arrays, moved,
                                 dataclasses.replace(decision, statistic=moved), None)
        assert bad.wrong > 0, (kind, n)


@case
def wrong_cli_line_is_flagged():
    planner = W.CliPlanner(6, W.TINY)
    planner.write_data()
    with W.Launcher() as launcher:
        outputs = [(call, *launcher.run(call)[:2]) for call in planner.cycle(0)]
    for call, returncode, stdout in outputs:
        assert planner.error(call, returncode, stdout) is None, call.args
        lines = stdout.splitlines()
        first = lines[0]
        changed = first[:-1] + ("0" if first[-1] != "0" else "1")
        wrong = "\n".join([changed, *lines[1:]]) + "\n"
        assert planner.error(call, returncode, wrong) is not None, (call.args, changed)
        assert planner.error(call, 1, stdout) is not None, call.args


@case
def refuses_outside_a_checkout():
    bare = W.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "benchmarks", bare / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*spec["command"], "--workload", "table-grid", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    failures = 0
    for fn in CASES:
        try:
            fn()
        except Exception:  # report every case, then fail the run
            failures += 1
            print(f"FAIL {fn.__name__}\n{traceback.format_exc()}")
        else:
            print(f"ok   {fn.__name__}")
    print(f"{len(CASES) - failures}/{len(CASES)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
