"""Alternating parent/change benchmark pairs, summarised into one BENCH_<PR>.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --seeds 101 102 103 \\
        --seconds 15 --out BENCH_10.json

The change is the committed ``HEAD``; the tool refuses to run while ``src/`` or
``benchmarks/`` has uncommitted edits, since those would not be measured.  Both
revisions are unpacked with ``git archive <rev> | tar -x`` into temporary
directories, so the record names exactly the two trees it timed.  Pair ``i``
runs ``benchmarks/run.py --trace 0`` on both sides with ``seeds[i]``, the
parent first on even pairs and the change first on odd ones, cycling through
every workload of ``BENCHMARK.json`` inside each pair so that drift in the
machine's load spreads evenly.  ``--trace 1`` runs follow on the first three
seeds, per side and workload and alternating in the same way, for the
per-layer metrics: one run cannot tell a layer's change from noise.

Each side runs its own ``benchmarks/`` code, as a benchmark of the two commits
would.  The output holds every JSON line and, per workload, each side's share
of failed operations, each side's median wall seconds per ``--trace 0`` run
(what one check of the workload costs) and, per end-to-end metric, both
sides' medians and quartiles, the change's wins over the pairs, and a verdict
by these rules (bounds from ``BENCHMARK.json``).  Per per-layer metric it
holds each side's median and quartiles over the traced runs, with no verdict:
the benchmark fixes no bound for them.  A probe reported as null adds no value, and a side
whose runs all report it null is recorded as ``null`` (absent).  The
``empirical.*`` and ``cli.*`` probes take no workload input, so
``per_layer_pooled`` also gives each side's median and quartiles for them
over every workload's traced runs, again with no verdict.
A run whose outputs were not correct gives no metric values, so its pair is
left out.

- ``gain``: the change fails no larger share of operations than the parent,
  wins at least 9 in 10 pairs, ties counting for neither, and the medians
  differ by more than the parent's interquartile range;
- ``worse``: the change's median is worse than the parent's by more than the
  bound, as a share of the parent's median;
- ``unresolved``: the parent's interquartile range exceeds the bound and every
  change run is not better than every parent run;
- ``no move``: none of these.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
TRACED_SEEDS = 3
# Per-layer metrics whose probes ignore the workload (benchmarks/probes.py:
# empirical_probes and cli_probes), so every workload's traced runs sample them.
POOLED_LAYERS = ("empirical.", "cli.")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def unpack(rev: str, into: Path) -> str:
    """Extract the committed tree of ``rev`` into ``into``; return its full hash."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``benchmarks/run.py`` process; its exit code, wall time and last JSON line."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
    )
    lines = proc.stdout.splitlines()
    record = {"exit": proc.returncode, "wall_s": round(time.perf_counter() - start, 3),
              "header": lines[0] if lines else None}
    try:
        record["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record["result"] = None
        record["stderr_tail"] = proc.stderr[-2000:]
    return record


def plan_runs(seeds: list[int], workloads: list[str]) -> list[tuple]:
    """(pair, workload, seed, side, trace) in run order; traced runs have no pair."""
    plan = []
    for trace, chosen in ((0, seeds), (1, seeds[:TRACED_SEEDS])):
        for index, seed in enumerate(chosen):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            pair = None if trace else index
            plan += [(pair, w, seed, side, trace) for w in workloads for side in order]
    return plan


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            fails_more: bool) -> dict:
    """Wins and verdict for one metric; ``parent[i]`` and ``change[i]`` form pair i.

    ``fails_more`` says the change failed a larger share of operations than the
    parent on this workload, which withholds a gain.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p, c = quartiles(parent), quartiles(change)
    spread = p["q3"] - p["q1"]
    gain = sign * (c["median"] - p["median"])
    base = abs(p["median"])
    if not fails_more and 10 * wins >= 9 * len(parent) and gain > spread:
        call = "gain"
    elif base and -gain / base > bound:
        call = "worse"
    elif base and spread / base > bound and not min(sign * x for x in change) > max(
            sign * x for x in parent):
        call = "unresolved"
    else:
        call = "no move"
    return {"parent": p, "change": c, "change_wins": wins, "pairs": len(parent),
            "median_change_share": (c["median"] - p["median"]) / base if base else None,
            "parent_iqr": spread, "verdict": call}


def layer_quartiles(traced: list[dict], metrics: list[dict]) -> dict:
    """Each side's quartiles of each per-layer metric that a side's ``traced`` runs hold.

    A run that reports the metric as null (an absent probe) adds no value, and a
    side with no value at all is reported as absent (``None``).
    """
    rows = {}
    for metric in metrics:
        name = metric["name"]
        sides = {side: [r["result"]["metrics"].get(name, {}).get("value") for r in traced
                        if r["side"] == side] for side in ("parent", "change")}
        sides = {side: [v for v in values if v is not None] for side, values in sides.items()}
        if any(sides.values()):
            rows[name] = {"unit": metric["unit"], "better": metric["better"],
                          **{side: quartiles(v) if v else None for side, v in sides.items()}}
    return rows


def layer_medians(row: dict) -> str:
    """Both sides' medians of one per-layer row, an absent side written ``absent``."""
    shown = {side: "absent" if row[side] is None else f"{row[side]['median']:.6g}"
             for side in ("parent", "change")}
    return f"parent {shown['parent']} change {shown['change']} {row['unit']}"


def correct_traced(runs: list[dict]) -> list[dict]:
    return [r for r in runs if r["trace"] == 1 and r["result"] is not None
            and r["result"]["correct"]]


def pool_layers(runs: list[dict], spec: dict) -> dict:
    """Quartiles of the workload-independent per-layer metrics over all traced runs."""
    return layer_quartiles(correct_traced(runs), [
        m for m in spec["per_layer"] if m["name"].startswith(POOLED_LAYERS)])


def summarise(runs: list[dict], spec: dict) -> dict:
    """Per workload and end-to-end metric, the pairs where both sides ran correctly."""
    summary = {}
    for workload in sorted({r["workload"] for r in runs}):
        timed = [r for r in runs if r["workload"] == workload and r["trace"] == 0
                 and r["result"] is not None]
        by_pair: dict[int, dict] = {}
        for r in timed:
            if r["result"]["correct"]:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
        complete = [sides for _, sides in sorted(by_pair.items()) if len(sides) == 2]
        failed_share = {}
        for side in ("parent", "change"):
            attempted = sum(r["result"]["attempted"] for r in timed if r["side"] == side)
            failed = sum(r["result"]["failed"] for r in timed if r["side"] == side)
            failed_share[side] = failed / attempted if attempted else None
        fails_more = (failed_share["change"] or 0.0) > (failed_share["parent"] or 0.0)
        walls = {side: [r["wall_s"] for r in runs if r["workload"] == workload
                        and r["trace"] == 0 and r["side"] == side]
                 for side in ("parent", "change")}
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [(s["parent"]["metrics"].get(name, {}).get("value"),
                       s["change"]["metrics"].get(name, {}).get("value")) for s in complete]
            values = [(p, c) for p, c in values if p is not None and c is not None]
            if not values:
                continue
            rows[name] = {"unit": metric["unit"], "better": metric["better"],
                          "bound": metric["bound"],
                          **verdict([p for p, _ in values], [c for _, c in values],
                                    metric["better"], metric["bound"], fails_more)}
        layers = layer_quartiles([r for r in correct_traced(runs) if r["workload"] == workload],
                                 spec["per_layer"])
        incorrect = sum(not r["result"]["correct"] for r in runs
                        if r["workload"] == workload and r["result"] is not None)
        crashed = sum(r["result"] is None for r in runs if r["workload"] == workload)
        summary[workload] = {"pairs": len(complete), "failed_share": failed_share,
                             "incorrect_runs": incorrect, "failed_runs": crashed,
                             "wall_s": {side: statistics.median(v) if v else None
                                        for side, v in walls.items()},
                             "metrics": rows, "per_layer": layers}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--seeds", type=int, nargs="+", required=True,
                        help="one seed per pair; the number of seeds is the number of pairs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True, help="e.g. BENCH_10.json")
    args = parser.parse_args(argv)

    if git("status", "--porcelain", "--", "src", "benchmarks"):
        parser.error("src/ or benchmarks/ has uncommitted edits; commit them first, "
                     "since the change measured is HEAD")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    runs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp, side) for side in ("parent", "change")}
        for tree in trees.values():
            tree.mkdir()
        commits = {"parent": unpack(args.parent, trees["parent"]),
                   "change": unpack("HEAD", trees["change"])}
        plan = plan_runs(args.seeds, workloads)
        for index, (pair, workload, seed, side, trace) in enumerate(plan, start=1):
            record = run_once(trees[side], workload, seed, args.seconds, trace)
            runs.append({"pair": pair, "workload": workload, "seed": seed, "side": side,
                         "trace": trace, **record})
            print(f"[{index}/{len(plan)}] pair={pair} {workload} seed={seed} {side} "
                  f"trace={trace}: exit {record['exit']} in {record['wall_s']:.1f} s",
                  file=sys.stderr, flush=True)
    report = {
        **commits,
        "command": [Path(sys.executable).name, "benchmarks/run.py", "--seconds",
                    str(args.seconds)],
        "seeds": args.seeds,
        "workloads": workloads,
        "summary": summarise(runs, spec),
        "per_layer_pooled": pool_layers(runs, spec),
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, rows in report["summary"].items():
        walls = {side: "absent" if v is None else f"{v:.1f}"
                 for side, v in rows["wall_s"].items()}
        print(f"{workload:11s} wall_s        parent {walls['parent']} change "
              f"{walls['change']} s (median per --trace 0 run)")
        for name, row in rows["metrics"].items():
            print(f"{workload:11s} {name:13s} parent {row['parent']['median']:.6g} "
                  f"change {row['change']['median']:.6g} {row['unit']}  "
                  f"wins {row['change_wins']}/{row['pairs']}  {row['verdict']}")
        for name, row in rows["per_layer"].items():
            print(f"{workload:11s} {name} {layer_medians(row)}")
    for name, row in report["per_layer_pooled"].items():
        print(f"{'pooled':11s} {name} {layer_medians(row)}")
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
