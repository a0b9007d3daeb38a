"""Paired in-process timing of the solve path: a parent revision against HEAD.

    python3 tools/paired_solves.py --parent HEAD~1 --seed 7 --rounds 40

Both revisions are unpacked as ``tools/bench_pairs.py`` does and imported into
one process as two distinct packages, so both sides solve the same cells under
the same load.  Round ``r`` draws ``benchmarks/workloads.table_cells(seed, r,
SIZE)`` and times it in four blocks, parent, change, change, parent (ABBA), each
call timed with ``perf_counter_ns`` as ``table-grid`` times it; typed refusals
are left out of the timings.  Per round and route (pair solve, inverse CDF) the
change/parent ratio of the p50s is taken, and the median, quartiles and wins
(ratio below 1) of those ratios are printed, with the number of cells whose
outputs differ.  ``--parent HEAD`` loads one tree twice: an A/A reading, the
host's noise floor.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "tools", ROOT / "benchmarks", ROOT / "tests"):
    if str(_path) not in sys.path:
        sys.path.append(str(_path))

from bench_pairs import quartiles, unpack  # noqa: E402
from workloads import GUESS, table_cells  # noqa: E402

ROUTES = ("pair", "invcdf")
SIZE = 1024  # cells per block


def load(tree: Path, name: str):
    """Import ``tree/src/kuiperpair`` as the package ``name``."""
    package = tree / "src" / "kuiperpair"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def solve_block(kp, cells: list[tuple]) -> tuple[dict, list]:
    """Per-route call times in ns of the solved cells, and every cell's output."""
    kinds = {"vn": kp.TestKind.ONE_SAMPLE, "vnn": kp.TestKind.TWO_SAMPLE_EQUAL}
    methods = {"newton": kp.IterationMethod.NEWTON, "direct": kp.IterationMethod.DIRECT}
    solve, inv_cdf, typed = kp.kuiper_pair_solver, kp.kuiper_inv_cdf, kp.KuiperError
    times = {route: [] for route in ROUTES}
    outs = []
    for route, kind, method, alpha, n, p in cells:
        start = perf_counter_ns()
        try:
            if route == "pair":
                out = solve(GUESS, alpha, n, kinds[kind], methods[method])
            else:
                out = inv_cdf(p, n)
        except typed as exc:
            out = exc
        elapsed = perf_counter_ns() - start
        if not isinstance(out, typed):
            times[route].append(elapsed)
        outs.append(out)
    return times, outs


def plain(out) -> tuple:
    """A cell's output in a form that compares across the two packages."""
    if isinstance(out, BaseException):
        return type(out).__name__, str(out)
    if isinstance(out, float):
        return (out,)
    return out.critical_value, out.quantile, out.alpha, out.n, out.kind.value


def paired_ratios(parent, change, seed: int, rounds: int, size: int) -> dict:
    """Per route, each round's change/parent p50 ratio; and each side's plain outputs."""
    sides = {"parent": parent, "change": change}
    solve_block(parent, table_cells(seed, rounds, size))  # untimed warm-up
    solve_block(change, table_cells(seed, rounds, size))
    gc.collect()
    ratios = {route: [] for route in ROUTES}
    outs = {"parent": [], "change": []}
    for index in range(rounds):
        cells = table_cells(seed, index, size)
        times = {side: {route: [] for route in ROUTES} for side in sides}
        for side in ("parent", "change", "change", "parent"):
            block, out = solve_block(sides[side], cells)
            for route in ROUTES:
                times[side][route] += block[route]
            if len(outs[side]) == index * len(cells):
                outs[side] += map(plain, out)
        for route in ROUTES:
            if times["parent"][route] and times["change"][route]:
                ratios[route].append(statistics.median(times["change"][route])
                                     / statistics.median(times["parent"][route]))
    return {"ratios": ratios, "outs": outs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="paired-solves-") as tmp:
        trees = {side: Path(tmp, side) for side in ("parent", "change")}
        commits = {}
        for side, rev in (("parent", args.parent), ("change", "HEAD")):
            trees[side].mkdir()
            commits[side] = unpack(rev, trees[side])
        parent = load(trees["parent"], "kuiperpair_parent")
        change = load(trees["change"], "kuiperpair_change")
        reading = paired_ratios(parent, change, args.seed, args.rounds, SIZE)
    print(f"parent {commits['parent'][:12]} change {commits['change'][:12]} "
          f"seed {args.seed}: {args.rounds} rounds of 4 blocks of {SIZE} cells")
    differ = sum(a != b for a, b in zip(*reading["outs"].values()))
    print(f"outputs differ on {differ} of {len(reading['outs']['parent'])} cells")
    for route, ratios in reading["ratios"].items():
        if not ratios:
            continue
        q = quartiles(ratios)
        wins = sum(ratio < 1.0 for ratio in ratios)
        print(f"{route:6s} p50 change/parent  median {q['median']:.3f}  "
              f"quartiles {q['q1']:.3f}-{q['q3']:.3f}  wins {wins}/{len(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
