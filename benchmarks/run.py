"""kuiperpair benchmark: one workload per invocation, checked, then one JSON line.

    python3 benchmarks/run.py --workload table-grid --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced pass and the layer probes.  Human-readable
lines come first; the last line of stdout is the JSON result.  The exit code is
0 when every output passed the correctness gate, 1 when one did not, and 2
when the checkout lacks the package or the test oracles.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/kuiperpair/__init__.py", "tests/oracles.py", "tests/reference_tables.py")

END_TO_END = ("setup_s", "solved_share", "peak_rss_mb", "op_p50_us", "op2_p50_us",
              "items_per_s")

PER_LAYER = {
    **{f"{layer}.{name}": unit for layer in ("survival_vn", "survival_vnn") for name, unit in (
        ("residual_ns", "ns"), ("contraction_ns", "ns"), ("survival_ns", "ns"),
        ("domain_errors", "count"))},
    "fixed_point.solve_us": "us",
    "fixed_point.self_us": "us",
    "fixed_point.iterations_per_solve": "count",
    "fixed_point.residual_calls_per_solve": "count",
    "fixed_point.converged_ratio": "share",
    "quantile.pair_us": "us",
    "quantile.inv_cdf_us": "us",
    "quantile.guess_warnings": "count",
    "quantile.self_us": "us",
    "empirical.one_sample_ns_per_value.small": "ns",
    "empirical.one_sample_ns_per_value.large": "ns",
    "empirical.two_sample_ns_per_value.small": "ns",
    "empirical.two_sample_ns_per_value.large": "ns",
    "empirical.two_sample_tied_ns_per_value.large": "ns",
    "empirical.run_test_us": "us",
    "empirical.p_value_us": "us",
    "empirical.mc_ns_per_element": "ns",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.numpy_loaded": "count",
    **{f"cli.main_us.{name}": "us" for name in ("pair", "table", "test", "simulate")},
    **{f"trace.self_us_per_op.{layer}": "us" for layer in (
        "bench", "quantile", "fixed_point", "survival_vn", "survival_vnn", "empirical", "cli")},
    "trace.overhead.op_p50_ratio": "ratio",
    "trace.overhead.items_per_s_ratio": "ratio",
}


def environment(seed: int) -> dict:
    """Machine, versions and commit, recorded next to every result.

    numpy's version comes from its metadata: importing it here would put it
    in the measured process before the package decides whether to load it.
    """
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"l{level}"] = size
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or commit
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        **caches,
        "commit": commit,
    }


def traced_run(workload: str, seed: int, seconds: float, sizes):
    """Untraced and traced halves, then the layer probes; per-layer metrics."""
    import probes
    import workloads as W
    from tracing import LAYERS, Tracer, patched

    from kuiperpair import empirical, quantile

    runner = W.RUNNERS[workload]
    # Each half only needs enough cycles for the overhead ratio.
    sizes = dataclasses.replace(sizes, cli_min_cycles=1)
    plain = runner(W.Ctx(seed, seconds / 2, sizes, measure_setup=False))
    tracer = Tracer(sizes.max_spans)
    absent: list[str] = []
    targets = [(quantile, name) for name in (
        "kuiper_pair_solver", "kuiper_utq", "kuiper_inv_cdf", "solve_fixed_point")]
    targets += [(empirical, name) for name in (
        "kuiper_statistic_one_sample", "kuiper_statistic_two_sample", "run_test",
        "approximate_p_value", "monte_carlo_exceedance", "kuiper_utq", "kuiper_pair_solver",
        "survival_vn")]
    with patched(tracer, targets, absent):
        traced = runner(W.Ctx(seed, seconds / 2, sizes, tracer=tracer, offset=1_000_000,
                              measure_setup=False))
    self_ns = tracer.self_ns_by_layer()
    metrics = {f"trace.self_us_per_op.{layer}": self_ns.get(layer, 0) / 1e3 / max(tracer.ops, 1)
               for layer in LAYERS}
    metrics["trace.overhead.op_p50_ratio"] = (
        traced.metrics["op_p50_us"][0] / plain.metrics["op_p50_us"][0])
    metrics["trace.overhead.items_per_s_ratio"] = (
        traced.metrics["items_per_s"][0] / plain.metrics["items_per_s"][0])

    keys, inv, repeat_keys, datasets = probes.workload_inputs(workload, seed, sizes)
    metrics.update(probes.solver_probes(keys, inv, sizes.probe_seconds))
    metrics.update(probes.empirical_probes(seed, sizes, sizes.probe_seconds))
    metrics.update(probes.cli_probes(W.CliPlanner(seed, sizes), sizes))
    properties = probes.properties(keys, inv, repeat_keys, datasets)

    result = W.Result(attempted=plain.attempted + traced.attempted,
                      failed=plain.failed + traced.failed,
                      wrong=plain.wrong + traced.wrong, errors=plain.errors + traced.errors)
    result.metrics = {name: (metrics.get(name), unit) for name, unit in PER_LAYER.items()}
    result.report = [(name, value, "", "workload property") for name, value in properties.items()]
    result.report += [(f"untraced.{name}", value, unit, "first half")
                      for name, (value, unit) in plain.metrics.items()]
    result.report += [(f"traced.{name}", value, unit, "second half, spans on")
                      for name, (value, unit) in traced.metrics.items()]
    unknown = sorted(set(self_ns) - set(LAYERS))
    if absent or unknown:
        result.report.append(("absent_probes", len(absent), "count",
                              ", ".join(absent + [f"unknown layer {u}" for u in unknown])))
    W.OUT.mkdir(exist_ok=True)
    path = W.OUT / f"trace-{workload}-seed{seed}.jsonl"
    tracer.write(path, {"workload": workload, "seed": seed, "ops": tracer.ops,
                        "spans": len(tracer.spans), "absent": absent,
                        "self_ns_by_layer": self_ns, "properties": properties,
                        "metrics": metrics})
    result.report.append(("trace_file", len(tracer.spans), "spans", str(path.relative_to(ROOT))))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("table-grid", "data-tests", "cli-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a kuiperpair checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads as W

    W.single_threaded_blas()
    env = environment(args.seed)
    print("# kuiperpair benchmark " + " ".join(f"{k}={v}" for k, v in {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace, **env}.items()))
    if args.trace:
        result = traced_run(args.workload, args.seed, args.seconds, W.Sizes())
    else:
        result = W.RUNNERS[args.workload](W.Ctx(args.seed, args.seconds, W.Sizes()))
    for name, value, unit, note in result.report:
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name} = {shown} {unit}  ({note})")
    for name, (value, unit) in result.metrics.items():
        print(f"metric {name} = {'absent' if value is None else f'{value:.6g}'} {unit}")
    for message in result.errors:
        print(f"WRONG: {message}", file=sys.stderr)
    correct = result.wrong == 0
    print(f"# correct={correct} attempted={result.attempted} failed={result.failed} "
          f"wrong={result.wrong}")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result.metrics.items()}
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
