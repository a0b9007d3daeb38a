"""The benchmark's solver probes find every package name they read.

``benchmarks/probes.py`` reports a probe whose target name the package no
longer has as null, and the benchmark's self-test fails on any null per-layer
metric.  Running the solver probes here on a few ``table-grid`` keys makes a
refactor that drops such a name fail this suite as well.
"""

import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_solver_probes_report_no_absent_metric(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    probes = importlib.import_module("probes")
    workloads = importlib.import_module("workloads")
    keys, inv, _repeats, _datasets = probes.workload_inputs("table-grid", 1, workloads.TINY)
    assert len(keys) == workloads.TINY.probe_keys and inv
    metrics = probes.solver_probes(keys, inv, 0.01)
    layers = {name.split(".")[0] for name in metrics}
    assert layers == {"survival_vn", "survival_vnn", "fixed_point", "quantile"}
    absent = sorted(name for name, value in metrics.items() if value is None)
    assert not absent
