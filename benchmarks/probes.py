"""Per-layer probes: time calls into each module's public functions from outside.

A probe whose target name the package no longer has reports its metrics as
absent (``None``) instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import subprocess
import sys
import warnings
from statistics import median
from time import perf_counter, perf_counter_ns

import gate
import workloads as W

PROBE_OFFSET = 2_000_000  # input indices no timed pass uses


def _batch_ns(fn, calls: list, seconds: float, expected: tuple) -> float:
    """Mean ns per call over whole passes of ``calls``, for at least ``seconds``."""
    if not calls:
        return None
    count = 0
    start = perf_counter_ns()
    while True:
        for args in calls:
            try:
                fn(*args)
            except expected:
                pass
        count += len(calls)
        elapsed = perf_counter_ns() - start
        if elapsed >= seconds * 1e9:
            return elapsed / count


def _lookup(module, *names):
    found = [getattr(module, name, None) for name in names]
    return None if any(f is None for f in found) else found


def solver_probes(keys: list, inv_points: list, seconds: float) -> dict:
    """survival_*, fixed_point and quantile metrics on (kind, method, alpha, n) keys."""
    import kuiperpair as kp
    from kuiperpair import errors, fixed_point, quantile

    # The package re-exports functions named like these modules, so go by path.
    survival_vn = importlib.import_module("kuiperpair.survival_vn")
    survival_vnn = importlib.import_module("kuiperpair.survival_vnn")
    out: dict = {}
    typed = errors.KuiperError
    kinds = {"vn": kp.TestKind.ONE_SAMPLE, "vnn": kp.TestKind.TWO_SAMPLE_EQUAL}
    methods = {"newton": kp.IterationMethod.NEWTON, "direct": kp.IterationMethod.DIRECT}
    roots = {}
    for kind, method, alpha, n in keys:
        try:
            roots[(kind, alpha, n)] = kp.kuiper_pair_solver(
                W.GUESS, alpha, n, kinds[kind], methods[method]).critical_value
        except typed:
            pass

    forms = {
        "vn": _lookup(survival_vn, "f_nlm1", "f_ctm1", "survival_vn"),
        "vnn": _lookup(survival_vnn, "f_nlm2", "f_ctm2", "survival_vnn"),
    }
    for kind, found in forms.items():
        layer = f"survival_{kind}"
        names = ("residual_ns", "contraction_ns", "survival_ns")
        if found is None:
            out.update({f"{layer}.{name}": None for name in names})
            continue
        residual, contraction, survival = found
        points = [(c, alpha, n) for k, _m, alpha, n in keys if k == kind
                  for c in (W.GUESS, roots.get((k, alpha, n), W.GUESS))]
        out[f"{layer}.residual_ns"] = _batch_ns(residual, points, seconds, (typed,))
        out[f"{layer}.contraction_ns"] = _batch_ns(contraction, points, seconds, (typed,))
        out[f"{layer}.survival_ns"] = _batch_ns(
            survival, [(c, n) for c, _a, n in points], seconds, (typed,))

    solver = _lookup(fixed_point, "solve_fixed_point", "newton_update", "direct_update",
                     "distance", "SolverConfig")
    epsilon = getattr(quantile, "SOLVER_EPSILON", None)
    drive = None
    if solver is not None and epsilon is not None and all(forms.values()):
        try:
            drive = _drive_fixed_point(solver, epsilon, forms, keys, seconds, errors)
        except TypeError:  # the solver's signature changed
            drive = None
    if drive is None:
        out.update({f"fixed_point.{name}": None for name in (
            "solve_us", "self_us", "iterations_per_solve", "residual_calls_per_solve",
            "converged_ratio")})
        out.update({f"survival_{kind}.domain_errors": None for kind in forms})
    else:
        out.update(drive)

    pair_calls = [(W.GUESS, alpha, n, kinds[kind], methods[method])
                  for kind, method, alpha, n in keys]
    out["quantile.pair_us"] = _batch_ns(kp.kuiper_pair_solver, pair_calls, seconds, (typed,)) / 1e3
    inv_ns = _batch_ns(kp.kuiper_inv_cdf, inv_points, seconds, (typed,))
    out["quantile.inv_cdf_us"] = None if inv_ns is None else inv_ns / 1e3

    warning_type = getattr(quantile, "GuessWindowWarning", None)
    if warning_type is None:
        out["quantile.guess_warnings"] = None
    else:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for call in pair_calls:
                try:
                    kp.kuiper_pair_solver(*call)
                except typed:
                    pass
        out["quantile.guess_warnings"] = sum(
            issubclass(w.category, warning_type) for w in caught)
    solve_us = out.get("fixed_point.solve_us")
    out["quantile.self_us"] = None if solve_us is None else out["quantile.pair_us"] - solve_us
    return out


def _drive_fixed_point(solver, epsilon, forms, keys, seconds, errors) -> dict:
    """Drive solve_fixed_point with the updater and residual kuiper_pair_solver
    would pick, the residual wrapped in a counting timer."""
    out = {}
    typed = errors.KuiperError
    solve, newton_update, direct_update, distance, SolverConfig = solver
    config = SolverConfig(epsilon=epsilon, guess=W.GUESS)
    newton = functools.partial(newton_update, step=config.derivative_step)
    residual_ns = 0
    residual_calls = 0
    domain_errors = {"vn": 0, "vnn": 0}

    def counting(fn, kind):
        def timed(c, alpha, n):
            nonlocal residual_ns, residual_calls
            residual_calls += 1
            start = perf_counter_ns()
            try:
                return fn(c, alpha, n)
            except errors.NumericalDomainError:
                domain_errors[kind] += 1
                raise
            finally:
                residual_ns += perf_counter_ns() - start
        return timed

    drives = []
    for kind, method, alpha, n in keys:
        residual, contraction, _survival = forms[kind]
        if method == "newton":
            drives.append((newton, counting(residual, kind), alpha, n))
        else:
            drives.append((direct_update, counting(contraction, kind), alpha, n))
    solves = 0
    solve_ns = 0
    converged = 0
    iterations = 0
    start_all = perf_counter()
    while True:
        for updater, residual, alpha, n in drives:
            solves += 1
            start = perf_counter_ns()
            try:
                _c, trace = solve(updater, residual, distance, config, alpha, n)
            except typed:
                solve_ns += perf_counter_ns() - start
                continue
            solve_ns += perf_counter_ns() - start
            converged += 1
            iterations += len(trace.iterates) - 1
        if perf_counter() - start_all >= seconds:
            break
    passes = solves // len(drives)
    out["fixed_point.solve_us"] = solve_ns / solves / 1e3
    out["fixed_point.self_us"] = (solve_ns - residual_ns) / solves / 1e3
    out["fixed_point.iterations_per_solve"] = iterations / max(converged, 1)
    out["fixed_point.residual_calls_per_solve"] = residual_calls / solves
    out["fixed_point.converged_ratio"] = converged / solves
    for kind, count in domain_errors.items():
        out[f"survival_{kind}.domain_errors"] = count / passes
    return out


def empirical_probes(seed: int, sizes: W.Sizes, seconds: float) -> dict:
    """Kernel ns per input value at n = 1000 and at ``sizes.large_probe_n``."""
    import numpy as np

    import kuiperpair as kp

    rng = np.random.default_rng([seed, 9])
    small, large = 1000, sizes.large_probe_n

    def per_value(fn, arrays, repeats):
        times = []
        for _ in range(repeats):
            start = perf_counter_ns()
            fn(*arrays)
            times.append(perf_counter_ns() - start)
        return median(times) / sum(a.size for a in arrays)

    def sample(n, tied=False):
        a = np.sort(rng.random(n))
        return np.round(a, 2) if tied else a

    out = {
        "empirical.one_sample_ns_per_value.small":
            per_value(kp.kuiper_statistic_one_sample, (sample(small),), 101),
        "empirical.two_sample_ns_per_value.small":
            per_value(kp.kuiper_statistic_two_sample, (sample(small), sample(small)), 101),
        "empirical.one_sample_ns_per_value.large":
            per_value(kp.kuiper_statistic_one_sample, (sample(large),), 5),
        "empirical.two_sample_ns_per_value.large":
            per_value(kp.kuiper_statistic_two_sample, (sample(large), sample(large)), 3),
        "empirical.two_sample_tied_ns_per_value.large":
            per_value(kp.kuiper_statistic_two_sample,
                      (sample(large, True), sample(large, True)), 3),
    }
    results = [kp.kuiper_statistic_one_sample(sample(n)) for n in W.SMALL_NS]
    out["empirical.run_test_us"] = _batch_ns(
        kp.run_test, [(r, alpha) for r in results for alpha in W.ALPHAS], seconds, ()) / 1e3
    out["empirical.p_value_us"] = _batch_ns(
        kp.approximate_p_value, [(r,) for r in results], seconds, ()) / 1e3
    threshold = kp.kuiper_utq(0.05, 100)
    reps = max(1, sizes.mc_reps[1] // 2)
    start = perf_counter_ns()
    kp.monte_carlo_exceedance(100, threshold, reps, seed)
    out["empirical.mc_ns_per_element"] = (perf_counter_ns() - start) / (100 * reps)
    return out


def cli_probes(planner, sizes: W.Sizes) -> dict:
    """Interpreter and import cost in fresh processes; cli.main in-process."""
    runs = max(1, sizes.setup_runs)
    interpreter = []
    imports = []
    numpy_loaded = []
    code = ("import sys, time; t = time.perf_counter(); import kuiperpair.cli; "
            "print((time.perf_counter() - t) * 1e3, int('numpy' in sys.modules))")
    for _ in range(runs):
        start = perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=W.child_env(), cwd=W.ROOT)
        interpreter.append((perf_counter_ns() - start) / 1e6)
        proc = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                              text=True, env=W.child_env(), cwd=W.ROOT)
        ms, loaded = proc.stdout.split()
        imports.append(float(ms))
        numpy_loaded.append(int(loaded))
    out = {
        "cli.interpreter_ms": median(interpreter),
        "cli.import_ms": median(imports),
        "cli.numpy_loaded": max(numpy_loaded),
    }

    from kuiperpair import cli

    planner.write_data()
    commands = {
        "pair": (["pair", "--alpha", "0.05", "--n", "30"], 201),
        "table": (["table", "--alphas", "0.1,0.05,0.01", "--ns", "10,100,inf"], 51),
        "test": (["test", "--data", str(planner.data_path), "--alpha", "0.05",
                  "--dist", "normal", "--params", "3", "2"], 5),
        "simulate": (["simulate", "--n", "30", "--alpha", "0.05", "--reps",
                      str(sizes.cli_simulate_reps), "--seed", "1"], 5),
    }
    for name, (argv, repeats) in commands.items():
        times = []
        for _ in range(repeats):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = perf_counter_ns()
                exit_code = cli.main(argv)
                times.append(perf_counter_ns() - start)
            if exit_code not in (0, 3):
                raise RuntimeError(f"cli.main({argv}) exited {exit_code}: {sink.getvalue()!r}")
        out[f"cli.main_us.{name}"] = median(times) / 1e3
    return out


# -- workload keys and properties ----------------------------------------

def workload_inputs(workload: str, seed: int, sizes: W.Sizes):
    """(solver keys, inv_cdf points, key list for repeats, datasets) of a workload."""
    if workload == "table-grid":
        cells = []
        for chunk in range(PROBE_OFFSET, PROBE_OFFSET + max(1, 20_000 // sizes.table_chunk)):
            cells += W.table_cells(seed, chunk, sizes.table_chunk)
        pairs = [c for c in cells if c[0] == "pair"]
        keys = [(kind, method, alpha, n) for _r, kind, method, alpha, n, _p in pairs]
        inv = [(p, n) for route, _k, _m, _a, n, p in cells if route == "invcdf"]
        repeat_keys = [(kind, method, 1.0 - p if alpha is None else alpha, n)
                       for _r, kind, method, alpha, n, p in cells]
        datasets = [([alpha if alpha is not None else p for _r, _k, _m, alpha, _n, p in cells],)]
        return keys[:sizes.probe_keys], inv[:sizes.probe_keys], repeat_keys, datasets
    if workload == "data-tests":
        repeat_keys = []
        datasets = []
        for chunk in range(PROBE_OFFSET, PROBE_OFFSET + 4):
            for kind, alpha, arrays in W.small_datasets(seed, chunk, sizes.small_per_key):
                repeat_keys.append((kind, alpha, arrays[0].size))
                datasets.append(arrays)
        for index in range(PROBE_OFFSET, PROBE_OFFSET + 4):
            for kind, alpha, n, tied, data_seed in W.large_plan(
                    seed, index, sizes.large_per_pass, sizes.large_n):
                repeat_keys.append((kind, alpha, n))
                if index == PROBE_OFFSET:
                    datasets.append(W.large_dataset(kind, n, tied, data_seed))
        keys = [(kind, "newton", alpha, n) for kind, alpha, n in dict.fromkeys(repeat_keys)]
        inv = [(1.0 - alpha, n) for kind, _m, alpha, n in keys if kind == "vn"]
        return keys, inv, repeat_keys, datasets
    planner = W.CliPlanner(seed, sizes)
    for index in range(PROBE_OFFSET, PROBE_OFFSET + 10):
        planner.cycle(index)
    keys = [(kind, "newton", alpha, n) for kind, alpha, n in planner.roots]
    inv = [(1.0 - alpha, n) for kind, _m, alpha, n in keys if kind == "vn"]
    return keys, inv, planner.requests, [(planner.values,)]


def properties(keys: list, inv: list, repeat_keys: list, datasets: list) -> dict:
    """Workload properties a later change can cite; datasets are tuples of arrays."""
    import numpy as np

    total = 0
    tied = 0
    distinct = 0
    for arrays in datasets:
        merged = np.concatenate([np.asarray(a, dtype=float) for a in arrays])
        _values, counts = np.unique(merged, return_counts=True)
        total += merged.size
        distinct += counts.size
        tied += int(counts[counts > 1].sum())
    cells = [(kind, n) for kind, _m, _a, n in keys] + [("vn", n) for _p, n in inv]
    in_region = sum(gate.survival(kind, W.GUESS, n) <= 0.0 for kind, n in cells)
    return {
        "workload.repeat_key_share": 1.0 - len(set(repeat_keys)) / len(repeat_keys),
        "workload.tied_share": tied / total,
        "workload.distinct_ratio": distinct / total,
        "workload.guess_domain_share": in_region / len(cells),
    }
