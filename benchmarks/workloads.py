"""The three workloads: table-grid, data-tests and cli-cold.

Each runner is a closed loop with one client: one operation at a time, timed
with ``perf_counter_ns`` around the call into the package and nothing else.
Inputs come from the seed, are generated outside the timed regions, and every
output is checked against ``gate`` after its chunk, also untimed.  A runner
handed a ``Tracer`` records spans around the same calls.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import gate

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
GUESS = 2.45  # the solver's documented default initial guess

# table-grid: alpha log-uniform on [0.001, 0.25], n log-uniform on [1, 1e6]
TABLE_ALPHA = (math.log(0.001), math.log(0.25))
TABLE_LOG_N_MAX = math.log(1e6 + 1)
TABLE_INF_SHARE = 0.05
TABLE_INV_CDF_SHARE = 0.2
TABLE_DIRECT_SHARE = 0.2
CURVE_P = (0.0002, 0.9998)

# data-tests
SMALL_NS = (100, 200, 500, 1000)
ALPHAS = (0.10, 0.05, 0.01)
MC_KEYS = ((30, 0.05), (100, 0.10), (1000, 0.05))
DATA_SHARES = {"small": 0.35, "large": 0.45, "mc": 0.20}
MC_REFERENCE_FACTOR = 4
SMALL_WINDOW = 1000  # contiguous decisions per window: ten samples beyond its p99

# cli-cold: solvable region, so every invocation is expected to exit 0 or 3
CLI_ALPHA = (math.log(0.01), math.log(0.2))
CLI_LOG_N = (math.log(10), math.log(10_000))
CLI_HARD_LIMIT_S = 140.0


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``TINY`` shrinks every one of them for the self-test."""

    setup_runs: int = 9
    table_chunk: int = 2048
    small_per_key: int = 4
    large_per_pass: int = 12
    large_n: tuple[int, int] = (100_000, 1_000_000)
    mc_reps: tuple[int, int, int] = (20_000, 6_000, 600)
    cli_min_cycles: int = 24
    cli_data_lines: int = 10_000
    cli_simulate_reps: int = 2_000
    probe_seconds: float = 0.2
    probe_keys: int = 600
    large_probe_n: int = 1_000_000
    max_spans: int = 150_000


TINY = Sizes(
    setup_runs=1, table_chunk=64, small_per_key=1, large_per_pass=2,
    large_n=(2_000, 20_000), mc_reps=(400, 200, 40), cli_min_cycles=1,
    cli_data_lines=300, cli_simulate_reps=200,
    probe_seconds=0.005, probe_keys=40, large_probe_n=20_000, max_spans=20_000,
)


@dataclass
class Ctx:
    seed: int
    seconds: float
    sizes: Sizes
    tracer: object = None
    offset: int = 0  # chunk/pass/cycle index offset, so passes never share inputs
    measure_setup: bool = True


@dataclass
class Result:
    """Metrics of one pass plus the gate's verdict."""

    metrics: dict = field(default_factory=dict)  # end-to-end name -> (value, unit)
    report: list = field(default_factory=list)  # (name, value, unit, note) for people
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    errors: list = field(default_factory=list)

    def check(self, message: str | None) -> None:
        if message is not None:
            self.wrong += 1
            if len(self.errors) < 20:
                self.errors.append(message)


def percentile(values: list, q: float) -> float:
    """Linear-interpolated percentile of an already sorted list."""
    if not values:
        return float("nan")
    pos = (len(values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(sorted(values), 50)


class Windows:
    """Per-window statistics, summarised by the fastest decile of windows.

    This host switches between two speeds for seconds at a time: a solve
    takes ~14.5 us in one phase and ~27.5 us in the other, and an unrelated
    reference loop slows by the same factor.  A run therefore cuts its timed
    work into windows of equal content, takes each statistic per window, and
    reports the 10th percentile over windows of a time (the 90th of a rate):
    the program's speed while the host is not contended.  ``add`` takes, per
    statistic, a list of ns samples (its percentile is taken) or a
    (count, ns) pair (a rate per second).
    """

    QUANTILES = {"p50": 50, "p99": 99, "p90": 90}
    FAST_DECILE = 10

    def __init__(self):
        self.values: dict[str, list[float]] = {}
        self.rates: set[str] = set()
        self.count = 0

    def add(self, **stats) -> None:
        self.count += 1
        for name, sample in stats.items():
            if isinstance(sample, tuple):
                self.rates.add(name)
                count, ns = sample
                value = count / (ns / 1e9) if ns else None
            else:
                q = self.QUANTILES.get(name.rsplit("_", 1)[-1], 50)
                value = percentile(sorted(sample), q) if sample else None
            if value is not None:
                self.values.setdefault(name, []).append(value)

    def fast(self, name: str) -> float:
        values = sorted(self.values.get(name, ()))
        q = 100 - self.FAST_DECILE if name in self.rates else self.FAST_DECILE
        return percentile(values, q)


def single_threaded_blas() -> None:
    """Limit BLAS thread pools to one thread, here and in every child process.

    kuiperpair calls no BLAS routine, but numpy's import starts a pool that
    spins on the second core; timings would then depend on whether another
    tenant holds that core.  Must run before numpy is imported.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# -- set-up ---------------------------------------------------------------

SETUP_CODE = {
    "table-grid": """
import kuiperpair as kp
for kind in kp.TestKind:
    for method in kp.IterationMethod:
        kp.kuiper_pair_solver(2.45, 0.05, 30, kind, method)
kp.kuiper_inv_cdf(0.95, 30)
""",
    "data-tests": """
import kuiperpair as kp
import numpy as np
u = np.linspace(0.001, 0.999, 200)
r = kp.kuiper_statistic_one_sample(u)
kp.run_test(r, 0.05)
kp.approximate_p_value(r)
r = kp.kuiper_statistic_two_sample(u, u ** 2)
kp.run_test(r, 0.05, kp.TestKind.TWO_SAMPLE_EQUAL)
kp.monte_carlo_exceedance(30, 0.3, 100, 0)
""",
    "cli-cold": """
import kuiperpair.cli
kuiperpair.cli.build_parser()
""",
}


class SetupSampler:
    """Set-up time: a fresh process until ready, after import and warm-up.

    The samples are spread over the run, one each time the timed work passes
    another 1/runs of its budget, so their median reflects the whole run and
    not one second of it.  A sampler made with ``runs=0`` takes none.
    """

    def __init__(self, workload: str, runs: int):
        self.workload = workload
        self.runs = runs
        self.code = SETUP_CODE[workload] + "print('ready', flush=True)\n"
        self.samples: list[float] = []

    def at(self, progress: float) -> None:
        """Take the samples due once ``progress`` (0 to 1) of the budget is done."""
        while len(self.samples) < min(self.runs, math.ceil(progress * self.runs)):
            start = time.perf_counter()
            with subprocess.Popen(
                [sys.executable, "-c", self.code], stdout=subprocess.PIPE, env=child_env(),
                cwd=ROOT, text=True,
            ) as proc:
                line = proc.stdout.readline()
                self.samples.append(time.perf_counter() - start)
                proc.stdout.read()
                proc.wait(timeout=60)
            if line.strip() != "ready" or proc.returncode != 0:
                raise RuntimeError(
                    f"set-up child for {self.workload} failed (exit {proc.returncode})")

    def record(self, result: Result, what: str) -> None:
        self.at(1.0)
        if self.samples:
            value = median(self.samples)
            result.metrics["setup_s"] = (value, "s")
            result.report.insert(0, ("setup_s", value, "s", f"median of {len(self.samples)} "
                                     f"fresh processes spread over the run: {what}"))


def warm_up(workload: str) -> None:
    exec(compile(SETUP_CODE[workload], f"<warm-up {workload}>", "exec"), {})
    gc.collect()
    gc.freeze()


# -- table-grid -----------------------------------------------------------

def table_cells(seed: int, chunk: int, size: int) -> list[tuple]:
    """(route, kind, method, alpha, n, p) cells; route is 'pair' or 'invcdf'."""
    rng = random.Random(seed * 1_000_003 + chunk)
    cells = []
    for _ in range(size):
        if rng.random() < TABLE_INV_CDF_SHARE:
            n = int(math.exp(rng.uniform(0.0, TABLE_LOG_N_MAX)))
            cells.append(("invcdf", "vn", "newton", None, n, rng.uniform(*CURVE_P)))
            continue
        alpha = math.exp(rng.uniform(*TABLE_ALPHA))
        if rng.random() < TABLE_INF_SHARE:
            n = math.inf
        else:
            n = int(math.exp(rng.uniform(0.0, TABLE_LOG_N_MAX)))
        kind = "vn" if rng.random() < 0.5 else "vnn"
        method = "direct" if rng.random() < TABLE_DIRECT_SHARE else "newton"
        cells.append(("pair", kind, method, alpha, n, None))
    return cells


def check_table_cell(result: Result, cell: tuple, out) -> None:
    route, kind, _method, alpha, n, p = cell
    if isinstance(out, BaseException):
        return  # a typed refusal is rendered as NA by table/curve
    if route == "pair":
        result.check(gate.quantile_error(n, out.critical_value, out.quantile))
        result.check(gate.root_error(kind, alpha, n, out.critical_value))
    else:
        result.check(gate.root_error("vn", 1.0 - p, n, out * math.sqrt(n)))


def run_table_grid(ctx: Ctx) -> Result:
    import kuiperpair as kp
    from kuiperpair import quantile as Q

    kinds = {"vn": kp.TestKind.ONE_SAMPLE, "vnn": kp.TestKind.TWO_SAMPLE_EQUAL}
    methods = {"newton": kp.IterationMethod.NEWTON, "direct": kp.IterationMethod.DIRECT}
    typed = kp.KuiperError
    result = Result()
    setup = SetupSampler("table-grid", ctx.sizes.setup_runs if ctx.measure_setup else 0)
    warm_up("table-grid")

    def solve_pair(alpha, n):
        pair = Q.kuiper_pair_solver(GUESS, alpha, n)
        return pair.critical_value, pair.quantile

    for message in gate.reference_table_errors(solve_pair):
        result.check(message)

    tracer = ctx.tracer
    windows = Windows()
    pair_count = inv_count = 0
    refusals: Counter = Counter()
    timed_ns = 0
    budget_ns = int(ctx.seconds * 1e9)
    chunk = ctx.offset
    while timed_ns < budget_ns and not (tracer is not None and tracer.full):
        setup.at(timed_ns / budget_ns)
        cells = table_cells(ctx.seed, chunk, ctx.sizes.table_chunk)
        chunk += 1
        outs = []
        pair_ns = []
        inv_ns = []
        chunk_ns = 0
        for cell in cells:
            route, kind, method, alpha, n, p = cell
            span = tracer.begin("bench.table_cell") if tracer is not None else 0
            start = perf_counter_ns()
            try:
                if route == "pair":
                    out = Q.kuiper_pair_solver(GUESS, alpha, n, kinds[kind], methods[method])
                else:
                    out = Q.kuiper_inv_cdf(p, n)
            except typed as exc:
                out = exc
            elapsed = perf_counter_ns() - start
            if tracer is not None:
                tracer.end(span)
            chunk_ns += elapsed
            if isinstance(out, typed):
                refusals[type(out).__name__] += 1
            elif route == "pair":
                pair_ns.append(elapsed)
            else:
                inv_ns.append(elapsed)
            outs.append(out)
        rss = peak_rss_mb()
        timed_ns += chunk_ns
        pair_count += len(pair_ns)
        inv_count += len(inv_ns)
        windows.add(p50=pair_ns, p99=pair_ns, inv_p50=inv_ns, rate=(len(cells), chunk_ns))
        for cell, out in zip(cells, outs):
            check_table_cell(result, cell, out)

    solved = pair_count + inv_count
    attempted = solved + sum(refusals.values())
    result.attempted = attempted
    solve_p50 = windows.fast("p50") / 1e3
    solve_p99 = windows.fast("p99") / 1e3
    inv_p50 = windows.fast("inv_p50") / 1e3
    cells_per_s = windows.fast("rate")
    result.metrics = {
        "solved_share": (solved / attempted, "share"),
        "peak_rss_mb": (rss, "MB"),
        "op_p50_us": (solve_p50, "us"),
        "op2_p50_us": (inv_p50, "us"),
        "items_per_s": (cells_per_s, "1/s"),
    }
    per_window = f"fastest decile of {windows.count} windows of {ctx.sizes.table_chunk} cells"
    result.report += [
        ("fail_share", 1.0 - solved / attempted, "share", f"{attempted - solved} NA of {attempted} "
         "cells: " + ", ".join(f"{k}={v}" for k, v in sorted(refusals.items()))),
        ("peak_rss_mb", rss, "MB", "process max RSS"),
        ("solve_us_p50", solve_p50, "us", f"{pair_count} successful kuiper_pair_solver cells; {per_window}"),
        ("solve_us_p99", solve_p99, "us", f"{pair_count // windows.count // 100} samples beyond p99 per window"),
        ("inv_cdf_us_p50", inv_p50, "us", f"{inv_count} successful kuiper_inv_cdf cells"),
        ("cells_per_s", cells_per_s, "1/s", f"attempted cells per timed second; {timed_ns / 1e9:.2f} s timed"),
    ]
    setup.record(result, "import kuiperpair, warm-up solves")
    return result


# -- data-tests -----------------------------------------------------------

def _sorted_uniform(rng, n):
    import numpy as np

    return np.sort(rng.random(n))


def small_datasets(seed: int, chunk: int, per_key: int) -> list[tuple]:
    """(kind, alpha, arrays) for every (n, alpha, kind) key, per_key times, shuffled.

    Every third two-sample dataset is rounded to 2 decimals, which ties it.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 1, chunk])
    keys = [(kind, alpha, n) for kind in ("vn", "vnn") for alpha in ALPHAS for n in SMALL_NS]
    order = rng.permutation(len(keys) * per_key)
    datasets = []
    two_sample = 0
    for index in order:
        kind, alpha, n = keys[index % len(keys)]
        if kind == "vn":
            datasets.append((kind, alpha, (_sorted_uniform(rng, n),)))
            continue
        a, b = _sorted_uniform(rng, n), _sorted_uniform(rng, n)
        if two_sample % 3 == 0:
            a, b = np.round(a, 2), np.round(b, 2)
        two_sample += 1
        datasets.append((kind, alpha, (a, b)))
    return datasets


def large_plan(seed: int, index: int, count: int, n_range: tuple[int, int]) -> list[tuple]:
    """(kind, alpha, n, tied, data_seed) for the strata of one large pass.

    n sits at the log-midpoint of each of ``count`` equal strata of the
    log-uniform range, so every pass, and every seed, has the same sizes and
    only the data differ.  Kinds alternate over the strata and every third
    two-sample stratum is tied.
    """
    rng = random.Random(seed * 7_368_787 + index)
    lo, hi = math.log(n_range[0]), math.log(n_range[1])
    plan = []
    for i in range(count):
        n = int(math.exp(lo + (i + 0.5) * (hi - lo) / count))
        kind = "vn" if i % 2 == 0 else "vnn"
        tied = kind == "vnn" and (i // 2) % 3 == 0
        plan.append((kind, ALPHAS[i % 3], n, tied, rng.getrandbits(32)))
    return plan


def large_dataset(kind: str, n: int, tied: bool, data_seed: int) -> tuple:
    import numpy as np

    rng = np.random.default_rng(data_seed)
    if kind == "vn":
        return (_sorted_uniform(rng, n),)
    a, b = _sorted_uniform(rng, n), _sorted_uniform(rng, n)
    if tied:
        a, b = np.round(a, 2), np.round(b, 2)
    return a, b


class DataGate:
    """Checks decisions; solved quantiles are checked once per distinct value."""

    def __init__(self, result: Result):
        self.result = result
        self.seen: set = set()

    def decision(self, kind, alpha, arrays, res, decision, p_value) -> None:
        check = self.result.check
        if kind == "vn":
            reference = gate.one_sample_reference(arrays[0])
        else:
            reference = gate.two_sample_reference(*arrays)
        check(gate.statistic_error(res, *reference))
        if decision.reject != (res.v > decision.quantile):
            check(f"reject={decision.reject} but v={res.v!r}, quantile={decision.quantile!r}")
        key = (kind, alpha, res.n, decision.quantile)
        if key not in self.seen:
            self.seen.add(key)
            check(gate.root_error(kind, alpha, res.n, decision.quantile * math.sqrt(res.n)))
        if p_value is not None and not 0.0 <= p_value <= 1.0:
            check(f"p-value {p_value!r} outside [0, 1]")


def run_data_tests(ctx: Ctx) -> Result:
    import kuiperpair as kp
    from kuiperpair import empirical as E
    from kuiperpair import quantile as Q

    two = kp.TestKind.TWO_SAMPLE_EQUAL
    typed = kp.KuiperError
    result = Result()
    setup = SetupSampler("data-tests", ctx.sizes.setup_runs if ctx.measure_setup else 0)
    warm_up("data-tests")
    data_gate = DataGate(result)
    tracer = ctx.tracer

    def decide(kind, alpha, arrays, span_name):
        span = tracer.begin(span_name) if tracer is not None else 0
        start = perf_counter_ns()
        try:
            if kind == "vn":
                res = E.kuiper_statistic_one_sample(arrays[0])
                decision = E.run_test(res, alpha)
                p_value = E.approximate_p_value(res)
            else:
                res = E.kuiper_statistic_two_sample(*arrays)
                decision = E.run_test(res, alpha, two)
                p_value = None  # approximate_p_value is the one-sample model
            out = (res, decision, p_value)
        except typed as exc:
            out = exc
        elapsed = perf_counter_ns() - start
        if tracer is not None:
            tracer.end(span)
        return out, elapsed

    small = Windows()  # windows of SMALL_WINDOW decisions
    large = Windows()  # one window per large pass
    rounds = Windows()  # from one large pass to the next, for values per second
    mc = Windows()  # one window per Monte Carlo pass
    small_chunks = itertools.count(ctx.offset)
    large_passes = itertools.count(ctx.offset)
    mc_passes = itertools.count(ctx.offset)
    counts = Counter()
    refusals: Counter = Counter()
    timed = {"small": 0, "large": 0, "mc": 0}
    mc_reference: dict = {}
    thresholds = {key: Q.kuiper_utq(key[1], key[0]) for key in MC_KEYS}

    since = Counter()

    def close_round():
        rounds.add(rate=(counts["values"] - since["values"],
                         counts["decide_ns"] - since["decide_ns"]))
        since["values"] = counts["values"]
        since["decide_ns"] = counts["decide_ns"]

    def decided(kind_class, out, elapsed, arrays) -> bool:
        timed[kind_class] += elapsed
        if isinstance(out, typed):
            refusals[type(out).__name__] += 1
            return False
        counts[kind_class] += 1
        counts["values"] += sum(x.size for x in arrays)
        counts["decide_ns"] += elapsed
        return True

    def run_small():
        """One window: contiguous chunks until SMALL_WINDOW decisions are made."""
        window = []
        attempts = 0
        while attempts < SMALL_WINDOW:
            batch = small_datasets(ctx.seed, next(small_chunks), ctx.sizes.small_per_key)
            outs = []
            for kind, alpha, arrays in batch:
                out, elapsed = decide(kind, alpha, arrays, "bench.decide_small")
                outs.append(out)
                if decided("small", out, elapsed, arrays):
                    window.append(elapsed)
            attempts += len(batch)
            for (kind, alpha, arrays), out in zip(batch, outs):
                if not isinstance(out, typed):
                    data_gate.decision(kind, alpha, arrays, *out)
        small.add(p50=window, p99=window)

    def run_large():
        pass_ns = []
        for kind, alpha, n, tied, data_seed in large_plan(
            ctx.seed, next(large_passes), ctx.sizes.large_per_pass, ctx.sizes.large_n
        ):
            arrays = large_dataset(kind, n, tied, data_seed)
            out, elapsed = decide(kind, alpha, arrays, "bench.decide_large")
            if decided("large", out, elapsed, arrays):
                pass_ns.append(elapsed)
                data_gate.decision(kind, alpha, arrays, *out)
        large.add(p50=pass_ns)
        close_round()

    def run_mc():
        pass_ns = 0
        pass_reps = 0
        index = next(mc_passes)
        for j, ((n, alpha), reps) in enumerate(zip(MC_KEYS, ctx.sizes.mc_reps)):
            threshold = thresholds[(n, alpha)]
            seed = (ctx.seed * 100_003 + index) * len(MC_KEYS) + j
            span = tracer.begin("bench.monte_carlo") if tracer is not None else 0
            start = perf_counter_ns()
            fraction = E.monte_carlo_exceedance(n, threshold, reps, seed)
            elapsed = perf_counter_ns() - start
            if tracer is not None:
                tracer.end(span)
            timed["mc"] += elapsed
            pass_ns += elapsed
            pass_reps += reps
            if n not in mc_reference:
                ref_reps = reps * MC_REFERENCE_FACTOR
                mc_reference[n] = (gate.mc_reference(n, threshold, ref_reps, ctx.seed + 17 * n), ref_reps)
            result.check(gate.mc_error(fraction, reps, *mc_reference[n]))
        mc.add(rate=(pass_reps, pass_ns))
        counts["mc_reps"] += pass_reps

    # Always run the class furthest behind its share of the time, so the
    # classes interleave over the whole run.
    runners = {"small": run_small, "large": run_large, "mc": run_mc}
    budget = {name: share * ctx.seconds * 1e9 for name, share in DATA_SHARES.items()}
    while not (tracer is not None and tracer.full):
        name = min(runners, key=lambda k: timed[k] / budget[k])
        if timed[name] >= budget[name]:
            break
        setup.at(sum(timed.values()) / sum(budget.values()))
        runners[name]()
    rss = peak_rss_mb()
    if counts["decide_ns"] > since["decide_ns"]:
        close_round()

    decisions = counts["small"] + counts["large"]
    attempted = decisions + sum(refusals.values())
    result.attempted = attempted
    result.failed = sum(refusals.values())
    small_p50 = small.fast("p50") / 1e3
    small_p99 = small.fast("p99") / 1e3
    large_p50 = large.fast("p50") / 1e3
    values_per_s = rounds.fast("rate")
    reps_per_s = mc.fast("rate")
    result.metrics = {
        "solved_share": (decisions / attempted, "share"),
        "peak_rss_mb": (rss, "MB"),
        "op_p50_us": (small_p50, "us"),
        "op2_p50_us": (large_p50, "us"),
        "items_per_s": (values_per_s, "1/s"),
    }
    result.report += [
        ("fail_share", 1.0 - decisions / attempted, "share", f"{attempted} decisions"),
        ("peak_rss_mb", rss, "MB", "process max RSS"),
        ("decide_small_us_p50", small_p50, "us",
         f"{counts['small']} small decisions; fastest decile of {small.count} windows of {SMALL_WINDOW}"),
        ("decide_small_us_p99", small_p99, "us", f"{SMALL_WINDOW // 100} samples beyond p99 per window"),
        ("decide_large_ms_p50", large_p50 / 1e3, "ms",
         f"{counts['large']} large decisions; fastest decile of {large.count} passes"),
        ("values_per_s", values_per_s, "1/s",
         f"{counts['values']} values; fastest decile of {rounds.count} spans between large passes"),
        ("mc_reps_per_s", reps_per_s, "1/s",
         f"{counts['mc_reps']} replications; fastest decile of {mc.count} passes"),
    ]
    setup.record(result, "import kuiperpair, warm-up decisions and Monte Carlo")
    return result


# -- cli-cold -------------------------------------------------------------

@dataclass(frozen=True)
class Invocation:
    """One CLI call with the stdout lines and exit codes it may produce."""

    command: str
    args: tuple[str, ...]
    lines: tuple  # one set of acceptable texts per stdout line, or None for simulate
    exits: frozenset
    simulate: tuple | None = None  # (alpha, n, reps) for the Monte Carlo band

    @property
    def data(self) -> bool:
        return self.command in ("test", "simulate")


class CliPlanner:
    """Seeded invocations whose expected output comes from ``gate``."""

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.roots: dict = {}
        self.requests: list = []  # every (kind, alpha, n) solve the planned calls make
        self.mc: dict = {}
        self.statistics: dict = {}  # (d+, d-) of the data file per normal mean
        self.data_path = OUT / f"cli-data-{seed}.dat"
        rng = random.Random(seed * 31 + 7)
        self.values = [rng.gauss(3.0, 2.0) for _ in range(sizes.cli_data_lines)]

    def write_data(self) -> None:
        OUT.mkdir(exist_ok=True)
        self.data_path.write_text("".join(f"{x!r}\n" for x in self.values), encoding="utf-8")

    def root(self, kind, alpha, n):
        key = (kind, alpha, n)
        self.requests.append(key)
        if key not in self.roots:
            self.roots[key] = gate.model_root(kind, alpha, n)
        return self.roots[key]

    def pair(self, kind, alpha, n):
        c = self.root(kind, alpha, n)
        return gate.number_texts(c), gate.number_texts(c / math.sqrt(n))

    def cycle(self, index: int) -> list[Invocation]:
        rng = random.Random(self.seed * 7919 + index)

        def alpha_text():
            return f"{math.exp(rng.uniform(*CLI_ALPHA)):.4g}"

        def n_value():
            return int(math.exp(rng.uniform(*CLI_LOG_N)))

        calls = []
        for kind in ("vn", "vnn"):
            a, n = alpha_text(), n_value()
            cs, vs = self.pair(kind, float(a), n)
            args = ("pair", "--alpha", a, "--n", str(n)) + (("--test", "vnn") if kind == "vnn" else ())
            calls.append(Invocation("pair", args, ({f"c={c} v={v}" for c in cs for v in vs},), frozenset({0})))
        a, n = alpha_text(), n_value()
        calls.append(Invocation("utq", ("utq", "--alpha", a, "--n", str(n)),
                                (self.pair("vn", float(a), n)[1],), frozenset({0})))
        p, n = f"{1.0 - math.exp(rng.uniform(*CLI_ALPHA)):.4g}", n_value()
        calls.append(Invocation("invcdf", ("invcdf", "--p", p, "--n", str(n)),
                                (self.pair("vn", 1.0 - float(p), n)[1],), frozenset({0})))
        alphas, ns = [alpha_text(), alpha_text()], [n_value(), n_value()]
        lines = [{"alpha,n,c,v"}]
        for a in alphas:
            for n in ns:
                cs, vs = self.pair("vn", float(a), n)
                lines.append({f"{float(a):g},{n},{c},{v}" for c in cs for v in vs})
        calls.append(Invocation("table", ("table", "--alphas", ",".join(alphas), "--ns",
                                          ",".join(map(str, ns))), tuple(lines), frozenset({0})))
        calls.append(self.test_call(rng.choice(ALPHAS), shifted=index % 2 == 1))
        calls.append(self.simulate_call(rng.choice(ALPHAS), rng.getrandbits(31)))
        return calls

    def test_call(self, alpha: float, shifted: bool) -> Invocation:
        """``test --dist normal`` at the true or a slightly shifted mean."""
        import numpy as np
        from statistics import NormalDist

        mu, sigma = (3.1 if shifted else 3.0), 2.0
        if mu not in self.statistics:
            cdf = NormalDist(mu, sigma).cdf
            u = np.sort(np.array([cdf(x) for x in self.values]))
            self.statistics[mu] = gate.one_sample_reference(u)
        d_plus, d_minus = self.statistics[mu]
        n = len(self.values)
        v = d_plus + d_minus
        k = math.sqrt(n) * v
        v_alpha = self.root("vn", alpha, n) / math.sqrt(n)
        p_value = min(1.0, max(0.0, gate.survival_vn_series(k, n)))
        if abs(v - v_alpha) < 1e-9:
            decisions, exits = {"decision=ACCEPT", "decision=REJECT"}, frozenset({0, 3})
        elif v > v_alpha:
            decisions, exits = {"decision=REJECT"}, frozenset({3})
        else:
            decisions, exits = {"decision=ACCEPT"}, frozenset({0})
        lines = (
            {f"n={n}"},
            *({f"{name}={t}" for t in gate.number_texts(x)} for name, x in (
                ("d_plus", d_plus), ("d_minus", d_minus), ("v", v), ("k", k),
                ("v_alpha", v_alpha), ("p_value", p_value))),
            decisions,
        )
        args = ("test", "--data", str(self.data_path), "--alpha", f"{alpha:g}",
                "--dist", "normal", "--params", f"{mu:g}", f"{sigma:g}")
        return Invocation("test", args, lines, exits)

    def simulate_call(self, alpha: float, seed: int) -> Invocation:
        n, reps = 30, self.sizes.cli_simulate_reps
        args = ("simulate", "--n", str(n), "--alpha", f"{alpha:g}", "--reps", str(reps),
                "--seed", str(seed))
        return Invocation("simulate", args, None, frozenset({0}), simulate=(alpha, n, reps, seed))

    def error(self, call: Invocation, returncode: int, stdout: str) -> str | None:
        where = "kuiperpair " + " ".join(call.args)
        if returncode not in call.exits:
            return f"{where}: exit {returncode}, expected {sorted(call.exits)}"
        got = stdout.splitlines()
        if call.simulate is None:
            if len(got) != len(call.lines) or any(g not in w for g, w in zip(got, call.lines)):
                return f"{where}: stdout {got!r} does not match the expected text"
            return None
        alpha, n, reps, seed = call.simulate
        fields = got[0].split() if len(got) == 1 else []
        if (len(fields) != 4 or fields[0] != f"target={alpha:g}" or fields[2] != f"reps={reps}"
                or fields[3] != f"seed={seed}" or not fields[1].startswith("empirical=")):
            return f"{where}: stdout {got!r} does not match the expected text"
        if alpha not in self.mc:
            ref_reps = 40 * reps
            threshold = self.root("vn", alpha, n) / math.sqrt(n)
            self.mc[alpha] = (gate.mc_reference(n, threshold, ref_reps, self.seed + 1), ref_reps)
        try:
            fraction = float(fields[1].split("=", 1)[1])
        except ValueError:
            return f"{where}: unreadable fraction in {got[0]!r}"
        return gate.mc_error(fraction, reps, *self.mc[alpha], resolution=5e-5)


LAUNCHER = """
import json, os, subprocess, sys, time
for line in sys.stdin:
    start = time.perf_counter_ns()
    proc = subprocess.Popen(json.loads(line), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    _pid, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter_ns() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    print(json.dumps([proc.returncode, out.decode(), elapsed, usage.ru_maxrss]), flush=True)
"""


class Launcher:
    """A small helper process that starts each CLI call and times it.

    A child's max RSS counts the memory of the process that spawned it, so
    the calls are spawned from this ~10 MB interpreter rather than from the
    benchmark, whose inputs and numpy would dominate the figure.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", "-c", LAUNCHER], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)

    def run(self, call: Invocation) -> tuple[int, str, int, float]:
        """(exit code, stdout, wall ns, the call's max RSS in MB)."""
        self.proc.stdin.write(json.dumps([sys.executable, "-m", "kuiperpair", *call.args]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the CLI launcher exited")
        returncode, stdout, elapsed, rss_kib = json.loads(line)
        return returncode, stdout, elapsed, rss_kib / 1024.0


def run_cli_cold(ctx: Ctx) -> Result:
    result = Result()
    planner = CliPlanner(ctx.seed, ctx.sizes)
    planner.write_data()
    setup = SetupSampler("cli-cold", ctx.sizes.setup_runs if ctx.measure_setup else 0)
    tracer = ctx.tracer
    windows = Windows()  # one window per cycle of calls
    counts = Counter()
    rss = 0.0
    timed_ns = 0
    with Launcher() as launcher:
        for call in planner.cycle(ctx.offset - 1):  # untimed warm-up: page cache, bytecode
            launcher.run(call)
        wall_start = time.perf_counter()
        cycle = ctx.offset
        while ((timed_ns < ctx.seconds * 1e9 or windows.count < ctx.sizes.cli_min_cycles)
               and time.perf_counter() - wall_start < CLI_HARD_LIMIT_S):
            setup.at(timed_ns / (ctx.seconds * 1e9))
            solver_ns = []
            data_ns = []
            cycle_ns = 0
            calls = planner.cycle(cycle)
            for call in calls:
                span = tracer.begin(f"cli.{call.command}") if tracer is not None else 0
                returncode, stdout, elapsed, child_rss = launcher.run(call)
                if tracer is not None:
                    tracer.end(span)
                cycle_ns += elapsed
                rss = max(rss, child_rss)
                (data_ns if call.data else solver_ns).append(elapsed)
                if returncode not in (0, 3):
                    counts["nonzero"] += 1
                result.check(planner.error(call, returncode, stdout))
            timed_ns += cycle_ns
            counts["solver"] += len(solver_ns)
            counts["data"] += len(data_ns)
            windows.add(p50=solver_ns, p90=solver_ns, data_p50=data_ns, rate=(len(calls), cycle_ns))
            cycle += 1

    attempted = counts["solver"] + counts["data"]
    nonzero = counts["nonzero"]
    result.attempted = attempted
    result.failed = nonzero
    p50 = windows.fast("p50") / 1e3
    p90 = windows.fast("p90") / 1e3
    data_p50 = windows.fast("data_p50") / 1e3
    per_s = windows.fast("rate")
    result.metrics = {
        "solved_share": (1.0 - nonzero / attempted, "share"),
        "peak_rss_mb": (rss, "MB"),
        "op_p50_us": (p50, "us"),
        "op2_p50_us": (data_p50, "us"),
        "items_per_s": (per_s, "1/s"),
    }
    per_window = f"fastest decile of {windows.count} cycles"
    result.report += [
        ("fail_share", nonzero / attempted, "share", f"{attempted} invocations"),
        ("peak_rss_mb", rss, "MB", "max RSS of any CLI process"),
        ("cli_solve_ms_p50", p50 / 1e3, "ms", f"{counts['solver']} pair/utq/invcdf/table calls; {per_window}"),
        ("cli_solve_ms_p90", p90 / 1e3, "ms", f"p90 of the 5 solver-only calls of a cycle; {per_window}"),
        ("cli_data_ms_p50", data_p50 / 1e3, "ms", f"{counts['data']} test/simulate calls; {per_window}"),
        ("invocations_per_s", per_s, "1/s", f"{per_window}; {timed_ns / 1e9:.2f} s timed"),
    ]
    setup.record(result, "import kuiperpair.cli, build_parser()")
    return result


RUNNERS = {
    "table-grid": run_table_grid,
    "data-tests": run_data_tests,
    "cli-cold": run_cli_cold,
}
