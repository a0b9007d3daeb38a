"""Acceptance suite: one check per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
of every criterion.  Two criteria need a note on what they read:

* criterion 3: the published n=10 table lists Kuiper pairs keyed by alpha.
  v is the solved quantile printed to 4 decimals and c the same root rounded
  to 2 decimals, so each column is checked to its own printed precision after
  solving from alpha.  Reading the 2-decimal c as exact would move v by up to
  1.6e-3 and alpha by several 1e-3 through rounding alone;
* criterion 6: the two-sample direct method iterates the contraction
  ``f_ctm2``, whose slope at the root stays below 1 on the whole grid, so it
  must agree with Newton at every cell within the solver's iteration cap.
"""

import math
import time

import pytest

from kuiperpair.empirical import (
    kuiper_statistic_one_sample,
    monte_carlo_exceedance,
)
from kuiperpair.errors import (
    EmptyInputError,
    InadmissibleRootError,
    KuiperError,
    NonConvergenceError,
    UnsortedInputError,
)
from kuiperpair.fixed_point import SolverConfig, distance, solve_fixed_point
from kuiperpair.quantile import (
    GuessWindowWarning,
    IterationMethod,
    TestKind,
    kuiper_ltq,
    kuiper_pair_solver,
    kuiper_utq,
)
from kuiperpair.survival_vn import f_nlm1, series_survival_vn, survival_vn
from kuiperpair.survival_vnn import survival_vnn
from oracles import bisect_root
from reference_tables import (
    KUIPER_1960_ALPHA_001,
    VN_GRID_ALPHAS,
    VN_GRID_NS,
    VN_INFINITY,
    VN_N10_ROWS,
    VN_PAIRS,
    VNN_GRID_ALPHAS,
    VNN_GRID_NS,
    VNN_PAIRS,
)

PAIR_TOL = 5e-4
AGREEMENT_TOL = 1e-4
ORACLE_TOL = 1e-5
ROUND_TRIP_TOL = 1e-6
SERIES_REL_TOL = 1e-12
# Half a unit of the second decimal, the precision of the n=10 table's c column.
N10_C_TOL = 5e-3


def _report(number, name, violations):
    if violations:
        print(f"[criterion {number:>2}] FAIL - {name} ({len(violations)} violation(s))")
        for violation in violations:
            print(f"              {violation}")
        pytest.fail(
            f"criterion {number} ({name}): {len(violations)} violation(s): "
            + " | ".join(violations),
            pytrace=False,
        )
    print(f"[criterion {number:>2}] PASS - {name}")


def _solve_newton(alpha, n, kind=TestKind.ONE_SAMPLE, guess=2.45):
    return kuiper_pair_solver(guess, alpha, n, kind, IterationMethod.NEWTON)


def test_criterion_01_one_sample_table_reproduction():
    violations = []
    start = time.perf_counter()
    for alpha in VN_GRID_ALPHAS:
        for n in VN_GRID_NS:
            pair = _solve_newton(alpha, n)
            c_ref, v_ref = VN_PAIRS[(alpha, n)]
            if abs(pair.critical_value - c_ref) > PAIR_TOL:
                violations.append(
                    f"c({alpha}, {n}) = {pair.critical_value:.6f} vs {c_ref}"
                )
            if abs(pair.quantile - v_ref) > PAIR_TOL:
                violations.append(f"v({alpha}, {n}) = {pair.quantile:.6f} vs {v_ref}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        violations.append(f"runtime {elapsed:.3f}s >= 1s")
    _report(1, "one-sample pair table, 21 cells at +-5e-4, < 1 s", violations)


def test_criterion_02_erratum_detected():
    violations = []
    solved = _solve_newton(0.01, 30).critical_value
    published_typo = KUIPER_1960_ALPHA_001[30]
    if abs(solved - 1.9252) > PAIR_TOL:
        violations.append(f"c(0.01, 30) = {solved:.6f}, expected 1.9252 +- 5e-4")
    if abs(solved - published_typo) <= 0.009:
        violations.append(
            f"discrepancy |{solved:.6f} - {published_typo}| not > 0.009; "
            "the historical typo would go undetected"
        )
    _report(2, "erratum at (0.01, 30): solver says 1.9252, flags 1.9153", violations)


def test_criterion_03_n10_table_reproduction():
    violations = []
    for c_ref, v_ref, alpha_ref in VN_N10_ROWS:
        pair = _solve_newton(alpha_ref, 10)
        if abs(pair.quantile - v_ref) > PAIR_TOL:
            violations.append(
                f"v({alpha_ref}, 10) = {pair.quantile:.6f} vs published {v_ref} "
                f"(off by {abs(pair.quantile - v_ref):.1e})"
            )
        if abs(pair.critical_value - c_ref) > N10_C_TOL:
            violations.append(
                f"c({alpha_ref}, 10) = {pair.critical_value:.6f} vs published "
                f"{c_ref} (off by {abs(pair.critical_value - c_ref):.1e})"
            )
        tail = survival_vn(v_ref * math.sqrt(10.0), 10)
        if abs(tail - alpha_ref) > PAIR_TOL:
            violations.append(
                f"alpha(v={v_ref}) = {tail:.6f} vs published {alpha_ref} "
                f"(off by {abs(tail - alpha_ref):.1e})"
            )
    _report(3, "n=10 table: v and tail at +-5e-4, c to its 2 decimals", violations)


def test_criterion_04_infinite_limit_table():
    violations = []
    for alpha, c_ref in VN_INFINITY.items():
        pair = _solve_newton(alpha, math.inf)
        if abs(pair.critical_value - c_ref) > PAIR_TOL:
            violations.append(
                f"c({alpha:g}, inf) = {pair.critical_value:.6f} vs {c_ref}"
            )
    extreme = _solve_newton(1e-10, math.inf).critical_value
    if abs(extreme - 3.7226) > PAIR_TOL:
        violations.append(f"c(1e-10, inf) = {extreme:.6f} vs 3.7226")
    _report(4, "large-sample-limit table, 12 levels at +-5e-4", violations)


def test_criterion_05_two_sample_table_reproduction():
    violations = []
    for alpha in VNN_GRID_ALPHAS:
        for n in VNN_GRID_NS:
            pair = _solve_newton(alpha, n, TestKind.TWO_SAMPLE_EQUAL)
            c_ref, v_ref = VNN_PAIRS[(alpha, n)]
            if abs(pair.critical_value - c_ref) > PAIR_TOL:
                violations.append(
                    f"c({alpha}, {n}) = {pair.critical_value:.6f} vs {c_ref}"
                )
            if abs(pair.quantile - v_ref) > PAIR_TOL:
                violations.append(f"v({alpha}, {n}) = {pair.quantile:.6f} vs {v_ref}")
    _report(5, "two-sample pair table, 60 cells at +-5e-4", violations)


def test_criterion_06_method_cross_agreement():
    violations = []
    # Fixed guesses per test and method, each above MIN_ADMISSIBLE_ROOTS[kind]
    # (0.5 for vn, 1.0 for vnn), so no start warns.
    grids = [
        (TestKind.ONE_SAMPLE, VN_GRID_ALPHAS, VN_GRID_NS, 1.8, 1.5),
        (TestKind.TWO_SAMPLE_EQUAL, VNN_GRID_ALPHAS, VNN_GRID_NS, 2.4, 2.5),
    ]
    for kind, alphas, ns, newton_guess, direct_guess in grids:
        for alpha in alphas:
            for n in ns:
                newton_pair = kuiper_pair_solver(
                    newton_guess, alpha, n, kind, IterationMethod.NEWTON
                )
                try:
                    direct_pair = kuiper_pair_solver(
                        direct_guess, alpha, n, kind, IterationMethod.DIRECT
                    )
                except KuiperError as exc:
                    violations.append(
                        f"{kind.value}({alpha}, {n}): direct method failed with "
                        f"{type(exc).__name__}"
                    )
                    continue
                gap = abs(newton_pair.critical_value - direct_pair.critical_value)
                if gap > AGREEMENT_TOL:
                    violations.append(
                        f"{kind.value}({alpha}, {n}): |newton - direct| = {gap:.2e}"
                    )
    _report(6, "direct/Newton agreement at 1e-4 over both grids", violations)


def test_criterion_07_bisection_oracle_equivalence():
    violations = []
    for alpha in VN_GRID_ALPHAS:
        for n in VN_GRID_NS:
            solved = _solve_newton(alpha, n).critical_value
            oracle = bisect_root(lambda c: survival_vn(c, n) - alpha, 0.55, 4.0)
            if abs(solved - oracle) > ORACLE_TOL:
                violations.append(
                    f"vn({alpha}, {n}): |fixed-point - bisection| = "
                    f"{abs(solved - oracle):.2e}"
                )
    for alpha in VNN_GRID_ALPHAS:
        for n in VNN_GRID_NS:
            solved = _solve_newton(alpha, n, TestKind.TWO_SAMPLE_EQUAL).critical_value
            oracle = bisect_root(lambda c: survival_vnn(c, n) - alpha, 1.0, 5.0)
            if abs(solved - oracle) > ORACLE_TOL:
                violations.append(
                    f"vnn({alpha}, {n}): |fixed-point - bisection| = "
                    f"{abs(solved - oracle):.2e}"
                )
    _report(7, "independent bisection root within 1e-5 on both grids", violations)


def test_criterion_08_survival_round_trip():
    violations = []
    for alpha in VN_GRID_ALPHAS:
        for n in VN_GRID_NS:
            critical = kuiper_utq(alpha, n) * math.sqrt(n)
            recovered = survival_vn(critical, n)
            if abs(recovered - alpha) > ROUND_TRIP_TOL:
                violations.append(
                    f"({alpha}, {n}): survival(solved c) = {recovered:.9f}"
                )
    _report(8, "tail probability round-trip within 1e-6", violations)


def test_criterion_09_monte_carlo_validation():
    violations = []
    replications = 200_000
    seed = 42
    start = time.perf_counter()
    for alpha in (0.10, 0.05, 0.01):
        for n in (10, 30, 100):
            threshold = kuiper_utq(alpha, n)
            empirical = monte_carlo_exceedance(n, threshold, replications, seed)
            tolerance = max(0.01, 0.25 * alpha)
            if abs(empirical - alpha) > tolerance:
                violations.append(
                    f"({alpha}, {n}): empirical {empirical:.5f} outside "
                    f"{alpha} +- {tolerance}"
                )
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        violations.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(9, "Monte Carlo exceedance matches alpha, 200k reps, < 60 s", violations)


def test_criterion_10_degenerate_inputs():
    violations = []
    if kuiper_utq(0.99995, 17) != 0.0:
        violations.append("upper-tail guard did not return 0.0")
    if kuiper_ltq(0.00005, 30) != 0.0:
        violations.append("lower-tail guard did not return 0.0")
    try:
        with pytest.warns(GuessWindowWarning):
            kuiper_pair_solver(0.3, 0.10, 30)
        violations.append("sub-1/2 root was not rejected")
    except InadmissibleRootError:
        pass
    runaway = lambda f, c, alpha, n: c + 1.0
    try:
        solve_fixed_point(
            runaway, f_nlm1, distance, SolverConfig(guess=1.0), 0.05, 30
        )
        violations.append("divergent updater did not raise")
    except NonConvergenceError as exc:
        if len(exc.trace.iterates) > 201:
            violations.append("divergence not stopped within 200 iterations")
    try:
        kuiper_statistic_one_sample([])
        violations.append("empty input accepted")
    except EmptyInputError:
        pass
    try:
        kuiper_statistic_one_sample([0.4, 0.2])
        violations.append("unsorted input accepted")
    except UnsortedInputError:
        pass
    _report(10, "guards, inadmissible root, divergence cap, input errors", violations)


def test_criterion_11_series_consistency():
    violations = []
    ns = (5, 10, 30, 100, 10**6)
    cs = [0.6 + index * (2.4 - 0.6) / 19 for index in range(20)]
    for c in cs:
        for n in ns:
            closed = survival_vn(c, n)
            two_terms = series_survival_vn(c, n, terms=2)
            if abs(two_terms - closed) > SERIES_REL_TOL * abs(closed):
                violations.append(
                    f"terms=2 vs closed at (c={c:.4f}, n={n}): "
                    f"rel {abs(two_terms - closed) / abs(closed):.2e}"
                )
            if c >= 1.2:
                ten_terms = series_survival_vn(c, n, terms=10)
                if abs(ten_terms - two_terms) >= 1e-6:
                    violations.append(
                        f"terms=10 vs terms=2 at (c={c:.4f}, n={n}): "
                        f"{abs(ten_terms - two_terms):.2e}"
                    )
    _report(11, "series truncation identities over a 100-point grid", violations)
