"""Solver error against a high-precision root, and the shape of the solution.

Every check runs on the same seeded cells: n >= 9 (log-uniform integers up to
10^6) and alpha log-uniform on [1e-3, 0.25].  The oracle is an mpmath root, at
40 digits, of the same truncated two-term model the solver uses, written out
here from its formulas and sharing no code with the library.
"""

import math
import random

import mpmath
import pytest

from kuiperpair.errors import KuiperError
from kuiperpair.quantile import IterationMethod, TestKind, kuiper_pair_solver
from kuiperpair.survival_vn import survival_vn
from kuiperpair.survival_vnn import survival_vnn

CELL_COUNT = 300

# Distance from the model root that each method may stop at: Newton converges
# quadratically past the 1e-5 stopping step, direct iteration only linearly.
ROOT_TOL = {IterationMethod.NEWTON: 1e-9, IterationMethod.DIRECT: 1e-5}

# |d ln(survival)/dc| at the root stays below 40 on these cells (8.5 for V_n,
# 36 for V_{n,n}), so a root within ROOT_TOL gives back alpha within
# 40 * ROOT_TOL relative.
ROUND_TRIP_TOL = {method: 40.0 * tol for method, tol in ROOT_TOL.items()}

SURVIVAL = {TestKind.ONE_SAMPLE: survival_vn, TestKind.TWO_SAMPLE_EQUAL: survival_vnn}


def _cells():
    rng = random.Random(20261019)
    cells = []
    for _ in range(CELL_COUNT):
        alpha = math.exp(rng.uniform(math.log(1e-3), math.log(0.25)))
        n = round(math.exp(rng.uniform(math.log(9), math.log(1e6))))
        cells.append((alpha, n))
    return cells


CELLS = _cells()


def _excess_vn(c, alpha, n):
    # A1 e^{-2c^2} + A2 e^{-8c^2} - alpha, with the cubic factors A1, A2.
    r = mpmath.sqrt(n)
    a1 = -2 + 8 * c / r + 8 * c**2 - 32 * c**3 / (3 * r)
    a2 = -2 + 32 * c / r + 32 * c**2 - 512 * c**3 / (3 * r)
    return a1 * mpmath.exp(-2 * c**2) + a2 * mpmath.exp(-8 * c**2) - alpha


def _excess_vnn(c, alpha, n):
    # sum_{j=1,2} 2(2 j^2 c^2 - 1) e^{-j^2 c^2}
    #   - [1 + sum_{j=1,2} j^2 c^2 (2 j^2 c^2 - 7) e^{-j^2 c^2}] / (6n) - alpha
    lead = 0
    bracket = 1
    for j in (1, 2):
        jc2 = j * j * c**2
        weight = mpmath.exp(-jc2)
        lead += 2 * (2 * jc2 - 1) * weight
        bracket += jc2 * (2 * jc2 - 7) * weight
    return lead - bracket / (6 * n) - alpha


EXCESS = {TestKind.ONE_SAMPLE: _excess_vn, TestKind.TWO_SAMPLE_EQUAL: _excess_vnn}


def model_root(kind, near, alpha, n):
    """The model's root within 1e-3 of ``near``, found in 40-digit arithmetic."""
    with mpmath.workdps(40):
        excess = lambda c: EXCESS[kind](c, mpmath.mpf(alpha), mpmath.mpf(n))
        lo, hi = mpmath.mpf(near) - 1e-3, mpmath.mpf(near) + 1e-3
        assert excess(lo) * excess(hi) < 0, (kind, near, alpha, n)
        return float(mpmath.findroot(excess, (lo, hi), solver="anderson"))


def _solve(alpha, n, kind, method=IterationMethod.NEWTON):
    """The critical value, or None where the solver refuses with a typed error."""
    try:
        return kuiper_pair_solver(2.45, alpha, n, kind, method).critical_value
    except KuiperError:
        return None


@pytest.mark.parametrize("kind", list(TestKind))
def test_roots_match_the_mpmath_model_root(kind):
    checked = 0
    for alpha, n in CELLS:
        roots = {method: _solve(alpha, n, kind, method) for method in IterationMethod}
        solved = [root for root in roots.values() if root is not None]
        if not solved:
            continue
        exact = model_root(kind, solved[0], alpha, n)
        for method, root in roots.items():
            if root is not None:
                checked += 1
                assert abs(root - exact) <= ROOT_TOL[method], (alpha, n, method, root, exact)
    assert checked >= 0.9 * 2 * CELL_COUNT


@pytest.mark.parametrize("method", list(IterationMethod))
@pytest.mark.parametrize("kind", list(TestKind))
def test_survival_at_the_root_gives_back_alpha(kind, method):
    checked = 0
    for alpha, n in CELLS:
        root = _solve(alpha, n, kind, method)
        if root is not None:
            checked += 1
            error = abs(SURVIVAL[kind](root, n) - alpha) / alpha
            assert error <= ROUND_TRIP_TOL[method], (alpha, n, root, error)
    assert checked >= 0.9 * CELL_COUNT


@pytest.mark.parametrize("kind", list(TestKind))
def test_critical_value_falls_with_alpha_and_rises_with_n(kind):
    checked = 0
    for alpha, n in CELLS:
        root = _solve(alpha, n, kind)
        larger_alpha = _solve(1.1 * alpha, n, kind)
        larger_n = _solve(alpha, 2 * n, kind)
        if None in (root, larger_alpha, larger_n):
            continue
        checked += 1
        assert larger_alpha < root < larger_n, (alpha, n, larger_alpha, root, larger_n)
    assert checked >= 0.9 * CELL_COUNT
