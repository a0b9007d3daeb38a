"""User-facing solving layer: Kuiper pairs, tail quantiles and inverse CDF.

A "Kuiper pair" couples the critical value c on the sqrt(n)*V scale with the
quantile v = c / sqrt(n) on the V scale, solved jointly for a significance
level alpha and sample size n.  The pair solver dispatches one of four
maps, {one-sample, two-sample-equal} x {direct, Newton}, through one
updater.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

from . import survival_vn, survival_vnn
from .errors import InadmissibleRootError, UnboundedQuantileError
from .fixed_point import SolverConfig, direct_update, distance, solve_fixed_point

SOLVER_EPSILON = SolverConfig.epsilon
DEFAULT_GUESS = SolverConfig.guess

# Fixed guard of kuiper_utq, kuiper_ltq and kuiper_inv_cdf (criterion 10):
# 0.0 instead of a solve from this level on.  Decisions never read it.
UPPER_TAIL_GUARD = 0.9999


class TestKind(Enum):
    """Which Kuiper statistic a quantity refers to."""

    __test__ = False  # not a pytest class despite the name

    ONE_SAMPLE = "vn"
    TWO_SAMPLE_EQUAL = "vnn"


class IterationMethod(Enum):
    """Fixed-point update rule used by the solver."""

    DIRECT = "direct"
    NEWTON = "newton"


class GuessWindowWarning(UserWarning):
    """Initial guess at or below the test's smallest admissible root.

    Such a start lies on the truncated model's spurious side.
    """


_MAPS = {
    (TestKind.ONE_SAMPLE, IterationMethod.DIRECT): survival_vn.f_ctm1,
    (TestKind.ONE_SAMPLE, IterationMethod.NEWTON): survival_vn.f_ntm1,
    (TestKind.TWO_SAMPLE_EQUAL, IterationMethod.DIRECT): survival_vnn.f_ctm2,
    (TestKind.TWO_SAMPLE_EQUAL, IterationMethod.NEWTON): survival_vnn.f_ntm2,
}

# Roots at or below these bounds are artifacts of the truncated series: the
# one-sample factors turn negative below 1/2 in the large-n limit, and the
# two-sample model peaks near c = 1 (0.84 at n = 1, 1.004 in the limit), so a
# spurious root lies on its rising branch.  Roots at or above sqrt(n) are
# rejected too: they put v = c/sqrt(n) at or above 1, beyond V's support.
MIN_ADMISSIBLE_ROOTS = {TestKind.ONE_SAMPLE: 0.5, TestKind.TWO_SAMPLE_EQUAL: 1.0}


@dataclass(frozen=True)
class KuiperPair:
    """Solved critical value and tail quantile for one (alpha, n, kind)."""

    critical_value: float
    quantile: float
    alpha: float
    n: int | float
    kind: TestKind


def check_alpha(alpha: float) -> float:
    """Return a significance level in (0, 1); raise ValueError otherwise."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    return alpha


def check_n(n: int | float) -> int | float:
    """Return a sample size n >= 1 (``math.inf`` included); NaN fails."""
    if not n >= 1:
        raise ValueError(f"n must be at least 1, got {n!r}")
    return n


def kuiper_pair_solver(
    guess: float,
    alpha: float,
    n: int | float,
    kind: TestKind = TestKind.ONE_SAMPLE,
    method: IterationMethod = IterationMethod.NEWTON,
) -> KuiperPair:
    """Solve the Kuiper pair (c, v = c/sqrt(n)) for the given test and method.

    ``n`` may be ``math.inf`` to request the exact large-sample limit.
    Raises ValueError, before any GuessWindowWarning, for alpha outside
    (0, 1), n < 1 or NaN, or a guess that is not finite and positive.  Warns
    with GuessWindowWarning, whatever the method, when the guess is at or
    below the smallest admissible root (1/2 for the one-sample test, 1 for the
    two-sample test), then attempts the solve.  Raises NonConvergenceError,
    NumericalDomainError (also where a Newton step lands on the model's peak,
    at zero slope) or InadmissibleRootError (a root at or below that same
    bound, or at or above sqrt(n)).
    """
    check_alpha(alpha)
    check_n(n)
    config = SolverConfig(guess=guess)
    c_min = MIN_ADMISSIBLE_ROOTS[kind]
    if guess <= c_min:
        warnings.warn(
            f"guess {guess:g} is at or below {c_min:g}, the smallest admissible "
            f"root for {kind.value}; attempting the solve anyway",
            GuessWindowWarning,
            stacklevel=2,
        )
    map_fn = _MAPS[(kind, method)]
    critical = solve_fixed_point(direct_update, map_fn, distance, config, alpha, n)[0]
    root_n = math.sqrt(n)
    if not c_min < critical < root_n:
        raise InadmissibleRootError(
            f"solved critical value {critical:.6g} is outside the admissible "
            f"range ({c_min:g}, sqrt(n) = {root_n:.6g}) for {kind.value}, "
            f"alpha={alpha:g}, n={n:g}"
        )
    return KuiperPair(
        critical_value=critical,
        quantile=critical / root_n,
        alpha=alpha,
        n=n,
        kind=kind,
    )


def kuiper_utq(alpha: float, n: int | float) -> float:
    """Upper tail quantile v(alpha, n) with Pr{V_n > v} = alpha.

    ``alpha`` lies in (0, 1].  Returns 0.0 outright for alpha >= 0.9999, a
    fixed guard of the quantile functions (acceptance criterion 10), not a
    quantile: V_n >= 1/n, and the model has a root at alpha = 0.9999 for
    n = 9-38.  Decisions and the simulator never read the guard; they take
    ``kuiper_pair_solver``'s quantile, which raises where there is no root.
    """
    check_n(n)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    if alpha >= UPPER_TAIL_GUARD:
        return 0.0
    pair = kuiper_pair_solver(
        DEFAULT_GUESS, alpha, n, TestKind.ONE_SAMPLE, IterationMethod.NEWTON
    )
    return pair.quantile


def kuiper_ltq(alpha: float, n: int | float) -> float:
    """Lower tail quantile, the complement identity of :func:`kuiper_utq`.

    ``alpha`` lies in [0, 1).  The lower tail quantile at level alpha is the
    upper tail quantile at level 1 - alpha, so it inherits that guard: 0.0
    for alpha <= 0.0001, where 1 - alpha rounds to 0.9999 or above.
    """
    check_n(n)
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha!r}")
    return kuiper_utq(1.0 - alpha, n)


def kuiper_inv_cdf(p: float, n: int | float) -> float:
    """Inverse CDF of the one-sample statistic V_n at probability p.

    Delegates to :func:`kuiper_utq` at level 1 - p and therefore inherits its
    guard: F^-1(p) = 0 for p <= 0.0001.  The truncated-series model has no
    finite 100th percentile, so p = 1 raises UnboundedQuantileError.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    if p == 1.0:
        raise UnboundedQuantileError(
            "the tail approximation has no finite quantile at p = 1"
        )
    return kuiper_utq(1.0 - p, n)
