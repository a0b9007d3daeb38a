"""Tail mathematics of the equal-size two-sample Kuiper test.

For two samples of common size n the normalized statistic is
sqrt(n) * V_{n,n}.  Writing x = c^2, the two-term truncation of its tail
series gives

    alpha_hat = U1(c, n) * exp(-x) + U2(c, n) * exp(-4x) - 1/(6n)

with polynomial factors U1, U2 in x: the shared two-term form of ``_common``
with kappa = 1 and the series' standalone constant s = 1/(6n) (0 in the
exact limit).  ``f_nlm2`` is the residual whose root is the critical value,
``f_ntm2`` its Newton map and ``f_ctm2`` the contraction used by direct
iteration,

    x = ln[U1 + U2 exp(-3x)] - ln[alpha + 1/(6n)].

All keep the constant on the alpha side.  Folding it into U1 as
-exp(x)/(6n) instead would overflow at large c and make the log fall steeply
at small n: the contraction's slope at its own fixed point would reach -1.27
at (alpha, n) = (0.01, 10), and Newton steps would land where the log
argument is negative.  There is no modified small-n variant of this
statistic: the truncation error is already O(1/n^2).
"""

from __future__ import annotations

from ._common import (
    Factors,
    finite_factors,
    two_term_contraction,
    two_term_newton,
    two_term_residual,
    two_term_survival,
)


def _factors(c: float, n: float) -> Factors:
    """(x, U1, U2, s) at (c, n), with x = c^2 and s = 1/(6n)."""
    x = c * c
    return (
        x,
        2.0 * (2.0 * x - 1.0) - x * (2.0 * x - 7.0) / (6.0 * n),
        2.0 * (8.0 * x - 1.0) - 2.0 * x * (8.0 * x - 7.0) / (3.0 * n),
        1.0 / (6.0 * n),
    )


def _slopes(c: float, n: float) -> tuple[float, float]:
    """(dU1/dc, dU2/dc) at (c, n), with x = c^2."""
    x = c * c
    return (
        2.0 * c * (4.0 - (4.0 * x - 7.0) / (6.0 * n)),
        2.0 * c * (16.0 - 2.0 * (16.0 * x - 7.0) / (3.0 * n)),
    )


def u1(c: float, n: float) -> float:
    """First factor: 2(2x-1) - x(2x-7)/(6n) with x = c^2."""
    return finite_factors(_factors, c, n)[1]


def u2(c: float, n: float) -> float:
    """Second factor: 2(8x-1) - 2x(8x-7)/(3n) with x = c^2."""
    return finite_factors(_factors, c, n)[2]


def survival_vnn(c: float, n: float) -> float:
    """Two-term approximation of Pr{sqrt(n) * V_{n,n} > c}."""
    return two_term_survival(1.0, finite_factors(_factors, c, n))


def f_nlm2(c: float, alpha: float, n: float) -> float:
    """Residual c^2 + ln[alpha + 1/(6n)] - ln[U1 + U2 exp(-3c^2)].

    Its root is the critical value.
    """
    return two_term_residual(1.0, alpha, _factors(c, n))


def f_ctm2(c: float, alpha: float, n: float) -> float:
    """Contraction sqrt(ln[U1 + U2 exp(-3c^2)] - ln[alpha + 1/(6n)]).

    The fixed point is the root of ``f_nlm2``, and the map's slope there
    stays below 1, so direct iteration converges to it.
    """
    return two_term_contraction(1.0, alpha, _factors(c, n))


def f_ntm2(c: float, alpha: float, n: float) -> float:
    """Newton map c - f_nlm2/f_nlm2', the map the Newton method iterates."""
    return two_term_newton(1.0, c, alpha, _factors(c, n), _slopes(c, n))
