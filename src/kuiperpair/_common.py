"""Shared two-term tail model and the infinite-sample-size sentinel.

Both statistics truncate their tail series to the same shape.  Writing
x = c^2 on the sqrt(n)*V scale,

    alpha = P e^{-kappa x} + Q e^{-4 kappa x} - s

with kappa = 2, s = 0 for the one-sample V_n and kappa = 1, s = 1/(6n) for
the two-sample V_{n,n}.  Each statistic module supplies (x, P, Q, s) at a
given (c, n); the survival, the Newton residual and the direct contraction
below are written once for both.  Moving ``s`` to the alpha side keeps the
log argument a polynomial plus a decaying exponential, so no exp(x) is ever
formed.
"""

from __future__ import annotations

import math

from .errors import NumericalDomainError

# Sample sizes at or beyond this threshold (or math.inf) are treated as the
# exact n -> infinity limit: every O(1/sqrt(n)) and O(1/n) term is dropped
# rather than evaluated at a huge n, avoiding pointless cancellation.
INFINITE_N = 1e16


def is_infinite_n(n: int | float) -> bool:
    """True when ``n`` requests the exact large-sample limit."""
    return math.isinf(n) or n >= INFINITE_N


Factors = tuple[float, float, float, float]


def two_term_survival(kappa: float, factors: Factors) -> float:
    """P e^{-kappa x} + Q e^{-4 kappa x} - s for factors (x, P, Q, s)."""
    x, p, q, s = factors
    return p * math.exp(-kappa * x) + q * math.exp(-4.0 * kappa * x) - s


def two_term_residual(kappa: float, alpha: float, factors: Factors) -> float:
    """Residual kappa x + ln(alpha + s) - ln(P + Q e^{-3 kappa x}).

    Zero exactly where :func:`two_term_survival` equals alpha; this is the
    form handed to the Newton updater.  Raises NumericalDomainError where the
    log argument is not positive.
    """
    x, p, q, s = factors
    arg = p + q * math.exp(-3.0 * kappa * x)
    if arg <= 0.0:
        raise NumericalDomainError(
            f"P + Q*exp(-{3.0 * kappa:g}c^2) = {arg:.6g} is not positive at "
            f"c={math.sqrt(x):.6g}; retry with a guess inside the admissible region"
        )
    return kappa * x + math.log(alpha + s) - math.log(arg)


def two_term_contraction(kappa: float, alpha: float, factors: Factors) -> float:
    """Contraction sqrt((ln(P + Q e^{-3 kappa x}) - ln(alpha + s)) / kappa).

    The radicand equals x - residual / kappa, so the fixed points are the
    roots of :func:`two_term_residual`; this is the form handed to the direct
    updater.
    """
    radicand = factors[0] - two_term_residual(kappa, alpha, factors) / kappa
    if radicand < 0.0:
        raise NumericalDomainError(
            f"negative radicand {radicand:.6g} at c={math.sqrt(factors[0]):.6g}, "
            f"alpha={alpha:g}"
        )
    return math.sqrt(radicand)
