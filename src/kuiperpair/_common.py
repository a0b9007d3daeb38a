"""Shared two-term tail model of both statistics.

Both statistics truncate their tail series to the same shape.  Writing
x = c^2 on the sqrt(n)*V scale,

    alpha = P e^{-kappa x} + Q e^{-4 kappa x} - s

with kappa = 2, s = 0 for the one-sample V_n and kappa = 1, s = 1/(6n) for
the two-sample V_{n,n}.  Each statistic module supplies (x, P, Q, s) at a
given (c, n), and the slopes (P', Q') of its factors; the survival, the
residual, the direct contraction and the Newton map below are written once
for both.  Moving ``s`` to the alpha side keeps the log argument a polynomial
plus a decaying exponential, so no exp(x) is ever formed.  At n = math.inf
every 1/sqrt(n) and 1/n term of the factors is an exact zero, so they give
the large-sample limit bit for bit, with no limit branch of their own.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import NumericalDomainError

Factors = tuple[float, float, float, float]


def finite_factors(
    factors: Callable[[float, float], Factors], c: float, n: float
) -> Factors:
    """``factors(c, n)``, checked for the public survival and factor functions.

    Raises NumericalDomainError where a factor overflows, as past c ~ 5.8e76
    (V_{n,n}) or 7.1e101 (V_n) at every n, or is NaN.  x = c^2 and s are
    finite wherever P and Q are, and finite factors keep the survival
    finite, as both exponentials lie in [0, 1].  The solver maps call the
    factors directly and catch both cases themselves.
    """
    try:
        values = factors(c, n)
    except OverflowError as exc:
        raise NumericalDomainError(f"tail model factors overflow at c={c:.6g}") from exc
    if not (math.isfinite(values[1]) and math.isfinite(values[2])):
        raise NumericalDomainError(
            f"tail model factors {values[1:3]} are not finite at c={c:.6g}, n={n:.6g}")
    return values


def two_term_survival(kappa: float, factors: Factors) -> float:
    """P e^{-kappa x} + Q e^{-4 kappa x} - s for factors (x, P, Q, s)."""
    x, p, q, s = factors
    return p * math.exp(-kappa * x) + q * math.exp(-4.0 * kappa * x) - s


def two_term_residual(kappa: float, alpha: float, factors: Factors) -> float:
    """Residual kappa x + ln(alpha + s) - ln(P + Q e^{-3 kappa x}).

    Zero exactly where :func:`two_term_survival` equals alpha; the contraction
    and the Newton map are both built on it.  Raises NumericalDomainError
    where the log argument is not positive, NaN included.
    """
    x, p, q, s = factors
    arg = p + q * math.exp(-3.0 * kappa * x)
    if not arg > 0.0:
        raise NumericalDomainError(
            f"P + Q*exp(-{3.0 * kappa:g}c^2) = {arg:.6g} is not positive at "
            f"c={math.sqrt(x):.6g}; retry with a guess inside the admissible region"
        )
    return kappa * x + math.log(alpha + s) - math.log(arg)


def two_term_contraction(kappa: float, alpha: float, factors: Factors) -> float:
    """Contraction sqrt((ln(P + Q e^{-3 kappa x}) - ln(alpha + s)) / kappa).

    The radicand equals x - residual / kappa, so the fixed points are the
    roots of :func:`two_term_residual`; this is the map direct iteration
    applies.
    """
    radicand = factors[0] - two_term_residual(kappa, alpha, factors) / kappa
    if radicand < 0.0:
        raise NumericalDomainError(
            f"negative radicand {radicand:.6g} at c={math.sqrt(factors[0]):.6g}, "
            f"alpha={alpha:g}"
        )
    return math.sqrt(radicand)


def two_term_newton(
    kappa: float, c: float, alpha: float, factors: Factors, slopes: tuple[float, float]
) -> float:
    """Newton map c - f/f' of the residual f, with slopes (P', Q') = d(P, Q)/dc.

    The residual's slope is 2 kappa c - (P' + (Q' - 6 kappa c Q) e^{-3 kappa x})
    / (P + Q e^{-3 kappa x}).  It vanishes where the survival peaks, and there
    NumericalDomainError is raised instead of dividing by zero.
    """
    residual = two_term_residual(kappa, alpha, factors)
    (x, p, q, _s), (dp, dq) = factors, slopes
    decay = math.exp(-3.0 * kappa * x)
    log_slope = (dp + (dq - 6.0 * kappa * c * q) * decay) / (p + q * decay)
    slope = 2.0 * kappa * c - log_slope
    if slope == 0.0:
        raise NumericalDomainError(
            f"residual slope is zero at c={c:.6g}, where the tail model peaks; "
            "retry with a guess nearer the root"
        )
    return c - residual / slope
