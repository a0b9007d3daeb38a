"""Tail mathematics of the one-sample Kuiper test.

Everything here works on the normalized statistic K_n = sqrt(n) * V_n.  Its
upper-tail probability Pr{K_n > c} is approximated by keeping the first two
terms of each series in the classical asymptotic expansion, which collapses to

    alpha_hat = A1(c, n) * exp(-2 c^2) + A2(c, n) * exp(-8 c^2)

with cubic polynomial factors A1, A2 in c: the shared two-term form of
``_common`` with kappa = 2 and no constant term.  Taking logs of that
relation gives a residual ``f_nlm1`` whose root is the critical value, and two
maps whose fixed point is that root: the contraction ``f_ctm1`` and the
Newton map ``f_ntm1``.
"""

from __future__ import annotations

import math

from ._common import (
    Factors,
    finite_factors,
    two_term_contraction,
    two_term_newton,
    two_term_residual,
    two_term_survival,
)


def _factors(c: float, n: float) -> Factors:
    """(x, A1, A2, s) at (c, n), with x = c^2 and s = 0."""
    x = c * c
    root_n = math.sqrt(n)
    return (
        x,
        -2.0 + 8.0 * c / root_n + 8.0 * x - 32.0 * c**3 / (3.0 * root_n),
        -2.0 + 32.0 * c / root_n + 32.0 * x - 512.0 * c**3 / (3.0 * root_n),
        0.0,
    )


def _slopes(c: float, n: float) -> tuple[float, float]:
    """(dA1/dc, dA2/dc) at (c, n)."""
    root_n = math.sqrt(n)
    return (
        8.0 / root_n + 16.0 * c - 32.0 * c * c / root_n,
        32.0 / root_n + 64.0 * c - 512.0 * c * c / root_n,
    )


def a1(c: float, n: float) -> float:
    """First factor: -2 + 8c/sqrt(n) + 8c^2 - 32c^3/(3 sqrt(n))."""
    return finite_factors(_factors, c, n)[1]


def a2(c: float, n: float) -> float:
    """Second factor: -2 + 32c/sqrt(n) + 32c^2 - 512c^3/(3 sqrt(n))."""
    return finite_factors(_factors, c, n)[2]


def survival_vn(c: float, n: float) -> float:
    """Two-term approximation of Pr{sqrt(n) * V_n > c}.

    Valid as a probability only on the admissible region (roughly c > 1/2 and
    c not too large for the given n); outside it the expression may leave
    (0, 1) and callers must check.
    """
    return two_term_survival(2.0, finite_factors(_factors, c, n))


def series_survival_vn(c: float, n: float, terms: int = 2) -> float:
    """Partial sum of the full asymptotic tail series, ``terms`` terms deep.

    With ``terms=2`` this is algebraically identical to :func:`survival_vn`;
    additional terms shrink like exp(-2 j^2 c^2) and are negligible for
    c above about 1.  Kept as an independent route for cross-checking the
    closed two-term form.
    """
    if terms < 1:
        raise ValueError(f"terms must be at least 1, got {terms}")
    lead = 0.0
    correction = 0.0
    for j in range(1, terms + 1):
        jc2 = j * j * c * c
        weight = math.exp(-2.0 * jc2)
        lead += 2.0 * (4.0 * jc2 - 1.0) * weight
        correction += j * j * (4.0 * jc2 - 3.0) * weight
    return lead - 8.0 * c / (3.0 * math.sqrt(n)) * correction


def f_nlm1(c: float, alpha: float, n: float) -> float:
    """Residual 2c^2 + ln(alpha) - ln[A1 + A2 exp(-6c^2)].

    Zero exactly where the two-term tail approximation equals alpha.
    """
    return two_term_residual(2.0, alpha, _factors(c, n))


def f_ctm1(c: float, alpha: float, n: float) -> float:
    """Contraction sqrt((ln[A1 + A2 exp(-6c^2)] - ln alpha) / 2).

    Its fixed points coincide with the roots of :func:`f_nlm1`; this is the
    map the direct method iterates.
    """
    return two_term_contraction(2.0, alpha, _factors(c, n))


def f_ntm1(c: float, alpha: float, n: float) -> float:
    """Newton map c - f_nlm1/f_nlm1', the map the Newton method iterates."""
    return two_term_newton(2.0, c, alpha, _factors(c, n), _slopes(c, n))
