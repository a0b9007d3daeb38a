"""Scalar fixed-point iteration framework.

The solver repeatedly applies an updating operator ``T(f, c, alpha, n)`` until
two successive iterates are closer than a tolerance.  Both of the pair
solver's methods use :func:`direct_update`, which applies a map ``f``: the
contraction for direct iteration, the Newton map c - f/f' of the residual for
Newton iteration.  :func:`newton_update` serves a residual whose slope is
known only numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import NonConvergenceError, NumericalDomainError

# A function of (c, alpha, n): the map an updater applies, or a residual.
ScalarFn = Callable[[float, float, float], float]
Updater = Callable[[ScalarFn, float, float, float], float]
DistanceFn = Callable[[float, float], float]


@dataclass(frozen=True)
class SolverConfig:
    """Tolerance, starting point and safety limits for one solve.

    ``epsilon`` is the stopping distance between successive iterates,
    ``guess`` the initial iterate, ``max_iterations`` the update budget and
    ``derivative_step`` the forward-difference step of :func:`newton_update`.
    """

    epsilon: float = 1e-5
    guess: float = 2.45
    max_iterations: int = 200
    derivative_step: float = 1e-5

    def __post_init__(self) -> None:
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 < self.guess < math.inf:
            raise ValueError(f"guess must be finite and positive, got {self.guess}")
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be at least 1, got {self.max_iterations}"
            )
        if self.derivative_step <= 0.0:
            raise ValueError(
                f"derivative_step must be positive, got {self.derivative_step}"
            )


@dataclass(frozen=True)
class IterationTrace:
    """Diagnostic record of the iterate sequence c0, c1, c2, ... of one solve."""

    iterates: tuple[float, ...]
    converged: bool
    final_distance: float


def distance(x: float, y: float) -> float:
    """Absolute difference |x - y|."""
    return abs(x - y)


def newton_update(
    residual_fn: ScalarFn,
    c: float,
    alpha: float,
    n: float,
    step: float = SolverConfig.derivative_step,
) -> float:
    """One Newton step c - f/f' with a forward-difference slope estimate.

    Raises NumericalDomainError where the estimated slope is zero.
    """
    value = residual_fn(c, alpha, n)
    slope = (residual_fn(c + step, alpha, n) - value) / step
    if slope == 0.0:
        raise NumericalDomainError(f"residual slope is zero at c={c:.6g}")
    return c - value / slope


def direct_update(map_fn: ScalarFn, c: float, alpha: float, n: float) -> float:
    """One step: apply the map to the current iterate."""
    return map_fn(c, alpha, n)


def solve_fixed_point(
    updater: Updater,
    fn: ScalarFn,
    dist: DistanceFn,
    config: SolverConfig,
    alpha: float,
    n: float,
) -> tuple[float, IterationTrace]:
    """Iterate ``c <- updater(fn, c, alpha, n)`` to a fixed point.

    ``fn`` is what the updater takes: the map itself for
    :func:`direct_update`, the residual for :func:`newton_update`.  Starting
    from ``config.guess``, the loop stops as soon as the distance between two
    successive iterates drops below ``config.epsilon`` and returns the latest
    iterate together with the full trace; a NaN distance never stops it.

    Raises NonConvergenceError (with the partial trace attached) once
    ``config.max_iterations`` updates have been spent without meeting the
    tolerance, and NumericalDomainError where an update overflows.  Domain
    errors raised by the updater or ``fn`` propagate.
    """
    current = config.guess
    iterates = [current]
    for _ in range(config.max_iterations):
        try:
            improved = updater(fn, current, alpha, n)
        except OverflowError as exc:
            raise NumericalDomainError(f"the model overflows at c={current:.6g}") from exc
        iterates.append(improved)
        gap = dist(improved, current)
        if gap < config.epsilon:
            return improved, IterationTrace(tuple(iterates), True, gap)
        current = improved
    raise NonConvergenceError(
        f"no convergence within {config.max_iterations} iterations "
        f"(last distance {gap:.3e}, alpha={alpha:g}, n={n:g})",
        trace=IterationTrace(tuple(iterates), False, gap),
    )
