"""Empirical Kuiper statistics, test decisions and a Monte Carlo oracle.

The one-sample kernel is distribution-free: it expects probability-integral
transformed values u_(i) = F0(x_(i)), already sorted ascending, and measures
how far their empirical CDF strays above and below the uniform CDF.  The
two-sample kernel reads both deviations at the first sample's distinct values.

numpy is imported inside the functions that build arrays, not at module
level: the solvers are pure stdlib, so ``import kuiperpair`` and the
solver-only CLI commands never pay for loading it.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

from .errors import (
    EmptyInputError,
    LengthMismatchError,
    OutOfRangeError,
    UnsortedInputError,
)
from .quantile import DEFAULT_GUESS, TestKind, kuiper_pair_solver
from .survival_vn import survival_vn

# A chunk holds max(1, budget // n) samples of n uniforms, so the simulator
# peaks at about 16 bytes x max(budget, n) (160-170 MB at n = 10^2 to 10^5);
# the layout is a pure function of (n, reps), so a fixed seed reproduces it.
_ELEMENT_BUDGET = 10_000_000

# Distinct (alpha, n, kind) thresholds kept by run_test's memo; a caller
# deciding many samples repeats a few keys, and the bound caps the memory.
_THRESHOLD_CACHE_SIZE = 256

# From _PRUNE_MIN distinct values of its first sample on, the two-sample
# kernel bounds D+ and D- over blocks of _BLOCK (at least 2) consecutive
# ones and searches only the blocks that can reach them; below that, one
# full search is cheaper.
_BLOCK = 32
_PRUNE_MIN = 8192


@dataclass(frozen=True)
class EmpiricalResult:
    """D+, D-, their sum V and the normalized statistic k = sqrt(n)*V."""

    d_plus: float
    d_minus: float
    v: float
    k: float
    n: int


@dataclass(frozen=True)
class TestDecision:
    """Outcome of comparing an observed statistic against a solved quantile."""

    __test__ = False  # not a pytest class despite the name

    statistic: EmpiricalResult
    alpha: float
    quantile: float
    reject: bool


def _sample(values: Sequence[float] | np.ndarray) -> np.ndarray:
    import numpy as np

    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D sequence, got shape {x.shape}")
    if x.size == 0:
        raise EmptyInputError("the statistic needs a nonempty sample")
    return x


def _ascending(x: np.ndarray) -> bool:
    # Every comparison with NaN is False, so a NaN fails one of these; the
    # first-to-last comparison covers a single-element sample.
    return bool((x[1:] >= x[:-1]).all() and x[0] <= x[-1])


def _deviations(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D+ and D- of sorted uniforms along the last axis, floored at zero."""
    import numpy as np

    n = u.shape[-1]
    steps = np.arange(n + 1.0) / n  # i/n for i = 0..n
    d_plus = np.maximum((steps[1:] - u).max(axis=-1), 0.0)
    d_minus = np.maximum((u - steps[:-1]).max(axis=-1), 0.0)
    return d_plus, d_minus


def kuiper_statistic_one_sample(
    probabilities: Sequence[float] | np.ndarray,
) -> EmpiricalResult:
    """Kuiper statistic of sorted probability-scale values against uniform.

    d_plus  = max_i (i/n - u_(i)),  d_minus = max_i (u_(i) - (i-1)/n),
    both floored at zero, with v = d_plus + d_minus and k = sqrt(n) * v.

    Raises ValueError (input not 1-D), EmptyInputError, OutOfRangeError
    (value outside [0, 1]) or UnsortedInputError.
    """
    u = _sample(probabilities)
    # A sorted sample without NaN lies in [0, 1] exactly when its ends do; the
    # elementwise check runs only on failure, so an out-of-range value is
    # reported first, even in an unsorted sample.
    if not (u[0] >= 0.0 and u[-1] <= 1.0 and _ascending(u)):
        in_range = (u >= 0.0) & (u <= 1.0)  # False for NaN as well
        if not in_range.all():
            bad = float(u[~in_range][0])
            raise OutOfRangeError(f"probability-scale value {bad!r} outside [0, 1]")
        raise UnsortedInputError("values must be sorted ascending")
    d_plus, d_minus = (float(d) for d in _deviations(u))
    v = d_plus + d_minus
    return EmpiricalResult(
        d_plus=d_plus, d_minus=d_minus, v=v, k=math.sqrt(u.size) * v, n=u.size
    )


def _last_copies(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct value of sorted ``x`` and the count of elements <= it."""
    import numpy as np

    last = np.empty(x.size, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=last[:-1])
    last[-1] = True
    return x[last], np.flatnonzero(last) + 1


def _search(b: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """#b < x and #b <= x at each key x: the second differs only where b holds x."""
    import numpy as np

    left = np.searchsorted(b, keys)
    tied = b.take(left, mode="clip") == keys
    held = keys[tied]
    # Without a tie the counts agree, and one array serves as both.
    right = left.copy() if held.size else left
    right[tied] = np.searchsorted(b, held, side="right")
    return left, right


def _block_bounds(
    b: np.ndarray, values: np.ndarray, below: np.ndarray
) -> tuple[int, int, np.ndarray]:
    """D- and D+ counts at the block ends, and which blocks can exceed them.

    Block j holds the distinct values past its predecessor's last key
    e_{j-1}, up to its own e_j.  Inside it L_k <= L_{e_j} and A_{k-1} >=
    A_{e_{j-1}}, so every D- term is at most L_{e_j} - A_{e_{j-1}}, and
    likewise every D+ term at most A_{e_j} - R_{e_{j-1}}.  Block 0 is always
    kept: it holds k = 0, whose A_{k-1} = 0 no earlier block end bounds.
    """
    import numpy as np

    ends = np.arange(_BLOCK - 1, values.size + _BLOCK - 1, _BLOCK)
    ends[-1] = values.size - 1  # the last block may be partial
    left, right = _search(b, values[ends])
    at = below[ends]
    floor_minus = int((left - below[ends - 1]).max())  # ends >= 1 as _BLOCK >= 2
    floor_plus = int((at - right).max())
    keep = np.empty(ends.size, dtype=bool)
    keep[0] = True
    keep[1:] = (left[1:] - at[:-1] > floor_minus) | (at[1:] - right[:-1] > floor_plus)
    return floor_minus, floor_plus, keep


def kuiper_statistic_two_sample(
    sample_a: Sequence[float] | np.ndarray,
    sample_b: Sequence[float] | np.ndarray,
) -> EmpiricalResult:
    """Kuiper statistic between two equal-size sorted samples.

    A search of ``b`` at the distinct values x_k of ``a`` gives both sides,
    with A_k = #a<=x_k, L_k = #b<x_k and R_k = #b<=x_k.  F_a - F_b rises only
    at values of ``a``, so D+ = max_k (A_k - R_k), and R_k > L_k only where
    ``b`` holds x_k.  On [x_{k-1}, x_k) F_a = A_{k-1} while F_b climbs to
    L_k, so D- = max_k (L_k - A_{k-1}) with A_{-1} = 0.  Both are whole
    counts over n.

    From ``_PRUNE_MIN`` distinct values on, ``b`` is first searched only at
    the last key of each block of ``_BLOCK`` consecutive ones.  The terms
    there are lower bounds of D- and D+.  A, L and R never fall with k, so
    the block ends also bound every term inside a block from above (see
    ``_block_bounds``), and only the blocks whose upper bound beats a lower
    bound are searched in full.  On untied uniforms that is 3-5 % of the
    keys at n = 10^5 to 10^6, the block ends included.  Where F_a - F_b
    stays flat, as for a == b, every block survives and the one full search
    follows the block-end search.

    Raises ValueError (a sample not 1-D), EmptyInputError,
    LengthMismatchError (only n = m is supported by the matching quantiles)
    or UnsortedInputError (a sample not sorted ascending, or holding NaN).
    """
    import numpy as np

    a = _sample(sample_a)
    b = _sample(sample_b)
    if a.size != b.size:
        raise LengthMismatchError(f"sample sizes differ ({a.size} vs {b.size}); "
                                  "only equal sizes have a matching quantile")
    if not (_ascending(a) and _ascending(b)):
        raise UnsortedInputError("both samples must be sorted ascending, without NaN")
    n = a.size
    values, below = _last_copies(a)
    before = below[:-1]  # A_{k-1} for k >= 1
    floor_minus = floor_plus = 0
    if values.size >= _PRUNE_MIN:
        floor_minus, floor_plus, keep = _block_bounds(b, values, below)
        if not keep.all():
            starts = np.flatnonzero(keep) * _BLOCK  # block 0 is kept: keys start at k = 0
            keys = (starts[:, None] + np.arange(_BLOCK)).ravel()
            keys = keys[keys < values.size]
            values, below, before = values[keys], below[keys], below[keys[1:] - 1]
    left, right = _search(b, values)
    # L_0 >= 0 and A_k = n at a's largest value, so neither maximum is negative.
    d_minus = max(floor_minus, int((left[1:] - before).max(initial=left[0]))) / n
    d_plus = max(floor_plus, int((below - right).max())) / n
    v = d_plus + d_minus
    return EmpiricalResult(d_plus, d_minus, v, math.sqrt(n) * v, n)


def run_test(
    result: EmpiricalResult, alpha: float, kind: TestKind = TestKind.ONE_SAMPLE
) -> TestDecision:
    """Decide accept/reject: reject exactly when v exceeds the alpha-quantile.

    Equality keeps the null (the quantile is defined through a strict
    exceedance probability).  Both kinds compare against the quantile of one
    ``kuiper_pair_solver`` solve, never the quantile functions' 0.9999 guard:
    alpha outside (0, 1) raises ValueError, and solver errors propagate.  The
    quantile is memoised per (alpha, n, kind), for at most 256 distinct keys.
    """
    threshold = _threshold(alpha, result.n, kind)
    return TestDecision(
        statistic=result,
        alpha=alpha,
        quantile=threshold,
        reject=result.v > threshold,
    )


@functools.lru_cache(maxsize=_THRESHOLD_CACHE_SIZE)
def _threshold(alpha: float, n: int | float, kind: TestKind) -> float:
    """The alpha-quantile ``run_test`` compares against, memoised per key.

    A refused solve, a bad alpha included, raises and is not cached; no
    warning is lost, since DEFAULT_GUESS lies above every admissible minimum.
    n = 30 and n = 30.0 share an entry, and their arithmetic gives the same
    float.
    """
    return kuiper_pair_solver(DEFAULT_GUESS, alpha, n, kind).quantile


def approximate_p_value(result: EmpiricalResult) -> float:
    """One-sample tail probability of the observed statistic, clamped to [0, 1].

    Evaluates the two-term tail approximation at k = sqrt(n) * v.  Off its
    admissible region the model leaves [0, 1], so a returned 0 or 1 can mean
    just that (at k = 0.0316, n = 1000 it is -3.90);
    ``survival_vn(result.k, result.n)`` gives the raw value.
    """
    return min(1.0, max(0.0, survival_vn(result.k, result.n)))


def monte_carlo_exceedance(
    n: int, v_threshold: float, replications: int, seed: int
) -> float:
    """Fraction of simulated uniform samples whose statistic v exceeds a threshold.

    Draws ``replications`` samples of ``n`` uniforms from a generator seeded
    with ``seed`` and is fully deterministic for fixed arguments, in chunks
    that peak at about 16 bytes x max(10^7, n) of memory.  Serves as
    the independent check that Pr{V_n > v(alpha, n)} is indeed close to alpha.
    Raises ValueError unless n and replications are positive integers (not
    bools) and the threshold is a number.
    """
    import numpy as np

    for name, count in (("n", n), ("replications", replications)):
        if isinstance(count, bool) or not (isinstance(count, numbers.Integral)
                                           and count >= 1):
            raise ValueError(f"{name} must be a positive integer, got {count!r}")
    if math.isnan(v_threshold):
        raise ValueError("v_threshold must be a number, got nan")
    rng = np.random.default_rng(seed)
    chunk_rows = max(1, _ELEMENT_BUDGET // n)
    exceeded = 0
    remaining = replications
    while remaining > 0:
        rows = min(chunk_rows, remaining)
        d_plus, d_minus = _deviations(np.sort(rng.random((rows, n)), axis=1))
        exceeded += int(np.count_nonzero(d_plus + d_minus > v_threshold))
        remaining -= rows
    return exceeded / replications
