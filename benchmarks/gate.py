"""Correctness gate: independent references the benchmark checks outputs against.

Nothing here calls into ``kuiperpair``.  Roots are checked with the test
suite's bisection oracle on a separately written copy of each truncated tail
model, statistics with count-based formulas, and Monte Carlo fractions with a
differently constructed and differently seeded simulation.  Every check
returns ``None`` when the output is right and a one-line message otherwise,
and runs outside the timed regions.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_UP, Decimal

from oracles import bisect_root, series_survival_vnn
from reference_tables import VN_PAIRS

ROOT_TOL = 1e-4
STAT_TOL = 1e-12
MIN_ONE_SAMPLE_ROOT = 0.5
# Half-width of the binomial band, in standard deviations, for comparing two
# independent Monte Carlo fractions; a false alarm at 5 sigma is ~6e-7.
MC_BAND_SIGMAS = 5.0


def survival_vn_series(c: float, n: float) -> float:
    """Two-term one-sample tail series, written from the asymptotic expansion.

    alpha = sum_j 2(4 j^2 c^2 - 1) e^(-2 j^2 c^2)
            - 8c / (3 sqrt n) * sum_j j^2 (4 j^2 c^2 - 3) e^(-2 j^2 c^2),  j = 1, 2
    """
    lead = 0.0
    correction = 0.0
    for j in (1, 2):
        jc2 = j * j * c * c
        weight = math.exp(-2.0 * jc2)
        lead += 2.0 * (4.0 * jc2 - 1.0) * weight
        correction += j * j * (4.0 * jc2 - 3.0) * weight
    if math.isinf(n) or n >= 1e16:
        return lead
    return lead - 8.0 * c / (3.0 * math.sqrt(n)) * correction


def survival(kind: str, c: float, n: float) -> float:
    """Tail model of the one-sample ('vn') or two-sample ('vnn') statistic."""
    if kind == "vn":
        return survival_vn_series(c, n)
    return series_survival_vnn(c, n)


def root_error(kind: str, alpha: float, n: float, c: float) -> str | None:
    """Check that a solved critical value is a root of the truncated model.

    Bisection on [c - ROOT_TOL, c + ROOT_TOL] needs a sign change of
    ``survival - alpha`` there, so success puts a model root within ROOT_TOL
    of ``c``.  One-sample roots must also lie above 1/2.
    """
    if not math.isfinite(c):
        return f"{kind}(alpha={alpha!r}, n={n!r}): non-finite root {c!r}"
    if kind == "vn" and c <= MIN_ONE_SAMPLE_ROOT:
        return f"vn(alpha={alpha!r}, n={n!r}): root {c!r} is not above 1/2"
    try:
        bisect_root(
            lambda x: survival(kind, x, n) - alpha,
            c - ROOT_TOL,
            c + ROOT_TOL,
            tol=ROOT_TOL / 4,
        )
    except ValueError:
        return (
            f"{kind}(alpha={alpha!r}, n={n!r}): no model root within "
            f"{ROOT_TOL:g} of c={c!r}"
        )
    return None


def quantile_error(n: float, c: float, v: float) -> str | None:
    """The pair's quantile must be exactly c / sqrt(n)."""
    if v != c / math.sqrt(n):
        return f"quantile {v!r} != c/sqrt(n) = {c / math.sqrt(n)!r} at n={n!r}"
    return None


def model_root(kind: str, alpha: float, n: float) -> float:
    """Root of the truncated model by bisection over the usual critical range.

    Only used for n >= 10 and alpha in [0.01, 0.25], where the model falls
    through alpha exactly once on the bracket.
    """
    lo, hi = (0.55, 4.0) if kind == "vn" else (1.0, 5.0)
    return bisect_root(lambda x: survival(kind, x, n) - alpha, lo, hi, tol=1e-13)


def round_half_away(value: float, decimals: int) -> str:
    text = Decimal(repr(value)).quantize(Decimal(1).scaleb(-decimals), ROUND_HALF_UP)
    if text == 0:
        text = abs(text)
    return f"{text:.{decimals}f}"


def number_texts(value: float, decimals: int = 4, slack: float = 1e-9) -> set[str]:
    """Printed forms a value known to within ``slack`` may legitimately take."""
    return {round_half_away(value - slack, decimals), round_half_away(value + slack, decimals)}


def reference_table_errors(solve) -> list[str]:
    """``solve(alpha, n) -> (c, v)`` must reproduce VN_PAIRS to 4 decimals."""
    errors = []
    for (alpha, n), expected in sorted(VN_PAIRS.items()):
        got = tuple(round_half_away(x, 4) for x in solve(alpha, n))
        want = tuple(f"{x:.4f}" for x in expected)
        if got != want:
            errors.append(f"VN_PAIRS({alpha}, {n}): got {got}, published {want}")
    return errors


def one_sample_reference(u):
    """(d_plus, d_minus) of sorted probabilities by counting, ties included.

    F_n(x) - x peaks at a sample point and x - F_n(x-) at a left limit; the
    counts come from binary search rather than positions, in slabs so the
    reference never needs more memory than the kernel it checks.
    """
    import numpy as np

    n = u.size
    d_plus = 0.0
    d_minus = 0.0
    for start in range(0, n, 1 << 16):
        part = u[start:start + (1 << 16)]
        at_or_below = np.searchsorted(u, part, side="right") / n
        below = np.searchsorted(u, part, side="left") / n
        d_plus = max(d_plus, float(np.max(at_or_below - part)))
        d_minus = max(d_minus, float(np.max(part - below)))
    return d_plus, d_minus


def two_sample_reference(a, b, slabs: int = 16):
    """(d_plus, d_minus) between two equal-size sorted samples, ties included.

    Splits the value axis into half-open slabs at sample points of ``a``,
    merges each slab's values with a stable sort, and reads the integer count
    difference at the last copy of every distinct value.
    """
    import numpy as np

    n = a.size
    cuts = [a[(k * n) // slabs] for k in range(1, slabs)]
    bounds_a = [0, *np.searchsorted(a, cuts, side="left").tolist(), n]
    bounds_b = [0, *np.searchsorted(b, cuts, side="left").tolist(), n]
    top = 0
    bottom = 0
    for k in range(slabs):
        a_lo, a_hi = bounds_a[k], bounds_a[k + 1]
        b_lo, b_hi = bounds_b[k], bounds_b[k + 1]
        if a_lo == a_hi and b_lo == b_hi:
            continue
        merged = np.concatenate([a[a_lo:a_hi], b[b_lo:b_hi]])
        order = np.argsort(merged, kind="stable")
        steps = np.where(order < a_hi - a_lo, 1, -1)
        counts = (a_lo - b_lo) + np.cumsum(steps)
        ordered = merged[order]
        last = np.append(ordered[1:] != ordered[:-1], True)
        top = max(top, int(counts[last].max()))
        bottom = min(bottom, int(counts[last].min()))
    return top / n, -bottom / n


def statistic_error(result, d_plus: float, d_minus: float) -> str | None:
    """Compare a kernel's EmpiricalResult with reference one-sided distances."""
    v = d_plus + d_minus
    if (
        abs(result.d_plus - d_plus) > STAT_TOL
        or abs(result.d_minus - d_minus) > STAT_TOL
        or abs(result.v - v) > STAT_TOL
        or abs(result.k - math.sqrt(result.n) * v) > STAT_TOL * math.sqrt(result.n)
    ):
        return (
            f"statistic (d+={result.d_plus!r}, d-={result.d_minus!r}, v={result.v!r}) "
            f"!= reference (d+={d_plus!r}, d-={d_minus!r}) at n={result.n}"
        )
    return None


def mc_reference(n: int, threshold: float, reps: int, seed: int) -> float:
    """Exceedance fraction from sorted uniforms built as normalised exponential
    spacings, so no sort and no code is shared with the library's simulator."""
    import numpy as np

    rng = np.random.Generator(np.random.PCG64([seed, 0x6B70]))
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    exceeded = 0
    rows = max(1, 2_000_000 // n)
    for start in range(0, reps, rows):
        m = min(rows, reps - start)
        gaps = rng.exponential(size=(m, n + 1))
        sums = np.cumsum(gaps, axis=1)
        u = sums[:, :n] / sums[:, n:]
        v = np.maximum((upper - u).max(axis=1), 0) + np.maximum((u - lower).max(axis=1), 0)
        exceeded += int(np.count_nonzero(v > threshold))
    return exceeded / reps


def mc_error(fraction: float, reps: int, reference: float, ref_reps: int,
             resolution: float = 0.0) -> str | None:
    """Two independent binomial fractions must agree within the band."""
    p = min(max((fraction * reps + reference * ref_reps) / (reps + ref_reps), 1e-3), 1 - 1e-3)
    band = MC_BAND_SIGMAS * math.sqrt(p * (1 - p) * (1 / reps + 1 / ref_reps))
    if abs(fraction - reference) > band + resolution:
        return (
            f"Monte Carlo fraction {fraction!r} ({reps} reps) is outside "
            f"{reference!r} +/- {band:.4f} ({ref_reps} reference reps)"
        )
    return None
