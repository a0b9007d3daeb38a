"""Independent oracles kept deliberately dumb and separate from the library.

Bisection stands against the fixed-point solvers, direct counting of ECDF
deviations stands against the order-statistic kernels, a two-pointer merge
stands against the two-sample kernel at sizes counting cannot reach, and a
term-by-term tail series for the two-sample statistic stands against its
closed two-term form.  None of these share code with the production paths
they check.
"""

import math


def bisect_root(fn, lo, hi, tol=1e-10, max_iter=200):
    """Plain bisection for fn(x) = 0 on [lo, hi]; requires a sign change."""
    f_lo = fn(lo)
    f_hi = fn(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise ValueError(f"no sign change on [{lo}, {hi}]: {f_lo:g} vs {f_hi:g}")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_mid == 0.0 or (hi - lo) < tol:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def counting_one_sample(values):
    """(d_plus, d_minus) from literal ECDF counting against the identity CDF.

    The one-sided sups of F_n(x) - x and x - F_n(x) over the real line are
    attained at sample points and their left limits; ties are handled by the
    <= / < counts rather than index arithmetic.
    """
    n = len(values)
    d_plus = 0.0
    d_minus = 0.0
    for x in values:
        at_or_below = sum(1 for y in values if y <= x) / n
        strictly_below = sum(1 for y in values if y < x) / n
        d_plus = max(d_plus, at_or_below - x)
        d_minus = max(d_minus, x - strictly_below)
    return d_plus, d_minus


def counting_two_sample(sample_a, sample_b):
    """(d_plus, d_minus) between two ECDFs by counting at every breakpoint."""
    n_a = len(sample_a)
    n_b = len(sample_b)
    d_plus = 0.0
    d_minus = 0.0
    for x in list(sample_a) + list(sample_b):
        f_a = sum(1 for y in sample_a if y <= x) / n_a
        f_b = sum(1 for y in sample_b if y <= x) / n_b
        d_plus = max(d_plus, f_a - f_b)
        d_minus = max(d_minus, f_b - f_a)
    return d_plus, d_minus


def merge_two_sample(sample_a, sample_b):
    """(d_plus, d_minus) between two equal-size sorted samples by a merge walk.

    Two pointers step through both samples together, one distinct value at a
    time, past every copy of it in either sample; the integer count difference
    after each step is F_a - F_b there, times n.  O(n), so it reaches sizes the
    counting oracle cannot.
    """
    n = len(sample_a)
    i = j = 0
    top = bottom = 0
    while i < n or j < n:
        x = min(sample_a[i] if i < n else math.inf, sample_b[j] if j < n else math.inf)
        while i < n and sample_a[i] == x:
            i += 1
        while j < n and sample_b[j] == x:
            j += 1
        top = max(top, i - j)
        bottom = min(bottom, i - j)
    return top / n, -bottom / n


def series_survival_vnn(c, n, terms=2):
    """Term-by-term two-sample tail series, grouped as in its raw expansion.

    alpha = sum_j 2(2 j^2 c^2 - 1) e^(-j^2 c^2)
            - (1/(6n)) * [1 + sum_j j^2 c^2 (2 j^2 c^2 - 7) e^(-j^2 c^2)]

    With terms=2 this is an algebraically independent regrouping of the
    library's closed two-exponential form.
    """
    lead = 0.0
    bracket = 1.0
    for j in range(1, terms + 1):
        jc2 = j * j * c * c
        weight = math.exp(-jc2)
        lead += 2.0 * (2.0 * jc2 - 1.0) * weight
        bracket += jc2 * (2.0 * jc2 - 7.0) * weight
    if math.isinf(n):
        return lead
    return lead - bracket / (6.0 * n)
