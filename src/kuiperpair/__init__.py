"""Critical values, tail quantiles and empirical statistics for Kuiper's tests.

The central object is the "Kuiper pair": the critical value c of the
normalized statistic sqrt(n) * V together with the quantile v = c / sqrt(n)
of V itself, solved by fixed-point iteration on a two-term truncation of the
statistic's asymptotic tail series.  One-sample (V_n) and equal-size
two-sample (V_{n,n}) variants are supported, along with the empirical
statistic, accept/reject decisions, and a Monte Carlo validation oracle.
"""

from .empirical import (
    EmpiricalResult,
    TestDecision,
    approximate_p_value,
    kuiper_statistic_one_sample,
    kuiper_statistic_two_sample,
    monte_carlo_exceedance,
    run_test,
)
from .errors import (
    EmptyInputError,
    InadmissibleRootError,
    KuiperError,
    LengthMismatchError,
    NonConvergenceError,
    NumericalDomainError,
    OutOfRangeError,
    UnboundedQuantileError,
    UnsortedInputError,
)
from .fixed_point import IterationTrace
from .quantile import (
    DEFAULT_GUESS,
    GuessWindowWarning,
    IterationMethod,
    KuiperPair,
    TestKind,
    kuiper_inv_cdf,
    kuiper_ltq,
    kuiper_pair_solver,
    kuiper_utq,
)
from .survival_vn import series_survival_vn, survival_vn
from .survival_vnn import survival_vnn

__version__ = "0.1.0"

__all__ = [
    "EmpiricalResult",
    "TestDecision",
    "approximate_p_value",
    "kuiper_statistic_one_sample",
    "kuiper_statistic_two_sample",
    "monte_carlo_exceedance",
    "run_test",
    "EmptyInputError",
    "InadmissibleRootError",
    "KuiperError",
    "LengthMismatchError",
    "NonConvergenceError",
    "NumericalDomainError",
    "OutOfRangeError",
    "UnboundedQuantileError",
    "UnsortedInputError",
    "IterationTrace",
    "DEFAULT_GUESS",
    "GuessWindowWarning",
    "IterationMethod",
    "KuiperPair",
    "TestKind",
    "kuiper_inv_cdf",
    "kuiper_ltq",
    "kuiper_pair_solver",
    "kuiper_utq",
    "series_survival_vn",
    "survival_vn",
    "survival_vnn",
]
