"""Exception hierarchy shared by the solver and statistic modules."""


class KuiperError(Exception):
    """Base class for all errors raised by this package."""


class NonConvergenceError(KuiperError):
    """Fixed-point iteration exhausted its iteration budget.

    The partial iterate history is attached as ``trace`` when available.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class NumericalDomainError(KuiperError):
    """An intermediate quantity left the domain of log or sqrt."""


class InadmissibleRootError(KuiperError):
    """Solved critical value lies outside the test's admissible range.

    A root must satisfy c_min < c < sqrt(n): c_min is 1/2 for the one-sample
    test and 1 for the two-sample test, whose tail model peaks just below 1
    and so has a spurious root on its rising branch; c < sqrt(n) keeps the
    quantile v = c/sqrt(n) below 1, the top of V's support.
    """


class UnboundedQuantileError(KuiperError):
    """The requested quantile has no finite value under the tail approximation."""


class EmptyInputError(KuiperError):
    """Statistic requested on an empty sample."""


class UnsortedInputError(KuiperError):
    """Statistic input must be sorted ascending."""


class OutOfRangeError(KuiperError):
    """Probability-scale input fell outside [0, 1]."""


class LengthMismatchError(KuiperError):
    """Two-sample statistic requires equal sample sizes."""
