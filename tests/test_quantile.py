"""Tests for the pair solver, tail quantiles and inverse CDF."""

import copy
import math
import pickle
import random
import warnings

import pytest

from kuiperpair.errors import (
    InadmissibleRootError,
    KuiperError,
    NumericalDomainError,
    UnboundedQuantileError,
)
from kuiperpair.empirical import _threshold
from kuiperpair.fixed_point import (
    SolverConfig,
    direct_update,
    distance,
    solve_fixed_point,
)
from kuiperpair.quantile import (
    _MAPS,
    DEFAULT_GUESS,
    MIN_ADMISSIBLE_ROOTS,
    GuessWindowWarning,
    IterationMethod,
    TestKind,
    kuiper_inv_cdf,
    kuiper_ltq,
    kuiper_pair_solver,
    kuiper_utq,
)
from kuiperpair.survival_vn import survival_vn
from kuiperpair.survival_vnn import survival_vnn
from oracles import bisect_root
from test_acceptance import AGREEMENT_TOL


class TestPairSolver:
    def test_one_sample_newton_reference(self):
        pair = kuiper_pair_solver(2.45, 0.05, 30)
        assert pair.critical_value == pytest.approx(1.6758, abs=5e-4)
        assert pair.quantile == pytest.approx(0.3060, abs=5e-4)
        assert pair.kind is TestKind.ONE_SAMPLE

    def test_corrected_entry(self):
        pair = kuiper_pair_solver(2.45, 0.01, 30)
        assert pair.critical_value == pytest.approx(1.9252, abs=5e-4)
        assert pair.quantile == pytest.approx(0.3515, abs=5e-4)

    def test_two_sample_newton_reference(self):
        pair = kuiper_pair_solver(
            2.45, 0.01, 10, TestKind.TWO_SAMPLE_EQUAL, IterationMethod.NEWTON
        )
        assert pair.critical_value == pytest.approx(2.6124, abs=5e-4)
        assert pair.quantile == pytest.approx(0.8261, abs=5e-4)

    def test_direct_method_in_exact_limit(self):
        pair = kuiper_pair_solver(
            2.45, 0.10, 10**16, TestKind.ONE_SAMPLE, IterationMethod.DIRECT
        )
        assert pair.critical_value == pytest.approx(1.6196, abs=5e-4)

    def test_infinite_n_gives_zero_quantile(self):
        pair = kuiper_pair_solver(2.45, 0.05, math.inf)
        assert pair.quantile == 0.0
        assert pair.critical_value == pytest.approx(1.7472, abs=5e-4)

    @pytest.mark.parametrize(
        "alpha,n,kind",
        [
            (0.05, 30, TestKind.ONE_SAMPLE),
            (0.01, 10**6, TestKind.ONE_SAMPLE),
            (0.05, 30, TestKind.TWO_SAMPLE_EQUAL),
            (0.10, 10, TestKind.TWO_SAMPLE_EQUAL),
        ],
    )
    def test_pair_identity(self, alpha, n, kind):
        pair = kuiper_pair_solver(2.45, alpha, n, kind)
        assert abs(pair.quantile * math.sqrt(n) - pair.critical_value) < 1e-12

    def test_methods_agree(self):
        newton = kuiper_pair_solver(
            1.8, 0.05, 30, TestKind.ONE_SAMPLE, IterationMethod.NEWTON
        )
        direct = kuiper_pair_solver(
            1.5, 0.05, 30, TestKind.ONE_SAMPLE, IterationMethod.DIRECT
        )
        assert abs(newton.critical_value - direct.critical_value) < 1e-4

    def test_inadmissible_root_rejected(self):
        # A start near the spurious sub-1/2 root converges to it and is refused.
        with pytest.warns(GuessWindowWarning):
            with pytest.raises(InadmissibleRootError):
                kuiper_pair_solver(0.3, 0.10, 30)

    def test_two_sample_rising_branch_root_rejected(self):
        # The V_{n,n} model peaks just below c = 1, and a start below the
        # peak finds its spurious root c = 0.5122 on the rising branch.
        with pytest.warns(GuessWindowWarning):
            with pytest.raises(InadmissibleRootError):
                kuiper_pair_solver(0.505, 0.05, 30, TestKind.TWO_SAMPLE_EQUAL)

    def test_newton_at_the_two_sample_peak_raises_no_bare_error(self):
        # This guess is the V_{n,n} model's peak, where the residual's slope
        # rounds to 0.0 on common libms; whether it does depends on the last
        # bit of exp and log, so test_fixed_point checks the guard on exact
        # inputs.  Here only a typed refusal or a root may come out.
        try:
            kuiper_pair_solver(
                1.0035192347006507, 0.05, math.inf, TestKind.TWO_SAMPLE_EQUAL
            )
        except KuiperError:
            pass

    @pytest.mark.parametrize("method", list(IterationMethod))
    @pytest.mark.parametrize("n", [2, 4])
    def test_quantile_at_or_above_one_rejected(self, n, method):
        # V_{n,n} <= 1, so a root with v = c/sqrt(n) >= 1 has no exceedance.
        with pytest.raises(InadmissibleRootError):
            kuiper_pair_solver(2.45, 0.05, n, TestKind.TWO_SAMPLE_EQUAL, method)

    def test_two_sample_methods_share_outcome(self):
        # Both methods solve the same model, so they refuse the same cells
        # and agree on the rest.
        rng = random.Random(20261018)
        solved = 0
        for _ in range(2000):
            alpha = math.exp(rng.uniform(math.log(1e-3), math.log(0.25)))
            n = round(math.exp(rng.uniform(0.0, math.log(1e6))))
            roots = []
            for method in IterationMethod:
                try:
                    roots.append(kuiper_pair_solver(
                        2.45, alpha, n, TestKind.TWO_SAMPLE_EQUAL, method
                    ).critical_value)
                except InadmissibleRootError:
                    roots.append(None)
            if None in roots:
                assert roots == [None, None], (alpha, n, roots)
            else:
                solved += 1
                assert abs(roots[0] - roots[1]) < AGREEMENT_TOL, (alpha, n, roots)
        assert solved > 1500

    def test_guess_above_the_root_solves_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = kuiper_pair_solver(3.0, 0.05, 30)
        assert pair.critical_value == pytest.approx(1.6758, abs=5e-4)

    @pytest.mark.parametrize("method", list(IterationMethod))
    @pytest.mark.parametrize("kind", list(TestKind))
    def test_guess_warns_at_or_below_the_smallest_admissible_root(self, kind, method):
        c_min = MIN_ADMISSIBLE_ROOTS[kind]
        with pytest.warns(GuessWindowWarning):
            try:
                kuiper_pair_solver(c_min, 0.05, 30, kind, method)
            except KuiperError:
                pass
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                kuiper_pair_solver(math.nextafter(c_min, math.inf), 0.05, 30, kind, method)
            except KuiperError:
                pass

    def test_in_window_guess_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kuiper_pair_solver(2.45, 0.05, 30)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5])
    def test_alpha_validation(self, alpha):
        with pytest.raises(ValueError):
            kuiper_pair_solver(2.45, alpha, 30)

    @pytest.mark.parametrize("n", [0, math.nan])
    def test_n_validation(self, n):
        with pytest.raises(ValueError, match="n must be at least 1"):
            kuiper_pair_solver(2.45, 0.05, n)

    def test_fractional_n_accepted(self):
        # The model is defined for real n (an effective size need not be whole).
        roots = [kuiper_pair_solver(2.45, 0.05, n).critical_value for n in (30, 30.5, 31)]
        assert roots[0] < roots[1] < roots[2]

    @pytest.mark.parametrize("guess", [math.nan, math.inf, -1.0, 0.0])
    def test_guess_validation_precedes_window_warning(self, guess):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="guess must be finite and positive"):
                kuiper_pair_solver(guess, 0.05, 30)

    @pytest.mark.parametrize("guess", [1e102, 1e103, 1e200, 1e308])
    @pytest.mark.parametrize("method", list(IterationMethod))
    @pytest.mark.parametrize("kind", list(TestKind))
    def test_huge_guess_is_a_domain_error(self, kind, method, guess):
        # The model overflows (c**3 past ~5.6e102) or turns NaN at such a start.
        with pytest.raises(NumericalDomainError):
            kuiper_pair_solver(guess, 0.05, 30, kind, method)

    def test_domain_error_propagates(self):
        # Guess 2.45 is outside the evaluable region for n = 5.
        with pytest.raises(NumericalDomainError):
            kuiper_pair_solver(2.45, 0.05, 5)


def _outcome(solve):
    """The solved critical value's hex form, or a typed refusal's (type, message)."""
    try:
        return solve()
    except KuiperError as exc:
        return type(exc), str(exc)


class TestSolverSetUp:
    """The shared default config and identity-hashed enums change no outcome."""

    @pytest.mark.parametrize("guess", [DEFAULT_GUESS, 1.8, 3.0])
    def test_solve_matches_an_explicit_config(self, guess):
        rng = random.Random(26)
        cells = 0
        for kind in TestKind:
            for method in IterationMethod:
                for index in range(40):
                    alpha = math.exp(rng.uniform(math.log(1e-3), math.log(0.25)))
                    n = math.inf if index % 8 == 0 else round(
                        math.exp(rng.uniform(0.0, math.log(1e6))))
                    solved = _outcome(lambda: kuiper_pair_solver(
                        guess, alpha, n, kind, method).critical_value.hex())
                    explicit = _outcome(lambda: solve_fixed_point(
                        direct_update, _MAPS[(kind, method)], distance,
                        SolverConfig(guess=guess), alpha, n)[0].hex())
                    if solved != explicit:
                        # Only the solver's admissibility check may refuse a root.
                        assert solved[0] is InadmissibleRootError, (alpha, n, solved)
                        assert isinstance(explicit, str), (alpha, n, explicit)
                    cells += isinstance(solved, str)
        assert cells > 100

    @pytest.mark.parametrize("rebuild", [
        lambda member: type(member)(member.value),
        lambda member: pickle.loads(pickle.dumps(member)),
        copy.deepcopy,
    ], ids=["by-value", "pickle", "deepcopy"])
    def test_rebuilt_members_find_their_entries(self, rebuild):
        for kind in TestKind:
            assert MIN_ADMISSIBLE_ROOTS[rebuild(kind)] == MIN_ADMISSIBLE_ROOTS[kind]
            for method in IterationMethod:
                key = (rebuild(kind), rebuild(method))
                assert _MAPS[key] is _MAPS[(kind, method)]
        _threshold(0.05, 40, TestKind.TWO_SAMPLE_EQUAL)
        before = _threshold.cache_info()
        _threshold(0.05, 40, rebuild(TestKind.TWO_SAMPLE_EQUAL))
        after = _threshold.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)


class TestUpperTailQuantile:
    def test_reference_values(self):
        assert kuiper_utq(0.05, 30) == pytest.approx(0.3060, abs=5e-4)
        assert kuiper_utq(0.10, 180) == pytest.approx(0.1188, abs=5e-4)

    def test_guard_returns_zero(self):
        assert kuiper_utq(0.99995, 17) == 0.0
        assert kuiper_utq(0.9999, 30) == 0.0
        assert kuiper_utq(1.0, 30) == 0.0

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            kuiper_utq(0.0, 30)

    @pytest.mark.parametrize("alpha", [-0.5, 1.5, 1.0000001, math.nan])
    def test_rejects_alpha_outside_range(self, alpha):
        with pytest.raises(ValueError, match=rf"\(0, 1\], got {alpha!r}"):
            kuiper_utq(alpha, 30)

    @pytest.mark.parametrize("n", [0, math.nan])
    def test_guard_checks_n(self, n):
        with pytest.raises(ValueError, match="n must be at least 1"):
            kuiper_utq(0.99995, n)


class TestLowerTailQuantile:
    def test_complement_of_upper(self):
        assert kuiper_ltq(0.95, 30) == pytest.approx(0.3060, abs=5e-4)
        assert kuiper_ltq(0.99, 30) == pytest.approx(0.3515, abs=5e-4)

    def test_guard_returns_zero(self):
        assert kuiper_ltq(0.00005, 30) == 0.0
        assert kuiper_ltq(0.0001, 30) == 0.0
        assert kuiper_ltq(0.0, 30) == 0.0

    @pytest.mark.parametrize("alpha", [-2.0, 1.0, 1.5, math.nan])
    def test_rejects_alpha_outside_range(self, alpha):
        # The message names the caller's level, not its complement.
        with pytest.raises(ValueError, match=rf"\[0, 1\), got {alpha!r}"):
            kuiper_ltq(alpha, 30)

    @pytest.mark.parametrize("n", [0, math.nan])
    def test_guard_checks_n(self, n):
        for alpha in (0.00005, 0.5):
            with pytest.raises(ValueError, match="n must be at least 1"):
                kuiper_ltq(alpha, n)

    @pytest.mark.parametrize("n", [17, 30, math.inf])
    @pytest.mark.parametrize(
        "alpha",
        [0.0, 1e-300, math.nextafter(1e-4, 0.0), 1e-4, math.nextafter(1e-4, 1.0), 2e-4,
         0.05, 0.5, 0.95],
    )
    def test_is_upper_tail_quantile_at_complement(self, alpha, n):
        # The upper guard covers every alpha <= 1e-4: 1 - 1e-4 rounds to 0.9999.
        def outcome(quantile, level):
            try:
                return quantile(level, n)
            except KuiperError as exc:
                return type(exc)

        assert outcome(kuiper_ltq, alpha) == outcome(kuiper_utq, 1.0 - alpha)


class TestInverseCdf:
    def test_reference_values(self):
        assert kuiper_inv_cdf(0.95, 30) == pytest.approx(0.3060, abs=5e-4)
        assert kuiper_inv_cdf(0.90, 100) == pytest.approx(0.1584, abs=5e-4)

    def test_tiny_p_routed_to_guard(self):
        assert kuiper_inv_cdf(0.0001, 30) == 0.0
        assert kuiper_inv_cdf(0.0, 30) == 0.0

    def test_p_one_is_unbounded(self):
        with pytest.raises(UnboundedQuantileError):
            kuiper_inv_cdf(1.0, 30)

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_rejects_out_of_range_p(self, p):
        with pytest.raises(ValueError):
            kuiper_inv_cdf(p, 30)

    @pytest.mark.parametrize("n", [10, 30, 100])
    def test_monotone_over_probability_grid(self, n):
        values = [
            kuiper_inv_cdf(0.5 + i * (0.999 - 0.5) / 49, n) for i in range(50)
        ]
        for left, right in zip(values, values[1:]):
            assert right >= left

    @pytest.mark.parametrize("n", [10, 30, 100])
    @pytest.mark.parametrize("p", [0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999])
    def test_complement_identity_exact(self, p, n):
        from_ltq = kuiper_ltq(p, n)
        from_utq = kuiper_utq(1.0 - p, n)
        from_inv = kuiper_inv_cdf(p, n)
        assert from_ltq == from_utq == from_inv

    def test_complement_identity_shares_errors(self):
        # Where the common delegate fails, all three fail identically.
        with pytest.raises(NumericalDomainError):
            kuiper_utq(0.999, 100)
        with pytest.raises(NumericalDomainError):
            kuiper_ltq(0.001, 100)
        with pytest.raises(NumericalDomainError):
            kuiper_inv_cdf(0.001, 100)


class TestBisectionOracle:
    @pytest.mark.parametrize("alpha,n", [(0.10, 10), (0.05, 30), (0.01, 10**6)])
    def test_one_sample_matches_bisection(self, alpha, n):
        pair = kuiper_pair_solver(2.45, alpha, n)
        oracle = bisect_root(lambda c: survival_vn(c, n) - alpha, 0.55, 4.0)
        assert abs(pair.critical_value - oracle) < 1e-5

    @pytest.mark.parametrize("alpha,n", [(0.10, 10), (0.05, 30), (0.01, 10**8)])
    def test_two_sample_matches_bisection(self, alpha, n):
        pair = kuiper_pair_solver(2.45, alpha, n, TestKind.TWO_SAMPLE_EQUAL)
        oracle = bisect_root(lambda c: survival_vnn(c, n) - alpha, 1.0, 5.0)
        assert abs(pair.critical_value - oracle) < 1e-5
