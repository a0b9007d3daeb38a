"""Tests for the one-sample tail approximation and its residual/contraction."""

import importlib
import math

import pytest

from kuiperpair.errors import NumericalDomainError
from kuiperpair.fixed_point import (
    SolverConfig,
    direct_update,
    distance,
    solve_fixed_point,
)
from kuiperpair.survival_vn import (
    a1,
    a2,
    f_ctm1,
    f_nlm1,
    f_ntm1,
    series_survival_vn,
    survival_vn,
)

INF = math.inf


def _solve_newton(alpha, n, guess=2.45):
    return solve_fixed_point(
        direct_update, f_ntm1, distance, SolverConfig(guess=guess), alpha, n
    )[0]


class TestFactors:
    def test_a1_boundary_zero_in_limit(self):
        # -2 + 8 * (1/2)^2 = 0 at the admissibility boundary.
        assert a1(0.5, 10**16) == pytest.approx(0.0, abs=1e-6)

    def test_a1_hand_value(self):
        # -2 + 8/3 + 8 - 32/9 at c = 1, n = 9.
        assert a1(1.0, 9) == pytest.approx(46.0 / 9.0, abs=1e-4)

    def test_a2_boundary_zero_in_limit(self):
        # -2 + 32 * (1/4)^2 = 0.
        assert a2(0.25, INF) == pytest.approx(0.0, abs=1e-6)

    def test_a2_hand_values(self):
        assert a2(1.0, 9) == pytest.approx(-146.0 / 9.0, abs=1e-4)
        assert a2(2.0, 100) == pytest.approx(-2.0 + 6.4 + 128.0 - 4096.0 / 30.0, abs=1e-4)

    @pytest.mark.parametrize("c", [0.6, 1.0, 1.7, 2.5, 3.0])
    def test_limit_factors_exact_and_positive(self, c):
        assert a1(c, INF) == -2.0 + 8.0 * c * c
        assert a2(c, INF) == -2.0 + 32.0 * c * c
        assert a1(c, INF) > 0.0
        assert a2(c, INF) > 0.0

    def test_limit_formulas_at_inf(self):
        # At n = inf the finite-n formulas of every model function of both
        # statistics reduce exactly to the limit formulas.
        # By path: the package re-exports functions named like these modules.
        one = importlib.import_module("kuiperpair.survival_vn")
        two = importlib.import_module("kuiperpair.survival_vnn")
        for c in (1.2, 1.5, 2.0, 3.0):
            x = c * c
            assert a1(c, INF) == -2.0 + 8.0 * x
            assert a2(c, INF) == -2.0 + 32.0 * x
            assert two.u1(c, INF) == 2.0 * (2.0 * x - 1.0)
            assert two.u2(c, INF) == 2.0 * (8.0 * x - 1.0)
            assert one._slopes(c, INF) == (16.0 * c, 64.0 * c)
            assert two._slopes(c, INF) == (8.0 * c, 32.0 * c)
            assert two._factors(c, INF)[3] == 0.0
            assert series_survival_vn(c, INF) == sum(
                2.0 * (4.0 * j * j * x - 1.0) * math.exp(-2.0 * j * j * x) for j in (1, 2))

    @pytest.mark.parametrize("n", [1e16, 2**60])
    @pytest.mark.parametrize("c", [1.5, 3.0])
    def test_large_finite_n_keeps_its_corrections(self, c, n):
        # A finite n, however large, is evaluated at its own value: its
        # 1/sqrt(n) terms move each result off the limit, by a hair.
        for fn in (a1, a2, survival_vn):
            limit = fn(c, INF)
            assert fn(c, n) != limit, (fn.__name__, c, n)
            assert fn(c, n) == pytest.approx(limit, rel=1e-6, abs=0.0)


class TestSurvival:
    @pytest.mark.parametrize(
        "c,expected",
        [(1.60, 0.0520), (1.00, 0.6930)],
    )
    def test_reference_values_n10(self, c, expected):
        assert survival_vn(c, 10) == pytest.approx(expected, abs=5e-4)

    def test_corrected_entry_round_trip(self):
        assert survival_vn(1.9252, 30) == pytest.approx(0.01, abs=5e-4)

    def test_may_leave_unit_interval_outside_validity(self):
        # Large c at small n drives the leading factor negative.
        assert survival_vn(3.0, 5) < 0.0
        # Small c pushes the approximation above 1.
        assert survival_vn(0.6, 30) > 1.0

    @pytest.mark.parametrize("n", [1, 30, 10**6, INF])
    def test_overflowing_factors_raise_typed_error(self, n):
        # Past c ~ 7.1e101 512c^3 overflows and the sum turns NaN; past
        # c ~ 5.6e102 c**3 itself overflows.  Both are refused, not returned.
        for c in (8e101, 6e102, math.nan, INF):
            for fn in (survival_vn, a1, a2):
                with pytest.raises(NumericalDomainError):
                    fn(c, n)
        assert math.isfinite(survival_vn(7e101, n))  # the last c it still evaluates


class TestSeriesForm:
    def test_two_terms_equal_closed_form(self):
        closed = survival_vn(1.6758, 30)
        series = series_survival_vn(1.6758, 30, terms=2)
        assert series == pytest.approx(closed, rel=1e-13)

    def test_extra_terms_negligible(self):
        assert abs(
            series_survival_vn(1.5, 30, terms=10) - series_survival_vn(1.5, 30, terms=2)
        ) < 1e-6

    def test_single_term_historical_value(self):
        # The one-term truncation puts the 1% critical value at 1.9253.
        assert series_survival_vn(1.9253, 30, terms=1) == pytest.approx(0.01, abs=5e-4)

    def test_rejects_zero_terms(self):
        with pytest.raises(ValueError):
            series_survival_vn(1.5, 30, terms=0)

    def test_identity_across_grid(self):
        # 20 c-values x 5 sample sizes, kept clear of the factor sign change.
        ns = (5, 10, 30, 100, 10**6)
        for index in range(20):
            c = 0.6 + index * (2.4 - 0.6) / 19
            for n in ns:
                closed = survival_vn(c, n)
                series = series_survival_vn(c, n, terms=2)
                assert series == pytest.approx(closed, rel=1e-12), (c, n)

    def test_identity_at_larger_c(self):
        for c in (2.6, 3.0):
            for n in (30, 100, 10**6):
                assert series_survival_vn(c, n, 2) == pytest.approx(
                    survival_vn(c, n), rel=1e-12
                )

    def test_infinite_limit_drops_correction(self):
        assert series_survival_vn(1.5, INF, 2) == pytest.approx(
            survival_vn(1.5, INF), rel=1e-13
        )


class TestResidual:
    @pytest.mark.parametrize(
        "c,alpha,n",
        [(1.6758, 0.05, 30), (1.9252, 0.01, 30), (2.0009, 0.01, 10**16)],
    )
    def test_vanishes_at_reference_roots(self, c, alpha, n):
        assert abs(f_nlm1(c, alpha, n)) < 1e-3

    def test_domain_error_near_lower_boundary(self):
        # The log argument turns negative below c ~ 0.29 at n = 30.
        with pytest.raises(NumericalDomainError):
            f_nlm1(0.28, 0.05, 30)

    def test_domain_error_large_c_small_n(self):
        with pytest.raises(NumericalDomainError):
            f_nlm1(2.45, 0.05, 5)


class TestContraction:
    def test_fixed_point_alpha_010(self):
        result = solve_fixed_point(
            direct_update, f_ctm1, distance, SolverConfig(guess=1.2), 0.10, 30
        )[0]
        assert result == pytest.approx(1.5503, abs=5e-4)

    def test_fixed_point_alpha_002(self):
        result = solve_fixed_point(
            direct_update, f_ctm1, distance, SolverConfig(guess=1.2), 0.02, 30
        )[0]
        assert result == pytest.approx(1.8235, abs=5e-4)

    @pytest.mark.parametrize("alpha,n", [(0.10, 30), (0.05, 10), (0.01, 100)])
    def test_self_consistency_at_solved_root(self, alpha, n):
        root = _solve_newton(alpha, n)
        assert abs(f_ctm1(root, alpha, n) - root) < 1e-6

    def test_domain_error_propagates(self):
        with pytest.raises(NumericalDomainError):
            f_ctm1(0.28, 0.05, 30)


class TestRootFixedPointEquivalence:
    @pytest.mark.parametrize("alpha,n", [(0.10, 30), (0.05, 30), (0.01, 30)])
    def test_both_small_at_root_both_large_off_root(self, alpha, n):
        root = _solve_newton(alpha, n)
        assert abs(f_nlm1(root, alpha, n)) < 1e-6
        assert abs(f_ctm1(root, alpha, n) - root) < 1e-6
        for offset in (-0.01, 0.01):
            c = root + offset
            assert abs(f_nlm1(c, alpha, n)) >= 1e-6
            assert abs(f_ctm1(c, alpha, n) - c) >= 1e-6


class TestSolvedValueShape:
    def test_monotone_decreasing_in_alpha(self):
        roots = [_solve_newton(k / 100.0, 30) for k in range(1, 11)]
        for smaller_alpha, larger_alpha in zip(roots, roots[1:]):
            assert smaller_alpha > larger_alpha

    def test_nondecreasing_in_n(self):
        roots = [_solve_newton(0.05, n) for n in (10, 20, 30, 40, 100, 180)]
        for left, right in zip(roots, roots[1:]):
            assert right >= left

    @pytest.mark.parametrize("alpha", [0.10, 0.05, 0.01])
    @pytest.mark.parametrize("n", [10, 30, 100, 10**6])
    def test_survival_round_trip(self, alpha, n):
        root = _solve_newton(alpha, n)
        assert survival_vn(root, n) == pytest.approx(alpha, abs=1e-6)
