"""Tests for the equal-size two-sample tail approximation."""

import math

import pytest

from kuiperpair.errors import NumericalDomainError
from kuiperpair.fixed_point import (
    SolverConfig,
    direct_update,
    distance,
    solve_fixed_point,
)
from kuiperpair.survival_vnn import (
    f_ctm2,
    f_nlm2,
    f_ntm2,
    survival_vnn,
    u1,
    u2,
)
from oracles import series_survival_vnn
from reference_tables import VNN_GRID_ALPHAS, VNN_GRID_NS

INF = math.inf


def _solve_newton(alpha, n, guess=2.45):
    return solve_fixed_point(
        direct_update, f_ntm2, distance, SolverConfig(guess=guess), alpha, n
    )[0]


class TestFactors:
    def test_u1_limit(self):
        assert u1(1.0, INF) == 2.0

    def test_u1_hand_value(self):
        # x = 4: 2*7 - 4*1/60; the series' -1/(6n) sits outside U1.
        assert u1(2.0, 10) == pytest.approx(14.0 - 4.0 / 60.0, abs=1e-12)

    def test_u2_limit(self):
        assert u2(1.0, INF) == 14.0

    def test_u2_hand_value(self):
        assert u2(1.0, 3) == pytest.approx(13.7778, abs=1e-4)

    def test_u2_leading_term_zero(self):
        # At c^2 = 1/8 the 2(8x-1) term vanishes, leaving -2x(8x-7)/(3n).
        c = math.sqrt(1.0 / 8.0)
        assert u2(c, 10) == pytest.approx(0.05, abs=1e-12)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 3.0])
    def test_limits_exact(self, c):
        x = c * c
        assert u1(c, INF) == 2.0 * (2.0 * x - 1.0)
        assert u2(c, INF) == 2.0 * (8.0 * x - 1.0)

    @pytest.mark.parametrize("c", [2.0, 3.0])
    def test_large_finite_n_keeps_its_correction(self, c):
        # u2's 1/n term still moves it off the limit at n = 1e16; u1's, four
        # times smaller, rounds away there.
        assert u2(c, 1e16) != u2(c, INF)

    def test_limit_path_skips_exponential(self):
        # No exp(c^2) is evaluated in the exact limit, so large c is fine.
        assert u1(30.0, INF) == 2.0 * (2.0 * 900.0 - 1.0)

    def test_no_exp_c2_at_large_c(self):
        # c^2 = 729: exp(c^2) is not representable, and none is formed.
        assert math.isfinite(survival_vnn(27.0, 10))
        assert math.isfinite(f_nlm2(27.0, 0.05, 1000))
        assert math.isfinite(f_ctm2(27.0, 0.05, 1000))
        # At n = 10 the polynomial U1 is negative there: a typed domain error.
        for form in (f_nlm2, f_ctm2):
            with pytest.raises(NumericalDomainError):
                form(27.0, 0.05, 10)


class TestSurvival:
    @pytest.mark.parametrize(
        "c,n,expected",
        [
            (2.2740, 30, 0.10),
            (2.7351, 30, 0.01),
            (2.4430, 30, 0.05),
            (2.2905, 10**16, 0.10),
        ],
    )
    def test_reference_values(self, c, n, expected):
        assert survival_vnn(c, n) == pytest.approx(expected, abs=5e-4)

    @pytest.mark.parametrize("c", [1.0, 1.5, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize("n", [5, 10, 30, 100, INF])
    def test_matches_term_by_term_oracle(self, c, n):
        assert survival_vnn(c, n) == pytest.approx(
            series_survival_vnn(c, n, terms=2), rel=1e-12
        )

    @pytest.mark.parametrize("n", [1, 30, 10**6, INF])
    def test_overflowing_factors_raise_typed_error(self, n):
        # Past c ~ 5.8e76 x(2x - 7) and 2x(8x - 7) overflow: U2 would read
        # -inf and the survival NaN.  Both are refused, not returned.
        for c in (7e76, 1e200, math.nan, INF):
            for fn in (survival_vnn, u1, u2):
                with pytest.raises(NumericalDomainError):
                    fn(c, n)
        assert math.isfinite(survival_vnn(5e76, n))  # the last c it still evaluates


class TestResidualAndContraction:
    @pytest.mark.parametrize(
        "c,alpha,n",
        [(2.4430, 0.05, 30), (2.6124, 0.01, 10)],
    )
    def test_residual_vanishes_at_reference_roots(self, c, alpha, n):
        assert abs(f_nlm2(c, alpha, n)) < 1e-3

    @pytest.mark.parametrize("alpha,n", [(0.10, 30), (0.05, 10), (0.01, 100)])
    def test_contraction_self_consistent_at_root(self, alpha, n):
        root = _solve_newton(alpha, n)
        assert abs(f_ctm2(root, alpha, n) - root) < 1e-6

    @pytest.mark.parametrize("alpha,n", [(0.10, 30), (0.01, 30)])
    def test_root_fixed_point_equivalence(self, alpha, n):
        root = _solve_newton(alpha, n)
        assert abs(f_nlm2(root, alpha, n)) < 1e-6
        for offset in (-0.01, 0.01):
            c = root + offset
            assert abs(f_nlm2(c, alpha, n)) >= 1e-6
            assert abs(f_ctm2(c, alpha, n) - c) >= 1e-6

    @pytest.mark.parametrize("alpha", VNN_GRID_ALPHAS)
    @pytest.mark.parametrize("n", VNN_GRID_NS)
    def test_contraction_slope_below_one_at_root(self, alpha, n):
        # Direct iteration converges only where the map contracts at its root.
        root = _solve_newton(alpha, n)
        h = 1e-5
        slope = (f_ctm2(root + h, alpha, n) - f_ctm2(root - h, alpha, n)) / (2 * h)
        assert abs(slope) < 1.0

    def test_domain_error_for_tiny_c(self):
        # U1 + U2 exp(-3c^2) < 0 near c = 0.
        with pytest.raises(NumericalDomainError):
            f_nlm2(0.05, 0.05, 30)

    def test_contraction_domain_error_for_tiny_c(self):
        with pytest.raises(NumericalDomainError):
            f_ctm2(0.05, 0.05, 30)


class TestSolvedValueShape:
    def test_monotone_decreasing_in_alpha(self):
        roots = [_solve_newton(k / 100.0, 30) for k in range(1, 11)]
        for smaller_alpha, larger_alpha in zip(roots, roots[1:]):
            assert smaller_alpha > larger_alpha

    @pytest.mark.parametrize("alpha", [0.10, 0.05, 0.01])
    @pytest.mark.parametrize("n", [10, 30, 100, 10**8])
    def test_survival_round_trip(self, alpha, n):
        root = _solve_newton(alpha, n)
        assert survival_vnn(root, n) == pytest.approx(alpha, abs=1e-6)
