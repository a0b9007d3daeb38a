"""Tests for the generic fixed-point solver, its two updaters and the Newton maps."""

import functools
import math

import pytest

from kuiperpair._common import two_term_newton
from kuiperpair.errors import NonConvergenceError, NumericalDomainError
from kuiperpair.fixed_point import (
    IterationTrace,
    SolverConfig,
    direct_update,
    distance,
    newton_update,
    solve_fixed_point,
)
from kuiperpair.survival_vn import f_ctm1, f_nlm1, f_ntm1
from kuiperpair.survival_vnn import f_nlm2, f_ntm2
from oracles import bisect_root

# (residual, Newton map) of each statistic.
NEWTON_MAPS = {"vn": (f_nlm1, f_ntm1), "vnn": (f_nlm2, f_ntm2)}


class TestDistance:
    def test_absolute_difference(self):
        assert distance(3.0, 5.0) == 2.0

    def test_identity_case(self):
        assert distance(1.2345, 1.2345) == 0.0

    def test_mixed_signs(self):
        assert distance(-1.0, 2.5) == 3.5

    def test_symmetry(self):
        assert distance(0.25, -4.5) == distance(-4.5, 0.25)


class TestSolverConfig:
    def test_defaults(self):
        config = SolverConfig()
        assert config.epsilon == 1e-5
        assert config.guess == 2.45
        assert config.max_iterations == 200
        assert config.derivative_step == 1e-5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0},
            {"epsilon": -1e-6},
            {"guess": 0.0},
            {"max_iterations": 0},
            {"derivative_step": 0.0},
            {"guess": math.nan},
            {"guess": math.inf},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestNewtonUpdate:
    def test_hand_step_on_quadratic(self):
        # f(c) = c^2 - 4 at c = 3: step to 3 - 5/6.
        residual = lambda c, alpha, n: c * c - 4.0
        updated = newton_update(residual, 3.0, 0.0, 0, step=1e-5)
        assert updated == pytest.approx(3.0 - 5.0 / 6.0, abs=1e-3)

    def test_forward_difference_slope_accuracy(self):
        # On f(c) = c^2 at c = 1 the implied slope is 2 + h.
        residual = lambda c, alpha, n: c * c
        updated = newton_update(residual, 1.0, 0.0, 0, step=1e-5)
        implied_slope = 1.0 / (1.0 - updated)
        assert abs(implied_slope - 2.0) < 1e-4

    def test_fixed_at_root(self):
        updater = functools.partial(newton_update, step=1e-5)
        root = solve_fixed_point(
            updater, f_nlm1, distance, SolverConfig(), 0.05, 30
        )[0]
        stepped = newton_update(f_nlm1, root, 0.05, 30)
        assert abs(stepped - root) < 1e-4

    def test_flat_residual_raises(self):
        residual = lambda c, alpha, n: 1.0
        with pytest.raises(NumericalDomainError):
            newton_update(residual, 1.0, 0.0, 0)


class TestNewtonMap:
    @pytest.mark.parametrize("kind", sorted(NEWTON_MAPS))
    @pytest.mark.parametrize("n", [10, 30, 1000, 10**6, math.inf])
    @pytest.mark.parametrize("c", [0.8, 1.1, 1.5, 2.0, 2.5])
    def test_step_matches_central_difference(self, kind, n, c):
        # A wrong hand slope still converges to the right root, so only a
        # step-by-step comparison off the root catches one.
        residual, newton_map = NEWTON_MAPS[kind]
        h = 1e-6
        slope = (residual(c + h, 0.05, n) - residual(c - h, 0.05, n)) / (2 * h)
        step = -residual(c, 0.05, n) / slope
        assert newton_map(c, 0.05, n) - c == pytest.approx(step, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("kind", sorted(NEWTON_MAPS))
    @pytest.mark.parametrize("alpha,n", [(0.10, 10), (0.05, 30), (0.01, math.inf)])
    def test_fixed_at_root(self, kind, alpha, n):
        residual, newton_map = NEWTON_MAPS[kind]
        solved, _ = solve_fixed_point(
            direct_update, newton_map, distance, SolverConfig(), alpha, n
        )
        root = bisect_root(
            lambda c: residual(c, alpha, n), solved - 1e-3, solved + 1e-3, tol=1e-14
        )
        assert abs(newton_map(root, alpha, n) - root) < 1e-12

    def test_zero_slope_raises_domain_error(self):
        # x = c = 1, P = 1, Q = 0, P' = 2 at kappa = 1: the slope
        # 2 kappa c - P'/P is exactly 0.0 in floating point.
        with pytest.raises(NumericalDomainError):
            two_term_newton(1.0, 1.0, 0.05, (1.0, 1.0, 0.0, 0.0), (2.0, 0.0))


class TestDirectUpdate:
    def test_applies_contraction(self):
        assert direct_update(lambda c, a, n: 0.5 * c + 1.0, 2.0, 0.0, 0) == 2.0

    def test_constant_map(self):
        constant = lambda c, a, n: 1.25
        for c in (0.1, 1.0, 7.5):
            assert direct_update(constant, c, 0.0, 0) == 1.25

    def test_one_sample_contraction_moves_toward_root(self):
        value = direct_update(f_ctm1, 1.5, 0.05, 30)
        assert 1.5 < value < 1.8


class TestSolveFixedPoint:
    def test_identity_updater_returns_guess(self):
        updater = lambda f, c, alpha, n: c
        for cap in (200, 1):
            config = SolverConfig(guess=1.7, max_iterations=cap)
            result, trace = solve_fixed_point(updater, f_nlm1, distance, config, 0.5, 10)
            assert result == 1.7
            assert trace.converged
            assert trace.final_distance == 0.0
            assert trace.iterates == (1.7, 1.7)

    def test_newton_reaches_reference_value(self):
        result, trace = solve_fixed_point(
            direct_update, f_ntm1, distance, SolverConfig(), 0.05, 30
        )
        assert result == pytest.approx(1.6758, abs=5e-4)
        assert trace.converged
        assert trace.final_distance < 1e-5

    def test_newton_reproduces_corrected_entry(self):
        result, _ = solve_fixed_point(
            direct_update, f_ntm1, distance, SolverConfig(), 0.01, 30
        )
        assert result == pytest.approx(1.9252, abs=5e-4)

    def test_direct_agrees_with_newton(self):
        direct_result, _ = solve_fixed_point(
            direct_update, f_ctm1, distance, SolverConfig(guess=1.2), 0.05, 30
        )
        assert direct_result == pytest.approx(1.6758, abs=5e-4)

    def test_deterministic_iterates(self):
        args = (direct_update, f_ntm1, distance, SolverConfig(), 0.05, 30)
        first = solve_fixed_point(*args)
        second = solve_fixed_point(*args)
        assert first[1].iterates == second[1].iterates

    @pytest.mark.parametrize("alpha,n", [(0.10, 10), (0.05, 30), (0.01, 100)])
    def test_convergence_certificate(self, alpha, n):
        config = SolverConfig()
        result, trace = solve_fixed_point(
            direct_update, f_ntm1, distance, config, alpha, n
        )
        assert trace.converged
        assert distance(f_ntm1(result, alpha, n), result) < config.epsilon

    def test_divergent_updater_raises_within_cap(self):
        runaway = lambda f, c, alpha, n: c + 1.0
        for cap in (200, 1):
            config = SolverConfig(guess=1.0, max_iterations=cap)
            with pytest.raises(NonConvergenceError) as excinfo:
                solve_fixed_point(runaway, f_nlm1, distance, config, 0.05, 30)
            trace = excinfo.value.trace
            assert isinstance(trace, IterationTrace)
            assert not trace.converged
            assert len(trace.iterates) == config.max_iterations + 1

    def test_nan_iterate_never_converges(self):
        to_nan = lambda f, c, alpha, n: math.nan
        config = SolverConfig(max_iterations=3)
        with pytest.raises(NonConvergenceError) as excinfo:
            solve_fixed_point(to_nan, f_nlm1, distance, config, 0.05, 30)
        assert len(excinfo.value.trace.iterates) == 4

    def test_overflow_becomes_domain_error(self):
        def overflow(f, c, alpha, n):
            return c**1000
        with pytest.raises(NumericalDomainError) as excinfo:
            solve_fixed_point(overflow, f_nlm1, distance, SolverConfig(), 0.05, 30)
        assert isinstance(excinfo.value.__cause__, OverflowError)

    def test_trace_length_bounded(self):
        _, trace = solve_fixed_point(
            direct_update, f_ctm1, distance, SolverConfig(guess=1.2), 0.10, 30
        )
        assert len(trace.iterates) <= SolverConfig().max_iterations + 1
        assert trace.iterates[0] == 1.2


class TestMethodAgreement:
    @pytest.mark.parametrize("n", [10, 20, 30, 40, 100])
    def test_newton_direct_agree_across_alpha_grid(self, n):
        # Both methods from fixed guesses above MIN_ADMISSIBLE_ROOTS (0.5 for vn).
        for k in range(1, 11):
            alpha = k / 100.0
            newton_c, _ = solve_fixed_point(
                direct_update, f_ntm1, distance, SolverConfig(guess=1.8), alpha, n
            )
            direct_c, _ = solve_fixed_point(
                direct_update, f_ctm1, distance, SolverConfig(guess=1.5), alpha, n
            )
            assert abs(newton_c - direct_c) < 1e-4, (
                f"methods disagree at alpha={alpha}, n={n}: "
                f"{newton_c!r} vs {direct_c!r}"
            )
