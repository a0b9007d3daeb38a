"""Tests for the empirical statistic kernels, decisions and the simulator."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kuiperpair import empirical
from kuiperpair.empirical import (
    _BLOCK,
    _PRUNE_MIN,
    _THRESHOLD_CACHE_SIZE,
    EmpiricalResult,
    _deviations,
    _threshold,
    approximate_p_value,
    kuiper_statistic_one_sample,
    kuiper_statistic_two_sample,
    monte_carlo_exceedance,
    run_test,
)
from kuiperpair.errors import (
    EmptyInputError,
    InadmissibleRootError,
    KuiperError,
    LengthMismatchError,
    NumericalDomainError,
    OutOfRangeError,
    UnsortedInputError,
)
from kuiperpair.quantile import (
    DEFAULT_GUESS,
    TestKind,
    kuiper_pair_solver,
    kuiper_utq,
)
from oracles import counting_one_sample, counting_two_sample, merge_two_sample

# Fixed example sequence: the suite stays deterministic and needs no database.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)
# A coarse grid makes ties within and across samples the common case.
TIED = st.integers(0, 8).map(lambda k: k / 8)


class TestOneSampleStatistic:
    def test_single_midpoint_value(self):
        result = kuiper_statistic_one_sample([0.5])
        assert result.d_plus == 0.5
        assert result.d_minus == 0.5
        assert result.v == 1.0
        assert result.k == 1.0
        assert result.n == 1

    def test_evenly_spaced_grid_is_symmetric(self):
        n = 9
        grid = [(i + 1) / (n + 1) for i in range(n)]
        result = kuiper_statistic_one_sample(grid)
        # max_i i/90 = 0.1 on both sides.
        assert result.d_plus == pytest.approx(0.1, abs=1e-12)
        assert result.d_minus == pytest.approx(0.1, abs=1e-12)
        assert result.d_plus == pytest.approx(result.d_minus, abs=1e-12)

    def test_all_mass_at_zero(self):
        result = kuiper_statistic_one_sample([0.0] * 5)
        assert result.d_plus == 1.0
        assert result.d_minus == 0.0
        assert result.v == 1.0

    def test_additivity_and_scaling(self):
        values = [0.05, 0.21, 0.34, 0.58, 0.91]
        result = kuiper_statistic_one_sample(values)
        assert result.v == result.d_plus + result.d_minus
        assert result.k == pytest.approx(math.sqrt(5) * result.v)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            kuiper_statistic_one_sample([])

    def test_unsorted_rejected(self):
        with pytest.raises(UnsortedInputError):
            kuiper_statistic_one_sample([0.2, 0.1, 0.4])

    @pytest.mark.parametrize("values", [[-0.1, 0.5], [0.5, 1.5]])
    def test_out_of_range_rejected(self, values):
        with pytest.raises(OutOfRangeError):
            kuiper_statistic_one_sample(sorted(values))

    def test_nan_rejected(self):
        with pytest.raises(OutOfRangeError):
            kuiper_statistic_one_sample([0.1, math.nan, 0.9])

    @pytest.mark.parametrize("values,bad", [([0.5, 1.5, 0.2], "1.5"), ([0.2, -0.1], "-0.1")])
    def test_out_of_range_beats_unsorted(self, values, bad):
        # Both ends lie in [0, 1] here, so only the elementwise check finds the value.
        with pytest.raises(OutOfRangeError, match=f"value {bad} outside"):
            kuiper_statistic_one_sample(values)

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 12345])
    def test_deviations_match_the_position_formula_bit_for_bit(self, n):
        u = np.sort(np.random.default_rng(n).random((3, n)), axis=1)
        positions = np.arange(1.0, n + 1.0)
        for sample in (u, u[0]):
            d_plus = np.maximum((positions / n - sample).max(axis=-1), 0.0)
            d_minus = np.maximum((sample - (positions - 1.0) / n).max(axis=-1), 0.0)
            got_plus, got_minus = _deviations(sample)
            assert got_plus.tobytes() == d_plus.tobytes()
            assert got_minus.tobytes() == d_minus.tobytes()

    def test_peak_memory_per_input_value(self):
        # One n + 1 grid and one difference array at a time: about 16 B per
        # value; a separate elementwise range check and grid per side need 25 B.
        n = 10**5
        u = np.sort(np.random.default_rng(17).random(n))
        kuiper_statistic_one_sample(u[:10])  # numpy already imported
        tracemalloc.start()
        try:
            kuiper_statistic_one_sample(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n <= 20.0

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(1234)
        for size in (1, 2, 7, 40):
            values = np.sort(rng.random(size))
            result = kuiper_statistic_one_sample(values)
            oracle_plus, oracle_minus = counting_one_sample(list(values))
            assert result.d_plus == pytest.approx(oracle_plus, abs=1e-12)
            assert result.d_minus == pytest.approx(oracle_minus, abs=1e-12)

    def test_matches_counting_oracle_with_ties(self):
        rng = np.random.default_rng(99)
        for size in (5, 23):
            values = np.sort(np.round(rng.random(size), 1))
            result = kuiper_statistic_one_sample(values)
            oracle_plus, oracle_minus = counting_one_sample(list(values))
            assert result.d_plus == pytest.approx(oracle_plus, abs=1e-12)
            assert result.d_minus == pytest.approx(oracle_minus, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 17, 64])
    def test_range_bounds(self, n):
        rng = np.random.default_rng(n)
        values = np.sort(rng.random(n))
        result = kuiper_statistic_one_sample(values)
        assert 0.0 <= result.d_plus <= 1.0
        assert 0.0 <= result.d_minus <= 1.0
        assert 0.0 <= result.v <= 2.0

    @pytest.mark.parametrize("delta", [0.1, 0.37, 0.77])
    def test_cyclic_rotation_smoke(self, delta):
        # The continuous statistic is rotation-invariant; at the discrete
        # level a uniform grid must move by less than 2/n.
        n = 50
        grid = np.arange(1.0, n + 1.0) / (n + 1.0)
        base = kuiper_statistic_one_sample(grid).v
        rotated = np.sort((grid + delta) % 1.0)
        assert abs(kuiper_statistic_one_sample(rotated).v - base) < 2.0 / n


class TestTwoSampleStatistic:
    def test_identical_samples(self):
        result = kuiper_statistic_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.d_plus == 0.0
        assert result.d_minus == 0.0
        assert result.v == 0.0

    def test_fully_separated(self):
        result = kuiper_statistic_two_sample([1.0, 2.0], [3.0, 4.0])
        assert result.d_plus == 1.0
        assert result.d_minus == 0.0
        assert result.v == 1.0

    def test_interleaved(self):
        result = kuiper_statistic_two_sample([1.0, 3.0], [2.0, 4.0])
        assert result.d_plus == 0.5
        assert result.d_minus == 0.0
        assert result.v == 0.5

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            kuiper_statistic_two_sample([], [1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatchError):
            kuiper_statistic_two_sample([1.0], [1.0, 2.0])

    def test_unsorted_rejected(self):
        with pytest.raises(UnsortedInputError):
            kuiper_statistic_two_sample([2.0, 1.0], [1.0, 2.0])

    @pytest.mark.parametrize(
        "a,b",
        [
            ([math.nan, 1.0], [0.0, 1.0]),
            ([0.0, 1.0], [0.0, math.nan]),
            ([math.nan], [0.5]),
            ([0.5], [math.nan]),
        ],
    )
    def test_nan_rejected(self, a, b):
        with pytest.raises(UnsortedInputError):
            kuiper_statistic_two_sample(a, b)

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError, match="expected a 1-D sequence"):
            kuiper_statistic_two_sample([[0.1, 0.2], [0.3, 0.4]], [[0.1, 0.2], [0.3, 0.5]])

    def test_tied_infinities_accepted(self):
        result = kuiper_statistic_two_sample([0.0, math.inf, math.inf], [0.0, 1.0, 2.0])
        assert result.v == pytest.approx(2.0 / 3.0)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(7)
        for size in (2, 9, 25):
            a = np.sort(rng.normal(size=size))
            b = np.sort(rng.normal(loc=0.4, size=size))
            result = kuiper_statistic_two_sample(a, b)
            oracle_plus, oracle_minus = counting_two_sample(list(a), list(b))
            assert result.d_plus == pytest.approx(oracle_plus, abs=1e-12)
            assert result.d_minus == pytest.approx(oracle_minus, abs=1e-12)

    def test_matches_counting_oracle_with_ties(self):
        a = [0.0, 0.0, 1.0, 2.0, 2.0]
        b = [0.0, 1.0, 1.0, 1.0, 3.0]
        result = kuiper_statistic_two_sample(a, b)
        oracle_plus, oracle_minus = counting_two_sample(a, b)
        assert result.d_plus == pytest.approx(oracle_plus, abs=1e-12)
        assert result.d_minus == pytest.approx(oracle_minus, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(21)
        a = np.sort(rng.normal(size=12))
        b = np.sort(rng.normal(loc=0.5, size=12))
        base = kuiper_statistic_two_sample(a, b)
        for transform in (lambda x: 3.0 * x - 1.0, np.exp, lambda x: x**3):
            mapped = kuiper_statistic_two_sample(transform(a), transform(b))
            assert mapped.d_plus == base.d_plus
            assert mapped.d_minus == base.d_minus
            assert mapped.v == base.v


def _merge_cases(n, seed):
    """Seeded sorted sample pairs of size n, one per shape of tie."""
    rng = np.random.default_rng(seed)
    a, b = np.sort(rng.random(n)), np.sort(rng.random(n))
    # Signed zeros compare equal, so -0.0 and 0.0 tie within and across samples.
    specials = np.array([-np.inf, -0.0, 0.0, np.inf])
    shared = rng.choice(np.arange(10.0), rng.integers(3, 6), replace=False)
    return {
        "untied": (a, b),
        "rounded": (np.round(a, 2), np.round(b, 2)),
        "all_equal": (np.full(n, 0.5), np.full(n, 0.5)),
        "a_below_b": (a, a + 2.0),
        "b_below_a": (b + 2.0, b),
        "inf_and_zero_ties": tuple(
            np.sort(np.where(rng.random(n) < 0.5, rng.choice(specials, n), x)) for x in (a, b)
        ),
        # b holds nearly every key of a, so nearly every key is searched again.
        "shared_values": tuple(np.sort(rng.choice(shared, n)) for _ in range(2)),
        # #b < x is n at a's top key alone.
        "a_top_above_b": (np.append(np.minimum(a[:-1], b[-1]), b[-1] + 1.0), b),
        # F_a - F_b stays flat, so every block's bound reaches the best end term.
        "identical": (a, a.copy()),
        "interleaved": (2.0 * np.arange(n), 2.0 * np.arange(n) + 1.0),  # a_i < b_i < a_i+1
        "shifted": (a, b + 0.05),
        # A quarter of a at its minimum: D+ is attained at k = 0.
        "first_value_heavy": (np.where(np.arange(n) < n // 4, a[0], a), b),
        # Three ties leave n - 3 distinct values, so at n = 10^5 the last block is
        # partial; D- = 5 sits in it, at the first of a's five top values, above b.
        "top_in_partial_block": (
            np.concatenate([np.full(min(n, 4), a[0] / 2), a[4:n - 5] / 2,
                            1.0 + np.arange(min(5, max(n - 4, 0)))]), b),
    }


class TestTwoSampleAgainstMerge:
    # From 10^4 on, a's distinct values reach _PRUNE_MIN and the block bounds
    # run; 10^4 is no multiple of _BLOCK, so its last block is partial.
    @pytest.mark.parametrize("n", [1, 2, 10**3, 10**4, 10**5])
    @pytest.mark.parametrize(
        "case",
        ["untied", "rounded", "all_equal", "a_below_b", "b_below_a", "inf_and_zero_ties",
         "shared_values", "a_top_above_b", "identical", "interleaved", "shifted",
         "first_value_heavy", "top_in_partial_block"],
    )
    def test_matches_merge_oracle(self, n, case):
        a, b = _merge_cases(n, seed=n)[case]
        result = kuiper_statistic_two_sample(a, b)
        assert (result.d_plus, result.d_minus) == merge_two_sample(a.tolist(), b.tolist())
        for d in (result.d_plus, result.d_minus):
            assert d == round(d * n) / n  # a whole count over n
        assert result.v == result.d_plus + result.d_minus
        assert result.k == math.sqrt(n) * result.v

    def test_shapes_reach_the_pruned_path(self):
        n = 10**5
        cases = _merge_cases(n, seed=n)
        a, b = cases["first_value_heavy"]
        result = kuiper_statistic_two_sample(a, b)
        assert result.d_plus * n == n // 4 - np.count_nonzero(b <= a[0])  # at k = 0
        a, b = cases["top_in_partial_block"]
        keys = np.unique(a).size
        assert keys >= _PRUNE_MIN and keys % _BLOCK
        assert kuiper_statistic_two_sample(a, b).d_minus * n == 5

    @pytest.mark.parametrize("case", ["untied", "shared_values"])
    def test_b_is_searched_once_in_full(self, case, monkeypatch):
        # One search at every distinct value of a; the <= search sees only
        # the keys that b holds, so none on untied input.
        a, b = _merge_cases(1000, seed=3)[case]
        searched = []
        search = np.searchsorted

        def counting_search(sorted_values, keys, side="left"):
            searched.append(np.size(keys))
            return search(sorted_values, keys, side=side)

        monkeypatch.setattr(np, "searchsorted", counting_search)
        kuiper_statistic_two_sample(a, b)
        keys = np.unique(a)
        assert searched == [keys.size, np.isin(keys, b).sum()]

    def test_searches_only_blocks_that_can_hold_the_extremes(self, monkeypatch):
        # On untied uniforms at n = 10^5 the block ends and the few blocks whose
        # bounds beat them are 4-9 % of a's distinct values; all of them is 100 %.
        n = 10**5
        rng = np.random.default_rng(18)
        a, b = np.sort(rng.random(n)), np.sort(rng.random(n))
        searched = []
        search = np.searchsorted

        def counting_search(sorted_values, keys, side="left"):
            searched.append(np.size(keys))
            return search(sorted_values, keys, side=side)

        monkeypatch.setattr(np, "searchsorted", counting_search)
        result = kuiper_statistic_two_sample(a, b)
        assert sum(searched) <= 0.25 * np.unique(a).size
        assert (result.d_plus, result.d_minus) == merge_two_sample(a.tolist(), b.tolist())

    def test_peak_memory_per_input_value(self):
        # About 12.5 B per input value on the pruned path this size takes: a's
        # distinct values and their <= counts (8 B each per value of a), then
        # the block-end and surviving-block searches, a few % of a.  The one
        # full search, below _PRUNE_MIN distinct values, holds about 16.5 B:
        # #b < x counts, b at those counts and the tie mask on top.  Searching
        # each sample's distinct values in the other needed 24 B; building the
        # merged grid of both, 40-46 B.
        n = 10**5
        rng = np.random.default_rng(13)
        a, b = np.sort(rng.random(n)), np.sort(rng.random(n))
        kuiper_statistic_two_sample(a[:10], b[:10])  # numpy already imported
        tracemalloc.start()
        try:
            kuiper_statistic_two_sample(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (2 * n) <= 32.0


class TestKernelProperties:
    @PROPERTY
    @given(st.lists(TIED, min_size=1, max_size=60))
    def test_one_sample_matches_counting_oracle(self, values):
        values.sort()
        result = kuiper_statistic_one_sample(values)
        oracle_plus, oracle_minus = counting_one_sample(values)
        assert result.d_plus == pytest.approx(oracle_plus, abs=1e-12)
        assert result.d_minus == pytest.approx(oracle_minus, abs=1e-12)

    @PROPERTY
    @given(st.lists(st.tuples(TIED, TIED), min_size=1, max_size=60))
    def test_two_sample_matches_counting_oracle(self, pairs):
        a, b = (sorted(sample) for sample in zip(*pairs))
        result = kuiper_statistic_two_sample(a, b)
        oracle_plus, oracle_minus = counting_two_sample(a, b)
        assert result.d_plus == pytest.approx(oracle_plus, abs=1e-12)
        assert result.d_minus == pytest.approx(oracle_minus, abs=1e-12)

    @PROPERTY
    @given(st.lists(st.tuples(TIED, TIED), min_size=1, max_size=60))
    def test_two_sample_swap_exchanges_d_plus_and_d_minus(self, pairs):
        # D- is read from a's side as #b < x, D+ as #b <= x; swapping the
        # samples pins each against the other, exactly.
        a, b = (sorted(sample) for sample in zip(*pairs))
        forward = kuiper_statistic_two_sample(a, b)
        swapped = kuiper_statistic_two_sample(b, a)
        assert forward.d_minus == swapped.d_plus
        assert forward.d_plus == swapped.d_minus

    @PROPERTY
    @pytest.mark.parametrize("block", [2, 3])
    @given(st.integers(1, 64).flatmap(lambda top: st.lists(
        st.tuples(st.integers(0, top), st.integers(0, top)), min_size=1, max_size=60)))
    def test_two_sample_block_bounds_on_small_tied_lists(self, block, pairs):
        # Blocks of 2 or 3 from 2 distinct values on, so these lists run the
        # bounds and the pruned search; the ints make ties likely.
        a, b = (np.sort(np.array(sample, dtype=float)) for sample in zip(*pairs))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(empirical, "_BLOCK", block)
            patch.setattr(empirical, "_PRUNE_MIN", 2)
            forward = kuiper_statistic_two_sample(a, b)
            swapped = kuiper_statistic_two_sample(b, a)
        assert (forward.d_plus, forward.d_minus) == merge_two_sample(a.tolist(), b.tolist())
        assert (swapped.d_plus, swapped.d_minus) == (forward.d_minus, forward.d_plus)

    @PROPERTY
    @given(st.integers(1, 40), st.none() | st.floats(0.0, 1.0), st.integers(1, 40),
           st.integers(0, 2**32))
    def test_simulator_counts_one_sample_statistics(self, n, threshold, reps, seed):
        # One chunk: the simulator's rows are these rows, in this order.
        rows = np.sort(np.random.default_rng(seed).random((reps, n)), axis=1)
        statistics = [kuiper_statistic_one_sample(row).v for row in rows]
        if threshold is None:  # exactly on a simulated value, which does not exceed it
            threshold = statistics[0]
        exceeded = sum(v > threshold for v in statistics)
        assert monte_carlo_exceedance(n, threshold, reps, seed) == exceeded / reps


class TestRunTest:
    def test_rejects_large_statistic(self):
        result = EmpiricalResult(0.2, 0.2, 0.40, 0.40 * math.sqrt(30), 30)
        decision = run_test(result, 0.05, TestKind.ONE_SAMPLE)
        assert decision.reject
        assert decision.quantile == pytest.approx(0.3060, abs=5e-4)

    def test_zero_statistic_never_rejects(self):
        result = EmpiricalResult(0.0, 0.0, 0.0, 0.0, 30)
        assert not run_test(result, 0.10, TestKind.ONE_SAMPLE).reject

    def test_boundary_equality_accepts(self):
        quantile = kuiper_utq(0.01, 30)
        result = EmpiricalResult(
            quantile / 2, quantile / 2, quantile, quantile * math.sqrt(30), 30
        )
        decision = run_test(result, 0.01, TestKind.ONE_SAMPLE)
        assert decision.quantile == quantile
        assert not decision.reject

    def test_two_sample_kind_uses_matching_quantile(self):
        result = EmpiricalResult(0.3, 0.2, 0.5, 0.5 * math.sqrt(30), 30)
        decision = run_test(result, 0.05, TestKind.TWO_SAMPLE_EQUAL)
        assert decision.quantile == pytest.approx(0.4460, abs=5e-4)
        assert decision.reject

    @pytest.mark.parametrize("kind", list(TestKind))
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 0.0, math.nan])
    def test_one_alpha_rule_for_both_kinds(self, kind, alpha):
        result = EmpiricalResult(0.01, 0.01, 0.02, 0.11, 30)
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            run_test(result, alpha, kind)

    # The benchmark's decision keys: four small sizes, then the log-midpoints
    # of twelve strata over [1e5, 1e6], and 1e6 itself.
    DECISION_NS = (100, 200, 500, 1000, 110069, 133352, 161559, 195734, 237137, 287298,
                   348070, 421696, 510896, 618965, 749894, 908517, 10**6)

    @pytest.mark.parametrize("kind", list(TestKind))
    def test_memoised_threshold_is_the_direct_solve(self, kind):
        _threshold.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for alpha in (0.10, 0.05, 0.01):
                for n in self.DECISION_NS:
                    direct = kuiper_pair_solver(DEFAULT_GUESS, alpha, n, kind).quantile
                    result = EmpiricalResult(0.0, 0.0, 0.0, 0.0, n)
                    for _ in range(2):
                        assert run_test(result, alpha, kind).quantile == direct

    @pytest.mark.parametrize("kind", list(TestKind))
    @pytest.mark.parametrize("alpha", [0.9999, 0.99995])
    @pytest.mark.parametrize("n", [5, 30, 100])
    def test_guard_alphas_decide_with_the_solved_quantile(self, kind, alpha, n):
        # kuiper_utq's 0.9999 guard returns 0.0, below V_n's minimum 1/n;
        # a decision must use the solve, or raise as it does.
        _threshold.cache_clear()
        result = EmpiricalResult(0.01, 0.01, 0.02, 0.02 * math.sqrt(n), n)
        try:
            expected = kuiper_pair_solver(DEFAULT_GUESS, alpha, n, kind).quantile
        except KuiperError as exc:
            with pytest.raises(type(exc)):
                run_test(result, alpha, kind)
        else:
            assert expected > 0.0
            assert run_test(result, alpha, kind).quantile == expected

    @pytest.mark.parametrize(
        "kind,alpha,n,error",
        [
            (TestKind.ONE_SAMPLE, 0.05, 2, NumericalDomainError),
            (TestKind.TWO_SAMPLE_EQUAL, 0.01, 5, InadmissibleRootError),
        ],
    )
    def test_refused_solve_raises_on_every_call(self, kind, alpha, n, error):
        result = EmpiricalResult(0.1, 0.1, 0.2, 0.2 * math.sqrt(n), n)
        messages = []
        for _ in range(2):
            with pytest.raises(error) as caught:
                run_test(result, alpha, kind)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("kind", list(TestKind))
    def test_integral_and_float_n_share_a_threshold(self, kind):
        _threshold.cache_clear()
        as_float = run_test(EmpiricalResult(0.1, 0.1, 0.2, 1.1, 30.0), 0.05, kind).quantile
        _threshold.cache_clear()
        as_int = run_test(EmpiricalResult(0.1, 0.1, 0.2, 1.1, 30), 0.05, kind).quantile
        assert as_float == as_int

    def test_memo_is_bounded(self):
        _threshold.cache_clear()
        result = EmpiricalResult(0.0, 0.0, 0.0, 0.0, 1000)
        for i in range(_THRESHOLD_CACHE_SIZE + 20):
            run_test(result, (i + 1) / 1000, TestKind.ONE_SAMPLE)
        assert _threshold.cache_info().currsize == _THRESHOLD_CACHE_SIZE


class TestApproximatePValue:
    def test_reference_tail_value(self):
        k = 1.60
        result = EmpiricalResult(0.25, 0.25, k / math.sqrt(10), k, 10)
        assert approximate_p_value(result) == pytest.approx(0.0520, abs=5e-4)

    def test_clamped_to_unit_interval(self):
        tiny = EmpiricalResult(0.05, 0.05, 0.6 / math.sqrt(30), 0.6, 30)
        huge = EmpiricalResult(0.9, 0.9, 9.0 / math.sqrt(30), 9.0, 30)
        assert 0.0 <= approximate_p_value(tiny) <= 1.0
        assert approximate_p_value(huge) == 0.0


class TestMonteCarlo:
    def test_threshold_above_support_gives_zero(self):
        assert monte_carlo_exceedance(12, 2.0, 500, 3) == 0.0

    def test_single_replication_is_indicator(self):
        assert monte_carlo_exceedance(10, 0.5080, 1, 5) in (0.0, 1.0)

    def test_deterministic_for_fixed_seed(self):
        first = monte_carlo_exceedance(25, 0.35, 4000, 42)
        second = monte_carlo_exceedance(25, 0.35, 4000, 42)
        assert first == second

    def test_matches_target_level(self):
        threshold = kuiper_utq(0.05, 30)
        fraction = monte_carlo_exceedance(30, threshold, 20000, 42)
        assert abs(fraction - 0.05) < 0.012

    def test_small_sample_reference_seed(self):
        fraction = monte_carlo_exceedance(10, 0.5080, 200000, 7)
        assert abs(fraction - 0.05) < 0.012

    def test_input_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_exceedance(0, 0.5, 10, 1)
        with pytest.raises(ValueError):
            monte_carlo_exceedance(10, 0.5, 0, 1)

    @pytest.mark.parametrize(
        "n,threshold,reps,message",
        [
            (2.5, 0.5, 10, "n must be a positive integer"),
            (math.inf, 0.5, 10, "n must be a positive integer"),
            (math.nan, 0.5, 10, "n must be a positive integer"),
            (True, 0.3, 10, "n must be a positive integer"),
            (10, 0.5, 2.5, "replications must be a positive integer"),
            (10, 0.3, True, "replications must be a positive integer"),
            (10, math.nan, 10, "v_threshold must be a number"),
        ],
    )
    def test_rejects_bad_arguments(self, n, threshold, reps, message):
        with pytest.raises(ValueError, match=message):
            monte_carlo_exceedance(n, threshold, reps, 1)
