"""Tests for the combinatorial primitives."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ltfeedback import combinatorics
from ltfeedback.combinatorics import WalleniusParams, log_binomial, wallenius_pmf, wallenius_table
from ltfeedback.simulator import two_layer_config
from oracles import (
    chi_square_pvalue,
    hypergeom_pmf,
    wallenius_integral,
    wallenius_recursive,
    weighted_group_counts,
    weighted_sample_without_replacement,
)


class TestLogBinomial:
    def test_choose_zero_is_one(self):
        assert log_binomial(5, 0) == 0.0

    def test_six_choose_three(self):
        # 6!/(3!3!) = 20
        expected = math.log(math.factorial(6) / (math.factorial(3) * math.factorial(3)))
        assert abs(log_binomial(6, 3) - expected) < 1e-14

    def test_r_above_n_is_log_zero(self):
        assert log_binomial(3, 4) == -math.inf
        assert log_binomial(3, -1) == -math.inf

    def test_matches_exact_integers_up_to_1e4(self):
        rng = np.random.default_rng(7)
        cases = [(10_000, 5_000), (10_000, 1), (10_000, 9_999), (1, 0), (1, 1)]
        cases += [(int(n), int(rng.integers(0, n + 1))) for n in rng.integers(2, 10_001, 40)]
        for n, r in cases:
            exact = math.log(math.comb(n, r))
            # |log error| bounds the relative error of exp(result)
            assert abs(log_binomial(n, r) - exact) <= 1e-12 * max(1.0, exact)

    def test_array_broadcast(self):
        out = log_binomial(10, np.arange(-1, 12))
        assert out.shape == (13,)
        assert out[0] == -math.inf and out[-1] == -math.inf
        assert abs(out[4] - math.log(120)) < 1e-12


class TestHypergeomPmf:
    def test_no_marked_items(self):
        assert hypergeom_pmf(0, 10, 0, 3) == 1.0

    def test_single_symmetric_draw(self):
        assert hypergeom_pmf(1, 2, 1, 1) == pytest.approx(0.5, abs=1e-15)

    def test_enumeration_oracle(self):
        # count 3-subsets of 6 items containing exactly 2 of 3 marked ones
        marked = {0, 1, 2}
        subsets = list(itertools.combinations(range(6), 3))
        want = sum(1 for s in subsets if len(marked & set(s)) == 2) / len(subsets)
        assert want == 0.45
        assert hypergeom_pmf(2, 6, 3, 3) == pytest.approx(0.45, abs=1e-14)

    def test_zero_outside_support(self):
        assert hypergeom_pmf(5, 10, 3, 4) == 0.0
        assert hypergeom_pmf(-1, 10, 3, 4) == 0.0

    def test_sums_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            population = int(rng.integers(1, 501))
            successes = int(rng.integers(0, population + 1))
            draws = int(rng.integers(0, population + 1))
            total = sum(
                hypergeom_pmf(x, population, successes, draws) for x in range(draws + 1)
            )
            assert abs(total - 1.0) < 1e-12

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            hypergeom_pmf(0, 10, 11, 3)
        with pytest.raises(ValueError):
            hypergeom_pmf(0, 10, 3, 11)


class TestWalleniusParams:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            WalleniusParams((5, 5), (1.0,), 3)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            WalleniusParams((5, 5), (1.0, 0.0), 3)

    def test_rejects_overdraw(self):
        with pytest.raises(ValueError):
            WalleniusParams((2, 2), (1.0, 1.0), 5)


class TestWalleniusPmf:
    def test_equal_weights_collapse_to_hypergeometric(self):
        for m1, m2, n in [(6, 4, 5), (50, 50, 10), (30, 70, 40)]:
            params = WalleniusParams((m1, m2), (1.0, 1.0), n)
            for x in range(max(0, n - m2), min(m1, n) + 1):
                want = hypergeom_pmf(x, m1 + m2, m1, n)
                assert wallenius_pmf((x, n - x), params) == pytest.approx(want, abs=1e-10)

    def test_single_weighted_draw(self):
        params = WalleniusParams((50, 50), (9.0, 1.0), 1)
        assert wallenius_pmf((1, 0), params) == pytest.approx(9 * 50 / (9 * 50 + 50), abs=1e-12)
        assert wallenius_pmf((0, 1), params) == pytest.approx(50 / (9 * 50 + 50), abs=1e-12)

    def test_sums_to_one(self):
        cases = [
            ((100, 100), (9.0, 1.0), 60),
            ((80, 120), (0.25, 1.0), 150),
            ((60, 70, 70), (9.0, 3.0, 1.0), 50),
        ]
        for sizes, weights, n in cases:
            params = WalleniusParams(sizes, weights, n)
            total = 0.0
            caps = [range(m + 1) for m in sizes]
            for x in itertools.product(*caps):
                if sum(x) == n:
                    total += wallenius_pmf(x, params)
            assert abs(total - 1.0) < 1e-8

    def test_matches_drawwise_recursion(self):
        cases = [
            ((6, 7), (3.0, 1.0), 5),
            ((10, 5, 8), (9.0, 3.0, 1.0), 7),
            ((4, 4, 4), (1.0, 2.0, 5.0), 9),
            ((12, 9), (0.2, 1.0), 12),
        ]
        for sizes, weights, n in cases:
            params = WalleniusParams(sizes, weights, n)
            for x in itertools.product(*[range(m + 1) for m in sizes]):
                if sum(x) != n:
                    continue
                want = wallenius_recursive(x, sizes, weights)
                assert wallenius_pmf(x, params) == pytest.approx(want, abs=1e-10)

    def test_matches_monte_carlo_urn(self):
        # 10^6 sequential weighted draws; agreement within 3 standard errors
        rng = np.random.default_rng(23)
        n_samples = 1_000_000
        counts = weighted_group_counts(10, (50, 50), (9.0, 1.0), rng, n_samples)
        hits = int((counts[:, 0] == 9).sum())
        p_hat = hits / n_samples
        p = wallenius_pmf((9, 1), WalleniusParams((50, 50), (9.0, 1.0), 10))
        se = math.sqrt(p * (1 - p) / n_samples)
        assert abs(p_hat - p) <= 3 * se

    def test_scale_invariance_matches_weight_ratio_form(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m1, m2 = (int(v) for v in rng.integers(5, 60, 2))
            n = int(rng.integers(1, m1 + m2))
            beta = float(rng.uniform(0.1, 12.0))
            scale = float(rng.uniform(0.01, 50.0))
            x1 = int(rng.integers(max(0, n - m2), min(m1, n) + 1))
            a = wallenius_pmf((x1, n - x1), WalleniusParams((m1, m2), (beta, 1.0), n))
            b = wallenius_pmf(
                (x1, n - x1), WalleniusParams((m1, m2), (beta * scale, scale), n)
            )
            assert a == pytest.approx(b, abs=1e-10)

    def test_rejects_bad_counts(self):
        params = WalleniusParams((5, 5), (2.0, 1.0), 4)
        with pytest.raises(ValueError):
            wallenius_pmf((6, -2), params)
        with pytest.raises(ValueError):
            wallenius_pmf((1, 1), params)


class TestWalleniusTable:
    """The draw-by-draw table against the integral form evaluated by
    quadrature, which shares no code with it."""

    @staticmethod
    def assert_matches_integral(sizes, weights, states):
        table = wallenius_table(tuple(sizes), tuple(float(w) for w in weights))
        for x in states:
            want = wallenius_integral(tuple(x), tuple(sizes), tuple(float(w) for w in weights))
            assert abs(table[tuple(x)] - want) <= 1e-10, (sizes, weights, x)

    def test_c05_grids(self):
        # the cases of test_c05_wallenius_correctness, drawn the same way
        rng = np.random.default_rng(505)
        for _ in range(100):
            m1, m2 = (int(v) for v in rng.integers(1, 101, 2))
            n = int(rng.integers(0, m1 + m2 + 1))
            x = int(rng.integers(max(0, n - m2), min(m1, n) + 1))
            self.assert_matches_integral((m1, m2), (1.0, 1.0), [(x, n - x)])
        for _ in range(30):
            m1, m2 = (int(v) for v in rng.integers(2, 90, 2))
            n = int(rng.integers(1, m1 + m2))
            x = int(rng.integers(max(0, n - m2), min(m1, n) + 1))
            w1, w2 = (float(v) for v in rng.uniform(0.05, 20.0, 2))
            self.assert_matches_integral((m1, m2), (w1, w2), [(x, n - x)])
            self.assert_matches_integral((m1, m2), (w1 / w2, 1.0), [(x, n - x)])
        cases = [
            ((100, 100), (9.0, 1.0), 75),
            ((130, 70), (0.4, 1.0), 110),
            ((60, 70, 70), (9.0, 3.0, 1.0), 55),
        ]
        for sizes, weights, n in cases:
            states = [
                x for x in itertools.product(*[range(m + 1) for m in sizes]) if sum(x) == n
            ]
            self.assert_matches_integral(sizes, weights, states)

    def test_two_layer_states_where_expm1_overflowed(self):
        # alpha=0.5, beta=9: every state at k=80, and at k=400 every split
        # of degrees from 1 to the whole block
        layers = two_layer_config(80, 0.5, 9.0)
        m1, m2 = layers.layer_sizes
        states = [(a, b) for a in range(m1 + 1) for b in range(m2 + 1)]
        self.assert_matches_integral(layers.layer_sizes, layers.weight_ratios, states)
        layers = two_layer_config(400, 0.5, 9.0)
        m1, m2 = layers.layer_sizes
        states = [
            (j, i - j)
            for i in (1, 2, 7, 50, 199, 200, 201, 300, 390, 399, 400)
            for j in range(max(0, i - m2), min(i, m1) + 1)
        ]
        self.assert_matches_integral(layers.layer_sizes, layers.weight_ratios, states)

    def test_three_groups(self):
        sizes, weights = (12, 8, 10), (9.0, 3.0, 1.0)
        states = list(itertools.product(*[range(m + 1) for m in sizes]))
        self.assert_matches_integral(sizes, weights, states)

    def test_levels_are_distributions(self):
        table = wallenius_table((30, 20, 25), (0.5, 4.0, 1.0))
        level = combinatorics.level_sums(table.shape)
        totals = np.bincount(level.ravel(), weights=table.ravel())
        assert np.abs(totals - 1.0).max() <= 1e-12
        assert not table.flags.writeable

    def test_cache_holds_a_fixed_number_of_tables(self):
        bound = combinatorics._WALLENIUS_TABLES
        for beta in np.linspace(0.5, 10.0, 12):
            params = WalleniusParams((20, 30), (float(beta), 1.0), 10)
            wallenius_pmf((5, 5), params)
            assert wallenius_table.cache_info().currsize <= bound
        assert wallenius_table.cache_info().currsize == bound

    def test_urn_above_the_state_budget_allocates_nothing(self):
        # 10^18 states are refused from the sizes alone, before any array
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="1000003000003000001 states"):
                wallenius_table((10**6, 10**6, 10**6), (9.0, 3.0, 1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_urn_just_under_the_state_budget_is_tabulated(self, monkeypatch):
        monkeypatch.setattr(combinatorics, "_WALLENIUS_STATES", 11 * 12 + 1)
        assert wallenius_table((10, 11), (2.7, 1.0)).shape == (11, 12)
        with pytest.raises(ValueError, match="144 states, above the budget of 133"):
            wallenius_table((11, 11), (2.7, 1.0))


class TestWeightedSampling:
    def test_draw_everything(self):
        rng = np.random.default_rng(0)
        out = weighted_sample_without_replacement([1.0, 2.0, 3.0], 3, rng)
        assert sorted(out) == [0, 1, 2]

    def test_uniform_inclusion_frequency(self):
        # equal weights: each index included with probability n/k
        rng = np.random.default_rng(3)
        k, n, trials = 20, 5, 40_000
        counts = np.zeros(k)
        for _ in range(trials):
            counts[weighted_sample_without_replacement(np.ones(k), n, rng)] += 1
        p = n / k
        se = math.sqrt(p * (1 - p) / trials)
        assert np.all(np.abs(counts / trials - p) <= 4 * se)

    def test_group_counts_fit_wallenius_law(self):
        # two weight classes; empirical counts vs the pmf at significance 0.01
        rng = np.random.default_rng(17)
        k, n, beta, trials = 100, 10, 9.0, 100_000
        weights = np.where(np.arange(k) < 50, beta, 1.0)
        base_hits = np.zeros(trials, dtype=np.int64)
        for t in range(trials):
            idx = weighted_sample_without_replacement(weights, n, rng)
            base_hits[t] = int((idx < 50).sum())
        observed = np.bincount(base_hits, minlength=n + 1)
        params = WalleniusParams((50, 50), (beta, 1.0), n)
        probs = np.array([wallenius_pmf((j, n - j), params) for j in range(n + 1)])
        assert chi_square_pvalue(observed, probs) > 0.01

    def test_deterministic_given_seed(self):
        w = np.arange(1.0, 31.0)
        a = weighted_sample_without_replacement(w, 7, np.random.default_rng(99))
        b = weighted_sample_without_replacement(w, 7, np.random.default_rng(99))
        assert np.array_equal(a, b)

    def test_rejects_overdraw(self):
        with pytest.raises(ValueError):
            weighted_sample_without_replacement([1.0, 1.0], 3, np.random.default_rng(0))
