"""Tests for degree distributions and their receiver-side transforms."""

import math

import numpy as np
import pytest

from ltfeedback import degree
from ltfeedback.codec import Encoder, InputBlock
from ltfeedback.degree import (
    DegreeDistribution,
    LayerConfig,
    RsdParams,
    adaptive_degree_dist,
    ideal_soliton,
    layered_redundancy,
    n_layer_reduced_dist,
    reduced_degree_dist,
    reduced_degree_dist_acked,
    redundancy_curve,
    redundancy_curve_acked,
    redundancy_prob_acked,
    robust_soliton,
    two_layer_reduced_dist,
)
from oracles import (
    adaptive_closed_forms,
    chi_square_pvalue,
    redundancy_closed_forms,
    sample_degrees,
    strip_mixtures,
    tv_distance,
    two_layer_sum,
    uniform_strip_counts,
    weighted_strip_counts,
)

RSD100 = robust_soliton(RsdParams(100, 0.1, 1.0))


def embed(dist: DegreeDistribution, k: int) -> DegreeDistribution:
    """Lift a distribution over a small block into length-k+1 support."""
    pmf = np.zeros(k + 1)
    pmf[: dist.k + 1] = dist.pmf
    return DegreeDistribution(k, pmf)


class TestDegreeDistribution:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            DegreeDistribution(2, [0.0, 0.5, 0.6])

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            DegreeDistribution(2, [0.0, 1.5, -0.5])

    def test_pmf_is_immutable(self):
        with pytest.raises(ValueError):
            RSD100.pmf[1] = 0.5


class TestRobustSoliton:
    def test_single_symbol_block(self):
        dist = robust_soliton(RsdParams(1, 0.1, 0.5))
        assert dist.pmf[1] == 1.0
        # delta = 1 zeroes the spike scale; degenerates to the ideal soliton
        dist = robust_soliton(RsdParams(1, 0.1, 1.0))
        assert dist.pmf[1] == 1.0

    def test_normalized_with_no_degree_zero(self):
        assert RSD100.pmf[0] == 0.0
        assert abs(RSD100.pmf.sum() - 1.0) < 1e-12

    def test_formula_reevaluation(self):
        # independent scripted evaluation, plain floats throughout
        k, c, delta = 100, 0.1, 1.0
        s = c * math.log(k / delta) * math.sqrt(k)
        spike = math.ceil(k / s)
        raw = [0.0] * (k + 1)
        raw[1] = 1.0 / k
        for i in range(2, k + 1):
            raw[i] = 1.0 / (i * (i - 1))
        for i in range(1, spike):
            raw[i] += s / (i * k)
        raw[spike] += s * math.log(s / delta) / k
        z = sum(raw)
        assert spike == 22
        assert RSD100.pmf[1] == pytest.approx(raw[1] / z, abs=1e-15)
        assert RSD100.pmf[spike] == pytest.approx(raw[spike] / z, abs=1e-15)
        # the spike dominates its neighbors
        assert RSD100.pmf[spike] > 3 * RSD100.pmf[spike - 1]
        assert RSD100.pmf[spike] > 3 * RSD100.pmf[spike + 1]

    def test_rejects_spike_scale_beyond_k(self):
        with pytest.raises(ValueError):
            RsdParams(4, 10.0, 0.5)

    def test_cache_is_capped_and_holds_every_size_up_to_k_1000(self):
        # per-symbol acks with the stock distribution rebuild the soliton at
        # every size from k down to 1
        bound = robust_soliton.cache_info().maxsize
        assert bound == 1024
        sizes = range(1000, 0, -1)
        for n in sizes:
            robust_soliton(RsdParams(n, 0.0731, 1.0))
        hits = robust_soliton.cache_info().hits
        for n in sizes:
            robust_soliton(RsdParams(n, 0.0731, 1.0))
        assert robust_soliton.cache_info().hits == hits + len(sizes)
        for n in range(1, 2 * bound):
            robust_soliton(RsdParams(n, 0.0732, 1.0))
            assert robust_soliton.cache_info().currsize <= bound
        assert robust_soliton.cache_info().currsize == bound

    def test_ideal_soliton_shape(self):
        dist = ideal_soliton(5)
        assert dist.pmf[1] == pytest.approx(1 / 5)
        assert dist.pmf[3] == pytest.approx(1 / 6)
        assert abs(dist.pmf.sum() - 1.0) < 1e-12


class TestSampleDegree:
    """The encoder's inverse-CDF degree draw, and the test-side sampler the
    urn oracles start from."""

    def test_point_mass(self):
        dist = DegreeDistribution(5, [0, 0, 0, 1.0, 0, 0])
        rng = np.random.default_rng(0)
        enc = Encoder(InputBlock.random(5, 1, rng), dist, rng)
        assert all(enc.encode_next().degree == 3 for _ in range(50))

    def test_two_point_symmetry(self):
        dist = DegreeDistribution(2, [0, 0.5, 0.5])
        rng = np.random.default_rng(1)
        enc = Encoder(InputBlock.random(2, 1, rng), dist, rng)
        draws = np.array([enc.encode_next().degree for _ in range(100_000)])
        p_hat = (draws == 1).mean()
        se = math.sqrt(0.25 / draws.size)
        assert abs(p_hat - 0.5) <= 3 * se

    def test_rsd_histogram_fits(self):
        rng = np.random.default_rng(2)
        draws = sample_degrees(RSD100, rng, 1_000_000)
        observed = np.bincount(draws, minlength=101)
        assert chi_square_pvalue(observed, RSD100.pmf) > 0.01


class TestReducedDegreeDist:
    def test_nothing_decoded_is_identity(self):
        out = reduced_degree_dist(RSD100, 100)
        assert np.abs(out.pmf - RSD100.pmf).max() < 1e-13
        assert out.pmf[0] == 0.0

    def test_everything_decoded_is_point_mass_at_zero(self):
        out = reduced_degree_dist(RSD100, 0)
        assert out.pmf[0] == pytest.approx(1.0, abs=1e-12)
        assert out.pmf[1:].max() == 0.0

    def test_no_mass_above_undecoded_count(self):
        out = reduced_degree_dist(RSD100, 30)
        assert out.pmf[31:].max() == 0.0

    def test_monte_carlo_oracle(self):
        # stripping simulated as a sequential uniform urn over the block
        rng = np.random.default_rng(4)
        n = 200_000
        degrees = sample_degrees(RSD100, rng, n)
        hits = uniform_strip_counts(degrees, 100, 50, rng)
        observed = np.bincount(hits, minlength=101)
        assert tv_distance(observed, reduced_degree_dist(RSD100, 50).pmf) < 0.02

    def test_redundancy_grows_with_decoding_progress(self):
        p0 = {d: reduced_degree_dist(RSD100, 100 - d).pmf[0] for d in (10, 50, 90)}
        assert p0[10] < p0[50] < p0[90]


class TestRedundancyProbAcked:
    def test_full_ack_limit_matches_encoder_distribution(self):
        # all decoded symbols acknowledged: redundancy equals mass at degree 0
        assert redundancy_prob_acked(RSD100, 20, 80) == 0.0

    def test_nothing_decoded(self):
        assert redundancy_prob_acked(RSD100, 100, 0) == 0.0

    def test_strictly_decreasing_in_acked_count(self):
        for undecoded in (1, 10, 50, 90):
            values = [
                redundancy_prob_acked(RSD100, undecoded, m)
                for m in range(100 - undecoded + 1)
            ]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_agrees_with_full_transform(self):
        for undecoded, acked in [(1, 0), (10, 40), (50, 25), (90, 3)]:
            full = reduced_degree_dist_acked(RSD100, undecoded, acked)
            want = redundancy_prob_acked(RSD100, undecoded, acked)
            assert full.pmf[0] == pytest.approx(want, abs=1e-13)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            redundancy_prob_acked(RSD100, 50, 60)


class TestReducedDegreeDistAcked:
    def test_full_ack_is_identity(self):
        # encoder re-parameterized to the remaining block: stripping is inert
        dist = embed(robust_soliton(RsdParams(40, 0.1, 1.0)), 100)
        out = reduced_degree_dist_acked(dist, 40, 60)
        assert np.abs(out.pmf - dist.pmf).max() < 1e-12

    def test_no_acks_equals_plain_reduction(self):
        a = reduced_degree_dist_acked(RSD100, 30, 0)
        b = reduced_degree_dist(RSD100, 30)
        assert np.abs(a.pmf - b.pmf).max() == 0.0

    def test_monte_carlo_oracle(self):
        # degree from the full-k distribution, clamped to the eligible count;
        # neighbors uniform among the eligible; count hits among undecoded
        k, undecoded, acked = 100, 30, 40
        eligible = k - acked
        rng = np.random.default_rng(8)
        n = 1_000_000
        degrees = np.minimum(sample_degrees(RSD100, rng, n), eligible)
        hits = uniform_strip_counts(degrees, eligible, undecoded, rng)
        observed = np.bincount(hits, minlength=k + 1)
        closed = reduced_degree_dist_acked(RSD100, undecoded, acked)
        assert tv_distance(observed, closed.pmf) < 0.01


class TestAdaptiveDegreeDist:
    def test_nothing_decoded_is_identity(self):
        out = adaptive_degree_dist(RSD100, 100)
        assert np.abs(out.pmf - RSD100.pmf).max() < 1e-13

    def test_no_degree_zero_and_normalized(self):
        out = adaptive_degree_dist(RSD100, 37)
        assert out.k == 37
        assert out.pmf[0] == 0.0
        assert abs(out.pmf.sum() - 1.0) < 1e-9

    def test_equals_truncated_renormalized_reduction(self):
        for undecoded in (1, 7, 40, 99):
            rho = adaptive_degree_dist(RSD100, undecoded)
            reduced = reduced_degree_dist(RSD100, undecoded).pmf
            want = reduced[1 : undecoded + 1] / (1.0 - reduced[0])
            assert np.abs(rho.pmf[1:] - want).max() < 1e-12

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            adaptive_degree_dist(RSD100, 0)


class TestThinningKernel:
    """The single-layer transforms, all views of one thinning recurrence,
    against the log-binomial closed forms and exact integer binomials."""

    @pytest.mark.parametrize(
        "k", [100, pytest.param(1000, marks=pytest.mark.slow)]
    )
    def test_matches_closed_forms_at_every_undecoded_count(self, k):
        dist = robust_soliton(RsdParams(k, 0.1, 1.0))
        for acked in (0, 3 * k // 10, 7 * k // 10):
            strip = strip_mixtures(dist.pmf, k - acked)
            redundancy = redundancy_closed_forms(dist.pmf, k, acked)
            for undecoded in range(k - acked + 1):
                got = reduced_degree_dist_acked(dist, undecoded, acked).pmf
                want = strip[undecoded, : undecoded + 1]
                assert np.abs(got[: undecoded + 1] - want).max() <= 1e-12
                assert abs(
                    redundancy_prob_acked(dist, undecoded, acked) - redundancy[undecoded]
                ) <= 1e-12
        adaptive = adaptive_closed_forms(dist.pmf, k)
        for undecoded in range(1, k + 1):
            got = adaptive_degree_dist(dist, undecoded).pmf
            want = adaptive[undecoded, : undecoded + 1]
            assert np.abs(got - want).max() <= 1e-12

    def test_exact_binomials_at_ten_thousand(self):
        def binomial_row(m):
            # C(m, 0..m) as exact integers, each from the previous one
            row = [1]
            for j in range(m):
                row.append(row[-1] * (m - j) // (j + 1))
            return row

        n = 10_000
        dist = robust_soliton(RsdParams(n, 0.1, 1.0))
        choose_n = binomial_row(n)
        assert choose_n[37] == math.comb(n, 37)
        for undecoded in (10, 100):
            choose_rest = binomial_row(n - undecoded)
            reduced = reduced_degree_dist(dist, undecoded).pmf
            for d in (0, 1, 2, 5):
                ways = math.comb(undecoded, d)
                exact = math.fsum(
                    float(dist.pmf[i]) * (ways * choose_rest[i - d] / choose_n[i])
                    for i in range(d, n - undecoded + d + 1)
                )
                assert abs(reduced[d] - exact) <= 1e-13, (undecoded, d)

    def test_cache_holds_a_fixed_number_of_tables(self):
        bound = degree._THIN_TABLES
        for c in np.linspace(0.05, 1.0, 20):
            dist = robust_soliton(RsdParams(200, float(c), 1.0))
            for undecoded in (1, 57, 200):
                adaptive_degree_dist(dist, undecoded)
                assert degree._thinning_checkpoints.cache_info().currsize <= bound
        assert degree._thinning_checkpoints.cache_info().currsize == bound

    def test_lookups_in_any_order_equal_the_step_chain_bit_for_bit(self):
        # a lookup may start from its checkpoint or from the last row looked
        # up; either way it must give the floats of stepping down from row n
        n = 300
        pmf = robust_soliton(RsdParams(n, 0.07, 0.9)).pmf
        chain = [pmf.copy()]
        idx = np.arange(n + 1, dtype=np.float64)
        for _ in range(n):
            row = chain[-1]
            level = row.size - 1
            chain.append((row[:-1] * (level - idx[:level]) + row[1:] * idx[1:level + 1]) / level)
        rng = np.random.default_rng(31)
        falling = np.sort(rng.choice(n + 1, size=60, replace=False))[::-1].tolist()
        for undecoded in falling + rng.integers(0, n + 1, size=60).tolist() + [n, 0, n]:
            got = degree._thinned(pmf, n, undecoded)
            assert got.tobytes() == chain[n - undecoded].tobytes(), undecoded


class TestRedundancyTables:
    """The whole-table kernels of the `analyze` commands against the
    per-point functions they replace."""

    @pytest.mark.parametrize("k", [1, 2, 100, 1000])
    def test_curve_is_the_reduced_column_bit_for_bit(self, k):
        dist = robust_soliton(RsdParams(k, 0.1, 1.0))
        want = np.array([reduced_degree_dist(dist, k - d).pmf[0] for d in range(k + 1)])
        assert redundancy_curve(dist).tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 100, 1000])
    def test_acked_curve_matches_redundancy_prob_acked(self, k):
        dist = robust_soliton(RsdParams(k, 0.1, 1.0))
        for undecoded in sorted({0, 1, k // 5, k // 2, k - 1, k}):
            got = redundancy_curve_acked(dist, undecoded)
            want = [redundancy_prob_acked(dist, undecoded, m)
                    for m in range(k - undecoded + 1)]
            assert got.shape == (k - undecoded + 1,)
            assert np.abs(got - want).max() <= 1e-15, undecoded
        assert (redundancy_curve_acked(dist, 0) == 1.0).all()

    def test_acked_curve_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            redundancy_curve_acked(RSD100, 101)
        with pytest.raises(ValueError):
            redundancy_curve_acked(RSD100, -1)

    @pytest.mark.parametrize(
        "k, beta, step",
        # a step of 60 is larger than either layer of 50
        [(2, 9.0, 1), (100, 9.0, 10), (100, 1.0, 7), (100, 1e6, 60),
         (1000, 9.0, 100), (1000, 1e6, 100)],
    )
    def test_two_layer_grid_matches_two_layer_reduced_dist(self, k, beta, step):
        dist = robust_soliton(RsdParams(k, 0.1, 1.0))
        layers = LayerConfig((k // 2, k - k // 2), (beta, 1.0))
        points = [sorted(set(range(0, m + 1, step)) | {m}) for m in layers.layer_sizes]
        grid = layered_redundancy(dist, layers, points)
        assert grid.shape == tuple(len(p) for p in points)
        assert not np.signbit(grid).any()
        for a, lb in enumerate(points[0]):
            for b, lr in enumerate(points[1]):
                want = two_layer_reduced_dist(dist, layers, lb, lr).pmf[0, 0]
                assert abs(grid[a, b] - want) <= 1e-15, (lb, lr)

    def test_three_layer_grid_matches_the_joint_at_zero(self):
        layers = LayerConfig((10, 7, 13), (9.0, 3.0, 1.0))
        dist = robust_soliton(RsdParams(30, 0.1, 1.0))
        points = [(0, 4, 10), (7, 2), (0, 13, 5, 1)]
        grid = layered_redundancy(dist, layers, points)
        for idx in np.ndindex(grid.shape):
            undecoded = [p[i] for p, i in zip(points, idx)]
            want = n_layer_reduced_dist(dist, layers, undecoded)[0, 0, 0]
            assert abs(grid[idx] - want) <= 1e-15, undecoded

    def test_grid_rejects_bad_points(self):
        with pytest.raises(ValueError):
            layered_redundancy(RSD100, LAYERS_UEP, [(0, 51), (0,)])
        with pytest.raises(ValueError):
            layered_redundancy(RSD100, LAYERS_UEP, [(0,), (-1, 3)])
        with pytest.raises(ValueError):
            layered_redundancy(RSD100, LAYERS_UEP, [(0,)])


LAYERS_EQ = LayerConfig((50, 50), (1.0, 1.0))
LAYERS_UEP = LayerConfig((50, 50), (9.0, 1.0))


class TestTwoLayerReducedDist:
    def test_uniform_weights_collapse_to_single_layer(self):
        joint = two_layer_reduced_dist(RSD100, LAYERS_EQ, 30, 20)
        marginal = joint.marginal_total()
        want = reduced_degree_dist(RSD100, 50).pmf
        assert np.abs(marginal - want[: marginal.size]).max() < 1e-8
        assert want[marginal.size :].sum() < 1e-12

    def test_nothing_decoded_marginal_is_original(self):
        joint = two_layer_reduced_dist(RSD100, LAYERS_UEP, 50, 50)
        marginal = joint.marginal_total()
        assert np.abs(marginal - RSD100.pmf[: marginal.size]).max() < 1e-10
        assert joint.pmf[0, 0] == 0.0

    def test_base_decoded_corner_matches_monte_carlo(self):
        # base fully decoded, refinement fully undecoded: a symbol is
        # redundant iff every neighbor landed in the base layer
        rng = np.random.default_rng(12)
        n = 1_000_000
        degrees = sample_degrees(RSD100, rng, n)
        counts = weighted_strip_counts(degrees, (50, 50), (9.0, 1.0), rng)
        p_hat = (counts[:, 1] == 0).mean()
        p = two_layer_reduced_dist(RSD100, LAYERS_UEP, 0, 50).pmf[0, 0]
        se = math.sqrt(p * (1 - p) / n)
        assert abs(p_hat - p) <= 3 * se
        assert p > 0.3  # redundancy stays high throughout the second stage

    def test_redundancy_rises_as_base_drains(self):
        high = two_layer_reduced_dist(RSD100, LAYERS_UEP, 10, 40).pmf[0, 0]
        low = two_layer_reduced_dist(RSD100, LAYERS_UEP, 40, 40).pmf[0, 0]
        assert high >= low

    def test_rejects_layer_bound_violation(self):
        with pytest.raises(ValueError):
            two_layer_reduced_dist(RSD100, LAYERS_UEP, 51, 0)


class TestNLayerReducedDist:
    def test_two_layer_specialization(self):
        joint = n_layer_reduced_dist(RSD100, LAYERS_UEP, (10, 40))
        want = two_layer_sum(RSD100.pmf, (50, 50), (9.0, 1.0), 10, 40)
        assert np.abs(joint - want).max() < 1e-9
        assert np.abs(two_layer_reduced_dist(RSD100, LAYERS_UEP, 10, 40).pmf - want).max() < 1e-9

    def test_equal_weights_collapse_onto_total(self):
        k = 60
        dist = robust_soliton(RsdParams(k, 0.1, 1.0))
        layers = LayerConfig((20, 20, 20), (1.0, 1.0, 1.0))
        joint = n_layer_reduced_dist(dist, layers, (5, 10, 15))
        total = np.zeros(31)
        for idx in np.ndindex(joint.shape):
            total[sum(idx)] += joint[idx]
        want = reduced_degree_dist(dist, 30).pmf
        assert np.abs(total - want[:31]).max() < 1e-9

    def test_three_layer_monte_carlo(self):
        k = 60
        dist = robust_soliton(RsdParams(k, 0.1, 1.0))
        layers = LayerConfig((20, 20, 20), (9.0, 3.0, 1.0))
        undecoded = (0, 10, 20)
        joint = n_layer_reduced_dist(dist, layers, undecoded)
        # oracle: six subgroups, one per (layer, decoded-or-not)
        sizes, weights = [], []
        for m, u, w in zip(layers.layer_sizes, undecoded, layers.weight_ratios):
            sizes += [u, m - u]
            weights += [w, w]
        rng = np.random.default_rng(21)
        n = 1_000_000
        degrees = sample_degrees(dist, rng, n)
        counts = weighted_strip_counts(degrees, sizes, weights, rng)
        reduced = counts[:, 0::2]  # undecoded subgroup of each layer
        observed = np.zeros(joint.shape)
        np.add.at(observed, tuple(reduced.T), 1)
        emp = observed / n
        tv = 0.5 * np.abs(emp - joint).sum()
        assert tv < 0.02

    def test_dimension_mismatch_rejected(self):
        layers = LayerConfig((30, 30), (2.0, 1.0))
        dist = robust_soliton(RsdParams(60, 0.1, 1.0))
        with pytest.raises(ValueError):
            n_layer_reduced_dist(dist, layers, (5, 5, 5))


class TestLayerConfig:
    def test_selection_probs_normalize(self):
        probs = LAYERS_UEP.selection_probs()
        total = sum(p * m for p, m in zip(probs, LAYERS_UEP.layer_sizes))
        assert total == pytest.approx(1.0, abs=1e-12)
        assert probs[0] / probs[1] == pytest.approx(9.0, abs=1e-12)

    def test_rejects_empty_layer(self):
        with pytest.raises(ValueError):
            LayerConfig((5, 0), (1.0, 1.0))
