"""Acceptance suite: every criterion at its stated tolerance.

Each test here is one exit criterion for the package; the conftest hook
prints a PASS/FAIL line per criterion with its runtime.
"""

import itertools

import numpy as np
import pytest
from scipy import stats

from ltfeedback.codec import Decoder, Encoder, InputBlock
from ltfeedback.combinatorics import WalleniusParams, wallenius_pmf
from ltfeedback.degree import (
    DegreeDistribution,
    RsdParams,
    adaptive_degree_dist,
    n_layer_reduced_dist,
    reduced_degree_dist,
    reduced_degree_dist_acked,
    redundancy_prob_acked,
    robust_soliton,
    two_layer_reduced_dist,
)
from ltfeedback.feedback import FeedbackPolicy, apply_feedback
from ltfeedback.simulator import (
    TrialConfig,
    experiment_deadline_distortion,
    experiment_single_layer_feedback,
    experiment_two_layer_ack,
    run_trial,
    two_layer_config,
)
from oracles import (
    hypergeom_pmf,
    sample_degrees,
    tv_distance,
    two_layer_sum,
    uniform_strip_counts,
)

RSD100 = robust_soliton(RsdParams(100, 0.1, 1.0))


def embed(dist: DegreeDistribution, k: int) -> DegreeDistribution:
    pmf = np.zeros(k + 1)
    pmf[: dist.k + 1] = dist.pmf
    return DegreeDistribution(k, pmf)


def test_c01_reduced_distribution_matches_urn_oracle():
    """Closed-form reduced distribution vs 10^6-sample sequential-urn
    Monte Carlo, within total variation 0.01, for five undecoded counts."""
    rng = np.random.default_rng(101)
    n_samples = 1_000_000
    for undecoded in (10, 25, 50, 75, 100):
        degrees = sample_degrees(RSD100, rng, n_samples)
        hits = uniform_strip_counts(degrees, 100, undecoded, rng)
        observed = np.bincount(hits, minlength=101)
        closed = reduced_degree_dist(RSD100, undecoded).pmf
        assert tv_distance(observed, closed) < 0.01, f"L={undecoded}"


def test_c02_redundancy_strictly_decreases_with_acks():
    """Exhaustive exact check of strict monotonicity in the acked count."""
    for undecoded in (1, 10, 50, 90):
        values = [
            redundancy_prob_acked(RSD100, undecoded, acked)
            for acked in range(100 - undecoded + 1)
        ]
        diffs = np.diff(values)
        assert (diffs < 0).all(), f"L={undecoded}"


def test_c03_full_acknowledgment_freezes_the_distribution():
    """With every decoded symbol acknowledged the receiver sees exactly the
    encoder's distribution, to 1e-12, on 20 random block configurations."""
    rng = np.random.default_rng(303)
    for _ in range(20):
        k = int(rng.integers(2, 501))
        undecoded = int(rng.integers(1, k + 1))
        encoder_dist = embed(robust_soliton(RsdParams(undecoded, 0.1, 1.0)), k)
        out = reduced_degree_dist_acked(encoder_dist, undecoded, k - undecoded)
        assert np.abs(out.pmf - encoder_dist.pmf).max() <= 1e-12


def test_c04_adaptive_ack_never_emits_redundant_symbols():
    """10^5 receptions under adaptive per-symbol ack at k=100: zero symbols
    of reduced degree zero; the adaptive pmf is the truncated-renormalized
    reduced distribution to 1e-12."""
    policy = FeedbackPolicy.ACK_ADAPTIVE
    rng = np.random.default_rng(404)
    builder = lambda n: robust_soliton(RsdParams(n, 0.1, 1.0))
    receptions = 0
    redundant = 0
    while receptions < 100_000:
        block = InputBlock.random(100, 8, rng)
        enc = Encoder(block, RSD100, rng, dist_builder=builder)
        dec = Decoder(100)
        while len(dec.decoded) < dec.k:
            apply_feedback(enc, dec, policy)
            result = dec.receive(enc.encode_next())
            receptions += 1
            redundant += result.redundant
    assert redundant == 0
    for undecoded in range(1, 101):
        rho = adaptive_degree_dist(RSD100, undecoded)
        reduced = reduced_degree_dist(RSD100, undecoded).pmf
        want = reduced[1 : undecoded + 1] / (1.0 - reduced[0])
        assert np.abs(rho.pmf[1:] - want).max() <= 1e-12


def test_c05_wallenius_correctness():
    """Equal weights collapse to the central hypergeometric (1e-10, 100
    cases); the two-group law depends on weights only through their ratio
    (1e-10); the pmf sums to one (1e-8) for populations up to 200."""
    rng = np.random.default_rng(505)
    # equal-weight collapse
    checked = 0
    while checked < 100:
        m1, m2 = (int(v) for v in rng.integers(1, 101, 2))
        n = int(rng.integers(0, m1 + m2 + 1))
        x = int(rng.integers(max(0, n - m2), min(m1, n) + 1))
        a = wallenius_pmf((x, n - x), WalleniusParams((m1, m2), (1.0, 1.0), n))
        b = hypergeom_pmf(x, m1 + m2, m1, n)
        assert abs(a - b) <= 1e-10
        checked += 1
    # ratio parameterization
    for _ in range(30):
        m1, m2 = (int(v) for v in rng.integers(2, 90, 2))
        n = int(rng.integers(1, m1 + m2))
        x = int(rng.integers(max(0, n - m2), min(m1, n) + 1))
        w1, w2 = (float(v) for v in rng.uniform(0.05, 20.0, 2))
        a = wallenius_pmf((x, n - x), WalleniusParams((m1, m2), (w1, w2), n))
        b = wallenius_pmf((x, n - x), WalleniusParams((m1, m2), (w1 / w2, 1.0), n))
        assert abs(a - b) <= 1e-10
    # normalization
    cases = [
        ((100, 100), (9.0, 1.0), 75),
        ((130, 70), (0.4, 1.0), 110),
        ((60, 70, 70), (9.0, 3.0, 1.0), 55),
    ]
    for sizes, weights, n in cases:
        params = WalleniusParams(sizes, weights, n)
        total = sum(
            wallenius_pmf(x, params)
            for x in itertools.product(*[range(m + 1) for m in sizes])
            if sum(x) == n
        )
        assert abs(total - 1.0) <= 1e-8


def test_c06_n_layer_specializes_to_two_layer():
    """The N-layer joint reduced distribution with N=2, and the two-layer
    form built on it, equal the dedicated per-degree two-layer sum of the
    oracles (its layer split from the Wallenius integral) within 1e-9 on a
    ten-case grid."""
    rng = np.random.default_rng(606)
    cases = []
    for k, alpha, beta in [(40, 0.5, 9.0), (60, 0.25, 4.0), (100, 0.5, 9.0)]:
        layers = two_layer_config(k, alpha, beta)
        dist = robust_soliton(RsdParams(k, 0.1, 1.0))
        m_base, m_refine = layers.layer_sizes
        n_pairs = 4 if k == 100 else 3
        for _ in range(n_pairs):
            lb = int(rng.integers(0, m_base + 1))
            lr = int(rng.integers(0, m_refine + 1))
            cases.append((dist, layers, lb, lr))
    assert len(cases) == 10
    for dist, layers, lb, lr in cases:
        want = two_layer_sum(dist.pmf, layers.layer_sizes, layers.weight_ratios, lb, lr)
        joint_n = n_layer_reduced_dist(dist, layers, (lb, lr))
        joint_2 = two_layer_reduced_dist(dist, layers, lb, lr)
        assert np.abs(joint_n - want).max() <= 1e-9
        assert np.abs(joint_2 - want).max() <= 1e-9


@pytest.mark.slow
def test_c07_single_layer_feedback_ordering():
    """k=1000, 200 runs per scheme: adaptive ack beats no feedback by a
    little; naive ack degrades by far more than five times that margin."""
    result = experiment_single_layer_feedback(k=1000, runs=200, seed=7001)
    none = result.schemes["no_feedback"].mean_overhead
    original = result.schemes["ack_original"].mean_overhead
    adaptive = result.schemes["ack_adaptive"].mean_overhead
    assert adaptive < none < original, (adaptive, none, original)
    assert (original - none) > 5 * (none - adaptive), (adaptive, none, original)
    assert sum(s.payload_errors for s in result.schemes.values()) == 0


@pytest.mark.slow
def test_c08_layer_ack_helps_two_layer_codes():
    """k=1000, alpha=0.5, beta=9, 200 runs: the base layer finishes first in
    over 99% of runs and whole-layer ack lowers the mean total overhead at
    95% one-sided confidence."""
    result = experiment_two_layer_ack(k=1000, alpha=0.5, beta=9.0, runs=200, seed=8001)
    for name in ("two_layer_no_ack", "two_layer_layer_ack"):
        done = result.schemes[name].layer_completion_received
        frac_base_first = (done[:, 0] < done[:, 1]).mean()
        assert frac_base_first > 0.99, (name, frac_base_first)
    no_ack = result.schemes["two_layer_no_ack"].overheads
    with_ack = result.schemes["two_layer_layer_ack"].overheads
    assert with_ack.mean() < no_ack.mean()
    test = stats.ttest_ind(with_ack, no_ack, alternative="less", equal_var=False)
    assert test.pvalue < 0.05, test.pvalue
    assert sum(s.payload_errors for s in result.schemes.values()) == 0


@pytest.mark.slow
def test_c09_deadline_distortion_sweep():
    """k=100, deadline of 2k sent symbols, 100 trials per point on the grid
    0:0.05:1, asserting:

    (a) distortion reaches 1 under total erasure;
    (b1) the layered code with its one base-layer ack beats the single
         layer at every erasure rate in 0.35..0.55;
    (b2) the layered code without ack beats the single layer at every
         erasure rate in 0.40..0.55;
    (b3) at 0.35 the acked layered code beats the unacked one;
    (c) the layer ack never hurts at rates up to 0.2.

    (b2) starts above 0.35 because the unacked layered code crosses the
    single layer near erasure rate 0.36. With beta=9 it almost never
    decodes its refinement layer before the deadline, so it sits near
    base-only distortion, while the single layer still decodes fully in
    most trials at 0.35. Measured with 2000 seconds per point at master
    seed 424242 on the grid [0.30, 0.35, 0.375, 0.40, 0.45] (mean +- SE):
    at 0.35, unacked 0.8679 +- 0.0007 against single 0.8498 +- 0.0029;
    at 0.375, unacked 0.8691 +- 0.0008 against single 0.8870 +- 0.0029.
    (b3) keeps the band's lower edge under test: there the one ack is what
    carries the layered code past the baseline (acked 0.8174 +- 0.0016)."""
    grid = np.round(np.arange(0.0, 1.0001, 0.05), 10)
    result = experiment_deadline_distortion(
        k=100, alpha=0.5, beta=9.0, ser_grid=grid, seconds=100, seed=9001
    )
    means = result.mean_distortion
    # (a) total erasure leaves every scheme at unit distortion
    for name in means:
        assert means[name][-1] == 1.0

    def assert_beats(name, rival, points):
        losing = grid[points][means[name][points] >= means[rival][points]]
        assert losing.size == 0, (
            f"{name} does not beat {rival} at ser={losing.tolist()}: "
            f"{means[name][points]} vs {means[rival][points]}"
        )

    # (b1) with one ack the layered code beats the single layer in the middle band
    assert_beats("two_layer_layer_ack", "single_layer", (grid >= 0.349) & (grid <= 0.551))
    # (b2) without ack it does so only above its crossover near 0.36
    assert_beats("two_layer_no_ack", "single_layer", (grid >= 0.399) & (grid <= 0.551))
    # (b3) at the band's lower edge the ack is what carries the layered code
    assert_beats("two_layer_layer_ack", "two_layer_no_ack", np.isclose(grid, 0.35))
    # (c) acknowledgment only helps at low erasure rates
    low = grid <= 0.201
    assert (means["two_layer_layer_ack"][low] <= means["two_layer_no_ack"][low]).all()
    assert result.payload_errors == 0


def test_c10_decoder_soundness_battery():
    """Every decoded payload equals the source payload, with zero tolerance,
    across a battery of randomized trials over all schemes."""
    layers = two_layer_config(100, 0.5, 9.0)
    battery = []
    for seed in range(12):
        battery += [
            TrialConfig(k=100, seed=(10_000, seed)),
            TrialConfig(k=100, seed=(10_001, seed), ser=0.35),
            TrialConfig(k=100, seed=(10_002, seed), policy=FeedbackPolicy.ACK_ORIGINAL),
            TrialConfig(k=100, seed=(10_003, seed), policy=FeedbackPolicy.ACK_ADAPTIVE),
            TrialConfig(k=100, seed=(10_004, seed), layers=layers,
                        policy=FeedbackPolicy.LAYER_ACK),
            TrialConfig(k=100, seed=(10_005, seed), layers=layers, ser=0.5,
                        deadline=200),
        ]
    decoded_symbols = 0
    for config in battery:
        trace = run_trial(config)
        assert trace.payload_errors == 0
        decoded_symbols += config.k - trace.decodes[-1, 2:].sum() if len(trace.decodes) else 0
    assert decoded_symbols > 0
