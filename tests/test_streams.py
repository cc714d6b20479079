"""Tests for the random-stream layout: trial seed keys, block-drawn
substreams and Lemire's index draw, with whole trials pinned to the scalar
transmission loop in `oracles.py`."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ltfeedback.codec import Encoder, InputBlock, _lemire_index, _Stream
from ltfeedback.degree import DegreeDistribution, LayerConfig, RsdParams, robust_soliton
from ltfeedback.feedback import FeedbackPolicy
from ltfeedback.simulator import TransmissionTrace, TrialConfig, run_trial, two_layer_config
from oracles import chi_square_pvalue, lemire_scalar, scalar_draw, scalar_run_trial

LAYERS = two_layer_config(80, 0.5, 9.0)
ORIGINAL = FeedbackPolicy.ACK_ORIGINAL
ADAPTIVE = FeedbackPolicy.ACK_ADAPTIVE


def trial_rng(master_seed, *key) -> np.random.Generator:
    """The stream a trial seeded (master seed, *key) spawns its substreams from."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


TRIALS = {
    "no_feedback": TrialConfig(k=80, seed=1),
    "erasures": TrialConfig(k=80, seed=(2, 3, 250_000, 4), ser=0.25),
    "ack_original": TrialConfig(k=80, seed=(3, 1, 0, 0), policy=ORIGINAL),
    "ack_adaptive_erasures": TrialConfig(k=80, seed=(4, 2, 200_000, 1), policy=ADAPTIVE,
                                         ser=0.2),
    "ack_original_layered": TrialConfig(k=80, seed=5, layers=LAYERS, policy=ORIGINAL),
    "ack_adaptive_layered": TrialConfig(k=80, seed=6, layers=LAYERS, policy=ADAPTIVE),
    "layered_no_feedback": TrialConfig(k=80, seed=7, layers=LAYERS),
    "layer_ack": TrialConfig(k=80, seed=(8, 5, 0, 2), layers=LAYERS,
                             policy=FeedbackPolicy.LAYER_ACK),
    "deadline_sent": TrialConfig(k=80, seed=(10, 3, 350_000, 0), ser=0.35, deadline=160),
    "deadline_received_layer_ack": TrialConfig(
        k=80, seed=(11, 5, 450_000, 3), layers=LAYERS, policy=FeedbackPolicy.LAYER_ACK,
        ser=0.45, deadline=120, deadline_basis="received"),
    "deadline_received_ack": TrialConfig(k=80, seed=12, policy=ORIGINAL, ser=0.5,
                                         deadline=60, deadline_basis="received"),
    # degrees above 256 take more than one 256-word block for one symbol
    "large_degrees": TrialConfig(k=400, seed=19, ser=0.1),
}


@pytest.mark.parametrize("name", sorted(TRIALS))
def test_trace_equals_scalar_oracle(name):
    config = TRIALS[name]
    fast, slow = run_trial(config), scalar_run_trial(config)
    for field in ("sent", "undecoded", "redundant"):
        a, b = getattr(fast, field), getattr(slow, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    for field in ("k", "layer_sizes", "sent_total", "received_total", "completed",
                  "completion_sent", "completion_received", "layer_completion_received",
                  "layer_completion_sent", "payload_errors"):
        assert getattr(fast, field) == getattr(slow, field), field
    assert fast.payload_errors == 0


POLICIES = {
    "none": FeedbackPolicy.NONE,
    "ack_original": ORIGINAL,
    "ack_adaptive": ADAPTIVE,
    "layer_ack": FeedbackPolicy.LAYER_ACK,
}


@st.composite
def trial_configs(draw, policy):
    """k <= 120 in 1-3 layers (2-3 under layer acks), erasure rate in
    [0, 0.9], and no deadline or one on either basis."""
    n_layers = draw(st.integers(2 if policy is FeedbackPolicy.LAYER_ACK else 1, 3))
    k = draw(st.integers(n_layers, 120))
    layers = None
    if n_layers > 1:
        cuts = sorted(draw(st.lists(st.integers(1, k - 1), min_size=n_layers - 1,
                                    max_size=n_layers - 1, unique=True)))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [k])]
        weights = draw(st.lists(st.sampled_from([1.0, 3.0, 9.0]), min_size=n_layers,
                                max_size=n_layers))
        layers = LayerConfig(tuple(sizes), tuple(weights))
    deadline = draw(st.none() | st.integers(0, 3 * k))
    return TrialConfig(k=k, seed=draw(st.integers(0, 2**32 - 1)), layers=layers,
                       policy=policy, ser=draw(st.floats(0.0, 0.9)), deadline=deadline,
                       deadline_basis=draw(st.sampled_from(["sent", "received"])))


def assert_traces_equal(fast, slow):
    for field in dataclasses.fields(TransmissionTrace):
        a, b = getattr(fast, field.name), getattr(slow, field.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(max_examples=30)
@given(data=st.data())
def test_every_trace_field_equals_scalar_oracle(policy, data):
    # the oracle applies feedback before every symbol, run_trial only after
    # a decode event: the traces agree only if the two timings are equivalent
    config = data.draw(trial_configs(POLICIES[policy]))
    fast, slow = run_trial(config), scalar_run_trial(config)
    assert_traces_equal(fast, slow)
    assert fast.payload_errors == 0


@pytest.mark.parametrize("policy, layered", [  # a layer ack needs layers
    (policy, layered) for policy in sorted(POLICIES) for layered in (False, True)
    if layered or policy != "layer_ack"])
def test_total_erasure_trace_equals_scalar_oracle(policy, layered):
    # at erasure rate 1 the gap to the next arrival is infinite, so neither
    # run_trial nor the gap oracle draws a symbol; the Bernoulli oracle
    # draws and erases every one up to the deadline
    config = TrialConfig(k=80, seed=(13, 4, 10**6, 0), layers=LAYERS if layered else None,
                         policy=POLICIES[policy], ser=1.0, deadline=150)
    fast = run_trial(config)
    for channel in ("gap", "bernoulli"):
        assert_traces_equal(fast, scalar_run_trial(config, channel=channel))
    assert fast.sent_total == 150


@pytest.mark.parametrize("basis", ["sent", "received"])
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_channels_agree_exactly_without_erasures(policy, basis):
    # at erasure rate 0 no gap and no erasure uniform is drawn, so the two
    # channels run the same symbols: the stream change leaves rate 0 alone
    config = TrialConfig(k=80, seed=(14, 4, 0, 0), layers=LAYERS, policy=POLICIES[policy],
                         deadline=90, deadline_basis=basis)
    fast = run_trial(config)
    for channel in ("gap", "bernoulli"):
        assert_traces_equal(fast, scalar_run_trial(config, channel=channel))


def test_gap_channel_has_the_bernoulli_channel_law():
    # Two-sample tests, each at significance level 0.01, between run_trial
    # (gap channel) and the per-symbol Bernoulli channel of the oracle, on
    # independent seeds: a two-layer code without ack at erasure rate 0.35
    # and a deadline of 2k sent symbols, where about a third of the trials
    # decode 0, 1 and 2 layers each.  completion_sent is compared by
    # Kolmogorov-Smirnov with "not complete" as deadline + 1 (conservative
    # for discrete data), layers_decoded by a chi-square homogeneity test.
    k, trials, deadline = 60, 500, 120
    layers = two_layer_config(k, 0.5, 3.0)
    config = lambda master, t: TrialConfig(k=k, seed=(master, 4, 350_000, t), layers=layers,
                                           ser=0.35, deadline=deadline)
    gap = [run_trial(config(31, t)) for t in range(trials)]
    bernoulli = [scalar_run_trial(config(32, t), channel="bernoulli") for t in range(trials)]
    completion = [[deadline + 1 if t.completion_sent is None else t.completion_sent
                   for t in traces] for traces in (gap, bernoulli)]
    assert stats.ks_2samp(*completion).pvalue > 0.01
    table = [np.bincount([t.layers_decoded for t in traces], minlength=3)
             for traces in (gap, bernoulli)]
    assert (np.array(table) >= 50).all()  # every outcome is common in both samples
    assert stats.chi2_contingency(table).pvalue > 0.01


def test_large_degree_case_draws_degrees_above_256():
    # without feedback the degree of symbol i is the i-th draw of the
    # degree substream, child 0 of the encoder's child 1 of the trial seed
    config = TRIALS["large_degrees"]
    coder = np.random.SeedSequence(config.seed).spawn(3)[1]
    u = np.random.default_rng(coder.spawn(3)[0]).random(run_trial(config).sent_total)
    dist = robust_soliton(RsdParams(config.k, config.c, config.delta))
    assert np.searchsorted(dist.cdf, u, side="right").max() > 256


def test_scalar_oracle_sees_feedback():
    # the cases above must exercise acks, not only symbols that never meet them
    acked = scalar_run_trial(TRIALS["ack_original"])
    plain = scalar_run_trial(TrialConfig(k=80, seed=(3, 1, 0, 0)))
    assert acked.redundant_count == 0 < plain.redundant_count


class TestStreams:
    def test_block_uniforms_equal_scalar_draws(self):
        # 600 values cross two block boundaries
        fast = _Stream(np.random.default_rng(21).random)
        scalar = np.random.default_rng(21)
        assert [fast() for _ in range(600)] == [scalar.random() for _ in range(600)]

    def test_block_words_equal_scalar_draws(self):
        fast = _Stream(np.random.default_rng(22).bit_generator.random_raw)
        scalar = np.random.default_rng(22).bit_generator
        assert [fast() for _ in range(600)] == [scalar.random_raw() for _ in range(600)]

    def test_encoder_draws_the_same_for_any_bit_generator(self):
        # MT19937's raw words have 32 bits: the encoder's substreams are PCG64
        block = InputBlock.random(60, 2, np.random.default_rng(26))
        dist = robust_soliton(RsdParams(60, 0.1, 1.0))
        encoders = [Encoder(block, dist, np.random.Generator(bit_generator(27)))
                    for bit_generator in (np.random.PCG64, np.random.MT19937)]
        first, second = ([e.encode_next().neighbors for _ in range(200)] for e in encoders)
        assert first == second

    def test_trailing_zero_keys_give_different_streams(self):
        draws = [trial_rng(*key).random(4).tolist() for key in ((5,), (5, 0), (5, 0, 0))]
        assert len({tuple(d) for d in draws}) == 3
        a, b = (run_trial(TrialConfig(k=40, seed=key)) for key in ((5,), (5, 0)))
        assert not np.array_equal(a.undecoded, b.undecoded)

    def test_int_seed_is_the_empty_key(self):
        a, b = run_trial(TrialConfig(k=40, seed=13)), run_trial(TrialConfig(k=40, seed=(13,)))
        assert np.array_equal(a.undecoded, b.undecoded)


def words(*values):
    """A word source that yields `values` and fails if read past them."""
    it = iter(values)
    return lambda: next(it)


class TestLemireIndex:
    def test_bound_one_is_always_zero(self):
        for w in (0, 1, 2**63, 2**64 - 1):
            assert _lemire_index(1, words(w)) == 0

    def test_rejected_word_draws_again(self):
        # bound 3 rejects the low words below 2^64 mod 3 = 1: word 0 alone
        assert _lemire_index(3, words(0, 2**64 - 1)) == 2
        assert _lemire_index(3, words(0, 0, 0, 2**63)) == 1

    def test_low_word_at_threshold_is_kept(self):
        # 3 * w = 2 * 2^64 + 1: its low word 1 is below the bound but not
        # below the threshold, so w is accepted without a second word
        w = (2 * 2**64 + 1) // 3
        assert _lemire_index(3, words(w)) == 2

    def test_top_word_maps_to_last_index(self):
        for bound in (2, 7, 1000, 2**64 - 1):
            assert _lemire_index(bound, words(2**64 - 1)) == bound - 1

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(23)
        bounds = rng.integers(1, 2**63, size=300).tolist() + list(range(1, 300))
        fast = _Stream(np.random.default_rng(24).bit_generator.random_raw)
        scalar = np.random.default_rng(24)
        for bound in bounds:
            assert _lemire_index(bound, fast) == lemire_scalar(
                bound, scalar.bit_generator.random_raw)

    @pytest.mark.parametrize("bound", [3, 7, 1000])
    def test_uniform_by_chi_square(self, bound):
        # goodness of fit to the uniform law at significance level 0.01, with
        # 30000 draws: enough to show a 2% excess in one index of bound 3.
        word = _Stream(np.random.default_rng(25 + bound).bit_generator.random_raw)
        n = 30_000
        counts = np.bincount([_lemire_index(bound, word) for _ in range(n)], minlength=bound)
        assert counts.size == bound
        assert chi_square_pvalue(counts, np.full(bound, 1.0 / bound)) > 0.01


class TestBufferedDraw:
    """The encoder's block-buffered draw against `scalar_draw` on hand-fed
    index words.  Word 0 is rejected by Lemire's method for every bound
    that is not a power of two."""

    K = 10
    LAYERS = LayerConfig((4, 6), (3.0, 1.0))

    def encoder_on(self, words, start, degree, layers):
        """An encoder of fixed degree whose index stream is `words` in 256-word
        blocks, read from position `start` of the first."""
        pmf = np.zeros(self.K + 1)
        pmf[degree] = 1.0
        block = InputBlock.random(self.K, 2, np.random.default_rng(40), layers)
        enc = Encoder(block, DegreeDistribution(self.K, pmf), np.random.default_rng(41))
        blocks = iter([words[i:i + 256] for i in range(256, len(words), 256)])
        enc._word.values, enc._word.pos = words[:256], start
        enc._word.draw = lambda n: np.array(next(blocks), dtype=np.uint64)
        return enc

    # case: (position the symbol starts reading at, the words its second
    # pick reads first, words rejected)
    CASES = {
        "mid_block": (100, [0, 0, 0], 3),
        "last_word_of_block": (254, [0], 1),
        "run_to_end_of_buffer": (254, [0] * 256, 256),  # the next pick refills
        "run_past_buffer": (254, [0] * 257, 257),  # the redraw itself refills
        "kept_below_bound": (100, None, 0),
    }

    def check_against_scalar_draw(self, words, start, degree, layers, uniforms):
        """The encoder's next symbol on `words` from `start` and on the layer
        uniforms `uniforms` equals `scalar_draw`'s, with the same pools after
        it and the same next word.  Returns the words the symbol read."""
        enc = self.encoder_on(words, start, degree, layers)
        if layers is None:
            groups = [[1.0, list(range(self.K))]]
        else:
            enc._group_u.values, enc._group_u.pos = list(uniforms), 0
            bounds = layers.boundaries()
            groups = [[w, list(range(lo, hi))]
                      for w, lo, hi in zip(layers.weight_ratios, bounds, bounds[1:])]
        read = []
        next_word = lambda: read.append(words[start + len(read)]) or read[-1]
        expected = scalar_draw(groups, degree, iter(uniforms).__next__, next_word)
        assert enc.encode_next().neighbors == frozenset(expected)
        assert enc._pools == [members for _, members in groups]
        assert enc._word() == words[start + len(read)]  # no word skipped or read twice
        return read

    def case_words(self, case, bound):
        """The case's start and index words, and how many it rejects."""
        start, second, rejected = self.CASES[case]
        if second is None:
            # its low product, bound - 1, enters the rejection branch but
            # is at least 2^64 mod bound, so the word is kept
            second = [(bound - 1) * pow(bound, -1, 2**64) % 2**64]
        rng = np.random.default_rng(42)
        words = rng.integers(1, 2**64, size=768, dtype=np.uint64).tolist()
        words[start + 1:start + 1 + len(second)] = second
        return start, words, rejected

    @pytest.mark.parametrize("layered", [False, True])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_words_match_scalar_draw(self, case, layered):
        # the symbol's picks have bounds 10, 9, 8, 7, or 6, 5, 4, 3 in the
        # 6-member layer that layer-group uniforms of 0.99 always choose
        degree = 4
        start, words, rejected = self.case_words(case, 5 if layered else 9)
        layers = self.LAYERS if layered else None
        read = self.check_against_scalar_draw(words, start, degree, layers, [0.99] * degree)
        assert len(read) == degree + rejected

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_words_match_scalar_draw_on_three_layers(self, case):
        # masses 18, 6, 6: uniforms of 0.99 always choose the 6-member layer,
        # so the picks have bounds 6, 5, 4, 3 as on two layers
        degree = 4
        start, words, rejected = self.case_words(case, 5)
        layers = LayerConfig((2, 2, 6), (9.0, 3.0, 1.0))
        read = self.check_against_scalar_draw(words, start, degree, layers, [0.99] * degree)
        assert len(read) == degree + rejected

    @pytest.mark.parametrize("pick", [2, 4])
    @pytest.mark.parametrize("layers", [LAYERS, LayerConfig((3, 3, 4), (9.0, 3.0, 1.0))],
                             ids=["two_layers", "three_layers"])
    def test_word_rejected_late_in_a_weighted_symbol(self, layers, pick):
        # the uniforms pick from every layer, so by the third or fifth pick
        # the counts, the masses and the running total have all moved
        uniforms = [0.05, 0.95, 0.7, 0.8, 0.99, 0.6]
        rng = np.random.default_rng(43)
        words = rng.integers(1, 2**64, size=768, dtype=np.uint64).tolist()
        start = 100
        words[start + pick] = 0
        read = self.check_against_scalar_draw(words, start, len(uniforms), layers, uniforms)
        assert len(read) == len(uniforms) + 1

    # case: (layers, layer uniforms) of a symbol of degree K
    EXHAUSTED = {
        # uniforms just below 1 take the 6-member last layer until it is
        # empty; u * total, rounded, then still reaches the other layers' mass
        "top_two_layers": (LayerConfig((4, 6), (0.3, 1.0)), [1 - 2**-53] * 10),
        "top_three_layers": (LayerConfig((2, 2, 6), (0.3, 0.7, 1.0)), [1 - 2**-53] * 10),
        # uniforms of 0 empty the heavy first layer; the running total then
        # rounds to -2^18, so u * total falls below that layer's mass of 0
        "negative_total_two_layers": (LayerConfig((3, 7), (9.59e20, 3.0)), [0.0] * 3 + [0.5] * 7),
        "negative_total_three_layers": (LayerConfig((3, 3, 4), (9.59e20, 3.0, 3.0)),
                                        [0.0] * 3 + [0.5] * 7),
    }

    @pytest.mark.parametrize("case", sorted(EXHAUSTED))
    def test_exhausted_layer_is_never_drawn(self, case):
        layers, uniforms = self.EXHAUSTED[case]
        rng = np.random.default_rng(44)
        words = rng.integers(1, 2**64, size=768, dtype=np.uint64).tolist()
        read = self.check_against_scalar_draw(words, 100, self.K, layers, uniforms)
        assert len(read) == self.K


def assert_draws_equal_scalar_draw(layers, words=None):
    """2000 symbols of an encoder on `layers` equal `scalar_draw`'s on the
    same substreams: the neighbors, the pools after each symbol and the
    stream positions after the last.  `words`, when given, replaces the
    index substream, in 256-word blocks."""
    k = layers.k
    block = InputBlock.random(k, 2, np.random.default_rng(50), layers)
    dist = robust_soliton(RsdParams(k, 0.1, 1.0))
    enc = Encoder(block, dist, np.random.default_rng(np.random.SeedSequence(51)))
    degree_rng, group_rng, index_rng = map(np.random.default_rng,
                                           np.random.SeedSequence(51).spawn(3))
    next_word = index_rng.bit_generator.random_raw
    if words is not None:
        blocks = iter(words.reshape(-1, 256))
        enc._word.draw = lambda n: next(blocks)
        next_word = iter(words.tolist()).__next__
    bounds = layers.boundaries()
    groups = [[w, list(range(lo, hi))]
              for w, lo, hi in zip(layers.weight_ratios, bounds, bounds[1:])]
    for _ in range(2000):
        degree = min(int(np.searchsorted(dist.cdf, degree_rng.random(), side="right")), k)
        expected = scalar_draw(groups, degree, group_rng.random, next_word)
        assert sorted(enc.next_neighbors()) == sorted(expected)
        assert enc._pools == [members for _, members in groups]
    assert enc._degree_u() == degree_rng.random()
    assert enc._group_u() == group_rng.random()
    assert enc._word() == next_word()


@pytest.mark.parametrize("sizes", [(1, 9), (9, 1), (1, 60), (35, 45)])
@pytest.mark.parametrize("weights", [(0.3, 0.7), (2.5, 1.0), (1 / 3, 1.0)])
def test_two_layer_draw_equals_scalar_draw(weights, sizes):
    # non-integer weights, down to one-member layers
    assert_draws_equal_scalar_draw(LayerConfig(sizes, weights))


@pytest.mark.parametrize("layers", [LayerConfig((30, 50), (2.5, 1.0)),
                                    LayerConfig((20, 25, 35), (1 / 3, 1.0, 0.3))],
                         ids=["two_layers", "three_layers"])
def test_draws_with_frequent_low_words_equal_scalar_draw(layers):
    # a fifth of the index words are 0, which enters the rejection branch
    # at every bound: the two-layer loop hands symbols over at all picks
    rng = np.random.default_rng(52)
    words = rng.integers(1, 2**64, size=256 * 200, dtype=np.uint64)
    words[rng.random(words.size) < 0.2] = 0
    assert_draws_equal_scalar_draw(layers, words)
