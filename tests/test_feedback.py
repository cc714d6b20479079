"""Tests for acknowledgment policies and their effect on the encoder."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from ltfeedback.codec import Decoder, Encoder, InputBlock
from ltfeedback.degree import (
    LayerConfig,
    RsdParams,
    adaptive_degree_dist,
    robust_soliton,
)
from ltfeedback.feedback import FeedbackPolicy, apply_feedback
from ltfeedback.simulator import TrialConfig, run_trial
from oracles import chi_square_pvalue


def stock(n):
    return robust_soliton(RsdParams(n, 0.1, 1.0))


def make_encoder(k, rng, layers=None):
    return Encoder(InputBlock.random(k, 8, rng, layers), stock(k), rng)


def snapshot_of(decoded, layers_complete=(False,)):
    """A stand-in for a decoder: all that apply_feedback reads of one."""
    return SimpleNamespace(decoded=frozenset(decoded), layers_complete=layers_complete)


class TestNonePolicy:
    def test_encoder_untouched(self):
        rng = np.random.default_rng(0)
        enc = make_encoder(20, rng)
        before = enc.distribution
        apply_feedback(enc, snapshot_of({1, 2, 3}), FeedbackPolicy.NONE, stock)
        assert enc.distribution is before
        assert enc.acked_count == 0


class TestPerSymbolAck:
    def test_zero_decoded_is_a_no_op(self):
        rng = np.random.default_rng(1)
        enc = make_encoder(20, rng)
        before = enc.distribution
        apply_feedback(enc, snapshot_of(set()), FeedbackPolicy.ACK_ORIGINAL, stock)
        assert enc.distribution is before and enc.eligible_count == 20

    def test_original_mode_rebuilds_over_remaining(self):
        rng = np.random.default_rng(2)
        enc = make_encoder(100, rng)
        apply_feedback(enc, snapshot_of(set(range(60))), FeedbackPolicy.ACK_ORIGINAL, stock)
        assert enc.eligible_count == 40
        want = robust_soliton(RsdParams(40, 0.1, 1.0))
        assert np.array_equal(enc.distribution.pmf, want.pmf)

    def test_adaptive_mode_matches_degree_module(self):
        rng = np.random.default_rng(3)
        enc = make_encoder(100, rng)
        policy = FeedbackPolicy.ACK_ADAPTIVE
        apply_feedback(enc, snapshot_of(set(range(60))), policy, stock)
        assert enc.eligible_count == 40
        want = adaptive_degree_dist(robust_soliton(RsdParams(100, 0.1, 1.0)), 40)
        assert np.abs(enc.distribution.pmf - want.pmf).max() == 0.0

    def test_acked_symbols_never_reappear(self):
        rng = np.random.default_rng(4)
        enc = make_encoder(50, rng)
        dec = Decoder(50)
        policy = FeedbackPolicy.ACK_ADAPTIVE
        for _ in range(300):
            apply_feedback(enc, dec, policy, stock)
            if enc.eligible_count == 0:
                break
            sym = enc.encode_next()
            assert not (sym.neighbors & enc.acked)
            dec.receive(sym)

    def test_adaptive_mode_is_redundancy_free(self):
        # no received symbol may reduce to degree zero under ideal adaptive ack
        rng = np.random.default_rng(5)
        enc = make_encoder(100, rng)
        dec = Decoder(100)
        policy = FeedbackPolicy.ACK_ADAPTIVE
        while len(dec.decoded) < dec.k:
            apply_feedback(enc, dec, policy, stock)
            result = dec.receive(enc.encode_next())
            assert not result.redundant
        assert dec.redundant_count == 0

    def test_full_ack_restores_encoder_law_at_receiver(self):
        # with every decoded symbol acknowledged, arriving symbols reduce to
        # exactly their encoded degree; the aggregate histogram then follows
        # the mixture of the per-moment encoder distributions
        rng = np.random.default_rng(6)
        k = 100
        enc = make_encoder(k, rng)
        dec = Decoder(k)
        policy = FeedbackPolicy.ACK_ORIGINAL
        observed = np.zeros(k + 1)
        expected = np.zeros(k + 1)
        n_redundant = 0
        for _ in range(20):  # several blocks' worth of receptions
            enc = make_encoder(k, rng)
            dec = Decoder(k)
            while len(dec.decoded) < dec.k:
                apply_feedback(enc, dec, policy, stock)
                dist = enc.distribution
                result = dec.receive(enc.encode_next())
                observed[result.reduced_degree] += 1
                expected[: dist.pmf.size] += dist.pmf
                n_redundant += result.redundant
        assert n_redundant == 0
        assert chi_square_pvalue(observed, expected / expected.sum()) > 0.01

    @pytest.mark.parametrize("foreign", [{99}, {-1}], ids=["past_end", "negative"])
    def test_rejects_foreign_indices(self, foreign):
        rng = np.random.default_rng(7)
        enc = make_encoder(10, rng)
        with pytest.raises(ValueError):
            apply_feedback(enc, snapshot_of(foreign), FeedbackPolicy.ACK_ORIGINAL, stock)


class TestLayerAck:
    def test_requires_layered_block(self):
        rng = np.random.default_rng(8)
        enc = make_encoder(10, rng)
        with pytest.raises(ValueError):
            apply_feedback(enc, snapshot_of(set(), (True,)), FeedbackPolicy.LAYER_ACK, stock)

    def test_fires_once_and_drops_base_layer(self):
        rng = np.random.default_rng(9)
        layers = LayerConfig((10, 10), (9.0, 1.0))
        enc = make_encoder(20, rng, layers)
        snap = snapshot_of(set(range(10)), (True, False))
        apply_feedback(enc, snap, FeedbackPolicy.LAYER_ACK, stock)
        assert enc.layer_acks_fired == 1
        assert enc.eligible_count == 10
        assert enc.distribution.k == 10  # re-parameterized to the refinement size
        apply_feedback(enc, snap, FeedbackPolicy.LAYER_ACK, stock)
        assert enc.layer_acks_fired == 1  # second report changes nothing

    def test_two_layers_completing_in_one_message_are_both_acked(self):
        # the distribution is set once per message, over what both acks leave
        rng = np.random.default_rng(10)
        layers = LayerConfig((10, 10, 20), (9.0, 3.0, 1.0))
        enc = make_encoder(40, rng, layers)
        sizes = []

        def counted(n):
            sizes.append(n)
            return stock(n)

        apply_feedback(enc, snapshot_of(set(range(20)), (True, True, False)),
                       FeedbackPolicy.LAYER_ACK, counted)
        assert enc.acked_layers == {0, 1} and enc.layer_acks_fired == 2
        assert enc.acked == frozenset(range(20)) and enc.eligible_count == 20
        assert sizes == [20]
        assert np.array_equal(enc.distribution.pmf, stock(20).pmf)

    def test_refinement_selection_becomes_uniform(self):
        rng = np.random.default_rng(11)
        layers = LayerConfig((10, 30), (9.0, 1.0))
        enc = make_encoder(40, rng, layers)
        apply_feedback(enc, snapshot_of(set(range(10)), (True, False)),
                       FeedbackPolicy.LAYER_ACK, stock)
        counts = np.zeros(40)
        n_syms = 30_000
        for _ in range(n_syms):
            sym = enc.encode_next()
            assert all(v >= 10 for v in sym.neighbors)
            for v in sym.neighbors:
                counts[v] += 1
        freq = counts[10:] / counts.sum()
        assert np.abs(freq - 1 / 30).max() < 5 * np.sqrt((1 / 30) / counts.sum())

    def test_end_to_end_single_firing(self):
        rng = np.random.default_rng(12)
        layers = LayerConfig((50, 50), (9.0, 1.0))
        enc = make_encoder(100, rng, layers)
        dec = Decoder(100, layers)
        policy = FeedbackPolicy.LAYER_ACK
        receptions = 0
        while len(dec.decoded) < dec.k:
            apply_feedback(enc, dec, policy, stock)
            dec.receive(enc.encode_next())
            receptions += 1
            assert receptions < 20_000
        assert enc.layer_acks_fired == 1


class TestPolicyObjectsAreShareable:
    def test_policy_reuse_across_encoders_is_pure(self):
        policy = FeedbackPolicy.ACK_ADAPTIVE
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(77)
            enc = make_encoder(60, rng)
            apply_feedback(enc, snapshot_of(set(range(20))), policy, stock)
            sym = enc.encode_next()
            outs.append((sym.neighbors, sym.payload))
        assert outs[0] == outs[1]


ACK_POLICIES = [
    FeedbackPolicy.ACK_ORIGINAL,
    FeedbackPolicy.ACK_ADAPTIVE,
    FeedbackPolicy.LAYER_ACK,
]


def encoder_state(enc):
    """Everything feedback may change, and the positions of every stream."""
    streams = [s for s in (enc._degree_u, enc._group_u, enc._word) if s is not None]
    return (enc.distribution, enc.acked, enc.eligible_count, enc.layer_acks_fired,
            frozenset(enc.acked_layers), [list(p) for p in enc._pools],
            [(len(s.values), s.pos) for s in streams])


@pytest.mark.parametrize("policy", [FeedbackPolicy.NONE, *ACK_POLICIES],
                         ids=lambda p: p.value)
def test_same_snapshot_twice_changes_the_encoder_once(policy):
    # run_trial applies feedback only after a decode event; that equals
    # applying it before every symbol only if an unchanged report is a no-op
    rng = np.random.default_rng(13)
    layers = LayerConfig((10, 20), (9.0, 1.0))
    enc = make_encoder(30, rng, layers)
    for _ in range(5):
        enc.encode_next()
    snap = snapshot_of(set(range(10)) | {12, 25}, (True, False))
    before = encoder_state(enc)
    apply_feedback(enc, snap, policy, stock)
    once = encoder_state(enc)
    apply_feedback(enc, snap, policy, stock)
    assert encoder_state(enc) == once
    assert (once == before) == (policy is FeedbackPolicy.NONE)


class TestAckProperties:
    @given(k=st.integers(2, 40), base=st.integers(1, 39), beta=st.sampled_from([1.0, 3.0, 9.0]),
           layered=st.booleans(), policy=st.sampled_from(ACK_POLICIES),
           erasure=st.sampled_from([0.0, 0.3]), seed=st.integers(0, 2**32 - 1))
    def test_acknowledged_index_never_appears_later(self, k, base, beta, layered, policy,
                                                    erasure, seed):
        # what was acknowledged is read off the decoder, not the encoder
        per_symbol = policy is not FeedbackPolicy.LAYER_ACK
        layers = None
        if layered or not per_symbol:
            base = min(base, k - 1)
            layers = LayerConfig((base, k - base), (beta, 1.0))
        rng = np.random.default_rng(seed)
        enc = make_encoder(k, rng, layers)
        dec = Decoder(k, layers)
        bounds = (0, k) if layers is None else layers.boundaries()
        acked = set()
        for _ in range(50 * k):
            if len(dec.decoded) == k:
                break
            apply_feedback(enc, dec, policy, stock)
            if per_symbol:
                acked |= dec.decoded.keys()
            else:
                for li, complete in enumerate(dec.layers_complete):
                    if complete:
                        acked |= set(range(bounds[li], bounds[li + 1]))
            sym = enc.encode_next()
            assert not (sym.neighbors & acked)
            if rng.random() >= erasure:
                dec.receive(sym)
        assert len(dec.decoded) == k


@pytest.mark.slow
def test_adaptive_ack_saves_exactly_the_redundant_arrivals():
    # Without feedback a redundant arrival changes nothing, and every other
    # one draws its reduced degree from the thinned distribution given j >= 1
    # over uniform undecoded inputs: what the adaptive ack sends.  So in law
    # ACK_ADAPTIVE's completion_received equals NONE's completion_received
    # minus its redundant_count.  Two-sample Kolmogorov-Smirnov tests at
    # significance level 0.01, k=100, 2000 trials per scheme on the scheme
    # streams 0 and 2 of master seed 11; the unadjusted counts must differ,
    # so the test shows it can reject.
    k, trials = 100, 2000
    none = [run_trial(TrialConfig(k=k, seed=(11, 0, 0, t))) for t in range(trials)]
    adaptive = [run_trial(TrialConfig(k=k, seed=(11, 2, 0, t),
                                      policy=FeedbackPolicy.ACK_ADAPTIVE))
                for t in range(trials)]
    received = [t.completion_received for t in adaptive]
    adjusted = [t.completion_received - t.redundant_count for t in none]
    assert stats.ks_2samp(adjusted, received).pvalue > 0.01
    assert stats.ks_2samp([t.completion_received for t in none], received).pvalue < 0.01
