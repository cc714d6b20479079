"""Tests for the XOR encoder and the peeling decoder."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ltfeedback.codec import Decoder, Encoder, InputBlock, OutputSymbol
from ltfeedback.degree import (
    DegreeDistribution,
    LayerConfig,
    RsdParams,
    robust_soliton,
)
from oracles import ReferenceDecoder, chi_square_pvalue


def point_mass(k: int, degree: int) -> DegreeDistribution:
    pmf = np.zeros(k + 1)
    pmf[degree] = 1.0
    return DegreeDistribution(k, pmf)


def xor_of(block: InputBlock, indices) -> int:
    value = 0
    for i in indices:
        value ^= block.payloads[i]
    return value


class TestInputBlock:
    def test_rejects_an_empty_block(self):
        with pytest.raises(ValueError):
            InputBlock([])

    def test_rejects_a_width_below_one_byte(self):
        with pytest.raises(ValueError):
            InputBlock.random(10, 0, np.random.default_rng(0))

    def test_random_block_shape(self):
        raw = np.random.default_rng(0).bytes(40)
        block = InputBlock.random(10, 4, np.random.default_rng(0))
        assert block.k == 10
        assert block.payloads == [int.from_bytes(raw[i:i + 4], "big") for i in range(0, 40, 4)]

    def test_layer_sizes_must_match(self):
        with pytest.raises(ValueError):
            InputBlock.random(10, 4, np.random.default_rng(0),
                              LayerConfig((5, 4), (2.0, 1.0)))


class TestEncoder:
    def test_single_symbol_block(self):
        rng = np.random.default_rng(1)
        block = InputBlock.random(1, 8, rng)
        enc = Encoder(block, point_mass(1, 1), rng)
        for _ in range(5):
            sym = enc.encode_next()
            assert sym.neighbors == frozenset({0})
            assert sym.payload == block.payloads[0]

    def test_full_degree_covers_whole_block(self):
        rng = np.random.default_rng(2)
        block = InputBlock.random(12, 8, rng)
        enc = Encoder(block, point_mass(12, 12), rng)
        sym = enc.encode_next()
        assert sym.neighbors == frozenset(range(12))
        assert sym.payload == xor_of(block, range(12))

    def test_payload_is_xor_of_neighbors(self):
        rng = np.random.default_rng(3)
        block = InputBlock.random(50, 8, rng)
        enc = Encoder(block, robust_soliton(RsdParams(50, 0.1, 1.0)), rng)
        for _ in range(200):
            sym = enc.encode_next()
            assert sym.payload == xor_of(block, sym.neighbors)

    def test_uniform_inclusion_and_degree_fit(self):
        k, n_syms = 100, 100_000
        rng = np.random.default_rng(5)
        block = InputBlock.random(k, 8, rng)
        dist = robust_soliton(RsdParams(k, 0.1, 1.0))
        enc = Encoder(block, dist, rng)
        inclusion = np.zeros(k)
        degree_hist = np.zeros(k + 1)
        total_edges = 0
        for _ in range(n_syms):
            sym = enc.encode_next()
            degree_hist[sym.degree] += 1
            total_edges += sym.degree
            for v in sym.neighbors:
                inclusion[v] += 1
        # every index equally likely to be a neighbor
        p = total_edges / (n_syms * k)
        se = math.sqrt(p * (1 - p) / n_syms)
        assert np.all(np.abs(inclusion / n_syms - p) <= 4 * se)
        assert chi_square_pvalue(degree_hist, dist.pmf) > 0.01

    def test_degree_clamped_to_eligible_count(self):
        rng = np.random.default_rng(6)
        block = InputBlock.random(10, 8, rng)
        enc = Encoder(block, point_mass(10, 10), rng)
        enc.ack_indices(set(range(6)))
        sym = enc.encode_next()
        assert sym.neighbors == frozenset(range(6, 10))

    def test_acked_indices_outside_the_block_are_rejected(self):
        rng = np.random.default_rng(11)
        enc = Encoder(InputBlock.random(5, 8, rng), point_mass(5, 1), rng)
        for bad in ({-1}, {5}, {0, 7}):
            with pytest.raises(ValueError):
                enc.ack_indices(bad)

    @pytest.mark.parametrize("layers", [None, LayerConfig((15, 25), (3.0, 1.0))])
    def test_incremental_ack_equals_rebuild(self, layers):
        # acks only grow: each set removes only its new indices, and one that
        # misses an earlier ack (17) leaves it excluded; a layer ack (an int)
        # removes its layer's indices the same way; the state equals a fresh
        # encoder's rebuilt from the union, pools ascending again
        rng = np.random.default_rng(12)
        block = InputBlock.random(40, 8, rng, layers)
        dist = robust_soliton(RsdParams(40, 0.1, 1.0))
        enc = Encoder(block, dist, rng)
        acks = [{3}, {3, 17, 30}, {3, 17, 30}, set(range(15)) | {30}, set(range(39))]
        if layers is not None:
            acks.insert(3, 0)  # layer 0 is indices 0..14
        bounds = (0, 40) if layers is None else layers.boundaries()
        union = set()
        for acked in acks:
            for _ in range(5):
                enc.encode_next()  # draws leave the pools out of order
            if isinstance(acked, int):
                enc.ack_layer(acked)
                acked = set(range(bounds[acked], bounds[acked + 1]))
            else:
                enc.ack_indices(acked)
            union |= acked
            fresh = Encoder(block, dist, np.random.default_rng(0))
            fresh._acked = set(union)
            fresh._ascending = [[i for i in range(lo, hi) if i not in union]
                                for lo, hi in zip(bounds[:-1], bounds[1:])]
            fresh._set_groups()
            for name in ("_acked", "_pools", "_counts", "_masses", "_weights"):
                assert getattr(enc, name) == getattr(fresh, name), name
            assert union - acked <= enc.acked  # earlier acks this set misses stay
            assert enc.eligible_count == 40 - len(union)

    def test_layer_ack_refuses_a_missing_layer_and_counts_each_once(self):
        rng = np.random.default_rng(13)
        layers = LayerConfig((10, 10), (9.0, 1.0))
        enc = Encoder(InputBlock.random(20, 8, rng, layers), point_mass(20, 1), rng)
        for bad in (-1, 2):
            with pytest.raises(ValueError):
                enc.ack_layer(bad)
        assert enc.acked_layers == set() and enc.layer_acks_fired == 0
        assert enc.eligible_count == 20
        for _ in range(2):
            enc.ack_layer(0)
            assert enc.acked_layers == {0} and enc.layer_acks_fired == 1
            assert enc.eligible_count == 10 and enc.acked == frozenset(range(10))

    def test_acked_indices_never_appear(self):
        rng = np.random.default_rng(7)
        block = InputBlock.random(40, 8, rng)
        enc = Encoder(block, robust_soliton(RsdParams(40, 0.1, 1.0)), rng)
        acked = set(range(0, 40, 3))
        enc.ack_indices(acked)
        for _ in range(300):
            assert not (enc.encode_next().neighbors & acked)

    def test_empty_eligible_set_is_an_error(self):
        rng = np.random.default_rng(8)
        block = InputBlock.random(3, 8, rng)
        enc = Encoder(block, point_mass(3, 1), rng)
        enc.ack_indices({0, 1, 2})
        with pytest.raises(RuntimeError):
            enc.encode_next()

    def test_rejects_distribution_with_degree_zero_mass(self):
        rng = np.random.default_rng(9)
        block = InputBlock.random(3, 8, rng)
        bad = DegreeDistribution(3, [0.5, 0.5, 0, 0])
        with pytest.raises(ValueError):
            Encoder(block, bad, rng)

    def test_layered_selection_favors_heavy_layer(self):
        k, beta, n_syms = 100, 9.0, 20_000
        rng = np.random.default_rng(10)
        layers = LayerConfig((50, 50), (beta, 1.0))
        block = InputBlock.random(k, 8, rng, layers)
        enc = Encoder(block, point_mass(k, 1), rng)
        base_hits = 0
        for _ in range(n_syms):
            (v,) = enc.encode_next().neighbors
            base_hits += v < 50
        p = beta * 50 / (beta * 50 + 50)
        se = math.sqrt(p * (1 - p) / n_syms)
        assert abs(base_hits / n_syms - p) <= 4 * se

    def test_deterministic_for_fixed_seed(self):
        def stream(seed):
            rng = np.random.default_rng(seed)
            block = InputBlock.random(30, 8, rng)
            enc = Encoder(block, robust_soliton(RsdParams(30, 0.1, 1.0)), rng)
            return [(enc.encode_next().neighbors, enc.encode_next().payload)
                    for _ in range(50)]

        assert stream(123) == stream(123)


class TestDecoder:
    def test_degree_one_decodes_immediately(self):
        dec = Decoder(5)
        result = dec.receive(OutputSymbol(frozenset({3}), 0x6869))
        assert result.newly_decoded == 1
        assert dec.decoded == {3: 0x6869}

    def test_hand_checked_release(self):
        dec = Decoder(5)
        r1 = dec.receive(OutputSymbol(frozenset({1, 2}), 0b0110))
        assert r1.newly_decoded == 0 and r1.reduced_degree == 2
        r2 = dec.receive(OutputSymbol(frozenset({1}), 0b0101))
        assert r2.newly_decoded == 2
        assert dec.decoded[1] == 0b0101
        assert dec.decoded[2] == 0b0110 ^ 0b0101

    def test_redundant_symbol_counted_not_errored(self):
        dec = Decoder(3)
        dec.receive(OutputSymbol(frozenset({0}), 97))
        result = dec.receive(OutputSymbol(frozenset({0}), 97))
        assert result.redundant and result.reduced_degree == 0
        assert dec.redundant_count == 1

    def test_stall_and_restart(self):
        # two buffered symbols stall until a fresh degree-one symbol arrives
        dec = Decoder(4)
        dec.receive(OutputSymbol(frozenset({0, 1}), 3))
        dec.receive(OutputSymbol(frozenset({1, 2}), 6))
        assert dec.buffered_count == 2
        result = dec.receive(OutputSymbol(frozenset({0}), 1))
        assert result.newly_decoded == 3
        assert dec.decoded == {0: 1, 1: 2, 2: 4}

    def test_duplicate_buffered_symbols_are_retained(self):
        dec = Decoder(4)
        dec.receive(OutputSymbol(frozenset({0, 1}), 3))
        dec.receive(OutputSymbol(frozenset({0, 1}), 3))
        assert dec.buffered_count == 2

    def test_rejects_unknown_indices(self):
        dec = Decoder(3)
        with pytest.raises(ValueError):
            dec.receive(OutputSymbol(frozenset({5}), 97))

    @pytest.mark.parametrize("neighbors", [frozenset(), frozenset({-1}), frozenset({0, 3})])
    def test_invalid_symbol_raises_and_changes_nothing(self, neighbors):
        # receive validates before it strips or buffers anything
        dec = Decoder(3)
        dec.receive(OutputSymbol(frozenset({0, 1}), 3))
        with pytest.raises(ValueError):
            dec.receive(OutputSymbol(neighbors, 97))
        assert dec.buffered_count == 1 and not dec.decoded
        assert dec.redundant_count == 0
        assert dec.receive(OutputSymbol(frozenset({0}), 1)).newly_decoded == 2

    def test_decoded_is_a_live_view_in_decode_order(self):
        dec = Decoder(4)
        decoded = dec.decoded
        assert decoded == {} and len(decoded) == 0
        dec.receive(OutputSymbol(frozenset({2}), 5))
        dec.receive(OutputSymbol(frozenset({0, 3}), 6))
        assert list(decoded.items()) == [(2, 5)]
        dec.receive(OutputSymbol(frozenset({3}), 7))  # releases 0 after 3
        assert list(decoded.items()) == [(2, 5), (3, 7), (0, 6 ^ 7)]
        assert len(decoded) == dec.k - 1 and decoded is dec.decoded

    def test_decoded_is_read_only(self):
        dec = Decoder(2)
        dec.receive(OutputSymbol(frozenset({0}), 5))
        with pytest.raises(TypeError):
            dec.decoded[1] = 9
        with pytest.raises(TypeError):
            dec.decoded[0] = 4
        with pytest.raises(TypeError):
            del dec.decoded[0]
        assert dec.decoded == {0: 5} and dec.undecoded_per_layer == (1,)

    def test_completion_flags(self):
        dec = Decoder(2)
        assert len(dec.decoded) < dec.k
        dec.receive(OutputSymbol(frozenset({0}), 120))
        assert len(dec.decoded) < dec.k
        dec.receive(OutputSymbol(frozenset({1}), 121))
        assert len(dec.decoded) == dec.k

    def test_per_layer_progress(self):
        layers = LayerConfig((2, 2), (5.0, 1.0))
        dec = Decoder(4, layers)
        dec.receive(OutputSymbol(frozenset({0}), 97))
        dec.receive(OutputSymbol(frozenset({1}), 98))
        assert dec.layers_complete == (True, False)
        assert dec.undecoded_per_layer == (0, 2)

    def test_layer_sizes_must_match(self):
        with pytest.raises(ValueError):
            Decoder(5, LayerConfig((2, 2), (5.0, 1.0)))

    def test_randomized_decode_matches_ground_truth(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            block = InputBlock.random(100, 8, rng)
            enc = Encoder(block, robust_soliton(RsdParams(100, 0.1, 1.0)), rng)
            dec = Decoder(100)
            received = 0
            while len(dec.decoded) < dec.k:
                dec.receive(enc.encode_next())
                received += 1
                assert received < 5000
            assert dec.decoded == dict(enumerate(block.payloads))

    def test_stripping_never_corrupts_partial_decodings(self):
        # even decoded prefixes of an unfinished run must match the source
        rng = np.random.default_rng(33)
        block = InputBlock.random(60, 8, rng)
        enc = Encoder(block, robust_soliton(RsdParams(60, 0.1, 1.0)), rng)
        dec = Decoder(60)
        for _ in range(45):
            dec.receive(enc.encode_next())
            for i, payload in dec.decoded.items():
                assert payload == block.payloads[i]


@st.composite
def blocks_and_streams(draw):
    """A source block, a set of distinct output symbols over it, and a stream
    that sends them in any order, each any number of times (or never)."""
    k = draw(st.integers(1, 24))
    width = draw(st.integers(1, 3))
    block = InputBlock(draw(st.lists(st.integers(0, 256**width - 1), min_size=k, max_size=k)))
    neighbor_sets = draw(st.lists(st.frozensets(st.integers(0, k - 1), min_size=1),
                                  max_size=3 * k))
    stream = draw(st.lists(st.integers(0, len(neighbor_sets) - 1), max_size=6 * k)
                  if neighbor_sets else st.just([]))
    return block, [neighbor_sets[i] for i in stream]


@st.composite
def layered_blocks_and_streams(draw):
    """blocks_and_streams, on a block that may be split into 2-4 layers."""
    block, stream = draw(blocks_and_streams())
    if block.k >= 2 and draw(st.booleans()):
        cuts = sorted(draw(st.sets(st.integers(1, block.k - 1), min_size=1,
                                   max_size=min(3, block.k - 1))))
        sizes = [hi - lo for lo, hi in zip([0] + cuts, cuts + [block.k])]
        weights = draw(st.lists(st.integers(1, 9), min_size=len(sizes), max_size=len(sizes)))
        block = InputBlock(block.payloads, LayerConfig(tuple(sizes), tuple(weights)))
    return block, stream


class TestDecoderProperties:
    @given(layered_blocks_and_streams())
    def test_matches_reference_decoder(self, case):
        block, stream = case
        dec = Decoder(block.k, block.layers)
        ref = ReferenceDecoder(block.k, block.layers)
        singles = [frozenset({i}) for i in range(block.k)]
        for neighbors in stream + singles:
            payload = xor_of(block, neighbors)
            assert dec.receive(OutputSymbol(neighbors, payload)) == ref.receive(neighbors, payload)
            assert dec.buffered_count == ref.buffered_count
            assert dec.undecoded_per_layer == ref.undecoded_per_layer
            assert dec.decoded == ref.decoded

    @given(blocks_and_streams())
    def test_never_yields_a_wrong_payload(self, case):
        block, stream = case
        dec = Decoder(block.k)
        for neighbors in stream:
            dec.receive(OutputSymbol(neighbors, xor_of(block, neighbors)))
            for i, payload in dec.decoded.items():
                assert payload == block.payloads[i]
            assert sum(dec.undecoded_per_layer) == block.k - len(dec.decoded)
        # every input sent on its own finishes the decode, correctly
        for i in range(block.k):
            dec.receive(OutputSymbol(frozenset({i}), block.payloads[i]))
        assert dec.decoded == dict(enumerate(block.payloads))
