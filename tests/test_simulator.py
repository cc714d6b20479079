"""Tests for the transmission loop, metrics, and experiment drivers."""

import math

import numpy as np
import pytest

from ltfeedback import simulator
from ltfeedback.codec import Decoder, Encoder, InputBlock
from ltfeedback.degree import LayerConfig, RsdParams, reduced_degree_dist, robust_soliton
from ltfeedback.feedback import FeedbackPolicy
from ltfeedback.simulator import (
    TrialConfig,
    distortion_of_trace,
    experiment_deadline_distortion,
    experiment_single_layer_feedback,
    experiment_two_layer_ack,
    format_value,
    run_trial,
    two_layer_config,
)
from oracles import assert_traces_equal, scalar_transmission

# frozen from the model geometry: 10^6 bits/s over 480*320*30 samples/s
FULL_RATE = 0.2170138888888889
D_FULL = 0.740192397133012
D_HALF = 0.8603443479985279


class TestRunTrial:
    def test_total_erasure_with_deadline_receives_nothing(self):
        trace = run_trial(TrialConfig(k=50, seed=0, ser=1.0, deadline=100))
        assert trace.received_total == 0
        assert trace.sent_total == 100
        assert not trace.completed
        assert trace.layers_decoded == 0

    def test_single_symbol_block_completes_immediately(self):
        trace = run_trial(TrialConfig(k=1, seed=1))
        assert trace.completed
        assert trace.completion_received == 1
        assert trace.overhead == 0.0

    def test_total_erasure_without_deadline_rejected(self):
        with pytest.raises(ValueError):
            TrialConfig(k=10, seed=0, ser=1.0)

    def test_total_erasure_with_received_deadline_rejected(self):
        # no symbol ever arrives, so the trial would run to the safety cap
        with pytest.raises(ValueError, match="received"):
            TrialConfig(k=10, seed=0, ser=1.0, deadline=20, deadline_basis="received")

    @pytest.mark.parametrize("seed", [-1, (-1, 0, 0, 0), (1, 0, -1, 0)])
    def test_negative_seed_rejected(self, seed):
        # SeedSequence would refuse it only once the trial starts
        with pytest.raises(ValueError, match="seed entries must be nonnegative"):
            TrialConfig(k=10, seed=seed)

    def test_layer_ack_without_layers_rejected(self):
        # caught at construction, not at the trial's first decode event
        with pytest.raises(ValueError, match="layer acknowledgment requires layers"):
            TrialConfig(k=50, seed=1, policy=FeedbackPolicy.LAYER_ACK)

    def test_ack_original_refuses_a_soliton_missing_below_k(self):
        # the soliton exists at k = 200 but not at 1 symbol: such trials used
        # to raise part way, once 12 or fewer symbols were left
        with pytest.raises(ValueError, match="ack_original rebuilds the soliton at size 1: "
                                             r"spike scale .* = 2.303 exceeds k = 1$"):
            TrialConfig(k=200, c=0.5, delta=0.01, policy=FeedbackPolicy.ACK_ORIGINAL)
        for policy in (FeedbackPolicy.NONE, FeedbackPolicy.ACK_ADAPTIVE):
            TrialConfig(k=200, c=0.5, delta=0.01, policy=policy)

    def test_layer_ack_refuses_a_soliton_missing_over_one_layer(self):
        layers = LayerConfig((10, 10), (9.0, 1.0))
        with pytest.raises(ValueError, match="layer_ack rebuilds the soliton at size 10: "
                                             r"spike scale .* = 10.92 exceeds k = 10$"):
            TrialConfig(k=20, c=0.5, delta=0.01, layers=layers, policy=FeedbackPolicy.LAYER_ACK)
        TrialConfig(k=20, c=0.5, delta=0.01, layers=layers)

    def test_ack_original_check_is_exact(self):
        # accepted exactly when the soliton exists at every size 1..k
        def builds(n, c, delta):
            try:
                RsdParams(n, c, delta)
            except ValueError:
                return False
            return True

        for c in np.linspace(0.05, 1.2, 24):
            for delta in (0.005, 0.01, 0.05, 0.1, 0.3, 0.6, 1.0):
                for k in [*range(1, 12), 40, 300]:
                    try:
                        TrialConfig(k=k, c=c, delta=delta, policy=FeedbackPolicy.ACK_ORIGINAL)
                        accepted = True
                    except ValueError:
                        accepted = False
                    assert accepted == all(builds(n, c, delta) for n in range(1, k + 1)), \
                        (k, c, delta)

    def test_zero_received_deadline_at_total_erasure_ends_at_once(self):
        trace = run_trial(TrialConfig(k=10, seed=0, ser=1.0, deadline=0,
                                      deadline_basis="received"))
        assert trace.sent_total == trace.received_total == 0

    def test_overhead_never_negative(self):
        for seed in range(8):
            trace = run_trial(TrialConfig(k=60, seed=seed))
            assert trace.completed and trace.overhead >= 0.0

    def test_undecoded_counts_never_increase(self):
        trace = run_trial(TrialConfig(k=120, seed=3, ser=0.2))
        totals = trace.decodes[:, 2:].sum(axis=1)
        assert (np.diff(totals) < 0).all()  # every event decodes something
        assert totals[0] < 120 and totals[-1] == 0

    def test_payloads_always_verified(self):
        layers = two_layer_config(80, 0.5, 9.0)
        configs = [
            TrialConfig(k=80, seed=5),
            TrialConfig(k=80, seed=6, ser=0.4),
            TrialConfig(k=80, seed=7, layers=layers, policy=FeedbackPolicy.LAYER_ACK),
            TrialConfig(k=80, seed=8, policy=FeedbackPolicy.ACK_ADAPTIVE),
        ]
        for config in configs:
            assert run_trial(config).payload_errors == 0

    def test_wrong_decoded_value_is_reported(self, monkeypatch):
        # the input the first ripple symbol decodes gets a flipped bit: the
        # int-based payload check must still see it
        drain, corrupted = Decoder._drain, []

        def corrupting_drain(self, first):
            if not corrupted:
                self._value[first] ^= 1
                corrupted.append(first)
            return drain(self, first)

        monkeypatch.setattr(Decoder, "_drain", corrupting_drain)
        trace = run_trial(TrialConfig(k=50, seed=3))
        assert corrupted and trace.payload_errors >= 1

    @pytest.mark.parametrize("over", [0, 1])
    def test_total_erasure_draws_no_symbol(self, monkeypatch, over):
        # a deadline past the safety cap raises at once, one at the cap ends
        # at once: neither draws a symbol that could never arrive
        def no_draw(self):
            raise AssertionError("a symbol was drawn at erasure rate 1")

        monkeypatch.setattr(Encoder, "next_neighbors", no_draw)
        config = TrialConfig(k=10, seed=0, ser=1.0, deadline=simulator._SAFETY_CAP + over)
        if over:
            with pytest.raises(RuntimeError, match="safety cap"):
                run_trial(config)
        else:
            assert run_trial(config).sent_total == simulator._SAFETY_CAP

    def test_safety_cap_is_checked_on_the_gap(self, monkeypatch):
        # at ser = 1 - 1e-9 a gap averages 10^9 symbols: the first one that
        # crosses the 10^7-symbol cap raises before its symbol is drawn
        next_neighbors, draws = Encoder.next_neighbors, []

        def counted(self):
            draws.append(1)
            return next_neighbors(self)

        monkeypatch.setattr(Encoder, "next_neighbors", counted)
        with pytest.raises(RuntimeError, match="safety cap"):
            run_trial(TrialConfig(k=10, seed=0, ser=1 - 1e-9))
        assert len(draws) <= 1

    def test_gap_across_the_sent_deadline_ends_the_trial_at_it(self):
        # k=60 cannot decode from the at most 50 arrivals, so every trial
        # runs to its deadline; unless symbol 50 arrives (chance 1/2), its
        # last gap crosses it
        crossed = 0
        for seed in range(20):
            config = TrialConfig(k=60, seed=seed, ser=0.5, deadline=50)
            trace, (slow, sent) = run_trial(config), scalar_transmission(config)
            assert_traces_equal(trace, slow)
            assert trace.sent_total == 50 and not trace.completed
            assert max(sent) <= 50
            crossed += int(sent[-1] < 50)
        assert 0 < crossed < 20

    @pytest.mark.parametrize("basis", ["sent", "received"])
    def test_zero_deadline_sends_nothing(self, basis):
        trace = run_trial(TrialConfig(k=10, seed=0, ser=0.5, deadline=0, deadline_basis=basis))
        assert trace.sent_total == trace.received_total == 0
        assert trace.decodes.shape == (0, 3) and trace.redundant_at.size == 0

    def test_deterministic_for_fixed_seed(self):
        config = TrialConfig(k=70, seed=11, ser=0.1)
        assert_traces_equal(run_trial(config), run_trial(config))

    def test_deadline_on_received_basis(self):
        config = TrialConfig(k=50, seed=12, ser=0.5, deadline=30,
                             deadline_basis="received")
        trace = run_trial(config)
        assert trace.received_total == 30
        assert trace.sent_total > 30

    def test_redundancy_matches_closed_form_at_frozen_state(self):
        # freeze a decoder state by hand, then measure how often fresh
        # encoder output carries no undecoded neighbor
        k, undecoded = 100, 35
        rng = np.random.default_rng(42)
        dist = robust_soliton(RsdParams(k, 0.1, 1.0))
        block = InputBlock.random(k, 8, rng)
        enc = Encoder(block, dist, rng)
        unknown = set(rng.choice(k, size=undecoded, replace=False).tolist())
        n_syms = 60_000
        redundant = sum(
            1 for _ in range(n_syms)
            if not (enc.encode_next().neighbors & unknown)
        )
        p = reduced_degree_dist(dist, undecoded).pmf[0]
        se = math.sqrt(p * (1 - p) / n_syms)
        assert abs(redundant / n_syms - p) <= 3 * se


def decoded_layers_trace(sizes, decoded_layers):
    """A trace that ended with its first `decoded_layers` layers decoded."""
    after = [0 if i < decoded_layers else n for i, n in enumerate(sizes)]
    decodes = [(sum(sizes), sum(sizes), *after)] if decoded_layers else []
    return simulator.TransmissionTrace(
        k=sum(sizes), layer_sizes=tuple(sizes),
        decodes=np.array(decodes, dtype=np.int64).reshape(-1, 2 + len(sizes)),
        redundant_at=np.zeros(0, dtype=np.int64), sent_total=sum(sizes),
        received_total=sum(sizes), payload_errors=0)


class TestDistortion:
    def test_rate_constants(self):
        assert simulator.FULL_RATE == pytest.approx(FULL_RATE, abs=1e-12)

    def test_nothing_decoded_gives_unit_distortion(self):
        trace = run_trial(TrialConfig(k=20, seed=0, ser=1.0, deadline=10))
        assert distortion_of_trace(trace, 0.5) == 1.0

    def test_full_decode_distortion_value(self):
        layers = two_layer_config(40, 0.5, 9.0)
        trace = run_trial(TrialConfig(k=40, seed=1, layers=layers))
        assert trace.layers_decoded == 2
        d = distortion_of_trace(trace, 0.5)
        assert d == pytest.approx(D_FULL, abs=1e-12)

    def test_base_only_distortion_value(self):
        trace = decoded_layers_trace((20, 20), 1)
        assert trace.layers_decoded == 1
        assert distortion_of_trace(trace, 0.5) == pytest.approx(D_HALF, abs=1e-12)

    def test_single_layer_uses_full_rate(self):
        trace = run_trial(TrialConfig(k=30, seed=2))
        d = distortion_of_trace(trace, 0.5)
        assert d == pytest.approx(D_FULL, abs=1e-12)

    def test_more_than_two_layers_are_refused(self):
        with pytest.raises(ValueError, match="one or two layers"):
            distortion_of_trace(decoded_layers_trace((10, 10, 10), 3), 0.5)


class TestSingleLayerExperiment:
    def test_single_run_is_deterministic(self):
        a = experiment_single_layer_feedback(k=60, runs=1, seed=5)
        b = experiment_single_layer_feedback(k=60, runs=1, seed=5)
        for name in a.schemes:
            assert np.array_equal(a.schemes[name].mean_undecoded_frac,
                                  b.schemes[name].mean_undecoded_frac)

    def test_scheme_ordering_at_small_k(self):
        result = experiment_single_layer_feedback(k=100, runs=400, seed=9)
        none = result.schemes["no_feedback"].mean_overhead
        original = result.schemes["ack_original"].mean_overhead
        adaptive = result.schemes["ack_adaptive"].mean_overhead
        assert adaptive < none < original

    def test_curves_start_full_and_end_empty(self):
        result = experiment_single_layer_feedback(k=50, runs=3, seed=2)
        for stats in result.schemes.values():
            curve = stats.mean_undecoded_frac
            assert curve[0] == 1.0
            assert curve[-1] == 0.0
            assert (np.diff(curve) <= 1e-12).all()

    def test_avalanche_shape(self):
        # the drop from half decoded to nearly done is fast relative to the
        # long buildup that precedes it
        result = experiment_single_layer_feedback(k=300, runs=30, seed=3)
        curve = result.schemes["no_feedback"].mean_undecoded_frac
        r50 = int(np.argmax(curve < 0.5))
        r05 = int(np.argmax(curve < 0.05))
        assert 0 < r50 < r05
        assert (r05 - r50) < r50

    def test_parallel_equals_serial(self):
        a = experiment_single_layer_feedback(k=50, runs=6, seed=13, workers=1)
        b = experiment_single_layer_feedback(k=50, runs=6, seed=13, workers=2)
        for name in a.schemes:
            assert np.array_equal(a.schemes[name].overheads, b.schemes[name].overheads)
            assert np.array_equal(a.schemes[name].mean_undecoded_frac,
                                  b.schemes[name].mean_undecoded_frac)

    def test_trial_order_does_not_matter(self):
        config = lambda t: TrialConfig(k=40, seed=(21, 0, t))
        forward = [run_trial(config(t)) for t in range(5)]
        backward = [run_trial(config(t)) for t in reversed(range(5))][::-1]
        for a, b in zip(forward, backward):
            assert_traces_equal(a, b)


def test_every_scheme_keeps_its_seed_id():
    # the ids key every trial's streams: changing one moves the pinned outputs
    assert {name: scheme.id for name, scheme in simulator.SCHEMES.items()} == {
        "no_feedback": 0, "ack_original": 1, "ack_adaptive": 2,
        "single_layer": 3, "two_layer_no_ack": 4, "two_layer_layer_ack": 5,
    }


class TestTwoLayerExperiment:
    def test_uniform_weights_treat_layers_alike(self):
        result = experiment_two_layer_ack(
            k=200, alpha=0.5, beta=1.0, runs=80, seed=4,
            schemes=("two_layer_no_ack",),
        )
        curves = result.schemes["two_layer_no_ack"].mean_layer_undecoded_frac
        assert np.abs(curves[:, 0] - curves[:, 1]).max() < 0.1

    def test_weighted_layers_split_apart(self):
        result = experiment_two_layer_ack(
            k=200, alpha=0.5, beta=9.0, runs=40, seed=5,
            schemes=("two_layer_no_ack",),
        )
        stats = result.schemes["two_layer_no_ack"]
        curves = stats.mean_layer_undecoded_frac
        assert (curves[:, 1] - curves[:, 0]).max() > 0.3
        base_done = stats.layer_completion_received[:, 0]
        refine_done = stats.layer_completion_received[:, 1]
        assert (base_done < refine_done).all()

    def test_layer_ack_lowers_total_overhead(self):
        result = experiment_two_layer_ack(k=200, alpha=0.5, beta=9.0, runs=40, seed=6,
                                          schemes=("two_layer_no_ack",
                                                   "two_layer_layer_ack"))
        no_ack = result.schemes["two_layer_no_ack"].mean_overhead
        with_ack = result.schemes["two_layer_layer_ack"].mean_overhead
        assert with_ack < no_ack

    def test_runs_any_registered_scheme(self):
        result = experiment_two_layer_ack(k=60, alpha=0.5, beta=9.0, runs=4, seed=15,
                                          schemes=("ack_adaptive",))
        assert list(result.schemes) == ["ack_adaptive"]
        assert (result.schemes["ack_adaptive"].redundant_counts == 0).all()

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            experiment_two_layer_ack(k=100, alpha=1.0, beta=9.0, runs=1, seed=0)

    @pytest.mark.parametrize("schemes", [("two_layer_noack",), ("single_layer", "bogus")])
    def test_unknown_scheme_rejected_before_any_trial(self, monkeypatch, schemes):
        monkeypatch.setattr(simulator, "run_trial", trial_forbidden)
        with pytest.raises(ValueError, match="two_layer_layer_ack"):
            experiment_two_layer_ack(k=40, alpha=0.5, beta=9.0, runs=2, seed=0,
                                     schemes=schemes)

    def test_repeated_scheme_rejected_before_any_trial(self, monkeypatch):
        monkeypatch.setattr(simulator, "run_trial", trial_forbidden)
        with pytest.raises(ValueError, match="more than once"):
            experiment_two_layer_ack(k=40, alpha=0.5, beta=9.0, runs=2, seed=0,
                                     schemes=("single_layer", "single_layer"))

    def test_scheme_streams_do_not_depend_on_catalogue_order(self):
        run = lambda schemes: experiment_two_layer_ack(
            k=40, alpha=0.5, beta=9.0, runs=3, seed=14, schemes=schemes).schemes
        alone = run(("two_layer_layer_ack",))
        reordered = run(("single_layer", "two_layer_layer_ack", "two_layer_no_ack"))
        assert np.array_equal(alone["two_layer_layer_ack"].overheads,
                              reordered["two_layer_layer_ack"].overheads)

    def test_parallel_equals_serial(self):
        a, b = (experiment_two_layer_ack(k=50, alpha=0.5, beta=9.0, runs=4, seed=17,
                                         ser=0.2, workers=w) for w in (1, 2))
        assert list(a.schemes) == list(b.schemes)
        for name in a.schemes:
            sa, sb = a.schemes[name], b.schemes[name]
            assert np.array_equal(sa.overheads, sb.overheads)
            assert np.array_equal(sa.mean_layer_undecoded_frac, sb.mean_layer_undecoded_frac)
            assert np.array_equal(sa.layer_completion_received, sb.layer_completion_received)


class TestDistortionExperiment:
    def test_full_erasure_gives_unit_distortion(self):
        result = experiment_deadline_distortion(
            k=40, alpha=0.5, beta=9.0, ser_grid=[1.0], seconds=5, seed=7)
        for name, means in result.mean_distortion.items():
            assert means[0] == 1.0

    def test_distortion_nondecreasing_in_erasure_rate(self):
        result = experiment_deadline_distortion(
            k=60, alpha=0.5, beta=9.0, ser_grid=[0.0, 0.3, 0.6, 0.9], seconds=50, seed=8)
        for name, trials in result.per_trial.items():
            means = trials.mean(axis=1)
            se = trials.std(axis=1, ddof=1) / math.sqrt(trials.shape[1])
            for i in range(len(means) - 1):
                gap_se = math.hypot(se[i], se[i + 1])
                assert means[i + 1] >= means[i] - 2 * gap_se

    def test_values_live_in_model_range(self):
        result = experiment_deadline_distortion(
            k=40, alpha=0.5, beta=9.0, ser_grid=[0.0, 0.5], seconds=10, seed=9)
        for means in result.mean_distortion.values():
            assert ((means >= D_FULL - 1e-12) & (means <= 1.0)).all()

    def test_acked_layered_code_beats_single_layer_in_mid_band(self):
        # the deadline falls after the base-layer avalanche but before the
        # single-layer one, so the acknowledged layered code wins clearly
        result = experiment_deadline_distortion(
            k=100, alpha=0.5, beta=9.0, ser_grid=[0.35, 0.45, 0.55],
            seconds=300, seed=10,
            schemes=("single_layer", "two_layer_layer_ack"),
        )
        single = result.mean_distortion["single_layer"]
        acked = result.mean_distortion["two_layer_layer_ack"]
        assert (acked < single - 0.01).all(), (acked, single)

    @pytest.mark.parametrize("schemes", [("two_layer_noack",), ("single_layer", "bogus")])
    def test_unknown_scheme_rejected_before_any_trial(self, monkeypatch, schemes):
        monkeypatch.setattr(simulator, "run_trial", trial_forbidden)
        with pytest.raises(ValueError, match="two_layer_layer_ack"):
            experiment_deadline_distortion(k=40, alpha=0.5, beta=9.0, ser_grid=[0.2],
                                           seconds=2, seed=0, schemes=schemes)

    def test_repeated_scheme_rejected_before_any_trial(self, monkeypatch):
        monkeypatch.setattr(simulator, "run_trial", trial_forbidden)
        with pytest.raises(ValueError, match="more than once"):
            experiment_deadline_distortion(k=40, alpha=0.5, beta=9.0, ser_grid=[0.2],
                                           seconds=3, seed=0,
                                           schemes=("single_layer", "single_layer"))

    def test_point_rerun_alone_matches_its_sweep(self):
        # trials are keyed on the erasure rate, not on its place in the grid
        grid = np.round(np.arange(0.0, 1.0001, 0.05), 10)
        run = lambda ser_grid: experiment_deadline_distortion(
            k=40, alpha=0.5, beta=9.0, ser_grid=ser_grid, seconds=4, seed=9001).per_trial
        alone, sweep = run([0.35]), run(grid)
        assert grid[7] == 0.35
        for name in alone:
            assert np.array_equal(alone[name][0], sweep[name][7])

    def test_parallel_equals_serial(self):
        a, b = (experiment_deadline_distortion(k=40, alpha=0.5, beta=9.0,
                                               ser_grid=[0.0, 0.3, 0.6], seconds=4,
                                               seed=19, workers=w) for w in (1, 2))
        assert list(a.per_trial) == list(b.per_trial)
        for name in a.per_trial:
            assert np.array_equal(a.per_trial[name], b.per_trial[name])
        assert a.payload_errors == b.payload_errors == 0


def trial_forbidden(config):
    raise AssertionError("a trial ran before the scheme names were checked")


EXPERIMENTS = {
    "single": lambda workers: experiment_single_layer_feedback(
        k=30, runs=2, seed=1, workers=workers),
    "two-layer": lambda workers: experiment_two_layer_ack(
        k=30, alpha=0.5, beta=9.0, runs=2, seed=1, workers=workers),
    "distortion": lambda workers: experiment_deadline_distortion(
        k=30, alpha=0.5, beta=9.0, ser_grid=[0.0, 0.5], seconds=2, seed=1, workers=workers),
}


ZERO_TRIALS = {
    "single": lambda: experiment_single_layer_feedback(k=10, runs=0, seed=1),
    "two-layer": lambda: experiment_two_layer_ack(k=30, alpha=0.5, beta=9.0, runs=0, seed=1),
    "distortion": lambda: experiment_deadline_distortion(
        k=30, alpha=0.5, beta=9.0, ser_grid=[0.0, 0.5], seconds=0, seed=1),
}


@pytest.mark.parametrize("experiment", sorted(ZERO_TRIALS))
def test_zero_trials_rejected_before_any_trial(monkeypatch, experiment):
    # no aggregate of zero trials: not an IndexError, not a NaN mean
    monkeypatch.setattr(simulator, "run_trial", trial_forbidden)
    with pytest.raises(ValueError, match="trials per scheme must be >= 1"):
        ZERO_TRIALS[experiment]()


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
@pytest.mark.parametrize("workers, pools", [(1, 0), (2, 1)])
def test_one_process_pool_per_experiment(monkeypatch, experiment, workers, pools):
    created = []

    class CountingPool(simulator.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(simulator, "ProcessPoolExecutor", CountingPool)
    EXPERIMENTS[experiment](workers)
    assert len(created) == pools


class TestFormatting:
    def test_nine_significant_digits(self):
        assert format_value(0.15000000000000002) == "0.15"
        assert format_value(1 / 3) == "0.333333333"
        assert format_value(7) == "7"
        assert format_value(True) == "1"
