"""Erasure-channel transmission loop, metric collection, and experiments.

A trial streams encoder output through a memoryless erasure channel into
the peeling decoder and applies the feedback policy after every reception
that decoded something.  Feedback on an unchanged decoder state changes
nothing, so this is the same as applying it before every encoded symbol.
For the same reason an erased symbol changes nothing but the sent count,
so the channel draws the gap between arrivals, geometric with success
probability 1 - ser, and the encoder builds only the symbols that arrive.
The trace is an event log: a row per reception that decoded something and
the receptions that were redundant, for between those nothing changes.
Experiment drivers average many independent trials: the single-layer
feedback comparison, the two-layer layer-acknowledgment comparison, and
the deadline-limited distortion sweep over erasure rates.  Trial t of a
scheme at erasure rate ser draws from SeedSequence(master seed,
spawn_key=(scheme id, round(ser * 10^6), t)), so aggregates depend neither
on execution order nor on the grid a trial runs in.  The trial's sequence
spawns one substream each for the source block, the encoder (which spawns
its own three) and the channel; no generator is built on a substream the
trial never reads.  Each experiment runs all its trials as one batch, in
one process pool when it has workers.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain, combinations, islice, repeat
from typing import Optional

import numpy as np
import numpy.random  # noqa: F401  # loaded lazily otherwise: once in every forked worker

from . import __version__
from .codec import _BLOCK, Decoder, Encoder, InputBlock
from .degree import LayerConfig, RsdParams, robust_soliton
from .feedback import FeedbackPolicy, apply_feedback

__all__ = [
    "TrialConfig",
    "TransmissionTrace",
    "run_trial",
    "FULL_RATE",
    "DEADLINE_FACTOR",
    "distortion_of_trace",
    "Scheme",
    "SCHEMES",
    "SchemeStats",
    "SchemeExperiment",
    "DistortionExperiment",
    "two_layer_config",
    "experiment_single_layer_feedback",
    "experiment_two_layer_ack",
    "experiment_deadline_distortion",
    "write_csv",
    "write_manifest",
    "format_value",
]

_SAFETY_CAP = 10_000_000  # sent-symbol bound against runaway trials
PAYLOAD_WIDTH = 8  # bytes per source symbol


@dataclass(frozen=True)
class TrialConfig:
    """Everything one transmission trial needs.  `seed` is a master seed or a
    tuple (master seed, *spawn key).  The robust soliton must exist at k and
    at every size the policy rebuilds it at, so no trial fails part way."""

    k: int
    seed: object = 0
    c: float = 0.1
    delta: float = 1.0
    layers: Optional[LayerConfig] = None
    policy: FeedbackPolicy = FeedbackPolicy.NONE
    ser: float = 0.0
    deadline: Optional[int] = None
    deadline_basis: str = "sent"

    def __post_init__(self):
        if not 0.0 <= self.ser <= 1.0:
            raise ValueError("symbol erasure rate must lie in [0, 1]")
        seed = self.seed if isinstance(self.seed, tuple) else (self.seed,)
        if any(part < 0 for part in seed):
            raise ValueError(f"seed entries must be nonnegative, not {self.seed}")
        if self.deadline_basis not in ("sent", "received"):
            raise ValueError("deadline_basis must be 'sent' or 'received'")
        if self.deadline is not None and self.deadline < 0:
            raise ValueError("deadline must be nonnegative")
        if self.ser >= 1.0 and self.deadline is None:
            raise ValueError("ser = 1 with no deadline would never terminate")
        if self.ser >= 1.0 and self.deadline_basis == "received" and self.deadline:
            raise ValueError("ser = 1 delivers no symbol, so a deadline on received "
                             "symbols would never be reached")
        if self.layers is not None and self.layers.k != self.k:
            raise ValueError("layer sizes must sum to k")
        if self.policy is FeedbackPolicy.LAYER_ACK and self.layers is None:
            raise ValueError("layer acknowledgment requires layers")
        RsdParams(self.k, self.c, self.delta)
        # sizes 1..8 decide every size below k: c*ln(n/delta)/sqrt(n) peaks at n = delta*e^2
        rebuilt = range(1, min(self.k, 9)) if self.policy is FeedbackPolicy.ACK_ORIGINAL else ()
        if self.policy is FeedbackPolicy.LAYER_ACK:  # what any proper subset of layers leaves
            m = self.layers.layer_sizes
            rebuilt = sorted({sum(left) for r in range(1, len(m)) for left in combinations(m, r)})
        for n in rebuilt:
            try:
                RsdParams(n, self.c, self.delta)
            except ValueError as exc:
                raise ValueError(
                    f"{self.policy.value} rebuilds the soliton at size {n}: {exc}") from None


@dataclass
class TransmissionTrace:
    """Event log of a trial.  Nothing changes between its events: a row of
    `decodes` per reception that decoded something, and `redundant_at`."""

    k: int
    layer_sizes: tuple
    decodes: np.ndarray  # (events, 2 + n_layers): received, sent, undecoded per layer after
    redundant_at: np.ndarray  # 1-based receptions whose arrival had reduced degree 0
    sent_total: int
    received_total: int
    payload_errors: int

    @property
    def completed(self) -> bool:
        return len(self.decodes) > 0 and not self.decodes[-1, 2:].any()

    @property
    def completion_received(self) -> Optional[int]:
        return int(self.decodes[-1, 0]) if self.completed else None

    @property
    def overhead(self) -> Optional[float]:
        """received-at-completion / k - 1; None if the trial never finished."""
        if self.completion_received is None:
            return None
        return self.completion_received / self.k - 1.0

    @property
    def redundant_count(self) -> int:
        return len(self.redundant_at)

    @property
    def layer_completion_received(self) -> tuple:
        """Reception that finished each layer, None for an unfinished one."""
        done = self.decodes[:, 2:] == 0
        return tuple(int(self.decodes[d.argmax(), 0]) if d.any() else None for d in done.T)

    @property
    def layers_decoded(self) -> int:
        """Leading fully-decoded layers; a refinement layer without its base
        contributes nothing."""
        left = self.decodes[-1, 2:].tolist() if len(self.decodes) else self.layer_sizes
        return next((i for i, n in enumerate(left) if n), len(left))


def _point_key(ser: float) -> int:
    """Seed key of an erasure rate: the same rate on any grid draws the same
    trials.  A rate that is not finite is left for TrialConfig to refuse."""
    return round(ser * 10**6) if math.isfinite(ser) else ser


def run_trial(config: TrialConfig) -> TransmissionTrace:
    """Run one transmission until full decode, the deadline, or the safety cap.

    The feedback policy, unless it is none, is applied after every reception
    that decoded something and left the block incomplete: on an unchanged
    decoder state it changes nothing, so this equals ideal, zero-latency
    feedback before every symbol.  For the same reason only arrivals matter:
    the channel draws the symbols sent up to and including each arrival,
    Geometric(1 - ser) by inversion of a uniform (1 at ser 0, infinite at 1),
    and the encoder draws the neighbors of arrivals only.  A gap past a
    sent-basis deadline ends the trial there; one past the safety cap raises.
    The source block, the encoder and the channel draw from PCG64 substreams
    of the config's seed.  Every value in the decoder's report, `decoded`, is
    checked against the source payload at its index.
    """
    seed = config.seed if isinstance(config.seed, tuple) else (config.seed,)
    source, coder, channel = np.random.SeedSequence(seed[0], spawn_key=seed[1:]).spawn(3)
    k = config.k
    block = InputBlock.random(k, PAYLOAD_WIDTH, np.random.default_rng(source), config.layers)
    builder = lambda n: robust_soliton(RsdParams(n, config.c, config.delta))
    encoder = Encoder(block, builder(k), np.random.default_rng(coder), dist_builder=builder)
    ser = config.ser
    if 0.0 < ser < 1.0:  # symbols sent up to and including each arrival
        draw, log_ser = np.random.default_rng(channel).random, math.log(ser)
        uniform = chain.from_iterable(iter(lambda: draw(_BLOCK).tolist(), None)).__next__
        gap = lambda: 1 + int(math.log1p(-uniform()) / log_ser)  # Geometric(1 - ser)
    else:  # every symbol arrives, or none ever does
        gap = repeat(1 if ser == 0.0 else math.inf).__next__
    decoder = Decoder(k, config.layers)
    layer_sizes = (k,) if config.layers is None else config.layers.layer_sizes

    payloads = block.payloads
    decoded = decoder.decoded
    next_neighbors, add = encoder.next_neighbors, decoder._add
    sent = received = 0
    decodes: list[tuple] = []  # (received, sent, undecoded per layer after it)
    redundant_at: list[int] = []
    deadline = math.inf if config.deadline is None else config.deadline
    max_received, max_sent = ((math.inf, deadline) if config.deadline_basis == "sent"
                              else (deadline, math.inf))
    last = min(max_sent, _SAFETY_CAP)  # a gap past it ends the trial or exceeds the cap
    policy = config.policy
    feedback = policy is not FeedbackPolicy.NONE

    while len(decoded) < k and received < max_received:
        sent += gap()
        if sent > last:
            if max_sent > _SAFETY_CAP:
                raise RuntimeError("trial exceeded the sent-symbol safety cap")
            sent = max_sent
            break
        received += 1
        reduced, newly = add(next_neighbors(), 0, payloads)
        if newly:
            decodes.append((received, sent, *decoder.undecoded_per_layer))
            if feedback and len(decoded) < k:
                apply_feedback(encoder, decoder, policy)
        elif not reduced:
            redundant_at.append(received)

    return TransmissionTrace(
        k=k,
        layer_sizes=layer_sizes,
        decodes=np.array(decodes, dtype=np.int64).reshape(-1, 2 + len(layer_sizes)),
        redundant_at=np.array(redundant_at, dtype=np.int64),
        sent_total=sent,
        received_total=received,
        payload_errors=sum(1 for i, value in decoded.items() if payloads[i] != value),
    )


# The paper's source: 1 Mbit/s of 480x320 video at 30 frames/s, in bits per
# sample, with each second's block due within DEADLINE_FACTOR * k sent symbols.
FULL_RATE = 1e6 / (480 * 320 * 30)
DEADLINE_FACTOR = 2


def distortion_of_trace(trace: TransmissionTrace, alpha: float) -> float:
    """Distortion 2^(-2r) of a unit-variance Gaussian source, at the rate r
    that the layers fully decoded when the trial ended give: FULL_RATE for
    the whole block, the fraction `alpha` of it for the base layer alone,
    and 0 for nothing.  The model covers one or two layers."""
    n_layers = len(trace.layer_sizes)
    if n_layers > 2:
        raise ValueError("distortion model covers one or two layers")
    rates = (0.0, FULL_RATE) if n_layers == 1 else (0.0, alpha * FULL_RATE, FULL_RATE)
    return 2.0 ** (-2.0 * rates[trace.layers_decoded])


# ---------------------------------------------------------------------------
# Experiment drivers


@dataclass(frozen=True)
class Scheme:
    """A transmission scheme.  `id` keys its trials' seeds; a layered scheme
    runs on the experiment's two-layer split, any other on the plain block."""

    id: int
    layered: bool
    policy: FeedbackPolicy


# Ids are fixed per name: a scheme's trials draw the same streams whichever
# experiment runs it, beside whichever others, in whatever order.
# no_feedback and single_layer run alike but keep their own streams.
SCHEMES = {
    "no_feedback": Scheme(0, False, FeedbackPolicy.NONE),
    "ack_original": Scheme(1, False, FeedbackPolicy.ACK_ORIGINAL),
    "ack_adaptive": Scheme(2, False, FeedbackPolicy.ACK_ADAPTIVE),
    "single_layer": Scheme(3, False, FeedbackPolicy.NONE),
    "two_layer_no_ack": Scheme(4, True, FeedbackPolicy.NONE),
    "two_layer_layer_ack": Scheme(5, True, FeedbackPolicy.LAYER_ACK),
}


@dataclass
class SchemeStats:
    """Aggregates of one scheme across trials."""

    mean_undecoded_frac: np.ndarray  # indexed by received count, 0..max
    mean_layer_undecoded_frac: np.ndarray  # (max+1, n_layers), fractions of layer size
    overheads: np.ndarray
    layer_completion_received: np.ndarray  # (runs, n_layers)
    redundant_counts: np.ndarray
    payload_errors: int

    @property
    def mean_overhead(self) -> float:
        return float(self.overheads.mean())


def _aggregate(traces: list) -> SchemeStats:
    if any(not t.completed for t in traces):
        raise ValueError("curve aggregation requires completed trials")
    k, sizes = traces[0].k, traces[0].layer_sizes
    layer_sizes = np.array(sizes, dtype=np.float64)
    # undecoded counts summed over trials: their steps at each decode event,
    # summed over receptions; a completed trial adds nothing after its last
    sums = np.zeros((max(t.received_total for t in traces) + 1, len(sizes)))
    sums[0] = len(traces) * layer_sizes
    for t in traces:
        sums[t.decodes[:, 0]] += np.diff(t.decodes[:, 2:], axis=0, prepend=[sizes])
    np.cumsum(sums, axis=0, out=sums)
    return SchemeStats(
        mean_undecoded_frac=sums.sum(axis=1) / (len(traces) * k),
        mean_layer_undecoded_frac=sums / (len(traces) * layer_sizes),
        overheads=np.array([t.overhead for t in traces], dtype=np.float64),
        layer_completion_received=np.array(
            [t.layer_completion_received for t in traces], dtype=np.int64
        ),
        redundant_counts=np.array([t.redundant_count for t in traces], dtype=np.int64),
        payload_errors=sum(t.payload_errors for t in traces),
    )


def _run_schemes(schemes, grid, trials: int, seed, workers: int, reduce,
                 layers: Optional[LayerConfig] = None, **trial) -> dict:
    """{name: [reduce(traces) at each erasure rate of `grid`]}, over
    `trials` trials of each named scheme per rate; `trial` holds the other
    TrialConfig fields.  Names and `trials` are checked before any trial
    runs.  One pool serves the whole batch, none for one worker, and each
    group of traces is reduced and freed before the next one is collected."""
    if trials < 1:
        raise ValueError("trials per scheme must be >= 1")
    unknown = [name for name in schemes if name not in SCHEMES]
    if unknown:
        raise ValueError(f"unknown scheme(s) {unknown}; known: {', '.join(SCHEMES)}")
    repeated = sorted({name for name in schemes if schemes.count(name) > 1})
    if repeated:
        raise ValueError(f"scheme(s) {repeated} named more than once")
    configs = [
        TrialConfig(seed=(seed, SCHEMES[name].id, _point_key(ser), t), ser=ser,
                    layers=layers if SCHEMES[name].layered else None,
                    policy=SCHEMES[name].policy, **trial)
        for name in schemes for ser in map(float, grid) for t in range(trials)
    ]
    pool, traces = None, map(run_trial, configs)
    try:
        if workers > 1 and len(configs) > 1:
            pool = ProcessPoolExecutor(max_workers=workers)
            # chunks no longer than a group: no worker holds more traces than the caller
            chunksize = max(1, min(len(configs) // (4 * workers), trials))
            traces = pool.map(run_trial, configs, chunksize=chunksize)
        return {name: [reduce(list(islice(traces, trials))) for _ in grid]
                for name in schemes}
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


@dataclass
class SchemeExperiment:
    schemes: dict  # name -> SchemeStats

    @property
    def payload_errors(self) -> int:
        return sum(s.payload_errors for s in self.schemes.values())


def _compare(schemes, runs: int, seed, ser: float, workers: int, **trial) -> SchemeExperiment:
    results = _run_schemes(schemes, (ser,), runs, seed, workers, _aggregate, **trial)
    return SchemeExperiment({name: stats for name, (stats,) in results.items()})


def experiment_single_layer_feedback(
    k: int,
    runs: int,
    seed,
    c: float = 0.1,
    delta: float = 1.0,
    ser: float = 0.0,
    workers: int = 1,
) -> SchemeExperiment:
    """Compare no feedback, per-symbol ack with the stock distribution, and
    per-symbol ack with the adaptive distribution, on one block size."""
    return _compare(("no_feedback", "ack_original", "ack_adaptive"), runs, seed, ser, workers,
                    k=k, c=c, delta=delta)


def two_layer_config(k: int, alpha: float, beta: float) -> LayerConfig:
    base = round(alpha * k) if 0 < alpha < 1 else 0  # LayerConfig refuses an empty layer
    return LayerConfig((base, k - base), (beta, 1.0))


def experiment_two_layer_ack(
    k: int,
    alpha: float,
    beta: float,
    runs: int,
    seed,
    c: float = 0.1,
    delta: float = 1.0,
    ser: float = 0.0,
    workers: int = 1,
    schemes: tuple = ("two_layer_no_ack", "two_layer_layer_ack", "single_layer"),
) -> SchemeExperiment:
    """Two-layer weighted code with and without whole-layer acknowledgment,
    plus an unlayered baseline."""
    return _compare(schemes, runs, seed, ser, workers, layers=two_layer_config(k, alpha, beta),
                    k=k, c=c, delta=delta)


@dataclass
class DistortionExperiment:
    mean_distortion: dict  # name -> np.ndarray over ser grid
    per_trial: dict  # name -> (n_ser, seconds) distortions
    payload_errors: int


def experiment_deadline_distortion(
    k: int,
    alpha: float,
    beta: float,
    ser_grid,
    seconds: int,
    seed,
    c: float = 0.1,
    delta: float = 1.0,
    deadline_basis: str = "sent",
    workers: int = 1,
    schemes: tuple = ("single_layer", "two_layer_no_ack", "two_layer_layer_ack"),
) -> DistortionExperiment:
    """Mean distortion of each scheme per erasure rate, each second of
    source being one block transmission with a deadline of
    DEADLINE_FACTOR * k symbols.

    Trials are keyed on the erasure rate itself, so one point of a sweep
    rerun on its own, or on another grid, draws the same trials."""
    grid = np.asarray(ser_grid, dtype=np.float64)
    reduce = lambda traces: (
        [distortion_of_trace(t, alpha) for t in traces], sum(t.payload_errors for t in traces))
    results = _run_schemes(schemes, grid, seconds, seed, workers, reduce,
                           layers=two_layer_config(k, alpha, beta), k=k, c=c, delta=delta,
                           deadline=DEADLINE_FACTOR * k, deadline_basis=deadline_basis)
    per_trial = {name: np.array([d for d, _ in points]).reshape(grid.size, seconds)
                 for name, points in results.items()}
    return DistortionExperiment(
        mean_distortion={name: d.mean(axis=1) for name, d in per_trial.items()},
        per_trial=per_trial,
        payload_errors=sum(e for points in results.values() for _, e in points),
    )


# ---------------------------------------------------------------------------
# Result files


def format_value(v) -> str:
    """Diff-stable cell formatting: 9 significant digits for floats."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.9g}"
    return str(v)


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, rows):
    """Write a CSV atomically: either the complete file appears or nothing."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_manifest(path: str, command: str, config: dict, extra: Optional[dict] = None):
    """JSON run manifest: the full configuration needed to reproduce the
    result file byte for byte, plus the package version."""
    payload = {
        "command": command,
        "config": config,
        "version": f"ltfeedback {__version__}",
    }
    if extra:
        payload["results"] = extra
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
