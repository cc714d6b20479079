"""Erasure-channel transmission loop, metric collection, and experiments.

A trial streams encoder output through a memoryless erasure channel into
the peeling decoder, applying the feedback policy before every encoded
symbol, and records the per-layer undecoded counts at every reception.
Experiment drivers average many independent trials: the single-layer
feedback comparison, the two-layer layer-acknowledgment comparison, and
the deadline-limited distortion sweep over erasure rates.  Per-trial
random streams derive deterministically from (master seed, scheme, trial
index), so aggregates do not depend on execution order and trials can run
in parallel.
"""

from __future__ import annotations

import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import numpy.random  # noqa: F401  # loaded lazily otherwise: once in every forked worker

from . import __version__
from .codec import Decoder, Encoder, InputBlock
from .degree import LayerConfig, RsdParams, robust_soliton
from .feedback import DistributionMode, FeedbackPolicy, apply_feedback

__all__ = [
    "ChannelParams",
    "TrialConfig",
    "TransmissionTrace",
    "run_trial",
    "trial_rng",
    "RateDistortionModel",
    "distortion_of_trace",
    "SchemeStats",
    "SingleLayerExperiment",
    "TwoLayerExperiment",
    "DistortionExperiment",
    "single_layer_policies",
    "two_layer_config",
    "experiment_single_layer_feedback",
    "experiment_two_layer_ack",
    "experiment_deadline_distortion",
    "write_csv",
    "write_manifest",
    "format_value",
]

_SAFETY_CAP = 10_000_000  # sent-symbol bound against runaway trials


@dataclass(frozen=True)
class ChannelParams:
    """Memoryless symbol-erasure channel."""

    ser: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.ser <= 1.0:
            raise ValueError("symbol erasure rate must lie in [0, 1]")


@dataclass(frozen=True)
class TrialConfig:
    """Everything one transmission trial needs."""

    k: int
    seed: object = 0
    payload_width: int = 8
    c: float = 0.1
    delta: float = 1.0
    layers: Optional[LayerConfig] = None
    policy: FeedbackPolicy = field(default_factory=FeedbackPolicy.none)
    ser: float = 0.0
    deadline: Optional[int] = None
    deadline_basis: str = "sent"

    def __post_init__(self):
        ChannelParams(self.ser)
        if self.deadline_basis not in ("sent", "received"):
            raise ValueError("deadline_basis must be 'sent' or 'received'")
        if self.deadline is not None and self.deadline < 0:
            raise ValueError("deadline must be nonnegative")
        if self.ser >= 1.0 and self.deadline is None:
            raise ValueError("ser = 1 with no deadline would never terminate")
        if self.layers is not None and self.layers.k != self.k:
            raise ValueError("layer sizes must sum to k")


@dataclass
class TransmissionTrace:
    """Per-reception record of a trial plus its completion summary."""

    k: int
    layer_sizes: tuple
    sent: np.ndarray  # sent count at each reception
    undecoded: np.ndarray  # (receptions, n_layers), after processing
    redundant: np.ndarray  # arrival reduced degree was zero
    sent_total: int
    received_total: int
    completed: bool
    completion_sent: Optional[int]
    completion_received: Optional[int]
    layer_completion_received: tuple
    layer_completion_sent: tuple
    payload_errors: int

    @property
    def overhead(self) -> Optional[float]:
        """received-at-completion / k - 1; None if the trial never finished."""
        if self.completion_received is None:
            return None
        return self.completion_received / self.k - 1.0

    @property
    def redundant_count(self) -> int:
        return int(self.redundant.sum())

    @property
    def layers_decoded(self) -> int:
        """Leading fully-decoded layers; a refinement layer without its base
        contributes nothing."""
        count = 0
        for r in self.layer_completion_received:
            if r is None:
                break
            count += 1
        return count

    def undecoded_total(self) -> np.ndarray:
        return self.undecoded.sum(axis=1)


def trial_rng(master_seed, *key) -> np.random.Generator:
    """Deterministic per-trial stream from the master seed and an index key."""
    return np.random.default_rng(np.random.SeedSequence((master_seed,) + tuple(key)))


def run_trial(config: TrialConfig, rng: Optional[np.random.Generator] = None) -> TransmissionTrace:
    """Run one transmission until full decode, the deadline, or the safety cap.

    The feedback policy is applied before every encoded symbol (ideal,
    zero-latency feedback).  Every decoded payload is checked against the
    source block before returning.
    """
    if rng is None:
        rng = trial_rng(config.seed)
    block = InputBlock.random(config.k, config.payload_width, rng, config.layers)
    builder = lambda n: robust_soliton(RsdParams(n, config.c, config.delta))
    encoder = Encoder(block, builder(config.k), rng, dist_builder=builder)
    decoder = Decoder(config.k, config.payload_width, config.layers)
    n_layers = 1 if config.layers is None else config.layers.n_layers

    sent = 0
    received = 0
    rec_sent: list[int] = []
    rec_undecoded: list[tuple] = []
    rec_redundant: list[bool] = []
    layer_done_recv: list = [None] * n_layers
    layer_done_sent: list = [None] * n_layers
    completion_sent = None
    completion_received = None
    deadline = config.deadline
    by_sent = config.deadline_basis == "sent"
    policy = config.policy
    ser = config.ser

    while not decoder.is_complete:
        if deadline is not None:
            if (sent if by_sent else received) >= deadline:
                break
        if sent >= _SAFETY_CAP:
            raise RuntimeError("trial exceeded the sent-symbol safety cap")
        apply_feedback(encoder, decoder.snapshot(), policy)
        sym = encoder.encode_next()
        sent += 1
        if ser > 0.0 and rng.random() < ser:
            continue
        result = decoder.receive(sym)
        received += 1
        rec_sent.append(sent)
        rec_undecoded.append(decoder.undecoded_per_layer)
        rec_redundant.append(result.redundant)
        if result.newly_decoded:
            for li, done in enumerate(decoder.layers_complete):
                if done and layer_done_recv[li] is None:
                    layer_done_recv[li] = received
                    layer_done_sent[li] = sent
            if decoder.is_complete:
                completion_sent = sent
                completion_received = received

    errors = sum(
        1 for i, payload in decoder.decoded_payloads().items() if block.symbols[i] != payload
    )

    return TransmissionTrace(
        k=config.k,
        layer_sizes=(config.k,) if config.layers is None else config.layers.layer_sizes,
        sent=np.array(rec_sent, dtype=np.int64),
        undecoded=np.array(rec_undecoded, dtype=np.int64).reshape(received, n_layers),
        redundant=np.array(rec_redundant, dtype=bool),
        sent_total=sent,
        received_total=received,
        completed=decoder.is_complete,
        completion_sent=completion_sent,
        completion_received=completion_received,
        layer_completion_received=tuple(layer_done_recv),
        layer_completion_sent=tuple(layer_done_sent),
        payload_errors=errors,
    )


@dataclass(frozen=True)
class RateDistortionModel:
    """Analytical source model: distortion 2^(-2r) at rate r bits/sample.

    Rates come from pushing `bitrate` bits/s of video at the given geometry:
    one fully decoded layered block of one second yields the full rate, a
    decoded base layer the fraction `alpha` of it, nothing decoded rate 0.
    """

    alpha: float = 0.5
    bitrate: float = 1e6
    width: int = 480
    height: int = 320
    fps: int = 30
    deadline_factor: int = 2  # deadline in sent symbols, as a multiple of k

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")

    @property
    def samples_per_second(self) -> float:
        return float(self.width * self.height * self.fps)

    @property
    def full_rate(self) -> float:
        return self.bitrate / self.samples_per_second

    def rates(self, n_layers: int) -> tuple:
        """Achievable rate per number of decoded layers, lowest first."""
        if n_layers == 1:
            return (0.0, self.full_rate)
        if n_layers == 2:
            return (0.0, self.alpha * self.full_rate, self.full_rate)
        raise ValueError("distortion model covers one or two layers")


def distortion(rate: float) -> float:
    """Distortion-rate bound for a unit-variance Gaussian source."""
    return 2.0 ** (-2.0 * rate)


def distortion_of_trace(trace: TransmissionTrace, model: RateDistortionModel) -> float:
    """Distortion achieved by the layers fully decoded when the trial ended."""
    rates = model.rates(len(trace.layer_sizes))
    return distortion(rates[trace.layers_decoded])


# ---------------------------------------------------------------------------
# Experiment drivers


@dataclass
class SchemeStats:
    """Aggregates of one scheme across trials."""

    name: str
    mean_undecoded_frac: np.ndarray  # indexed by received count, 0..max
    mean_layer_undecoded_frac: np.ndarray  # (max+1, n_layers), fractions of layer size
    overheads: np.ndarray
    completion_received: np.ndarray
    layer_completion_received: np.ndarray  # (runs, n_layers)
    redundant_counts: np.ndarray
    payload_errors: int

    @property
    def mean_overhead(self) -> float:
        return float(self.overheads.mean())


def _aggregate(name: str, traces: list) -> SchemeStats:
    if any(not t.completed for t in traces):
        raise ValueError("curve aggregation requires completed trials")
    k = traces[0].k
    layer_sizes = np.array(traces[0].layer_sizes, dtype=np.float64)
    n_layers = layer_sizes.size
    max_recv = max(t.received_total for t in traces)
    sums = np.zeros((max_recv + 1, n_layers))
    for t in traces:
        u = t.undecoded.astype(np.float64)
        sums[0] += layer_sizes
        sums[1 : t.received_total + 1] += u
        # completed trials stay fully decoded beyond their last reception
    mean_layers = sums / (len(traces) * layer_sizes)
    mean_total = sums.sum(axis=1) / (len(traces) * k)
    return SchemeStats(
        name=name,
        mean_undecoded_frac=mean_total,
        mean_layer_undecoded_frac=mean_layers,
        overheads=np.array([t.overhead for t in traces], dtype=np.float64),
        completion_received=np.array([t.completion_received for t in traces], dtype=np.int64),
        layer_completion_received=np.array(
            [t.layer_completion_received for t in traces], dtype=np.int64
        ),
        redundant_counts=np.array([t.redundant_count for t in traces], dtype=np.int64),
        payload_errors=sum(t.payload_errors for t in traces),
    )


def _run_batch(configs: list, workers: int) -> list:
    if workers <= 1 or len(configs) < 2:
        return [run_trial(c) for c in configs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_trial, configs, chunksize=max(1, len(configs) // (4 * workers))))


@dataclass
class SingleLayerExperiment:
    k: int
    runs: int
    seed: object
    schemes: dict  # name -> SchemeStats


def single_layer_policies() -> dict:
    return {
        "no_feedback": FeedbackPolicy.none(),
        "ack_original": FeedbackPolicy.per_symbol_ack(DistributionMode.ORIGINAL),
        "ack_adaptive": FeedbackPolicy.per_symbol_ack(DistributionMode.ADAPTIVE),
    }


def experiment_single_layer_feedback(
    k: int,
    runs: int,
    seed,
    c: float = 0.1,
    delta: float = 1.0,
    ser: float = 0.0,
    payload_width: int = 8,
    workers: int = 1,
) -> SingleLayerExperiment:
    """Compare no feedback, per-symbol ack with the stock distribution, and
    per-symbol ack with the adaptive distribution, on one block size."""
    results = {}
    for si, (name, policy) in enumerate(single_layer_policies().items()):
        configs = [
            TrialConfig(
                k=k, seed=(seed, si, t), payload_width=payload_width, c=c, delta=delta,
                policy=policy, ser=ser,
            )
            for t in range(runs)
        ]
        results[name] = _aggregate(name, _run_batch(configs, workers))
    return SingleLayerExperiment(k=k, runs=runs, seed=seed, schemes=results)


@dataclass
class TwoLayerExperiment:
    k: int
    alpha: float
    beta: float
    runs: int
    seed: object
    schemes: dict  # name -> SchemeStats


def two_layer_config(k: int, alpha: float, beta: float) -> LayerConfig:
    base = round(alpha * k)
    if not 0 < base < k:
        raise ValueError("alpha must leave both layers nonempty")
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
    payload_width: int = 8,
    workers: int = 1,
    schemes: tuple = ("two_layer_no_ack", "two_layer_layer_ack", "single_layer"),
) -> TwoLayerExperiment:
    """Two-layer weighted code with and without whole-layer acknowledgment,
    plus an unlayered baseline."""
    layers = two_layer_config(k, alpha, beta)
    catalog = {
        "two_layer_no_ack": (layers, FeedbackPolicy.none()),
        "two_layer_layer_ack": (layers, FeedbackPolicy.layer_ack()),
        "single_layer": (None, FeedbackPolicy.none()),
    }
    results = {}
    for name in schemes:
        layer_cfg, policy = catalog[name]
        si = list(catalog).index(name)
        configs = [
            TrialConfig(
                k=k, seed=(seed, si, t), payload_width=payload_width, c=c, delta=delta,
                layers=layer_cfg, policy=policy, ser=ser,
            )
            for t in range(runs)
        ]
        results[name] = _aggregate(name, _run_batch(configs, workers))
    return TwoLayerExperiment(k=k, alpha=alpha, beta=beta, runs=runs, seed=seed, schemes=results)


@dataclass
class DistortionExperiment:
    k: int
    alpha: float
    beta: float
    ser_grid: np.ndarray
    seconds: int
    seed: object
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
    payload_width: int = 8,
    deadline_basis: str = "sent",
    workers: int = 1,
    model: Optional[RateDistortionModel] = None,
    schemes: tuple = ("single_layer", "two_layer_no_ack", "two_layer_layer_ack"),
) -> DistortionExperiment:
    """Mean distortion of each scheme per erasure rate, each second of
    source being one deadline-limited block transmission."""
    if model is None:
        model = RateDistortionModel(alpha=alpha)
    layers = two_layer_config(k, alpha, beta)
    deadline = model.deadline_factor * k
    grid = np.asarray(ser_grid, dtype=np.float64)
    catalog = {
        "single_layer": (None, FeedbackPolicy.none()),
        "two_layer_no_ack": (layers, FeedbackPolicy.none()),
        "two_layer_layer_ack": (layers, FeedbackPolicy.layer_ack()),
    }
    means = {}
    per_trial = {}
    errors = 0
    for name in schemes:
        layer_cfg, policy = catalog[name]
        si = list(catalog).index(name)
        d = np.empty((grid.size, seconds))
        for gi, ser in enumerate(grid):
            configs = [
                TrialConfig(
                    k=k, seed=(seed, si, gi, t), payload_width=payload_width,
                    c=c, delta=delta, layers=layer_cfg, policy=policy,
                    ser=float(ser), deadline=deadline, deadline_basis=deadline_basis,
                )
                for t in range(seconds)
            ]
            traces = _run_batch(configs, workers)
            errors += sum(t.payload_errors for t in traces)
            d[gi] = [distortion_of_trace(t, model) for t in traces]
        means[name] = d.mean(axis=1)
        per_trial[name] = d
    return DistortionExperiment(
        k=k, alpha=alpha, beta=beta, ser_grid=grid, seconds=seconds, seed=seed,
        mean_distortion=means, per_trial=per_trial, payload_errors=errors,
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
