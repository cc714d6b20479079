"""XOR rateless encoder and peeling decoder.

The encoder draws a degree, picks that many distinct eligible input
symbols (uniformly, or weighted by layer), and emits their XOR.  The
decoder strips arriving symbols of already-decoded neighbors, keeps a
FIFO ripple of degree-one symbols, and peels: processing a ripple symbol
decodes one input, which reduces buffered symbols and may release more
into the ripple.  Both sides are single-owner sequential state machines.

The encoder reads three substreams of its generator: degree uniforms,
layer-group uniforms and 64-bit index words.  Each is drawn in blocks, and
the i-th value read equals the i-th scalar draw from that substream, so
acknowledgments never force a refill.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .degree import DegreeDistribution, LayerConfig

__all__ = [
    "InputBlock",
    "OutputSymbol",
    "Encoder",
    "Decoder",
    "DecoderSnapshot",
    "ReceiveResult",
]

_BLOCK = 256  # values drawn per numpy call
_TWO64 = 1 << 64
_MASK = _TWO64 - 1


def _blockwise(draw):
    """The values of draw(1), draw(1), ..., one at a time, _BLOCK per call."""
    while True:
        yield from draw(_BLOCK).tolist()


def _uniform_stream(rng: np.random.Generator) -> Callable[[], float]:
    """Next-value function over rng.random(): uniforms in [0, 1)."""
    return _blockwise(rng.random).__next__


def _word_stream(rng: np.random.Generator) -> Callable[[], int]:
    """Next-value function over the raw 64-bit words of a PCG64 generator."""
    return _blockwise(rng.bit_generator.random_raw).__next__


def _lemire_index(bound: int, word: Callable[[], int]) -> int:
    """An index exactly uniform in [0, bound), 1 <= bound < 2^64, by Lemire's
    nearly divisionless method: the high word of word() * bound, rejecting
    the 2^64 mod bound low words that would bias it."""
    m = word() * bound
    if m & _MASK < bound:
        threshold = _TWO64 % bound
        while m & _MASK < threshold:
            m = word() * bound
    return m >> 64


class InputBlock:
    """k fixed-width payloads, optionally partitioned into priority layers."""

    __slots__ = ("k", "width", "symbols", "layers", "_ints")

    def __init__(self, symbols, layers: Optional[LayerConfig] = None):
        symbols = list(symbols)
        if not symbols:
            raise ValueError("block must contain at least one symbol")
        width = len(symbols[0])
        if width < 1:
            raise ValueError("payload width must be >= 1")
        if any(len(s) != width for s in symbols):
            raise ValueError("all payloads must share the same width")
        if layers is not None and layers.k != len(symbols):
            raise ValueError("layer sizes must sum to the block length")
        self.k = len(symbols)
        self.width = width
        self.symbols = [bytes(s) for s in symbols]
        self.layers = layers
        self._ints = None

    @classmethod
    def random(cls, k: int, width: int, rng: np.random.Generator,
               layers: Optional[LayerConfig] = None) -> "InputBlock":
        raw = rng.bytes(k * width)
        return cls([raw[i * width:(i + 1) * width] for i in range(k)], layers)

    def payload_ints(self) -> list[int]:
        if self._ints is None:
            self._ints = [int.from_bytes(s, "big") for s in self.symbols]
        return self._ints


@dataclass(frozen=True)
class OutputSymbol:
    """XOR of the input payloads at `neighbors`."""

    neighbors: frozenset
    payload: bytes
    sequence_number: int

    @property
    def degree(self) -> int:
        return len(self.neighbors)


class _Group:
    """One selection class of eligible indices; members beyond `count` are
    parked from in-progress draws and restored afterwards."""

    __slots__ = ("weight", "members", "count")

    def __init__(self, weight: float, members: list[int]):
        self.weight = weight
        self.members = members
        self.count = len(members)


class Encoder:
    """Rateless encoder over the not-yet-acknowledged part of a block.

    The degree, layer-group and index substreams are PCG64 generators on
    children of `rng`'s seed sequence, spawned in that order; for a PCG64
    `rng` they equal `rng.spawn(3)`.  `dist_builder`, when given, maps an
    eligible-set size to a fresh distribution; feedback policies use it to
    re-parameterize after acknowledgments.
    """

    def __init__(self, block: InputBlock, distribution: DegreeDistribution,
                 rng: np.random.Generator,
                 dist_builder: Optional[Callable[[int], DegreeDistribution]] = None):
        self.block = block
        # PCG64 whatever rng's bit generator is: every raw word has 64 bits
        children = rng.bit_generator.seed_seq.spawn(3)
        degrees, groups, indices = map(np.random.default_rng, children)
        self._degree_u = _uniform_stream(degrees)
        self._group_u = _uniform_stream(groups)
        self._word = _word_stream(indices)
        self.dist_builder = dist_builder
        self._payloads = block.payload_ints()
        self._acked: set[int] = set()
        self._sequence = 0
        self.acked_layers: set[int] = set()
        self.layer_acks_fired = 0
        self._base_distribution = distribution
        self._distribution = None
        self.distribution = distribution
        self._rebuild_groups()

    @property
    def distribution(self) -> DegreeDistribution:
        return self._distribution

    @distribution.setter
    def distribution(self, dist: DegreeDistribution):
        if dist.pmf[0] != 0.0:
            raise ValueError("encoder distribution must carry no mass at degree 0")
        self._distribution = dist

    @property
    def base_distribution(self) -> DegreeDistribution:
        """The distribution the encoder was constructed with."""
        return self._base_distribution

    @property
    def acked(self) -> frozenset:
        return frozenset(self._acked)

    @property
    def acked_count(self) -> int:
        return len(self._acked)

    @property
    def eligible_count(self) -> int:
        return self._eligible

    def _rebuild_groups(self):
        layers = self.block.layers
        if layers is None:
            ranges = [(0, self.block.k)]
            weights = [1.0]
        else:
            bounds = layers.boundaries()
            ranges = list(zip(bounds[:-1], bounds[1:]))
            weights = list(layers.weight_ratios)
        groups = []
        for (lo, hi), w in zip(ranges, weights):
            members = [i for i in range(lo, hi) if i not in self._acked]
            if members:
                groups.append(_Group(w, members))
        # A single selection class needs no weighting.
        if len(groups) == 1:
            groups[0].weight = 1.0
        self._groups = groups
        self._eligible = sum(g.count for g in groups)

    def ack_indices(self, decoded):
        """Exclude the given input indices from all future symbols."""
        decoded = set(decoded)
        if not decoded <= set(range(self.block.k)):
            raise ValueError("acknowledged indices outside the block")
        self._acked = decoded
        self._rebuild_groups()

    def ack_layer(self, layer: int):
        """Exclude an entire layer from future symbols; remaining layers
        keep their relative weights (uniform once only one is left)."""
        layers = self.block.layers
        if layers is None:
            raise ValueError("block has no layers to acknowledge")
        bounds = layers.boundaries()
        self._acked.update(range(bounds[layer], bounds[layer + 1]))
        self._rebuild_groups()
        self.acked_layers.add(layer)
        self.layer_acks_fired += 1

    def _draw_neighbors(self, degree: int) -> list[int]:
        groups = self._groups
        word = self._word
        if len(groups) == 1:
            g = groups[0]
            members, n = g.members, g.count
            for t in range(degree):
                j = _lemire_index(n - t, word)
                members[j], members[n - t - 1] = members[n - t - 1], members[j]
            return members[n - degree:n]
        group_u = self._group_u
        weights = [g.weight for g in groups]
        pools = [g.members for g in groups]
        counts = [g.count for g in groups]
        total = sum(w * c for w, c in zip(weights, counts))
        last_group = len(groups) - 1
        chosen = []
        for _ in range(degree):
            u = group_u() * total
            gi = 0
            acc = weights[0] * counts[0]
            while u >= acc and gi < last_group:
                gi += 1
                acc += weights[gi] * counts[gi]
            members = pools[gi]
            last = counts[gi] - 1
            j = _lemire_index(last + 1, word)
            members[j], members[last] = members[last], members[j]
            chosen.append(members[last])
            counts[gi] = last
            total -= weights[gi]
        return chosen

    def encode_next(self) -> OutputSymbol:
        """Emit the next output symbol; degree draws above the eligible-set
        size are clamped to it."""
        m = self._eligible
        if m == 0:
            raise RuntimeError("no eligible input symbols remain")
        dist = self._distribution
        degree = min(int(dist.cdf.searchsorted(self._degree_u(), side="right")), dist.k, m)
        neighbors = self._draw_neighbors(degree)
        value = 0
        for i in neighbors:
            value ^= self._payloads[i]
        sym = OutputSymbol(
            neighbors=frozenset(neighbors),
            payload=value.to_bytes(self.block.width, "big"),
            sequence_number=self._sequence,
        )
        self._sequence += 1
        return sym


class ReceiveResult(NamedTuple):
    newly_decoded: int
    reduced_degree: int  # degree left after stripping, at arrival
    redundant: bool


@dataclass(frozen=True)
class DecoderSnapshot:
    """What an acknowledgment can carry back to the encoder."""

    decoded: frozenset
    layers_complete: tuple


class Decoder:
    """Peeling decoder with a FIFO ripple and a buffer of unresolved symbols."""

    def __init__(self, k: int, width: int, layers: Optional[LayerConfig] = None):
        if layers is not None and layers.k != k:
            raise ValueError("layer sizes must sum to the block length")
        self.k = k
        self.width = width
        self.layers = layers
        self._decoded: dict[int, int] = {}
        self._entries: dict[int, list] = {}  # id -> [neighbor set, payload int]
        self._by_index: defaultdict[int, set] = defaultdict(set)
        self._ripple: deque = deque()
        self._next_id = 0
        self.redundant_count = 0
        if layers is None:
            self._layer_starts = [0]
            self._undecoded = [k]
        else:
            self._layer_starts = list(layers.boundaries()[:-1])
            self._undecoded = list(layers.layer_sizes)
        self._snapshot = None

    def _layer_of(self, index: int) -> int:
        starts = self._layer_starts
        lo = 0
        for li in range(len(starts) - 1, -1, -1):
            if index >= starts[li]:
                lo = li
                break
        return lo

    @property
    def decoded_count(self) -> int:
        return len(self._decoded)

    @property
    def is_complete(self) -> bool:
        return len(self._decoded) == self.k

    @property
    def layers_complete(self) -> tuple:
        return tuple(u == 0 for u in self._undecoded)

    @property
    def undecoded_per_layer(self) -> tuple:
        return tuple(self._undecoded)

    @property
    def buffered_count(self) -> int:
        return len(self._entries)

    @property
    def ripple_size(self) -> int:
        return len(self._ripple)

    def decoded_payloads(self) -> dict[int, bytes]:
        return {i: v.to_bytes(self.width, "big") for i, v in self._decoded.items()}

    def snapshot(self) -> DecoderSnapshot:
        if self._snapshot is None:
            self._snapshot = DecoderSnapshot(
                decoded=frozenset(self._decoded),
                layers_complete=self.layers_complete,
            )
        return self._snapshot

    def receive(self, sym: OutputSymbol) -> ReceiveResult:
        """Strip, then buffer / ripple / discard the symbol and peel to
        exhaustion.  Degree-0-after-stripping symbols count as redundant;
        duplicates are retained like any other symbol."""
        neighbors = set(sym.neighbors)
        if not neighbors:
            raise ValueError("output symbol must have at least one neighbor")
        if min(neighbors) < 0 or max(neighbors) >= self.k:
            raise ValueError("symbol references indices outside the block")
        value = int.from_bytes(sym.payload, "big")
        decoded = self._decoded
        known = decoded.keys() & neighbors
        for v in known:
            value ^= decoded[v]
        neighbors -= known
        reduced = len(neighbors)
        if reduced == 0:
            self.redundant_count += 1
            return ReceiveResult(0, 0, True)
        sid = self._next_id
        self._next_id += 1
        self._entries[sid] = [neighbors, value]
        by_index = self._by_index
        for v in neighbors:
            by_index[v].add(sid)
        if reduced == 1:
            self._ripple.append(sid)
        newly = self._drain()
        return ReceiveResult(newly, reduced, False)

    def _drain(self) -> int:
        count = 0
        entries = self._entries
        by_index = self._by_index
        ripple = self._ripple
        decoded = self._decoded
        while ripple:
            sid = ripple.popleft()
            entry = entries.pop(sid, None)
            if entry is None:
                continue  # reduced away while queued
            (v,) = entry[0]
            value = entry[1]
            decoded[v] = value
            self._undecoded[self._layer_of(v)] -= 1
            count += 1
            for sid2 in by_index.pop(v, ()):
                e2 = entries.get(sid2)
                if e2 is None:
                    continue
                e2[0].discard(v)
                e2[1] ^= value
                remaining = len(e2[0])
                if remaining == 1:
                    ripple.append(sid2)
                elif remaining == 0:
                    entries.pop(sid2)
        if count:
            self._snapshot = None
        return count
