"""XOR rateless encoder and peeling decoder.

The encoder draws a degree, picks that many distinct eligible input
symbols (uniformly, or weighted by layer), and emits their XOR.  The
decoder strips arriving symbols of already-decoded neighbors, keeps a
FIFO ripple of degree-one symbols, and peels: processing a ripple symbol
decodes one input, which reduces buffered symbols and may release more
into the ripple.  Both sides are single-owner sequential state machines.
Payloads are ints throughout: a source payload, an output symbol's XOR and
a decoded value; only `InputBlock.random` knows their width in bytes.

The encoder reads three substreams of its generator: degree uniforms,
layer-group uniforms and 64-bit index words.  Each is drawn in blocks and
read by position, and the i-th value read equals the i-th scalar draw from
that substream, so acknowledgments never force a refill.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional

import numpy as np

from .degree import DegreeDistribution, LayerConfig

__all__ = [
    "InputBlock",
    "OutputSymbol",
    "Encoder",
    "Decoder",
    "ReceiveResult",
]

_BLOCK = 256  # values drawn per numpy call
_TWO64 = 1 << 64
_MASK = _TWO64 - 1


class _Stream:
    """The values of draw(1), draw(1), ..., read by position from a list
    that draw(_BLOCK) extends: the i-th value read is the i-th scalar draw.
    Calling it reads the next value."""

    __slots__ = ("draw", "values", "pos")

    def __init__(self, draw):
        self.draw, self.values, self.pos = draw, [], 0

    def ahead(self, count: int) -> list:
        """`values`, holding at least `count` unread values from `pos` on."""
        values, pos = self.values, self.pos
        if pos + count > len(values):
            values = values[pos:]
            while len(values) < count:
                values += self.draw(_BLOCK).tolist()
            self.values, self.pos = values, 0
        return values

    def __call__(self):
        values = self.ahead(1)
        self.pos += 1
        return values[self.pos - 1]


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
    """k payloads, each an int, optionally partitioned into priority layers."""

    __slots__ = ("k", "layers", "payloads")

    def __init__(self, payloads, layers: Optional[LayerConfig] = None):
        payloads = list(payloads)
        if not payloads:
            raise ValueError("block must contain at least one symbol")
        if layers is not None and layers.k != len(payloads):
            raise ValueError("layer sizes must sum to the block length")
        self.k, self.layers, self.payloads = len(payloads), layers, payloads

    @classmethod
    def random(cls, k: int, width: int, rng: np.random.Generator,
               layers: Optional[LayerConfig] = None) -> "InputBlock":
        """k payloads of `width` bytes from one rng.bytes(k * width) call,
        each read as a big-endian int."""
        if width < 1:
            raise ValueError("payload width must be >= 1")
        raw = rng.bytes(k * width)
        return cls([int.from_bytes(raw[i:i + width], "big") for i in range(0, k * width, width)],
                   layers)


class OutputSymbol(NamedTuple):
    """XOR of the input payloads at `neighbors`."""

    neighbors: frozenset
    payload: int

    @property
    def degree(self) -> int:
        return len(self.neighbors)


class Encoder:
    """Rateless encoder over the not-yet-acknowledged part of a block.

    The degree, layer-group and index substreams are PCG64 generators on
    children of `rng`'s seed sequence, spawned in that order; for a PCG64
    `rng` they equal `rng.spawn(3)`.  An unlayered block never reads its
    layer-group child and builds no generator on it.  Acknowledgments
    shrink the eligible set through `ack_indices` alone; which distribution
    the encoder draws degrees from afterwards is for feedback to set.
    """

    def __init__(self, block: InputBlock, distribution: DegreeDistribution,
                 rng: np.random.Generator):
        self.block = block
        # PCG64 whatever rng's bit generator is: every raw word has 64 bits
        degrees, groups, indices = rng.bit_generator.seed_seq.spawn(3)
        self._degree_u = _Stream(np.random.default_rng(degrees).random)
        self._group_u = (None if block.layers is None
                         else _Stream(np.random.default_rng(groups).random))
        self._word = _Stream(np.random.default_rng(indices).bit_generator.random_raw)
        self._payloads = block.payloads
        self._bounds = bounds = (0, block.k) if block.layers is None else block.layers.boundaries()
        self._acked: set[int] = set()
        self.acked_layers: set[int] = set()
        self.base_distribution = distribution  # the adaptive distribution thins this one
        self.distribution = distribution
        # each layer's eligible indices, ascending; only ack_indices removes any
        self._ascending = [list(range(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
        self._set_groups()

    @property
    def distribution(self) -> DegreeDistribution:
        return self._distribution

    @distribution.setter
    def distribution(self, dist: DegreeDistribution):
        if dist.pmf[0] != 0.0:
            raise ValueError("encoder distribution must carry no mass at degree 0")
        self._distribution = dist
        self._cdf = memoryview(dist.cdf)  # bisects as floats, with no copy

    @property
    def acked(self) -> frozenset:
        return frozenset(self._acked)

    @property
    def acked_count(self) -> int:
        return len(self._acked)

    @property
    def eligible_count(self) -> int:
        return self._eligible

    @property
    def layer_acks_fired(self) -> int:
        return len(self.acked_layers)

    def _set_groups(self):
        """Parallel lists over the layers with eligible members, each pool a
        copy of its ascending list; a draw parks its picks behind the first
        `_counts[g]` members of pool g."""
        layers = self.block.layers
        weights = (1.0,) if layers is None else layers.weight_ratios
        groups = [(w, members) for w, members in zip(weights, self._ascending) if members]
        # A single selection class needs no weighting.
        self._weights = [1.0] if len(groups) == 1 else [w for w, _ in groups]
        self._pools = [members[:] for _, members in groups]
        self._counts = [len(members) for members in self._pools]
        self._masses = [w * c for w, c in zip(self._weights, self._counts)]
        self._eligible = sum(self._counts)

    def ack_indices(self, indices):
        """Exclude the given input indices from all future symbols, besides
        those already acknowledged: only the new ones leave the ascending
        lists, and every pool restarts ascending."""
        acked = self._acked
        new = set(indices) - acked  # indices in acked were checked when they came
        if new and (min(new) < 0 or max(new) >= self.block.k):
            raise ValueError("acknowledged indices outside the block")
        bounds, ascending = self._bounds, self._ascending
        for i in new:
            members = ascending[bisect_right(bounds, i) - 1]
            del members[bisect_left(members, i)]
        acked |= new
        self._set_groups()

    def ack_layer(self, layer: int):
        """`ack_indices` over a whole layer, recorded in `acked_layers`;
        remaining layers keep their relative weights (uniform once only one
        is left).  A layer already acknowledged changes nothing."""
        if self.block.layers is None:
            raise ValueError("block has no layers to acknowledge")
        n_layers = self.block.layers.n_layers
        if not 0 <= layer < n_layers:
            raise ValueError(f"layer {layer} outside the block's {n_layers} layers")
        if layer in self.acked_layers:
            return
        self.ack_indices(range(self._bounds[layer], self._bounds[layer + 1]))
        self.acked_layers.add(layer)

    # The draws read index words by position, Lemire's method inlined.  A low
    # word below the bound may be rejected: that index is drawn word by word.
    # A weighted pick reads one layer uniform u and takes the first layer g
    # with u * total < masses[0] + ... + masses[g].  Rounding in the running
    # total can point at an exhausted layer, past the last live one or, once
    # the total falls below 0, at the first: the nearest live layer is taken.

    def _draw_uniform(self, degree: int) -> list[int]:
        members, n = self._pools[0], self._counts[0]
        stream, mask = self._word, _MASK
        words, pos = stream.ahead(degree), stream.pos
        for bound in range(n, n - degree, -1):
            m = words[pos] * bound
            if m & mask < bound:
                stream.pos = pos
                j = _lemire_index(bound, stream)
                words, pos = stream.ahead(degree), stream.pos
            else:
                j, pos = m >> 64, pos + 1
            last = bound - 1
            members[j], members[last] = members[last], members[j]
        stream.pos = pos
        return members[n - degree:n]

    def _layer_uniforms(self, degree: int) -> list[float]:
        """The next `degree` layer uniforms, one per pick of a symbol."""
        group_u = self._group_u
        uniforms, first = group_u.ahead(degree), group_u.pos
        group_u.pos = first + degree
        return uniforms[first:first + degree]

    def _draw_two_layers(self, degree: int) -> list[int]:
        """`_draw_weighted` on two layers, with its state in locals and the
        same float operations in the same order.  At a low word below its
        bound it hands the rest of the symbol to `_draw_weighted`."""
        uniforms = self._layer_uniforms(degree)
        (w0, w1), (pool0, pool1) = self._weights, self._pools
        n0, n1 = c0, c1 = self._counts
        mass0 = self._masses[0]
        total = mass0 + self._masses[1]
        stream, mask = self._word, _MASK
        words, pos = stream.ahead(degree), stream.pos
        for u in uniforms:
            if u * total < mass0 and c0 or not c1:
                m = words[pos] * c0
                if m & mask < c0:
                    break
                c0 -= 1
                j = m >> 64
                pool0[j], pool0[c0] = pool0[c0], pool0[j]
                mass0 = w0 * c0
                total -= w0
            else:
                m = words[pos] * c1
                if m & mask < c1:
                    break
                c1 -= 1
                j = m >> 64
                pool1[j], pool1[c1] = pool1[c1], pool1[j]
                total -= w1
            pos += 1
        else:
            stream.pos = pos
            return pool0[c0:n0] + pool1[c1:n1]
        stream.pos = pos
        done = n0 - c0 + n1 - c1
        return self._draw_weighted(uniforms[done:], [c0, c1], [mass0, w1 * c1], total)

    def _draw_weighted(self, uniforms: list[float], counts: list[int],
                       masses: list[float], total: float) -> list[int]:
        """The rest of a symbol: one pick per layer uniform in `uniforms`,
        from the pools' first `counts` members, whose weighted `masses` sum
        to `total`.  Returns every pick of the symbol."""
        weights, pools = self._weights, self._pools
        last_group = len(pools) - 1
        stream, mask = self._word, _MASK
        words, pos = stream.ahead(len(uniforms)), stream.pos
        for u in uniforms:
            u *= total
            gi = 0
            acc = masses[0]
            while (u >= acc or not counts[gi]) and gi < last_group:
                gi += 1
                acc += masses[gi]
            while not counts[gi]:
                gi -= 1
            bound = counts[gi]
            m = words[pos] * bound
            if m & mask < bound:
                stream.pos = pos
                j = _lemire_index(bound, stream)
                words, pos = stream.ahead(len(uniforms)), stream.pos
            else:
                j, pos = m >> 64, pos + 1
            members = pools[gi]
            last = bound - 1
            members[j], members[last] = members[last], members[j]
            counts[gi] = last
            w = weights[gi]
            masses[gi] = w * last
            total -= w
        stream.pos = pos
        chosen = []
        for members, c, n in zip(pools, counts, self._counts):
            chosen += members[c:n]
        return chosen

    def next_neighbors(self) -> list[int]:
        """Draw the next symbol's neighbors and advance past it, building no
        symbol: all that a symbol the channel erases costs.  Degree draws
        above the eligible-set size are clamped to it."""
        m = self._eligible
        if m == 0:
            raise RuntimeError("no eligible input symbols remain")
        u = self._degree_u  # read by position, refilled when used up
        if u.pos == len(u.values):
            u.ahead(1)
        degree = min(bisect_right(self._cdf, u.values[u.pos]), self._distribution.k, m)
        u.pos += 1
        n_pools = len(self._pools)
        if n_pools == 1:
            return self._draw_uniform(degree)
        if n_pools == 2:
            return self._draw_two_layers(degree)
        return self._draw_weighted(self._layer_uniforms(degree), self._counts[:],
                                   self._masses[:], sum(self._masses))

    def encode_next(self) -> OutputSymbol:
        """Emit the next output symbol."""
        neighbors = self.next_neighbors()
        payloads = self._payloads
        value = 0
        for i in neighbors:
            value ^= payloads[i]
        return OutputSymbol(frozenset(neighbors), value)


class ReceiveResult(NamedTuple):
    newly_decoded: int
    reduced_degree: int  # degree left after stripping, at arrival
    redundant: bool


_REDUNDANT = ReceiveResult(0, 0, True)


class _Zeros:
    """A payload table of zeros: what `Decoder.receive` XORs in, since its
    symbols arrive with the XOR of their neighbors built."""

    __slots__ = ()

    def __getitem__(self, index: int) -> int:
        return 0


_ZEROS = _Zeros()


class Decoder:
    """Peeling decoder with a FIFO ripple and a buffer of unresolved symbols.

    Symbol s is entry s of flat lists: its count of undecoded neighbors, the
    XOR of their indices (at a count of one, the last neighbor) and its
    payload stripped of decoded neighbors.  `_holders[i]` lists the symbols
    that arrived with input i undecoded, and None once i is decoded.

    `decoded` is the decoder's report: a live, read-only map from each
    decoded index to its value, in decode order."""

    def __init__(self, k: int, layers: Optional[LayerConfig] = None):
        if layers is not None and layers.k != k:
            raise ValueError("layer sizes must sum to the block length")
        self.k = k
        self._decoded: dict[int, int] = {}
        self.decoded = MappingProxyType(self._decoded)
        self._left, self._index_xor, self._value = [], [], []
        self._holders = [[] for _ in range(k)]
        self.redundant_count = 0
        sizes = (k,) if layers is None else layers.layer_sizes
        self._undecoded = list(sizes)
        self._layer_at = sum(([li] * size for li, size in enumerate(sizes)), [])

    @property
    def layers_complete(self) -> tuple:
        return tuple(u == 0 for u in self._undecoded)

    @property
    def undecoded_per_layer(self) -> tuple:
        return tuple(self._undecoded)

    @property
    def buffered_count(self) -> int:
        return sum(n > 1 for n in self._left)

    def receive(self, sym: OutputSymbol) -> ReceiveResult:
        """Strip, then buffer / ripple / discard the symbol and peel to
        exhaustion.  Degree-0-after-stripping symbols count as redundant;
        duplicates are retained like any other symbol."""
        neighbors = frozenset(sym.neighbors)  # no copy of a frozenset
        if not neighbors:
            raise ValueError("output symbol must have at least one neighbor")
        if min(neighbors) < 0 or max(neighbors) >= self.k:
            raise ValueError("symbol references indices outside the block")
        reduced, newly = self._add(neighbors, sym.payload, _ZEROS)
        return ReceiveResult(newly, reduced, False) if reduced else _REDUNDANT

    def _add(self, neighbors, value: int, payloads) -> tuple[int, int]:
        """Take in one arrival in one pass over its distinct `neighbors`:
        XOR every neighbor's `payloads` entry into `value`, strip the decoded
        neighbors from it, and register the symbol with the undecoded ones;
        then buffer it and peel.  Returns (reduced degree at arrival, inputs
        decoded).  A redundant arrival, reduced degree 0, is counted and
        buffers nothing."""
        decoded, holders = self._decoded, self._holders
        sid = len(self._left)
        reduced = index_xor = 0
        for v in neighbors:
            value ^= payloads[v]
            waiting = holders[v]
            if waiting is None:  # decoded
                value ^= decoded[v]
            else:
                waiting.append(sid)
                index_xor ^= v
                reduced += 1
        if not reduced:
            self.redundant_count += 1
            return 0, 0
        self._left.append(reduced)
        self._index_xor.append(index_xor)
        self._value.append(value)
        return reduced, self._drain(sid) if reduced == 1 else 0

    def _drain(self, first: int) -> int:
        """Peel from symbol `first`, of count one, until the ripple, a FIFO
        of degree-one symbols local to the call, runs dry.  Returns the
        inputs decoded."""
        left, index_xor, values = self._left, self._index_xor, self._value
        holders, decoded, layer_at = self._holders, self._decoded, self._layer_at
        undecoded = self._undecoded
        ripple = [first]
        count = 0
        for sid in ripple:  # grows while it is walked
            if left[sid] != 1:
                continue  # reduced away while queued
            left[sid] = 0
            v = index_xor[sid]
            value = values[sid]
            decoded[v] = value
            undecoded[layer_at[v]] -= 1
            count += 1
            for s in holders[v]:
                n = left[s]
                if n:
                    left[s] = n - 1
                    index_xor[s] ^= v
                    values[s] ^= value
                    if n == 2:
                        ripple.append(s)
            holders[v] = None
        return count
