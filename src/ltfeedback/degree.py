"""Degree distributions for rateless XOR codes and their receiver-side transforms.

The encoder draws a degree from a distribution such as the robust soliton
and XORs that many randomly chosen input symbols.  Once the receiver has
decoded part of the block, arriving symbols are stripped of known
neighbors, so the degree the decoder actually sees is a hypergeometric
mixture of the encoder's distribution.  This module builds the standard
distributions and the transforms of that stripping process: the plain
reduced distribution, its form under acknowledged symbols, the redundancy
probability, the zero-avoiding adaptive distribution, and the two-layer /
N-layer reduced distributions of weighted (unequal error protection) codes.

The single-layer transforms are views of one thinning recurrence.  Let
Omega_L(d) be the probability that a symbol whose neighbors are uniform
among n eligible inputs has d neighbors among the L still undecoded.
Omega_n is the encoder's pmf (mass above n folded into degree n), and
decoding one more input, chosen uniformly among the L, gives

    Omega_{L-1}(d) = Omega_L(d)*(L-d)/L + Omega_L(d+1)*(d+1)/L,

a convex combination with no cancellation (the state recursion of Karp,
Luby and Shokrollahi, "Finite length analysis of LT codes", ISIT 2004).
Rows are kept only at checkpoints every ceil(sqrt(n)) levels: building
them takes n steps and about n^1.5/2 floats, and any other row is at most
ceil(sqrt(n)) - 1 steps of O(n) below a checkpoint.  The same pass records
Omega_L(0) at every level, so the redundancy curve over all decoded counts
is one column of the table.  A few such tables are cached, keyed on the pmf
bytes and n.  Under acknowledgments the redundancy probability is a running
product per acked count, and one loop over the degree runs it for every
acked count at once.

The layered transforms are tensor contractions.  W[j] = pmf[sum(j)] * T[j]
is the probability that a symbol takes j_n neighbors from layer n, with T
the Wallenius table of the layer urn; contracting W with each layer's
hypergeometric split table along that layer's axis gives the joint
reduced distribution.  Its entry at 0, the redundancy probability, needs
only row 0 of each split table, so a whole grid of undecoded counts is one
contraction with one table per layer: A_1 @ W @ A_2.T for two layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# wallenius_pmf is not called here; perfbench's tracer wraps
# `degree.wallenius_pmf`, so the name stays bound in this module.
from .combinatorics import level_sums, log_binomial, wallenius_pmf, wallenius_table  # noqa: F401

__all__ = [
    "DegreeDistribution",
    "RsdParams",
    "LayerConfig",
    "ideal_soliton",
    "robust_soliton",
    "reduced_degree_dist",
    "redundancy_prob_acked",
    "reduced_degree_dist_acked",
    "adaptive_degree_dist",
    "two_layer_reduced_dist",
    "n_layer_reduced_dist",
    "redundancy_curve",
    "redundancy_curve_acked",
    "layered_redundancy",
]

_SUM_TOL = 1e-9
# Thinning tables kept at once; each holds about n^1.5/2 floats (4 MB at n = 10^4).
_THIN_TABLES = 4
# Degrees redundancy_curve_acked steps through per block, each a row of k floats.
_ACKED_STEPS = 16


class DegreeDistribution:
    """Probability mass over degrees 0..k for a block of k input symbols.

    Encoder-side distributions carry no mass at degree 0; receiver-side
    (reduced) forms may.  The pmf is immutable once constructed.
    """

    __slots__ = ("k", "pmf", "_cdf")

    def __init__(self, k: int, pmf):
        if k < 1:
            raise ValueError("block length k must be >= 1")
        arr = np.array(pmf, dtype=np.float64)
        if arr.shape != (k + 1,):
            raise ValueError(f"pmf must have length k+1 = {k + 1}")
        if (arr < 0).any():
            raise ValueError("pmf entries must be nonnegative")
        total = arr.sum()
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"pmf sums to {total!r}, not 1")
        arr.flags.writeable = False
        self.k = k
        self.pmf = arr
        self._cdf = None

    @property
    def cdf(self) -> np.ndarray:
        if self._cdf is None:
            c = np.cumsum(self.pmf)
            c.flags.writeable = False
            self._cdf = c
        return self._cdf

    def __repr__(self):
        return f"DegreeDistribution(k={self.k})"


@dataclass(frozen=True)
class RsdParams:
    """Robust soliton parameters.  The spike scale S = c*ln(k/delta)*sqrt(k)
    must not exceed k; S = 0 (e.g. delta = 1 at k = 1) degenerates to the
    ideal soliton."""

    k: int
    c: float
    delta: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not self.c > 0:
            raise ValueError("c must be positive")
        if not 0 < self.delta <= 1:
            raise ValueError("delta must lie in (0, 1]")
        if self.spike_scale > self.k:
            raise ValueError("spike scale c*ln(k/delta)*sqrt(k) exceeds k")

    @property
    def spike_scale(self) -> float:
        return self.c * math.log(self.k / self.delta) * math.sqrt(self.k)


def ideal_soliton(k: int) -> DegreeDistribution:
    """1/k at degree 1, 1/(i(i-1)) above.  Test fixture and soliton building
    block; too fragile to drive a real encoder."""
    pmf = np.zeros(k + 1)
    pmf[1] = 1.0 / k
    i = np.arange(2, k + 1)
    pmf[2:] = 1.0 / (i * (i - 1))
    return DegreeDistribution(k, pmf)


@lru_cache(maxsize=1024)
def robust_soliton(params: RsdParams) -> DegreeDistribution:
    """Ideal soliton plus the low-degree boost and spike, renormalized.

    The boost adds S/(i*k) below the spike index ceil(k/S) and
    S*ln(S/delta)/k at it; a spike index beyond k simply falls outside the
    support.  The returned object is shared: 1024 cached entries of 16(k+1)
    bytes (pmf, cdf) hold every size an acked k <= 1000 block passes through,
    and at most 164 MB at k = 10^4."""
    k, delta = params.k, params.delta
    s = params.spike_scale
    raw = ideal_soliton(k).pmf.copy()
    if s > 0:
        spike = math.ceil(k / s)
        i = np.arange(1, min(spike, k + 1))
        raw[i] += s / (i * k)
        if spike <= k:
            raw[spike] += s * math.log(s / delta) / k
    return DegreeDistribution(k, raw / raw.sum())


def _thin_step(row: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Omega_{L-1} from Omega_L, L = row.size - 1: one more of the L
    undecoded symbols is decoded, chosen uniformly, so
    Omega_{L-1}(d) = Omega_L(d)*(L-d)/L + Omega_L(d+1)*(d+1)/L.
    `idx` is 0, 1, 2, ... as floats, so L - d is idx[L - d], read reversed."""
    level = row.size - 1
    return (row[:-1] * idx[level:0:-1] + row[1:] * idx[1 : level + 1]) / level


@lru_cache(maxsize=_THIN_TABLES)
def _thinning_checkpoints(
    pmf_bytes: bytes, n: int
) -> tuple[int, tuple[np.ndarray, ...], np.ndarray, list]:
    """Rows Omega_L for L = n, n-s, n-2s, ... >= 0 with stride s = ceil(sqrt(n)),
    each of length L+1; the column Omega_L(0) for every L = 0..n; and a slot
    [L, Omega_L] for the last row looked up.  The pmf's mass above n goes to
    degree n, as the encoder clamps oversized draws to the eligible set."""
    pmf = np.frombuffer(pmf_bytes)
    row = pmf[: n + 1].copy()
    row[n] += pmf[n + 1 :].sum()
    stride = math.isqrt(max(n - 1, 0)) + 1
    idx = np.arange(n + 1, dtype=np.float64)
    rows = [row]
    zeros = np.empty(n + 1)
    zeros[n] = row[0]
    for level in range(n - 1, -1, -1):
        row = _thin_step(row, idx)
        zeros[level] = row[0]
        if (n - level) % stride == 0:
            rows.append(row)
    for r in rows + [zeros]:
        r.flags.writeable = False
    return stride, tuple(rows), zeros, [n, rows[0]]


def _thinned(pmf: np.ndarray, n: int, undecoded: int) -> np.ndarray:
    """Omega_L for L = `undecoded`: the pmf of the number of undecoded
    neighbors of a symbol whose degree is drawn from `pmf` and whose
    neighbors are chosen uniformly among `n` eligible symbols, `undecoded`
    of them still unknown.  Steps down from the nearer of the checkpoint
    above and the last row looked up, if that lies between the two: fewer
    than ceil(sqrt(n)) levels, so a lookup costs O(sqrt(n) * n), and one
    level per symbol decoded since the last lookup when a trial asks for
    ever fewer undecoded symbols.  Each row is one fixed step from the row
    above it, so every start gives the same floats."""
    stride, rows, _, last = _thinning_checkpoints(pmf.tobytes(), n)
    j = (n - undecoded) // stride
    level, row = n - j * stride, rows[j]
    if undecoded <= last[0] < level:
        level, row = last
    idx = np.arange(row.size, dtype=np.float64)
    for _ in range(level - undecoded):
        row = _thin_step(row, idx)
    row.flags.writeable = False
    last[:] = undecoded, row
    return row


def reduced_degree_dist(original: DegreeDistribution, undecoded: int) -> DegreeDistribution:
    """Distribution of the degree left after stripping decoded neighbors.

    `undecoded` of the k input symbols remain unknown at the receiver.  The
    result is indexed 0..k with zero mass above `undecoded`; index 0 is the
    probability an arriving symbol is entirely redundant.
    """
    return reduced_degree_dist_acked(original, undecoded, 0)


def redundancy_prob_acked(original: DegreeDistribution, undecoded: int, acked: int) -> float:
    """Probability an arriving symbol is entirely redundant when the encoder
    excludes `acked` acknowledged symbols and `undecoded` remain unknown.

    With n = k-acked eligible symbols and L = `undecoded`, a degree-i symbol
    is redundant when all i neighbors fall among the n-L decoded but
    unacknowledged ones, so the probability is the running product
        sum_i pmf[i] * prod_{t<i} (n-L-t)/(n-t).
    Strictly decreasing in `acked` for undecoded >= 1.
    """
    k = original.k
    if not 0 <= undecoded <= k:
        raise ValueError("undecoded count must lie in 0..k")
    if not 0 <= acked <= k - undecoded:
        raise ValueError("acked count must lie in 0..k-undecoded")
    if undecoded == 0:
        return 1.0
    n = k - acked
    t = np.arange(n - undecoded)
    survive = np.cumprod((n - undecoded - t) / (n - t))
    pmf = original.pmf
    return float(pmf[0] + pmf[1 : n - undecoded + 1] @ survive)


def redundancy_curve(original: DegreeDistribution) -> np.ndarray:
    """Probability an arriving symbol is entirely redundant after d = 0..k
    input symbols are decoded, no acks: entry d is
    reduced_degree_dist(original, k-d).pmf[0], the same float, read off the
    column Omega_L(0) that one pass of the thinning recurrence records."""
    return _thinning_checkpoints(original.pmf.tobytes(), original.k)[2][::-1]


def redundancy_curve_acked(original: DegreeDistribution, undecoded: int) -> np.ndarray:
    """redundancy_prob_acked(original, undecoded, m) for every acked count
    m = 0..k-undecoded, in one loop over the degree for all rows at once.

    Row m's factor at step t is (n-L-t)/(n-t) with n = k-m, that is a/(a+L)
    for a = k-L-m-t: entry t+m of one ratio table, zero-padded past the
    row's last term.  A block of _ACKED_STEPS steps is multiplied down by
    cumprod, in redundancy_prob_acked's order, so each running product is
    the same float.  Block sums are added in extended precision, within
    1e-15 of redundancy_prob_acked's dot products.
    """
    k = original.k
    if not 0 <= undecoded <= k:
        raise ValueError("undecoded count must lie in 0..k")
    spare = k - undecoded
    if undecoded == 0:
        return np.ones(spare + 1)
    a = np.arange(spare, 0, -1)
    ratio = np.zeros(2 * spare)
    ratio[:spare] = a / (a + undecoded)
    steps = np.lib.stride_tricks.sliding_window_view(ratio, spare)  # steps[t, m] = ratio[t+m]
    pmf = original.pmf
    out = np.full(spare + 1, pmf[0], dtype=np.longdouble)
    survive = np.ones(spare)
    for t in range(0, spare, _ACKED_STEPS):
        live = spare - t  # rows m >= live have no terms left
        block = steps[t : t + _ACKED_STEPS, :live].copy()
        block[0] *= survive[:live]
        np.cumprod(block, axis=0, out=block)
        survive = block[-1].copy()
        block *= pmf[t + 1 : t + 1 + len(block), None]
        out[:live] += block.sum(axis=0)
    return out.astype(np.float64)


def reduced_degree_dist_acked(
    original: DegreeDistribution, undecoded: int, acked: int
) -> DegreeDistribution:
    """Reduced distribution when the encoder works over k-acked eligible
    symbols of which `undecoded` are still unknown at the receiver.

    Degrees drawn above the eligible count are clamped to it (the whole
    eligible set is used), so the transform matches the operational encoder
    even when `original` has mass beyond k-acked.  With acked = k-undecoded
    and `original` supported on the eligible set, the output equals
    `original`: full acknowledgment freezes the stripping shift entirely.
    """
    k = original.k
    if not 0 <= undecoded <= k:
        raise ValueError("undecoded count must lie in 0..k")
    if not 0 <= acked <= k - undecoded:
        raise ValueError("acked count must lie in 0..k-undecoded")
    out = np.zeros(k + 1)
    out[: undecoded + 1] = _thinned(original.pmf, k - acked, undecoded)
    return DegreeDistribution(k, out)


def adaptive_degree_dist(original: DegreeDistribution, undecoded: int) -> DegreeDistribution:
    """Encoder distribution over the `undecoded` remaining symbols that
    reproduces the receiver-side degree shift while never emitting a
    redundant symbol.

    Assumes every decoded symbol has been acknowledged, so the encoder can
    target the remaining block directly: the result is the reduced
    distribution at L = `undecoded` with degree 0 dropped and the rest
    renormalized, a distribution over a block of size L.
    """
    k = original.k
    if not 1 <= undecoded <= k:
        raise ValueError("undecoded count must lie in 1..k")
    row = _thinned(original.pmf, k, undecoded)
    pmf = np.zeros(undecoded + 1)
    pmf[1:] = row[1:] / row[1:].sum()
    return DegreeDistribution(undecoded, pmf)


@dataclass(frozen=True)
class LayerConfig:
    """Contiguous partition of the block into priority layers.

    `layer_sizes` gives the symbol count per layer, most important first;
    `weight_ratios` gives the relative per-symbol selection weight of each
    layer (any positive scale).
    """

    layer_sizes: tuple[int, ...]
    weight_ratios: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(m) for m in self.layer_sizes))
        object.__setattr__(self, "weight_ratios", tuple(float(w) for w in self.weight_ratios))
        if len(self.layer_sizes) != len(self.weight_ratios):
            raise ValueError("layer_sizes and weight_ratios must have equal length")
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least two layers")
        if any(m < 1 for m in self.layer_sizes):
            raise ValueError("layer sizes must be positive")
        if any(not (w > 0 and np.isfinite(w)) for w in self.weight_ratios):
            raise ValueError("weight ratios must be strictly positive and finite")

    @property
    def k(self) -> int:
        return sum(self.layer_sizes)

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes)

    def boundaries(self) -> tuple[int, ...]:
        """Start offsets of each layer plus the final end offset."""
        out = [0]
        for m in self.layer_sizes:
            out.append(out[-1] + m)
        return tuple(out)

    def selection_probs(self) -> tuple[float, ...]:
        """Per-symbol selection probability of each layer; these satisfy
        sum_j p_j * layer_sizes[j] = 1."""
        total = sum(w * m for w, m in zip(self.weight_ratios, self.layer_sizes))
        return tuple(w / total for w in self.weight_ratios)


def _split_table(marked: int, group_size: int) -> np.ndarray:
    """H[d, j] = P(d of j uniformly chosen group members are marked)."""
    d = np.arange(marked + 1)
    j = np.arange(group_size + 1)
    log_h = (
        log_binomial(marked, d)[:, None]
        + log_binomial(group_size - marked, j[None, :] - d[:, None])
        - log_binomial(group_size, j)[None, :]
    )
    return np.exp(log_h)


def two_layer_reduced_dist(
    original: DegreeDistribution,
    layers: LayerConfig,
    undecoded_base: int,
    undecoded_refine: int,
) -> np.ndarray:
    """Joint pmf of (undecoded base neighbors, undecoded refinement
    neighbors) after stripping, for a two-layer weighted code: the N = 2
    case of n_layer_reduced_dist, h_base @ W @ h_refine.T, of shape
    (undecoded_base+1, undecoded_refine+1)."""
    if layers.n_layers != 2:
        raise ValueError("two_layer_reduced_dist requires exactly two layers")
    return n_layer_reduced_dist(original, layers, (undecoded_base, undecoded_refine))


def _layer_split(original: DegreeDistribution, layers: LayerConfig) -> np.ndarray:
    """W[j] = pmf[sum(j)] * T[j], the probability that a symbol takes j_n
    neighbors from layer n, with T the Wallenius table of the layer urn."""
    if original.k != layers.k:
        raise ValueError("distribution block length must match layer config")
    table = wallenius_table(layers.layer_sizes, layers.weight_ratios)
    return original.pmf[level_sums(table.shape)] * table


def _contract(joint: np.ndarray, tables) -> np.ndarray:
    """Contract axis n of `joint` with axis 1 of tables[n], for every n.
    Each contraction consumes the leading axis and appends the new one, so
    after N of them the axes are back in layer order."""
    for table in tables:
        joint = np.tensordot(joint, table, axes=([0], [1]))
    return joint


def _check_undecoded(layers: LayerConfig, undecoded) -> None:
    """`undecoded[n]` is a sequence of undecoded counts of layer n."""
    if len(undecoded) != layers.n_layers:
        raise ValueError("undecoded vector length must match layer count")
    if any(not 0 <= u <= m for us, m in zip(undecoded, layers.layer_sizes) for u in us):
        raise ValueError("undecoded counts must lie within layer sizes")


def n_layer_reduced_dist(
    original: DegreeDistribution, layers: LayerConfig, undecoded
) -> np.ndarray:
    """Joint reduced-degree pmf of an N-layer weighted code.

    `undecoded[n]` symbols of layer n remain unknown.  Returns an array of
    shape (undecoded[0]+1, ..., undecoded[N-1]+1); entry [d] is the
    probability an arriving symbol has d[n] undecoded neighbors in layer n.
    The layer split of a symbol follows the multivariate sequential
    weighted-sampling law and the within-layer splits are uniform, so the
    result is the layer-split pmf W contracted with each layer's
    hypergeometric split table along that layer's axis.
    """
    und = tuple(int(u) for u in undecoded)
    _check_undecoded(layers, [(u,) for u in und])
    splits = [_split_table(u, m) for u, m in zip(und, layers.layer_sizes)]
    return _contract(_layer_split(original, layers), splits)


def _miss_table(points, group_size: int) -> np.ndarray:
    """A[a, j] = C(m-u, j)/C(m, j) for m = group_size and u = points[a]: the
    probability that none of j uniformly chosen group members is among the
    u marked ones.  It is the running product prod_{t<j} (m-u-t)/(m-t), as
    in redundancy_prob_acked, with the numerator clipped at 0 so that the
    entries past j = m-u are +0.0."""
    u = np.asarray(points, dtype=np.int64)[:, None]
    t = np.arange(group_size)
    out = np.ones((u.shape[0], group_size + 1))
    np.cumprod(np.maximum(group_size - u - t, 0) / (group_size - t), axis=1, out=out[:, 1:])
    return out


def layered_redundancy(
    original: DegreeDistribution, layers: LayerConfig, undecoded_points
) -> np.ndarray:
    """Probability an arriving symbol of an N-layer weighted code is entirely
    redundant, over a grid of undecoded counts per layer.

    `undecoded_points[n]` lists undecoded counts of layer n.  Entry
    [a_1, ..., a_N] is n_layer_reduced_dist(original, layers, u)[0, ..., 0]
    at u_n = undecoded_points[n][a_n], that is sum_j W[j] prod_n A_n[a_n, j_n]
    with W the layer-split pmf and A_n the _miss_table of layer n; for two
    layers the whole grid is A_1 @ W @ A_2.T.
    """
    points = [np.asarray(p, dtype=np.int64) for p in undecoded_points]
    _check_undecoded(layers, points)
    misses = [_miss_table(p, m) for p, m in zip(points, layers.layer_sizes)]
    return _contract(_layer_split(original, layers), misses)
