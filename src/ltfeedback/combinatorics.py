"""Log-space binomials and the law of sequential weighted sampling.

Binomial coefficients are evaluated through a cached extended-precision
log-factorial table, so ratios of coefficients with arguments in the
thousands neither overflow nor lose the accuracy the degree-distribution
transforms downstream require.  The law of sequential weighted sampling
without replacement (the noncentral hypergeometric of the Wallenius kind)
is tabulated by its draw-by-draw recursion, one table per urn, and its
pmf is a lookup in that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "log_binomial",
    "WalleniusParams",
    "wallenius_pmf",
    "wallenius_table",
]

# Wallenius tables kept at once; each holds prod(m_g + 1) floats.
_WALLENIUS_TABLES = 4

# Cumulative log-factorials, kept in 80-bit precision so differences of
# nearby entries stay accurate to ~1e-13 even at n = 10^4.
_LOGFACT = np.zeros(1, dtype=np.longdouble)


def _logfact(n: int) -> np.ndarray:
    global _LOGFACT
    if n >= _LOGFACT.size:
        size = max(n + 1, 2 * _LOGFACT.size)
        table = np.empty(size, dtype=np.longdouble)
        table[0] = 0.0
        np.cumsum(np.log(np.arange(1, size, dtype=np.longdouble)), out=table[1:])
        _LOGFACT = table
    return _LOGFACT


def log_binomial(n, r):
    """Natural log of C(n, r), with -inf wherever r lies outside 0..n.

    Accepts scalars or integer arrays (broadcast together).  exp() of the
    result reproduces the exact coefficient to better than 1e-12 relative
    error for n up to 10^4.
    """
    n_arr = np.asarray(n, dtype=np.int64)
    r_arr = np.asarray(r, dtype=np.int64)
    if (n_arr < 0).any():
        raise ValueError("n must be nonnegative")
    table = _logfact(int(n_arr.max(initial=0)))
    valid = (r_arr >= 0) & (r_arr <= n_arr)
    nn = np.where(valid, n_arr, 0)
    rr = np.where(valid, r_arr, 0)
    out = np.where(valid, (table[nn] - table[rr] - table[nn - rr]).astype(np.float64), -np.inf)
    if np.isscalar(n) and np.isscalar(r):
        return float(out)
    return out


@dataclass(frozen=True)
class WalleniusParams:
    """Urn description for sequential weighted sampling without replacement.

    `group_sizes[g]` items of group g are present; every remaining item of
    group g is drawn with probability proportional to `weights[g]`.
    """

    group_sizes: tuple[int, ...]
    weights: tuple[float, ...]
    draws: int

    def __post_init__(self):
        object.__setattr__(self, "group_sizes", tuple(int(m) for m in self.group_sizes))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.group_sizes) != len(self.weights):
            raise ValueError("group_sizes and weights must have equal length")
        if len(self.group_sizes) < 2:
            raise ValueError("need at least two groups")
        if any(m < 0 for m in self.group_sizes):
            raise ValueError("group sizes must be nonnegative")
        if any(not (w > 0 and np.isfinite(w)) for w in self.weights):
            raise ValueError("weights must be strictly positive and finite")
        if self.draws < 0 or self.draws > sum(self.group_sizes):
            raise ValueError("draws must lie in 0..sum(group_sizes)")


def wallenius_pmf(counts, params: WalleniusParams) -> float:
    """Probability of observing per-group `counts` after `params.draws`
    sequential draws, each proportional to the remaining group weights.
    A lookup in the urn's `wallenius_table`."""
    x = tuple(int(c) for c in counts)
    if len(x) != len(params.group_sizes):
        raise ValueError("counts length must match group count")
    if any(xg < 0 or xg > mg for xg, mg in zip(x, params.group_sizes)):
        raise ValueError("counts must lie within group sizes")
    if sum(x) != params.draws:
        raise ValueError("counts must sum to draws")
    return float(wallenius_table(params.group_sizes, params.weights)[x])


def level_sums(shape) -> np.ndarray:
    """Array of the given shape whose entry at x is sum(x)."""
    return sum(np.ix_(*(np.arange(n) for n in shape)))


@lru_cache(maxsize=_WALLENIUS_TABLES)
def wallenius_table(sizes: tuple[int, ...], weights: tuple[float, ...]) -> np.ndarray:
    """T[x] = P(the first sum(x) draws take x_g items from group g), for
    every state 0 <= x_g <= sizes[g], filled by the draw-by-draw recursion

        T[x] = sum_g T[x - e_g] * w_g*(m_g - x_g + 1) / (D(x) + w_g),

    with D(x) = sum_h w_h*(m_h - x_h) the weight left in the urn (Fog,
    "Calculation methods for Wallenius' noncentral hypergeometric
    distribution", 2008).  Levels sum(x) = n are filled in turn, each from
    the one before, so a table costs O(N * #states) and one float per state.
    Read-only; a few tables are cached, keyed on (sizes, weights).
    """
    shape = tuple(m + 1 for m in sizes)
    w = np.asarray(weights, dtype=np.float64)
    m = np.asarray(sizes)
    strides = np.cumprod((1,) + shape[:0:-1])[::-1]
    level = level_sums(shape).ravel()
    order = np.argsort(level, kind="stable")
    ends = np.cumsum(np.bincount(level))
    table = np.zeros(level.size)
    table[0] = 1.0
    for start, end in zip(ends[:-1], ends[1:]):
        idx = order[start:end]
        x = np.unravel_index(idx, shape)
        left = sum(wg * (mg - xg) for wg, mg, xg in zip(w, m, x))
        acc = np.zeros(idx.size)
        for wg, mg, xg, stride in zip(w, m, x, strides):
            # x_g = 0 has no predecessor along g; its index is masked out
            step = table[idx - stride] * (wg * (mg - xg + 1) / (left + wg))
            acc += np.where(xg > 0, step, 0.0)
        table[idx] = acc
    table = table.reshape(shape)
    table.flags.writeable = False
    return table
