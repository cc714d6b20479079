"""Independent reference implementations used to check the library.

All samplers here simulate the defining random processes step by step
(sequential urn draws), tracking group membership only, which is exactly
the statistic the closed forms describe.  None of them share code with the
library's analytical routes.  The closed forms below evaluate the
stripping transforms as hypergeometric mixtures in log space; they share
only the `log_binomial` primitive with the library, whose transforms use
the thinning recurrence instead.

The Wallenius pmf is also kept in its integral form, evaluated by
quadrature, which shares nothing with the library's draw-by-draw table;
`two_layer_sum` builds the two-layer reduced distribution from it degree
by degree, as an independent route to the library's tensor contraction.
The central hypergeometric pmf and the item-level weighted sampler are
test fixtures that the library itself never needed.
"""

from functools import lru_cache
from math import exp, expm1, log, log1p

import numpy as np
from scipy import integrate, optimize, stats

from ltfeedback.combinatorics import log_binomial


def uniform_strip_counts(degrees, eligible, undecoded, rng):
    """For each sample with the given degree, draw that many distinct
    indices uniformly from `eligible` items of which `undecoded` are marked,
    and return how many marked items were hit.  Sequential chain across
    draws, vectorized across samples."""
    degrees = np.asarray(degrees)
    n = degrees.size
    hits = np.zeros(n, dtype=np.int64)
    max_d = int(degrees.max(initial=0))
    for step in range(max_d):
        active = degrees > step
        remaining_marked = undecoded - hits
        p = remaining_marked / (eligible - step)
        hit = (rng.random(n) < p) & active
        hits += hit
    return hits


def weighted_group_counts(draws, group_sizes, weights, rng, n_samples):
    """Sequential weighted urn across groups: each remaining item of group g
    is drawn with probability proportional to weights[g].  Returns an
    (n_samples, n_groups) array of final per-group counts."""
    sizes = np.asarray(group_sizes, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    counts = np.zeros((n_samples, sizes.size), dtype=np.int64)
    for _ in range(draws):
        remaining = sizes[None, :] - counts
        mass = remaining * w[None, :]
        total = mass.sum(axis=1, keepdims=True)
        cum = np.cumsum(mass, axis=1)
        u = rng.random(n_samples)[:, None] * total
        group = (u >= cum).sum(axis=1)
        counts[np.arange(n_samples), group] += 1
    return counts


def weighted_strip_counts(degrees, subgroup_sizes, subgroup_weights, rng):
    """Sequential weighted urn with per-sample draw counts.

    Each sample draws `degrees[s]` items; every remaining item of subgroup g
    is drawn proportionally to subgroup_weights[g].  Returns an
    (n_samples, n_subgroups) array of final counts."""
    degrees = np.asarray(degrees)
    sizes = np.asarray(subgroup_sizes, dtype=np.float64)
    w = np.asarray(subgroup_weights, dtype=np.float64)
    n = degrees.size
    counts = np.zeros((n, sizes.size), dtype=np.int64)
    rows = np.arange(n)
    for step in range(int(degrees.max(initial=0))):
        active = degrees > step
        mass = (sizes[None, :] - counts) * w[None, :]
        total = mass.sum(axis=1)
        u = rng.random(n) * total
        group = (u[:, None] >= np.cumsum(mass, axis=1)).sum(axis=1)
        group = np.minimum(group, sizes.size - 1)
        counts[rows[active], group[active]] += 1
    return counts


def wallenius_recursive(counts, group_sizes, weights):
    """Draw-by-draw recursion for the sequential weighted urn probability.
    Exact up to float rounding; practical only for small draw counts."""
    memo = {}
    sizes = tuple(group_sizes)
    w = tuple(weights)

    def prob(state):
        if sum(state) == 0:
            return 1.0
        cached = memo.get(state)
        if cached is not None:
            return cached
        total = 0.0
        for g, xg in enumerate(state):
            if xg == 0:
                continue
            prev = list(state)
            prev[g] -= 1
            prev = tuple(prev)
            denom = sum(wh * (mh - ph) for wh, mh, ph in zip(w, sizes, prev))
            total += prob(prev) * w[g] * (sizes[g] - prev[g]) / denom
        memo[state] = total
        return total

    return prob(tuple(counts))


def tv_distance(sample_counts, pmf):
    """Total-variation distance between an empirical histogram and a pmf."""
    emp = sample_counts / sample_counts.sum()
    return 0.5 * np.abs(emp - pmf[: emp.size]).sum() + 0.5 * pmf[emp.size :].sum()


def chi_square_pvalue(observed, probs, min_expected=5.0):
    """Goodness-of-fit p-value with low-expectation bins pooled."""
    observed = np.asarray(observed, dtype=np.float64)
    expected = np.asarray(probs, dtype=np.float64) * observed.sum()
    order = np.argsort(expected)
    obs_s, exp_s = observed[order], expected[order]
    pooled_obs, pooled_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(obs_s, exp_s):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 and pooled_exp:
        pooled_obs[-1] += acc_o
        pooled_exp[-1] += acc_e
    pooled_obs = np.array(pooled_obs)
    pooled_exp = np.array(pooled_exp)
    # renormalize away rounding so scipy's sum check passes
    pooled_exp *= pooled_obs.sum() / pooled_exp.sum()
    if pooled_obs.size < 2:
        return 1.0
    return float(stats.chisquare(pooled_obs, pooled_exp).pvalue)


def _log_pmf(pmf):
    with np.errstate(divide="ignore"):
        return np.where(pmf > 0, np.log(np.where(pmf > 0, pmf, 1.0)), -np.inf)


def strip_mixture(pmf, eligible, undecoded):
    """Distribution of the number of undecoded neighbors when a symbol's
    degree is drawn from `pmf` and its neighbors are chosen uniformly among
    `eligible` symbols of which `undecoded` are not yet decoded.

    Entry [d] for 0 <= d <= undecoded is
        sum_i pmf[i] * C(undecoded, d) * C(eligible-undecoded, i-d) / C(eligible, i).
    Mass of `pmf` above `eligible` is treated as a draw of the full eligible
    set (the encoder clamps oversized degrees), contributing to d = undecoded.
    """
    i = np.arange(eligible + 1)
    d = np.arange(undecoded + 1)
    log_terms = (
        _log_pmf(pmf[: eligible + 1])[None, :]
        + log_binomial(undecoded, d)[:, None]
        + log_binomial(eligible - undecoded, i[None, :] - d[:, None])
        - log_binomial(eligible, i)[None, :]
    )
    out = np.exp(log_terms).sum(axis=1)
    tail = pmf[eligible + 1 :].sum()
    if tail > 0:
        out[undecoded] += tail
    return out


def redundancy_closed_form(pmf, k, undecoded, acked):
    """sum_i pmf[i] * C(k-acked-undecoded, i) / C(k-acked, i), the chance
    that every neighbor is decoded but unacknowledged."""
    if undecoded == 0:
        return 1.0
    decoded_unacked = k - acked - undecoded
    i = np.arange(decoded_unacked + 1)
    log_terms = (
        _log_pmf(pmf[: decoded_unacked + 1])
        + log_binomial(decoded_unacked, i)
        - log_binomial(k - acked, i)
    )
    return float(np.exp(log_terms).sum())


def adaptive_closed_form(pmf, k, undecoded):
    """rho(d) = sum_j pmf[j] * C(L, d) * C(k-L, j-d) / ((1 - p0) * C(k, j))
    for 1 <= d <= L = `undecoded`, where p0 is the redundancy probability
    of the plain reduced distribution; entry 0 is zero."""
    j = np.arange(k + 1)
    d = np.arange(1, undecoded + 1)
    log_terms = (
        _log_pmf(pmf)[None, :]
        + log_binomial(undecoded, d)[:, None]
        + log_binomial(k - undecoded, j[None, :] - d[:, None])
        - log_binomial(k, j)[None, :]
    )
    unnorm = np.exp(log_terms).sum(axis=1)
    p0_terms = _log_pmf(pmf) + log_binomial(k - undecoded, j) - log_binomial(k, j)
    p0 = np.exp(p0_terms).sum()
    out = np.zeros(undecoded + 1)
    out[1:] = unnorm / (1.0 - p0)
    return out


def hypergeom_pmf(x: int, population: int, successes: int, draws: int) -> float:
    """P(exactly x marked items in a uniform draw of `draws` from `population`).

    `successes` of the population are marked.  Zero outside the support.
    """
    if not 0 <= successes <= population:
        raise ValueError("need 0 <= successes <= population")
    if not 0 <= draws <= population:
        raise ValueError("need 0 <= draws <= population")
    lp = (
        log_binomial(successes, x)
        + log_binomial(population - successes, draws - x)
        - log_binomial(population, draws)
    )
    return float(np.exp(lp))


def weighted_sample_without_replacement(item_weights, n: int, rng: np.random.Generator):
    """Draw n distinct indices sequentially, each proportional to the
    weights of the items still in the urn.  Returns indices in draw order.
    """
    w = np.asarray(item_weights, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError("item_weights must be one-dimensional")
    if not ((w > 0) & np.isfinite(w)).all():
        raise ValueError("item weights must be strictly positive and finite")
    if n < 0 or n > w.size:
        raise ValueError("cannot draw more items than the urn holds")
    remaining = w.copy()
    chosen = np.empty(n, dtype=np.int64)
    for t in range(n):
        cum = np.cumsum(remaining)
        u = rng.random() * cum[-1]
        idx = int(np.searchsorted(cum, u, side="right"))
        while idx < w.size and remaining[idx] == 0.0:  # fp boundary guard
            idx += 1
        idx = min(idx, w.size - 1)
        chosen[t] = idx
        remaining[idx] = 0.0
    return chosen


@lru_cache(maxsize=1_000_000)
def wallenius_integral(x: tuple, sizes: tuple, weights: tuple) -> float:
    """Sequential weighted urn probability of per-group counts `x` from
    the integral form of the law: with D = sum_g w_g*(m_g - x_g), it equals
    prod_g C(m_g, x_g) * integral_0^1 prod_g (1 - t^(w_g/D))^(x_g) dt.
    The integral is computed on the substitution t = exp(-v), which turns
    the boundary layer at t=0 into a smooth bump that adaptive quadrature
    resolves to ~1e-12 absolute error.
    """
    d_total = sum(w * (m - xg) for w, m, xg in zip(weights, sizes, x))
    if d_total == 0.0:
        # Urn exhausted: drawing everything is the only reachable outcome.
        return 1.0
    active = [(xg, w / d_total) for xg, w in zip(x, weights) if xg > 0]
    if not active:
        return 1.0
    n = sum(x)
    lc = sum(log_binomial(m, xg) for m, xg in zip(sizes, x))

    def f(v):
        s = -v
        for xg, cg in active:
            cv = cg * v
            if cv < 745.0:  # below this exp(-cv) underflows and the factor is 1
                s += xg * log1p(-exp(-cv))
        return s

    def fprime(v):
        # xg*cg/(e^cv - 1), written so that a large cv underflows to 0
        # instead of overflowing expm1.
        s = -1.0
        for xg, cg in active:
            cv = cg * v
            s += xg * cg * exp(-cv) / -expm1(-cv)
        return s

    # fprime decreases from +inf at v=0+ to -1, and is already negative at
    # v = n + 1, so the peak of exp(f) is bracketed.
    v_peak = optimize.brentq(fprime, 1e-12, n + 1.0, xtol=1e-12, rtol=1e-14)
    f_peak = f(v_peak)
    upper = v_peak + 1.0
    while f(upper) - f_peak > -60.0:
        upper *= 2.0
    integrand = lambda v: exp(f(v) - f_peak)
    value, _ = integrate.quad(
        integrand, 0.0, upper, points=[v_peak], limit=300, epsabs=1e-14, epsrel=1e-12
    )
    return exp(lc + f_peak + log(value))


def _split_table_oracle(marked, group_size):
    """H[d, j] = P(d of j uniformly chosen group members are marked)."""
    return np.array(
        [
            [hypergeom_pmf(d, group_size, marked, j) for j in range(group_size + 1)]
            for d in range(marked + 1)
        ]
    )


def two_layer_sum(pmf, layer_sizes, weights, undecoded_base, undecoded_refine):
    """Joint pmf of (undecoded base, undecoded refinement) neighbors of a
    two-layer weighted code, summed degree by degree: a degree-i symbol
    takes j base neighbors with the Wallenius probability of
    `wallenius_integral`, and each layer's split between decoded and
    undecoded neighbors is hypergeometric."""
    m_base, m_refine = layer_sizes
    ratio = (weights[0] / weights[1], 1.0)
    h_base = _split_table_oracle(undecoded_base, m_base)
    h_refine = _split_table_oracle(undecoded_refine, m_refine)
    out = np.zeros((undecoded_base + 1, undecoded_refine + 1))
    for i in range(m_base + m_refine + 1):
        if pmf[i] == 0.0:
            continue
        js = np.arange(max(0, i - m_refine), min(i, m_base) + 1)
        phi = np.array([wallenius_integral((j, i - j), (m_base, m_refine), ratio) for j in js])
        out += pmf[i] * (h_base[:, js] * phi) @ h_refine[:, i - js].T
    return out
