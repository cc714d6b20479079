"""Independent reference implementations used to check the library.

All samplers here simulate the defining random processes step by step
(sequential urn draws), tracking group membership only, which is exactly
the statistic the closed forms describe.  None of them share code with the
library's analytical routes.  The closed forms below evaluate the
stripping transforms as hypergeometric mixtures in log space; they share
only the `log_binomial` primitive with the library, whose transforms use
the thinning recurrence instead.
"""

import numpy as np
from scipy import stats

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
