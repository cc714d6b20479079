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

`scalar_run_trial` is the transmission loop written with one numpy call
per value: it reads the same substreams as `run_trial`, one uniform or one
64-bit word per call, keeps its own encoder state and decodes by naive
repeated peeling, so it pins the library's block draws, channel gaps,
Lemire index draw and bookkeeping to the streams they must reproduce.  It
also keeps the per-symbol Bernoulli erasure channel that the gap channel
replaced, as the reference for the gap channel's law.  Its neighbor draw,
`scalar_draw`, also checks hand-fed words against the encoder's.

`ReferenceDecoder` is the peeling decoder on a dict of neighbor sets, the
form the library's flat decoder replaced; the two must agree at every
reception.
"""

import dataclasses
from collections import defaultdict, deque
from functools import lru_cache
from math import exp, expm1, inf, log, log1p

import numpy as np
from scipy import integrate, optimize, stats

from ltfeedback.combinatorics import log_binomial
from ltfeedback.degree import RsdParams, adaptive_degree_dist, robust_soliton
from ltfeedback.feedback import FeedbackPolicy
from ltfeedback.simulator import PAYLOAD_WIDTH, TransmissionTrace


def sample_degrees(dist, rng, size):
    """`size` inverse-CDF draws from a degree distribution, the degrees the
    urn samplers below start from."""
    idx = np.searchsorted(dist.cdf, rng.random(size), side="right")
    return np.minimum(idx, dist.k)


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


def _log_binomial_table(n_max):
    """log C(n, r) for 0 <= n, r <= n_max, -inf where r > n: the values of
    `log_binomial` on every pair, so the forms below only index them."""
    n = np.arange(n_max + 1)
    return log_binomial(n[:, None], n[None, :])


def strip_mixtures(pmf, eligible):
    """Row L, for every undecoded count L in 0..eligible: the distribution of
    the number of undecoded neighbors when a symbol's degree is drawn from
    `pmf` and its neighbors are chosen uniformly among `eligible` symbols of
    which L are not yet decoded.

    Entry [L, d] for 0 <= d <= L is
        sum_i pmf[i] * C(L, d) * C(eligible-L, i-d) / C(eligible, i),
    and zero for d > L.  Mass of `pmf` above `eligible` is treated as a draw
    of the full eligible set (the encoder clamps oversized degrees),
    contributing to d = L.  The sum runs over all L at once, one reduced
    degree d at a time.
    """
    e = eligible
    lb = _log_binomial_table(e)
    log_pmf = _log_pmf(pmf[: e + 1])
    out = np.zeros((e + 1, e + 1))
    for d in range(e + 1):
        # rows L = d..e, columns i = d..e; C(e-L, i-d) sits at lb[e-L, i-d]
        log_terms = (
            log_pmf[None, d:]
            + lb[d:, d, None]
            + lb[e - d :: -1, : e - d + 1]
            - lb[e, None, d:]
        )
        out[d:, d] = np.exp(log_terms).sum(axis=1)
    tail = pmf[e + 1 :].sum()
    if tail > 0:
        out[np.diag_indices(e + 1)] += tail
    return out


def redundancy_closed_forms(pmf, k, acked):
    """Entry L, for every undecoded count L in 0..k-acked:
    sum_i pmf[i] * C(k-acked-L, i) / C(k-acked, i), the chance that every
    neighbor is decoded but unacknowledged (1 at L = 0)."""
    e = k - acked
    lb = _log_binomial_table(e)
    # row L holds C(e-L, i), -inf past i = e-L
    log_terms = _log_pmf(pmf[: e + 1])[None, :] + lb[::-1] - lb[e, None, :]
    out = np.exp(log_terms).sum(axis=1)
    out[0] = 1.0
    return out


def adaptive_closed_forms(pmf, k):
    """Row L, for every undecoded count L in 1..k:
    rho(d) = sum_j pmf[j] * C(L, d) * C(k-L, j-d) / ((1 - p0) * C(k, j))
    for 1 <= d <= L, where p0 is the redundancy probability of the plain
    reduced distribution; entries d = 0 and d > L are zero, and so is row 0."""
    strip = strip_mixtures(pmf[: k + 1], k)
    out = np.zeros_like(strip)
    out[1:, 1:] = strip[1:, 1:] / (1.0 - strip[1:, :1])
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


# ---------------------------------------------------------------------------
# Scalar transmission loop


def lemire_scalar(bound, next_word):
    """Lemire's nearly divisionless method ("Fast random integer generation
    in an interval", ACM TOMACS 2019) on 64-bit words, written with % and //:
    an index uniform in [0, bound)."""
    m = next_word() * bound
    low = m % 2**64
    if low < bound:
        threshold = (2**64 - bound) % bound
        while low < threshold:
            m = next_word() * bound
            low = m % 2**64
    return m // 2**64


def scalar_draw(groups, degree, next_uniform, next_word):
    """`degree` distinct neighbors from `groups`, a list of [weight, members]:
    per pick, a uniform chooses the group (unless there is only one) and a
    Lemire index the member, which is swapped behind the group's undrawn
    members.  The swaps persist in `members`, as in the encoder.  A group
    whose members are all drawn is never chosen, even where rounding in the
    running total points at it."""
    if len(groups) == 1:
        members = groups[0][1]
        n = len(members)
        for t in range(degree):
            j = lemire_scalar(n - t, next_word)
            members[j], members[n - t - 1] = members[n - t - 1], members[j]
        return members[n - degree:]
    counts = [len(members) for _, members in groups]
    total = sum(w * c for (w, _), c in zip(groups, counts))
    chosen = []
    for _ in range(degree):
        u = next_uniform() * total
        gi, acc = 0, groups[0][0] * counts[0]
        while (u >= acc or counts[gi] == 0) and gi + 1 < len(groups):
            gi += 1
            acc += groups[gi][0] * counts[gi]
        while counts[gi] == 0:
            gi -= 1
        weight, members = groups[gi]
        j = lemire_scalar(counts[gi], next_word)
        last = counts[gi] - 1
        members[j], members[last] = members[last], members[j]
        chosen.append(members[last])
        counts[gi] = last
        total -= weight
    return chosen


def _peel(decoded, pending):
    """Decode every input that repeated degree-one resolution reaches."""
    while True:
        for eq in pending:
            for v in eq[0] & decoded.keys():
                eq[1] ^= decoded[v]
            eq[0] -= decoded.keys()
        pending[:] = [eq for eq in pending if eq[0]]
        ready = [eq for eq in pending if len(eq[0]) == 1]
        if not ready:
            return
        for (v,), value in ready:
            decoded.setdefault(v, value)


def scalar_run_trial(config, channel="gap"):
    """run_trial(config) with one numpy call per uniform and per index word;
    `scalar_transmission` without its per-reception sent counts."""
    return scalar_transmission(config, channel)[0]


def scalar_transmission(config, channel="gap"):
    """(trace, sent count at each reception) of `scalar_run_trial`.  Every
    reception is recorded, and those whose undecoded counts changed become
    the trace's decode events.

    A channel gap, the symbols sent up to and including the next arrival, is
    1 at erasure rate 0, infinite at 1, and otherwise 1 + floor(log(1 - u) /
    log(ser)) for one scalar channel uniform u: P(gap > n) = ser^n.

    channel="bernoulli" is the memoryless channel written out symbol by
    symbol instead: every sent symbol is drawn, and one channel uniform below
    ser erases it.  Its traces follow the same law as the gap channel's, but
    at erasure rates strictly between 0 and 1 they draw other streams."""
    if channel not in ("gap", "bernoulli"):
        raise ValueError("channel must be 'gap' or 'bernoulli'")
    seed = config.seed if isinstance(config.seed, tuple) else (config.seed,)
    root = np.random.SeedSequence(seed[0], spawn_key=seed[1:])
    source_seq, coder_seq, channel_seq = root.spawn(3)
    degree_rng, group_rng, index_rng = map(np.random.default_rng, coder_seq.spawn(3))
    channel_rng = np.random.default_rng(channel_seq)
    next_word = index_rng.bit_generator.random_raw

    k, width, policy, ser = config.k, PAYLOAD_WIDTH, config.policy, config.ser
    by_sent = config.deadline_basis == "sent"
    raw = np.random.default_rng(source_seq).bytes(k * width)
    payloads = [int.from_bytes(raw[i * width:(i + 1) * width], "big") for i in range(k)]
    if config.layers is None:
        bounds, weights = (0, k), (1.0,)
    else:
        bounds, weights = config.layers.boundaries(), config.layers.weight_ratios
    ranges = list(zip(bounds[:-1], bounds[1:]))
    builder = lambda n: robust_soliton(RsdParams(n, config.c, config.delta))
    base = dist = builder(k)
    acked, acked_layers = set(), set()

    def eligible_groups():
        groups = [[w, [i for i in range(lo, hi) if i not in acked]]
                  for (lo, hi), w in zip(ranges, weights)]
        groups = [g for g in groups if g[1]]
        if len(groups) == 1:
            groups[0][0] = 1.0
        return groups

    groups = eligible_groups()
    decoded, pending = {}, []
    undecoded = lambda: tuple(sum(i not in decoded for i in range(lo, hi)) for lo, hi in ranges)
    sent = received = 0
    rec_sent, rec_undecoded, rec_redundant = [], [], []
    while len(decoded) < k:
        if config.deadline is not None:
            if (sent if by_sent else received) >= config.deadline:
                break
        if channel == "gap":
            if ser == 0.0:
                sent += 1
            else:
                sent += inf if ser == 1.0 else 1 + int(np.floor(
                    np.log1p(-channel_rng.random()) / np.log(ser)))
            if by_sent and config.deadline is not None and sent > config.deadline:
                sent = config.deadline  # the next arrival comes too late
                break
        per_symbol = policy in (FeedbackPolicy.ACK_ORIGINAL, FeedbackPolicy.ACK_ADAPTIVE)
        if per_symbol and len(decoded) != len(acked):
            acked = set(decoded)
            groups = eligible_groups()
            if len(acked) < k:
                dist = (adaptive_degree_dist(base, k - len(acked))
                        if policy is FeedbackPolicy.ACK_ADAPTIVE
                        else builder(k - len(acked)))
        if policy is FeedbackPolicy.LAYER_ACK:
            for li, left in enumerate(undecoded()):
                if left or li in acked_layers:
                    continue
                acked_layers.add(li)
                acked |= set(range(*ranges[li]))
                groups = eligible_groups()
                if len(acked) < k:
                    dist = builder(k - len(acked))
        eligible = sum(len(members) for _, members in groups)
        u = degree_rng.random()
        degree = min(int(np.searchsorted(dist.cdf, u, side="right")), dist.k, eligible)
        neighbors = scalar_draw(groups, degree, group_rng.random, next_word)
        value = 0
        for i in neighbors:
            value ^= payloads[i]
        if channel == "bernoulli":
            sent += 1
            if ser > 0.0 and channel_rng.random() < ser:
                continue
        received += 1
        unknown = set(neighbors) - decoded.keys()
        rec_redundant.append(not unknown)
        pending.append([set(neighbors), value])
        _peel(decoded, pending)
        rec_sent.append(sent)
        rec_undecoded.append(undecoded())

    sizes = tuple(hi - lo for lo, hi in ranges)
    rows = zip(range(1, received + 1), rec_sent, rec_undecoded, [sizes] + rec_undecoded)
    decodes = [(r, s, *row) for r, s, row, before in rows if row != before]
    return TransmissionTrace(
        k=k,
        layer_sizes=sizes,
        decodes=np.array(decodes, dtype=np.int64).reshape(-1, 2 + len(ranges)),
        redundant_at=np.array([r for r, red in enumerate(rec_redundant, 1) if red], dtype=np.int64),
        sent_total=sent,
        received_total=received,
        payload_errors=sum(payloads[i] != v for i, v in decoded.items()),
    ), rec_sent


def undecoded_rows(trace):
    """(received_total, n_layers) undecoded counts after each reception: a
    decode event's row holds until the next one."""
    rows = np.tile(np.array(trace.layer_sizes, dtype=np.int64), (trace.received_total, 1))
    for received, _, *after in trace.decodes.tolist():
        rows[received - 1:] = after
    return rows


def completion_sent(trace):
    """Symbols sent when the block was fully decoded; None if it never was."""
    return int(trace.decodes[-1, 1]) if trace.completed else None


def assert_traces_equal(a, b):
    """Every field of two traces equal, arrays in dtype and shape too."""
    for field in dataclasses.fields(TransmissionTrace):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape, field.name
            assert np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


# ---------------------------------------------------------------------------
# Reference peeling decoder


class ReferenceDecoder:
    """Peeling decoder keeping each buffered symbol as [neighbor set, payload
    int] in a dict, with a set of symbol ids per input index and a FIFO
    ripple of symbol ids.  `receive` takes a neighbor set and a payload and
    returns (newly decoded, reduced degree at arrival, redundant)."""

    def __init__(self, k, layers=None):
        self.k = k
        self.decoded = {}
        self.entries = {}
        self.by_index = defaultdict(set)
        self.ripple = deque()
        self.next_id = 0
        if layers is None:
            self.bounds, self.undecoded = (0, k), [k]
        else:
            self.bounds, self.undecoded = layers.boundaries(), list(layers.layer_sizes)

    @property
    def buffered_count(self):
        return len(self.entries)

    @property
    def ripple_size(self):
        return len(self.ripple)

    @property
    def undecoded_per_layer(self):
        return tuple(self.undecoded)

    def receive(self, neighbors, value):
        neighbors = set(neighbors)
        known = self.decoded.keys() & neighbors
        for v in known:
            value ^= self.decoded[v]
        neighbors -= known
        reduced = len(neighbors)
        if reduced == 0:
            return (0, 0, True)
        sid = self.next_id
        self.next_id += 1
        self.entries[sid] = [neighbors, value]
        for v in neighbors:
            self.by_index[v].add(sid)
        if reduced == 1:
            self.ripple.append(sid)
        return (self._drain(), reduced, False)

    def _drain(self):
        count = 0
        while self.ripple:
            entry = self.entries.pop(self.ripple.popleft(), None)
            if entry is None:
                continue  # reduced away while queued
            (v,) = entry[0]
            self.decoded[v] = entry[1]
            layer = max(li for li, lo in enumerate(self.bounds[:-1]) if v >= lo)
            self.undecoded[layer] -= 1
            count += 1
            for sid in self.by_index.pop(v, ()):
                e = self.entries.get(sid)
                if e is None:
                    continue
                e[0].discard(v)
                e[1] ^= entry[1]
                if len(e[0]) == 1:
                    self.ripple.append(sid)
                elif not e[0]:
                    self.entries.pop(sid)
        return count
