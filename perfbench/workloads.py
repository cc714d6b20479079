"""The benchmark's four workloads: inputs made from a seed, the operations,
and the checks of their outputs.

Every check compares against a value computed here, apart from the
program, or against a property the method must have; none compares
against a stored copy of earlier output.  A round reports the operations
it attempted, the ids of those that failed, and the facts that the
checks pooled over a whole run need.
"""

from __future__ import annotations

import json
import math
import os
import random
import tempfile
from contextlib import redirect_stdout

# Worker processes per workload; the machine has 2 cores.
WORKERS = {"single-ack": 2, "layered-ack": 1, "distortion-sweep": 2, "closed-form": 1}

# Trials per scheme (single-ack, layered-ack) and seconds of source per
# erasure rate (distortion-sweep) in one round.  single-ack runs at k=600,
# not the paper's 1000: a cold round at k=1000 fits only 2 trials per
# scheme in 4 s, and its wall time then varies by 15% from one input to the
# next, too much for the median of the 6 rounds a run holds.
SINGLE_ACK_K = 600
SINGLE_ACK_RUNS = 6
LAYERED_ACK_RUNS = 4
SWEEP_SECONDS = 6
SWEEP_GRID = [i / 20 for i in range(21)]  # 0:0.05:1, with 1.0 exact

# closed-form sizes.  A round of all five commands takes about 2.6 s, so
# that a run holds about 10 rounds for its median; at `reduced --k 300`
# and `n-layer --k 45` it took 4.3 s and a run held 6.
REDUCED_K = 200
N_LAYER = ["--k", "30", "--layer-sizes", "10,10,10", "--weights", "9,3,1",
           "--undecoded", "0,5,10"]

# Rate-distortion constants of the paper's video source.
ALPHA = 0.5
BETA = 9.0
FULL_RATE = 1e6 / (480 * 320 * 30)


class Outcome:
    """Operations attempted in one round, the ids of those that failed, the
    reasons, and the facts kept for checks pooled over the run."""

    def __init__(self):
        self.attempted = 0
        self.failed: set = set()
        self.problems: list = []
        self.facts: dict = {}

    def fail(self, ids, why: str):
        self.failed.update(ids)
        self.problems.append(why)


def make_inputs(workload: str, seed: int) -> dict:
    """Everything the program receives in one round, drawn from `seed`."""
    if workload == "single-ack":
        return {"k": SINGLE_ACK_K, "runs": SINGLE_ACK_RUNS, "seed": seed}
    if workload == "layered-ack":
        return {"k": 1000, "runs": LAYERED_ACK_RUNS, "seed": seed}
    if workload == "distortion-sweep":
        return {"k": 100, "seconds": SWEEP_SECONDS, "seed": seed}
    if workload == "closed-form":
        return _closed_form_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def run_round(workload: str, inputs: dict, workers: int, ltf) -> Outcome:
    """Run one round's operations through the program's public functions
    and check what they return.  `ltf` is the imported package."""
    return _RUNNERS[workload](inputs, workers, ltf)


# ---------------------------------------------------------------------------
# single-ack: the paper's per-symbol acknowledgment experiment


def _single_ack(p: dict, workers: int, ltf) -> Outcome:
    out = Outcome()
    exp = ltf.simulator.experiment_single_layer_feedback(
        k=p["k"], runs=p["runs"], seed=p["seed"], ser=0.0, workers=workers
    )
    for name, stats in exp.schemes.items():
        ids = [f"{name}/{t}" for t in range(p["runs"])]
        out.attempted += len(ids)
        if stats.payload_errors:
            out.fail(ids, f"{name}: {stats.payload_errors} payload errors")
        if name.startswith("ack_"):
            bad = [i for i, r in zip(ids, stats.redundant_counts) if r != 0]
            if bad:
                out.fail(bad, f"{name}: redundant receptions under per-symbol acks")
        out.facts[name] = [float(v) for v in stats.overheads]
    return out


def _single_ack_pooled(facts: list, out: Outcome):
    orig = [v for f in facts for v in f["ack_original"]]
    none = [v for f in facts for v in f["no_feedback"]]
    if not _mean(orig) > _mean(none):
        out.fail({f"pooled/ack_original/{i}" for i in range(len(orig))},
                 f"ack_original mean overhead {_mean(orig):.4f} does not exceed "
                 f"no_feedback's {_mean(none):.4f}")


# ---------------------------------------------------------------------------
# layered-ack: two layers, one acknowledgment per layer


def _layered_ack(p: dict, workers: int, ltf) -> Outcome:
    out = Outcome()
    exp = ltf.simulator.experiment_two_layer_ack(
        k=p["k"], alpha=ALPHA, beta=BETA, runs=p["runs"], seed=p["seed"], ser=0.0,
        workers=workers,
    )
    for name, stats in exp.schemes.items():
        ids = [f"{name}/{t}" for t in range(p["runs"])]
        out.attempted += len(ids)
        if stats.payload_errors:
            out.fail(ids, f"{name}: {stats.payload_errors} payload errors")
        out.facts[name] = [float(v) for v in stats.overheads]
        if name != "single_layer":
            done = stats.layer_completion_received
            out.facts[name + "/base_first"] = [bool(b < r) for b, r in done]
    return out


def _layered_ack_pooled(facts: list, out: Outcome):
    first = [v for f in facts for key in ("two_layer_no_ack/base_first",
                                          "two_layer_layer_ack/base_first") for v in f[key]]
    share = sum(first) / len(first)
    if not share > 0.99:
        out.fail({f"pooled/base_first/{i}" for i, v in enumerate(first) if not v},
                 f"base layer finished first in only {share:.4f} of layered trials")
    acked = [v for f in facts for v in f["two_layer_layer_ack"]]
    plain = [v for f in facts for v in f["two_layer_no_ack"]]
    if not _mean(acked) < _mean(plain):
        out.fail({f"pooled/two_layer_layer_ack/{i}" for i in range(len(acked))},
                 f"layer-ack mean overhead {_mean(acked):.4f} is not below "
                 f"the unacknowledged {_mean(plain):.4f}")


# ---------------------------------------------------------------------------
# distortion-sweep: deadline-limited transmissions over the erasure-rate grid


def _distortion_sweep(p: dict, workers: int, ltf) -> Outcome:
    out = Outcome()
    exp = ltf.simulator.experiment_deadline_distortion(
        k=p["k"], alpha=ALPHA, beta=BETA, ser_grid=SWEEP_GRID, seconds=p["seconds"],
        seed=p["seed"], workers=workers,
    )
    allowed_layered = (1.0, 2.0 ** (-2 * ALPHA * FULL_RATE), 2.0 ** (-2 * FULL_RATE))
    allowed_single = (1.0, 2.0 ** (-2 * FULL_RATE))
    all_ids = []
    for name, table in exp.per_trial.items():
        allowed = allowed_single if name == "single_layer" else allowed_layered
        for gi, row in enumerate(table):
            ids = [f"{name}/{gi}/{t}" for t in range(len(row))]
            all_ids += ids
            bad = [i for i, d in zip(ids, row)
                   if not any(math.isclose(d, a, rel_tol=1e-12) for a in allowed)]
            if bad:
                out.fail(bad, f"{name}: distortion outside the model's three levels")
            if SWEEP_GRID[gi] == 1.0 and any(d != 1.0 for d in row):
                out.fail(ids, f"{name}: distortion below 1 at erasure rate 1")
    out.attempted = len(all_ids)
    if exp.payload_errors:
        out.fail(all_ids, f"{exp.payload_errors} payload errors")
    return out


# ---------------------------------------------------------------------------
# closed-form: every `analyze` command through the CLI


def _closed_form_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    c = round(rng.uniform(0.05, 0.15), 4)
    delta = round(rng.uniform(0.5, 1.0), 4)
    rsd = ["--c", str(c), "--delta", str(delta)]
    acked_undecoded = rng.randint(190, 210)
    return {
        "c": c,
        "delta": delta,
        "commands": [
            ["analyze", "reduced", "--k", str(REDUCED_K)] + rsd,
            ["analyze", "reduced-acked", "--k", "1000", "--undecoded", str(acked_undecoded)]
            + rsd,
            ["analyze", "adaptive", "--k", "1000", "--undecoded", str(rng.randint(380, 420))]
            + rsd,
            ["analyze", "two-layer", "--k", "100", "--alpha", str(ALPHA), "--beta", str(BETA),
             "--grid-step", "10"] + rsd,
            ["analyze", "n-layer"] + N_LAYER + rsd,
        ],
        "check_rows": {
            "reduced": sorted(rng.sample(range(REDUCED_K + 1), 5)),
            "reduced-acked": sorted(rng.sample(range(1000 - acked_undecoded + 1), 5)),
        },
    }


def _closed_form(p: dict, workers: int, ltf) -> Outcome:
    out = Outcome()
    outdir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(outdir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=outdir, prefix="closed-form-") as tmp:
        for argv in p["commands"]:
            sub = argv[1]
            out.attempted += 1
            path = os.path.join(tmp, sub + ".csv")
            with open(os.devnull, "w") as sink, redirect_stdout(sink):
                rc = ltf.cli.main(argv + ["--out", path])
            if rc != 0:
                out.fail({sub}, f"analyze {sub} exited {rc}")
                continue
            with open(path + ".manifest.json") as handle:
                manifest = json.load(handle)
            if manifest.get("command") != f"analyze {sub}":
                out.fail({sub}, f"analyze {sub}: manifest names {manifest.get('command')!r}")
            with open(path) as handle:
                rows = [line.split(",") for line in handle.read().splitlines()[1:]]
            why = _CLOSED_FORM_CHECKS[sub](rows, p, argv)
            if why:
                out.fail({sub}, f"analyze {sub}: {why}")
    return out


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _printed_tol(v: float) -> float:
    """Half a unit in the ninth significant digit, the CSV's precision."""
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(v))) - 8) if v else 0.0


def _robust_soliton(k: int, c: float, delta: float) -> list:
    """Robust soliton pmf over 0..k, written from its definition."""
    s = c * math.log(k / delta) * math.sqrt(k)
    raw = [0.0, 1.0 / k] + [1.0 / (i * (i - 1)) for i in range(2, k + 1)]
    spike = math.ceil(k / s)
    for i in range(1, min(spike, k + 1)):
        raw[i] += s / (i * k)
    if spike <= k:
        raw[spike] += s * math.log(s / delta) / k
    total = math.fsum(raw)
    return [v / total for v in raw]


def _redundancy_exact(pmf: list, k: int, acked: int, undecoded: int) -> float:
    """sum_i pmf[i] * C(k-m-L, i) / C(k-m, i), with integer binomials."""
    return math.fsum(pmf[i] * (math.comb(k - acked - undecoded, i) / math.comb(k - acked, i))
                     for i in range(1, k - acked + 1))


def _check_redundancy(rows, p, argv):
    """`reduced` rows are decoded counts d (no acks, L = k-d undecoded);
    `reduced-acked` rows are acked counts m at a fixed L."""
    k = int(_flag(argv, "--k"))
    pmf = _robust_soliton(k, p["c"], p["delta"])
    for row in p["check_rows"][argv[1]]:
        if argv[1] == "reduced":
            acked, undecoded = 0, k - row
        else:
            acked, undecoded = row, int(_flag(argv, "--undecoded"))
        got = float(rows[row][1])
        want = _redundancy_exact(pmf, k, acked, undecoded)
        if abs(got - want) > 1e-12 + _printed_tol(want):
            return f"row {row} holds {got!r}, exact {want!r}"
    return None


def _check_adaptive(rows, p, argv):
    values = [float(r[1]) for r in rows]
    if len(values) != int(_flag(argv, "--undecoded")) or min(values) < 0:
        return "not a distribution over degrees 1..undecoded"
    if abs(math.fsum(values) - 1.0) > 1e-9 + sum(map(_printed_tol, values)):
        return f"probabilities sum to {math.fsum(values)!r}"
    return None


def _check_two_layer(rows, p, argv):
    table = {(int(b), int(r)): float(v) for b, r, v in rows}
    full = max(table)
    if abs(table[(0, 0)] - 1.0) > 1e-9:
        return f"redundancy {table[(0, 0)]!r} with nothing undecoded"
    if abs(table[full]) > 1e-12:
        return f"redundancy {table[full]!r} with the whole block undecoded"
    return None


def _check_n_layer(rows, p, argv):
    values = [float(r[-1]) for r in rows]
    if abs(math.fsum(values) - 1.0) > 1e-9 + sum(map(_printed_tol, values)):
        return f"pmf sums to {math.fsum(values)!r}"
    return None


_CLOSED_FORM_CHECKS = {
    "reduced": _check_redundancy,
    "reduced-acked": _check_redundancy,
    "adaptive": _check_adaptive,
    "two-layer": _check_two_layer,
    "n-layer": _check_n_layer,
}


# ---------------------------------------------------------------------------


def _mean(values) -> float:
    return math.fsum(values) / len(values)


_RUNNERS = {
    "single-ack": _single_ack,
    "layered-ack": _layered_ack,
    "distortion-sweep": _distortion_sweep,
    "closed-form": _closed_form,
}

# Checks that need the trials of a whole run, not of one round.
POOLED_CHECKS = {
    "single-ack": _single_ack_pooled,
    "layered-ack": _layered_ack_pooled,
}
