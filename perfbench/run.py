"""Benchmark of ltfeedback: the paper's three experiments and its closed forms.

    python3 perfbench/run.py --workload single-ack --seed 1 --seconds 30 --trace 0

Each round of a workload runs in a process of its own, forked from a server
(round.py) that has imported the package and run none of it, so caches
start cold, as they do for every user of the CLI.  With --trace 0 the run
repeats rounds for about --seconds seconds, checks every output, and
reports the median over rounds of each end-to-end metric.  With --trace 1
it runs one traced round on one worker and reports the per-layer metrics,
the pool efficiency of an untraced round on the workload's own worker
count, and the tracing overhead against untraced one-worker rounds.
The last line of standard output is one JSON object; the exit code is 0
only if every check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402
from workloads import POOLED_CHECKS, WORKERS, Outcome  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_ROUNDS = 4
SETUP_STARTS = 3
RUN_LIMIT_S = 170


class RoundError(RuntimeError):
    pass


def program_seed(workload: str, seed: int, round_index: int) -> int:
    """The master seed the program receives in one round."""
    digest = hashlib.sha256(f"{workload}/{seed}/{round_index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


class Server:
    """A round.py process: the package imported once, a forked child per
    round.  `setup_s` is the time from spawning it to its import done."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        spawned = time.monotonic()
        # A session of its own, so that a server that overruns is killed
        # together with its round child and that child's pool workers.
        self.proc = subprocess.Popen([sys.executable, str(HERE / "round.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     bufsize=0, start_new_session=True)
        self._buffer = b""
        try:
            self.setup_s = self._reply()["ready"] - spawned
        except BaseException:
            self.close()
            raise

    def _reply(self) -> dict:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            left = self.deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise RoundError(f"no reply within {RUN_LIMIT_S} s of the run's start")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise RoundError(f"round server exited {self.proc.wait()}")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def round(self, workload: str, seed: int, workers: int, trace_file=None) -> dict:
        request = {"workload": workload, "seed": seed, "workers": workers}
        if trace_file:
            request["trace_file"] = str(trace_file)
        self.proc.stdin.write((json.dumps(request) + "\n").encode())
        result = self._reply()
        if "error" in result:
            raise RoundError(f"{workload}: {result['error']}")
        return result

    def close(self):
        """Stop the server and everything it started, and wait for it."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
            self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def start_server(deadline: float) -> tuple:
    """A server to run rounds on, and the setup times of SETUP_STARTS
    server starts, the last of which is the one returned."""
    times = []
    for _ in range(SETUP_STARTS - 1):
        with Server(deadline) as server:
            times.append(server.setup_s)
    server = Server(deadline)
    times.append(server.setup_s)
    return server, times


def measure(workload: str, seed: int, seconds: int, deadline: float) -> tuple:
    """Whole rounds, each on new inputs, until the next would overrun."""
    start = time.monotonic()
    server, starts = start_server(deadline)
    rounds, durations = [], []
    with server:
        while True:
            began = time.monotonic()
            rounds.append(server.round(workload, program_seed(workload, seed, len(rounds)),
                                       WORKERS[workload]))
            durations.append(time.monotonic() - began)
            elapsed = time.monotonic() - start
            if len(rounds) >= MIN_ROUNDS and elapsed + statistics.median(durations) > seconds:
                break
    # Setup: the median server start (interpreter and import) plus the
    # median input generation of a round.
    values = {name: statistics.median(r[name] for r in rounds)
              for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    values["setup_s"] = statistics.median(starts) + statistics.median(
        r["inputs_s"] for r in rounds)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    pooled = Outcome()
    if workload in POOLED_CHECKS:
        POOLED_CHECKS[workload]([r["facts"] for r in rounds], pooled)
    return rounds, pooled, metrics


def trace(workload: str, seed: int, deadline: float) -> tuple:
    """One traced round on one worker, and the untraced rounds it is read
    against, all on the same inputs.  The untraced one-worker round runs
    before and after the traced one, so that a steady drift of the host's
    speed cancels from the overhead.  The checks pooled over a run need more
    trials than one input holds, so only the per-round checks apply."""
    program = program_seed(workload, seed, 0)
    workers = WORKERS[workload]
    trace_file = HERE / "out" / f"trace-{workload}-{seed}.tsv.gz"
    with Server(deadline) as server:
        before = server.round(workload, program, 1)
        pool = server.round(workload, program, workers) if workers > 1 else before
        traced = server.round(workload, program, 1, trace_file)
        after = server.round(workload, program, 1)
    layers = traced["layers"]
    layers["simulator.pool.efficiency"] = pool["pool_efficiency"]
    layers["trace.overhead_s"] = traced["wall_s"] - (before["wall_s"] + after["wall_s"]) / 2
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit in LAYER_METRICS.items()}
    rounds = [before, traced, after] + ([pool] if workers > 1 else [])
    return rounds, Outcome(), metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            rounds, pooled, metrics = trace(args.workload, args.seed, deadline)
        else:
            rounds, pooled, metrics = measure(args.workload, args.seed, args.seconds, deadline)
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in rounds)
    failed = min(attempted, sum(len(r["failed"]) for r in rounds) + len(pooled.failed))
    for problem in [p for r in rounds for p in r["problems"]] + pooled.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} operations attempted, "
          f"{failed} failed; " + ", ".join(
              f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
