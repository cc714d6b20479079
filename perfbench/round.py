"""Rounds of a workload, each in a process of its own whose caches start
cold.  Started by run.py, which talks to it over stdin and stdout.

The server imports the package, from `src/` of the checkout this file sits
in and nowhere else, prints one JSON line `{"ready": t}` and then serves
one request per line of stdin.  For each request it forks a child, which
has the package imported but has run none of it, so every cache of the
program is as cold as in a fresh interpreter.  The child runs one round
and hands its result back; the server prints it as one JSON line.  The
import is paid once per server start, not once per round, and run.py
times it as part of setup.

Timings of a round: `inputs_s` is the input generation (and, when traced,
the installation of the wrappers); wall and CPU run from the first
operation to the checked result, CPU counting the child and its worker
processes.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def one_round(ltfeedback, request: dict) -> dict:
    import workloads

    workload, workers = request["workload"], request["workers"]
    trace_file = request.get("trace_file")
    began = time.monotonic()
    tracer = None
    if trace_file:
        import tracing

        tracer = tracing.install(ltfeedback)
    inputs = workloads.make_inputs(workload, request["seed"])

    t0 = time.monotonic()
    cpu0 = _cpu(resource.getrusage(resource.RUSAGE_SELF))
    kids0 = _cpu(resource.getrusage(resource.RUSAGE_CHILDREN))
    outcome = workloads.run_round(workload, inputs, workers, ltfeedback)
    t1 = time.monotonic()
    own, kids = (resource.getrusage(who)
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

    wall = t1 - t0
    own_cpu, kid_cpu = _cpu(own) - cpu0, _cpu(kids) - kids0
    busy = kid_cpu if workers > 1 else own_cpu
    result = {
        "inputs_s": t0 - began,
        "wall_s": wall,
        "cpu_s": own_cpu + kid_cpu,
        "peak_rss_mb": max(own.ru_maxrss, kids.ru_maxrss) / 1024.0,
        "pool_efficiency": busy / (workers * wall),
        "attempted": outcome.attempted,
        "failed": sorted(outcome.failed),
        "problems": outcome.problems,
        "facts": outcome.facts,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        os.makedirs(os.path.dirname(trace_file), exist_ok=True)
        tracer.dump(trace_file)
    return result


def forked_round(ltfeedback, request: dict) -> dict:
    """Run one round in a forked child and return its result, or
    {"error": ...} if the child did not finish it."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        os.dup2(2, 1)  # stdout carries the protocol; the child may not write to it
        code = 1
        try:
            result = one_round(ltfeedback, request)
            with os.fdopen(write_end, "w") as handle:
                handle.write(json.dumps(result))
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end) as handle:
        data = handle.read()
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not data:
        return {"error": f"round exited {code}"}
    return json.loads(data)


def main() -> int:
    sys.path.insert(0, str(SRC))
    import ltfeedback
    import ltfeedback.cli

    if Path(ltfeedback.__file__).resolve().parent.parent != SRC:
        print(f"ltfeedback imported from {ltfeedback.__file__}, not {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads  # noqa: F401  (imported before forking, like the package)

    print(json.dumps({"ready": time.monotonic()}), flush=True)
    for line in iter(sys.stdin.readline, ""):
        print(json.dumps(forked_round(ltfeedback, json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
