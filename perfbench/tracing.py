"""Spans around the program's layer boundaries, recorded from outside it.

`install` replaces each public entry point at the name its caller looks it
up by (a module global, or a method on its class) with a wrapper that
records a span: name, start, end and the enclosing span.  Spans stay in
memory until the round ends; `layer_metrics` then turns them into the per-layer
metrics and `dump` writes them out.  Nothing in the program changes.
"""

from __future__ import annotations

import functools
import gzip
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self._stack: list = []
        self.counts: defaultdict = defaultdict(int)
        self.wallenius_args: set = set()

    def wrap(self, name: str, fn, after=None, before=None):
        """`fn` with a span named `name` around each call.  `after(args,
        result, state)` updates counts; `state` is `before(args)`, taken
        before the call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before else None
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after:
                after(args, result, state)
            return result

        return traced

    def summary(self) -> dict:
        """Calls, inclusive seconds and self seconds per span name."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        return {name: (calls[name], total[name], total[name] - child[name]) for name in calls}

    def dump(self, path: str):
        """Write every span as `name start end parent`, one per line."""
        with gzip.open(path, "wt") as handle:
            handle.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                handle.write(f"{name}\t{start!r}\t{end!r}\t{parent}\n")


def install(ltf) -> Tracer:
    """Wrap the layer boundaries of the imported package `ltf`."""
    tracer = Tracer()
    counts = tracer.counts
    comb, degree, codec = ltf.combinatorics, ltf.degree, ltf.codec
    feedback, simulator, cli = ltf.feedback, ltf.simulator, ltf.cli

    def patch(owner, attr, name, after=None, before=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), after, before))

    def count(key, amount):
        def after(args, result, state):
            counts[key] += amount(args, result, state)
        return after

    # combinatorics: called from degree and from inside the Wallenius pmf
    for owner in (comb, degree):
        patch(owner, "log_binomial", "combinatorics.log_binomial")
    patch(degree, "wallenius_pmf", "combinatorics.wallenius_pmf",
          lambda args, result, state: tracer.wallenius_args.add(
              (tuple(int(c) for c in args[0]), args[1])))

    # degree transforms, at the names the CLI, the simulator and feedback use
    for fn in ("reduced_degree_dist", "redundancy_prob_acked", "two_layer_reduced_dist",
               "n_layer_reduced_dist", "adaptive_degree_dist", "robust_soliton"):
        patch(cli, fn, f"degree.{fn}")
    patch(feedback, "adaptive_degree_dist", "degree.adaptive_degree_dist")
    patch(simulator, "robust_soliton", "degree.robust_soliton")

    # codec: methods are looked up on the class, so wrap them there
    patch(codec.Encoder, "encode_next", "codec.encode_next",
          count("codec.neighbors", lambda args, sym, state: len(sym.neighbors)))
    patch(codec.Decoder, "receive", "codec.receive",
          count("codec.redundant", lambda args, res, state: res.redundant))
    patch(codec.Encoder, "__init__", "codec.setup")
    patch(codec.Decoder, "__init__", "codec.setup")
    random_block = codec.InputBlock.__dict__["random"].__func__
    codec.InputBlock.random = classmethod(tracer.wrap("codec.setup", random_block))

    # feedback: a message is a call that changed what the encoder may select
    patch(simulator, "apply_feedback", "feedback.apply_feedback",
          count("feedback.messages",
                lambda args, enc, state: (enc.acked_count, enc.layer_acks_fired) != state),
          lambda args: (args[0].acked_count, args[0].layer_acks_fired))

    def transmissions(args, trace, state):
        counts["simulator.receptions"] += trace.received_total
        counts["simulator.sent"] += trace.sent_total

    patch(simulator, "run_trial", "simulator.run_trial", transmissions)
    patch(cli, "main", "cli.main")
    return tracer


# Per-layer metrics: name -> unit; BENCHMARK.json lists the same names.
LAYER_METRICS = {
    "combinatorics.log_binomial.calls": "count",
    "combinatorics.log_binomial.s": "s",
    "combinatorics.wallenius_pmf.calls": "count",
    "combinatorics.wallenius_pmf.s": "s",
    "combinatorics.wallenius_pmf.distinct": "count",
    "degree.reduced_degree_dist.calls": "count",
    "degree.reduced_degree_dist.s": "s",
    "degree.redundancy_prob_acked.s": "s",
    "degree.two_layer_reduced_dist.s": "s",
    "degree.n_layer_reduced_dist.s": "s",
    "degree.adaptive_degree_dist.calls": "count",
    "degree.adaptive_degree_dist.s": "s",
    "degree.robust_soliton.calls": "count",
    "degree.robust_soliton.s": "s",
    "codec.encode_next.calls": "count",
    "codec.encode_next.s": "s",
    "codec.neighbors_per_symbol": "count",
    "codec.receive.calls": "count",
    "codec.receive.s": "s",
    "codec.redundant_ratio": "ratio",
    "codec.setup.s": "s",
    "feedback.apply_feedback.calls": "count",
    "feedback.apply_feedback.s": "s",
    "feedback.messages": "count",
    "simulator.run_trial.calls": "count",
    "simulator.run_trial.s": "s",
    "simulator.run_trial.self_s": "s",
    "simulator.receptions": "count",
    "simulator.sent": "count",
    "simulator.pool.efficiency": "ratio",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer values one traced round gives.  `simulator.pool.efficiency`
    and `trace.overhead_s` come from untraced rounds and are added by the
    caller."""
    spans = tracer.summary()
    counts = tracer.counts

    def span(name):
        return spans.get(name, (0, 0.0, 0.0))

    out = dict.fromkeys(LAYER_METRICS, 0)
    for metric in LAYER_METRICS:
        stem, _, field = metric.rpartition(".")
        fields = ("calls", "s", "self_s")
        if field in fields:
            out[metric] = span(stem)[fields.index(field)]
    out["combinatorics.wallenius_pmf.distinct"] = len(tracer.wallenius_args)
    out["codec.neighbors_per_symbol"] = _ratio(counts["codec.neighbors"],
                                               span("codec.encode_next")[0])
    out["codec.redundant_ratio"] = _ratio(counts["codec.redundant"], span("codec.receive")[0])
    out["cli.self_s"] = span("cli.main")[2]
    for name in ("feedback.messages", "simulator.receptions", "simulator.sent"):
        out[name] = counts[name]
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
