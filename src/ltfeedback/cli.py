"""Command-line front end: closed-form analysis tables and simulation runs.

Every command writes a CSV plus a JSON manifest holding the full effective
configuration, so any result file can be regenerated byte for byte with
`--config <manifest>`.  Flags override config-file values.  Exit codes:
0 success, 2 invalid arguments, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

# reduced_degree_dist, redundancy_prob_acked and two_layer_reduced_dist are not
# called here; perfbench's tracer wraps them at these names, so they stay bound.
from .degree import (  # noqa: F401
    LayerConfig,
    RsdParams,
    adaptive_degree_dist,
    layered_redundancy,
    n_layer_reduced_dist,
    reduced_degree_dist,
    redundancy_curve,
    redundancy_curve_acked,
    redundancy_prob_acked,
    robust_soliton,
    two_layer_reduced_dist,
)
from .simulator import (
    experiment_deadline_distortion,
    experiment_single_layer_feedback,
    experiment_two_layer_ack,
    two_layer_config,
    write_csv,
    write_manifest,
)

OUTDIR_ENV = "LTFEEDBACK_OUTDIR"
_ACK_CHOICES = ("both", "layer", "none")

_DEFAULTS = {
    "analyze reduced": {"k": 100, "c": 0.1, "delta": 1.0},
    "analyze reduced-acked": {"k": 100, "c": 0.1, "delta": 1.0, "undecoded": 20},
    "analyze adaptive": {"k": 100, "c": 0.1, "delta": 1.0, "undecoded": 40},
    "analyze two-layer": {"k": 100, "c": 0.1, "delta": 1.0, "alpha": 0.5, "beta": 9.0,
                          "grid_step": 10},
    "analyze n-layer": {"k": 60, "c": 0.1, "delta": 1.0, "layer_sizes": "20,20,20",
                        "weights": "9,3,1", "undecoded": "0,10,20"},
    "simulate single": {"k": 1000, "runs": 200, "seed": 1, "c": 0.1, "delta": 1.0,
                        "ser": 0.0, "threads": 0},
    "simulate two-layer": {"k": 1000, "runs": 200, "seed": 1, "c": 0.1, "delta": 1.0,
                           "alpha": 0.5, "beta": 9.0, "ser": 0.0, "ack": "both",
                           "baseline": True, "threads": 0},
    "simulate distortion": {"k": 100, "seconds": 100, "seed": 1, "c": 0.1, "delta": 1.0,
                            "alpha": 0.5, "beta": 9.0, "ser": "0:0.05:1",
                            "deadline_basis": "sent", "threads": 0},
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it as
    it was, so every call of main() may share it."""
    parser = argparse.ArgumentParser(
        prog="ltfeedback",
        description="Rateless-code feedback analysis and simulation",
    )
    top = parser.add_subparsers(dest="command", required=True)

    analyze = top.add_parser("analyze", help="closed-form degree-distribution tables")
    asub = analyze.add_subparsers(dest="subcommand", required=True)
    simulate = top.add_parser("simulate", help="Monte-Carlo transmission experiments")
    ssub = simulate.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--k", type=int, help="block length")
        p.add_argument("--c", type=float, help="soliton spike constant")
        p.add_argument("--delta", type=float, help="soliton failure bound, in (0,1]")

    p = asub.add_parser("reduced", help="redundancy probability vs decoded count")
    common(p)

    p = asub.add_parser("reduced-acked", help="redundancy probability vs acknowledged count")
    common(p)
    p.add_argument("--undecoded", type=int, help="symbols still unknown at the receiver")

    p = asub.add_parser("adaptive", help="zero-redundancy adaptive distribution")
    common(p)
    p.add_argument("--undecoded", type=int, help="symbols still unknown at the receiver")

    p = asub.add_parser("two-layer", help="joint redundancy over a grid of undecoded counts")
    common(p)
    p.add_argument("--alpha", type=float, help="base-layer fraction of the block")
    p.add_argument("--beta", type=float, help="base/refinement selection weight ratio")
    p.add_argument("--grid-step", dest="grid_step", type=int, help="grid spacing")

    p = asub.add_parser("n-layer", help="full joint reduced-degree pmf for N layers")
    common(p)
    p.add_argument("--layer-sizes", dest="layer_sizes", help="comma list of layer sizes")
    p.add_argument("--weights", help="comma list of layer weights")
    p.add_argument("--undecoded", help="comma list of undecoded counts per layer")

    def sim_common(p):
        common(p)
        p.add_argument("--runs", type=int, help="independent trials per scheme")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--threads", type=int, help="worker processes (0 = all cores)")

    p = ssub.add_parser("single", help="single-layer feedback comparison")
    sim_common(p)
    p.add_argument("--ser", type=float, help="symbol erasure rate")

    p = ssub.add_parser("two-layer", help="layer-acknowledgment comparison")
    sim_common(p)
    p.add_argument("--ser", type=float, help="symbol erasure rate")
    p.add_argument("--alpha", type=float, help="base-layer fraction of the block")
    p.add_argument("--beta", type=float, help="base/refinement selection weight ratio")
    p.add_argument("--ack", choices=_ACK_CHOICES, help="which variants to run")
    p.add_argument("--baseline", dest="baseline", action="store_true", default=None,
                   help="include the unlayered baseline")
    p.add_argument("--no-baseline", dest="baseline", action="store_false", default=None)

    p = ssub.add_parser("distortion", help="deadline-limited distortion sweep")
    sim_common(p)
    p.add_argument("--ser", help="erasure-rate grid: start:step:stop, comma list, or one value")
    p.add_argument("--seconds", type=int, help="trials (seconds of source) per grid point")
    p.add_argument("--alpha", type=float, help="base-layer fraction of the block")
    p.add_argument("--beta", type=float, help="base/refinement selection weight ratio")
    p.add_argument("--deadline-basis", dest="deadline_basis", choices=["sent", "received"],
                   help="whether the deadline counts sent or received symbols")

    return parser


def _load_config(path: str) -> dict:
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    # A manifest written by this tool nests the parameters under "config".
    if "config" in data and isinstance(data["config"], dict):
        data = data["config"]
    return data


def _effective(args: argparse.Namespace, name: str) -> dict:
    """Merge flag values, config-file values, and built-in defaults."""
    defaults = _DEFAULTS[name]
    from_file = _load_config(args.config) if args.config else {}
    unknown = set(from_file) - set(defaults)
    if unknown:
        raise ValueError(f"config keys not recognized for '{name}': {sorted(unknown)}")
    merged = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
        elif key in from_file:
            merged[key] = _file_value(key, from_file[key], type(default))
        else:
            merged[key] = default
    return merged


def _file_value(key: str, value, want: type):
    """A config-file value must have the type its flag parses to, which is
    the type of the key's default.  A bool is not an int; a float key takes
    an int, as its flag would."""
    if want is float and type(value) is int:
        return float(value)
    if type(value) is not want:
        raise ValueError(f"config key '{key}' must be {want.__name__}, "
                         f"not {type(value).__name__} {value!r}")
    return value


def _int_list(text: str) -> tuple:
    return tuple(int(part) for part in text.split(","))


def _float_list(text: str) -> tuple:
    return tuple(float(part) for part in text.split(","))


def _ser_grid(text: str) -> np.ndarray:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("grid must be start:step:stop")
        start, step, stop = (float(p) for p in parts)
        if step <= 0 or stop < start:
            raise ValueError("grid must satisfy step > 0 and stop >= start")
        n = int(round((stop - start) / step))
        grid = start + step * np.arange(n + 1)
        return grid[grid <= stop + 1e-12]
    return np.array(_float_list(text))


def _out_path(args: argparse.Namespace, default_name: str) -> str:
    if args.out:
        return args.out
    outdir = os.environ.get(OUTDIR_ENV, ".")
    return os.path.join(outdir, default_name)


def _rsd(cfg: dict):
    return robust_soliton(RsdParams(cfg["k"], cfg["c"], cfg["delta"]))


def _workers(cfg: dict) -> int:
    threads = cfg.get("threads", 0)
    return os.cpu_count() or 1 if threads == 0 else threads


def _cmd_analyze_reduced(cfg: dict, out: str):
    rows = enumerate(redundancy_curve(_rsd(cfg)))
    write_csv(out, ["decoded", "redundancy_prob"], rows)


def _cmd_analyze_reduced_acked(cfg: dict, out: str):
    rows = enumerate(redundancy_curve_acked(_rsd(cfg), cfg["undecoded"]))
    write_csv(out, ["acked", "redundancy_prob"], rows)


def _cmd_analyze_adaptive(cfg: dict, out: str):
    dist = _rsd(cfg)
    undecoded = cfg["undecoded"]
    if not 1 <= undecoded <= cfg["k"]:
        raise ValueError("undecoded must lie in 1..k")
    rho = adaptive_degree_dist(dist, undecoded)
    rows = [(d, rho.pmf[d]) for d in range(1, undecoded + 1)]
    write_csv(out, ["degree", "probability"], rows)


def _grid_points(limit: int, step: int) -> list:
    points = list(range(0, limit + 1, step))
    if points[-1] != limit:
        points.append(limit)
    return points


def _cmd_analyze_two_layer(cfg: dict, out: str):
    dist = _rsd(cfg)
    layers = two_layer_config(cfg["k"], cfg["alpha"], cfg["beta"])
    step = cfg["grid_step"]
    if step < 1:
        raise ValueError("grid_step must be >= 1")
    base, refine = (_grid_points(m, step) for m in layers.layer_sizes)
    grid = layered_redundancy(dist, layers, (base, refine))
    rows = [(lb, lr, grid[a, b]) for a, lb in enumerate(base) for b, lr in enumerate(refine)]
    write_csv(out, ["undecoded_base", "undecoded_refine", "redundancy_prob"], rows)


def _cmd_analyze_n_layer(cfg: dict, out: str):
    sizes = _int_list(cfg["layer_sizes"])
    weights = _float_list(cfg["weights"])
    undecoded = _int_list(cfg["undecoded"])
    if sum(sizes) != cfg["k"]:
        raise ValueError("layer sizes must sum to k")
    layers = LayerConfig(sizes, weights)
    dist = _rsd(cfg)
    pmf = n_layer_reduced_dist(dist, layers, undecoded)
    header = [f"reduced_{n + 1}" for n in range(len(sizes))] + ["probability"]
    rows = [tuple(idx) + (pmf[idx],) for idx in np.ndindex(pmf.shape)]
    write_csv(out, header, rows)


def _cmd_simulate_single(cfg: dict, out: str) -> dict:
    result = experiment_single_layer_feedback(
        k=cfg["k"], runs=cfg["runs"], seed=cfg["seed"], c=cfg["c"], delta=cfg["delta"],
        ser=cfg["ser"], workers=_workers(cfg),
    )
    rows = [(name, received, frac) for name, stats in result.schemes.items()
            for received, frac in enumerate(stats.mean_undecoded_frac)]
    write_csv(out, ["scheme", "received", "mean_undecoded_frac"], rows)
    return {name: s.mean_overhead for name, s in result.schemes.items()}


def _cmd_simulate_two_layer(cfg: dict, out: str) -> dict:
    wanted = {
        "two_layer_no_ack": cfg["ack"] in ("both", "none"),
        "two_layer_layer_ack": cfg["ack"] in ("both", "layer"),
        "single_layer": cfg["baseline"],
    }
    result = experiment_two_layer_ack(
        k=cfg["k"], alpha=cfg["alpha"], beta=cfg["beta"], runs=cfg["runs"], seed=cfg["seed"],
        c=cfg["c"], delta=cfg["delta"], ser=cfg["ser"], workers=_workers(cfg),
        schemes=tuple(name for name, on in wanted.items() if on),
    )
    rows = []
    for name, stats in result.schemes.items():
        curves = [("total", stats.mean_undecoded_frac)]
        if stats.mean_layer_undecoded_frac.shape[1] == 2:
            curves += zip(("base", "refine"), stats.mean_layer_undecoded_frac.T)
        rows += [(name, layer, received, frac) for layer, curve in curves
                 for received, frac in enumerate(curve)]
    write_csv(out, ["scheme", "layer", "received", "mean_undecoded_frac"], rows)
    return {name: s.mean_overhead for name, s in result.schemes.items()}


def _cmd_simulate_distortion(cfg: dict, out: str) -> dict:
    grid = _ser_grid(cfg["ser"])
    if (grid < 0).any() or (grid > 1).any():
        raise ValueError("erasure rates must lie in [0, 1]")
    result = experiment_deadline_distortion(
        k=cfg["k"], alpha=cfg["alpha"], beta=cfg["beta"], ser_grid=grid,
        seconds=cfg["seconds"], seed=cfg["seed"], c=cfg["c"], delta=cfg["delta"],
        deadline_basis=cfg["deadline_basis"], workers=_workers(cfg),
    )
    names = list(result.mean_distortion)
    rows = [(float(ser),) + tuple(result.mean_distortion[name][gi] for name in names)
            for gi, ser in enumerate(grid)]
    write_csv(out, ["ser"] + names, rows)
    return {"payload_errors": result.payload_errors}


_HANDLERS = {
    "analyze reduced": (_cmd_analyze_reduced, "analyze_reduced.csv"),
    "analyze reduced-acked": (_cmd_analyze_reduced_acked, "analyze_reduced_acked.csv"),
    "analyze adaptive": (_cmd_analyze_adaptive, "analyze_adaptive.csv"),
    "analyze two-layer": (_cmd_analyze_two_layer, "analyze_two_layer.csv"),
    "analyze n-layer": (_cmd_analyze_n_layer, "analyze_n_layer.csv"),
    "simulate single": (_cmd_simulate_single, "simulate_single.csv"),
    "simulate two-layer": (_cmd_simulate_two_layer, "simulate_two_layer.csv"),
    "simulate distortion": (_cmd_simulate_distortion, "simulate_distortion.csv"),
}


def _validate_common(cfg: dict):
    if "k" in cfg and cfg["k"] < 1:
        raise ValueError("k must be >= 1")
    if "c" in cfg and not cfg["c"] > 0:
        raise ValueError("c must be positive")
    if "delta" in cfg and not 0 < cfg["delta"] <= 1:
        raise ValueError("delta must lie in (0, 1]")
    if "runs" in cfg and cfg["runs"] < 1:
        raise ValueError("runs must be >= 1")
    if "seconds" in cfg and cfg["seconds"] < 1:
        raise ValueError("seconds must be >= 1")
    if "ser" in cfg and isinstance(cfg["ser"], float) and not 0 <= cfg["ser"] <= 1:
        raise ValueError("ser must lie in [0, 1]")
    if "alpha" in cfg and not 0 < cfg["alpha"] < 1:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if "beta" in cfg and not cfg["beta"] > 0:
        raise ValueError("beta must be positive")
    if "threads" in cfg and cfg["threads"] < 0:
        raise ValueError("threads must be >= 0")
    if "ack" in cfg and cfg["ack"] not in _ACK_CHOICES:
        raise ValueError(f"ack must be one of {_ACK_CHOICES}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    name = f"{args.command} {args.subcommand}"
    handler, default_name = _HANDLERS[name]
    try:
        cfg = _effective(args, name)
        _validate_common(cfg)
        out = _out_path(args, default_name)
        extra = handler(cfg, out)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    write_manifest(out + ".manifest.json", name, cfg, extra if isinstance(extra, dict) else None)
    print(f"wrote {out}")
    return 0
