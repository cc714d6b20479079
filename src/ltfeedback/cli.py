"""Command-line front end: closed-form analysis tables and simulation runs.

Every command writes a CSV plus a JSON manifest holding the full effective
configuration, so any result file can be regenerated byte for byte with
`--config <manifest>`; this module alone writes and reads those files.
Flags override config-file values.  Exit codes: 0 success, 2 invalid
arguments, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__

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
)

OUTDIR_ENV = "LTFEEDBACK_OUTDIR"
_CHOICES = {"ack": ("both", "layer", "none"), "deadline_basis": ("sent", "received")}

# Each key is a flag, --key-with-dashes, that parses to the type of its default.
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

_HELP = {
    "analyze": "closed-form degree-distribution tables",
    "simulate": "Monte-Carlo transmission experiments",
    "out": "output CSV path",
    "config": "JSON config file (flags override it)",
    "k": "block length",
    "c": "soliton spike constant, > 0, with spike scale c*ln(k/delta)*sqrt(k) <= k",
    "delta": "soliton failure bound, in (0,1], with spike scale c*ln(k/delta)*sqrt(k) <= k",
    "undecoded": "symbols still unknown at the receiver",
    "analyze n-layer undecoded": "comma list of undecoded counts per layer",
    "alpha": "base-layer fraction of the block",
    "beta": "base/refinement selection weight ratio",
    "grid_step": "grid spacing",
    "layer_sizes": "comma list of layer sizes",
    "weights": "comma list of layer weights",
    "runs": "independent trials per scheme",
    "seconds": "trials (seconds of source) per grid point",
    "seed": "master seed",
    "threads": "worker processes (0 = all cores)",
    "ser": "symbol erasure rate",
    "simulate distortion ser": "erasure-rate grid: start:step:stop, comma list, or one value",
    "ack": "which variants to run",
    "baseline": "include the unlayered baseline",
    "deadline_basis": "whether the deadline counts sent or received symbols",
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
    groups = {}
    for name, defaults in _DEFAULTS.items():
        command, sub = name.split()
        if command not in groups:
            groups[command] = top.add_parser(command, help=_HELP[command]).add_subparsers(
                dest="subcommand", required=True)
        p = groups[command].add_parser(sub, help=_HANDLERS[name][1])
        p.add_argument("--out", help=_HELP["out"])
        p.add_argument("--config", help=_HELP["config"])
        for key, default in defaults.items():
            flag, text = "--" + key.replace("_", "-"), _HELP.get(f"{name} {key}", _HELP[key])
            if type(default) is bool:
                p.add_argument(flag, action=argparse.BooleanOptionalAction, help=text)
            else:
                p.add_argument(flag, type=type(default), choices=_CHOICES.get(key), help=text)
    return parser


def format_value(v) -> str:
    """Diff-stable cell formatting: 9 significant digits for floats."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.9g}"
    return str(v)


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, rows):
    """Write a CSV atomically: either the complete file appears or nothing."""
    lines = [",".join(header)] + [",".join(map(format_value, row)) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def write_manifest(path: str, command: str, config: dict, extra: dict | None):
    """JSON run manifest: the full configuration needed to reproduce the
    result file byte for byte, the package version and any `extra` results."""
    payload = {
        "command": command,
        "config": config,
        "version": f"ltfeedback {__version__}",
    }
    if extra:
        payload["results"] = extra
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


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
    an int, as its flag would, and a key with choices takes only one of them."""
    if want is float and type(value) is int:
        return float(value)
    if type(value) is not want:
        raise ValueError(f"config key '{key}' must be {want.__name__}, "
                         f"not {type(value).__name__} {value!r}")
    if key in _CHOICES and value not in _CHOICES[key]:
        raise ValueError(f"config key '{key}' must be one of {_CHOICES[key]}, not {value!r}")
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
        # rounding may carry the last point just past stop: it is stop
        return np.minimum(grid[grid <= stop + 1e-12], stop)
    return np.array(_float_list(text))


def _out_path(args: argparse.Namespace, default_name: str) -> str:
    if args.out:
        return args.out
    outdir = os.environ.get(OUTDIR_ENV, ".")
    return os.path.join(outdir, default_name)


def _rsd(cfg: dict):
    return robust_soliton(RsdParams(cfg["k"], cfg["c"], cfg["delta"]))


def _workers(cfg: dict) -> int:
    threads = cfg["threads"]
    if threads < 0:
        raise ValueError(f"threads must be >= 0, not {threads}")
    return os.cpu_count() or 1 if threads == 0 else threads


def _cmd_analyze_reduced(cfg: dict, out: str):
    rows = enumerate(redundancy_curve(_rsd(cfg)))
    write_csv(out, ["decoded", "redundancy_prob"], rows)


def _cmd_analyze_reduced_acked(cfg: dict, out: str):
    rows = enumerate(redundancy_curve_acked(_rsd(cfg), cfg["undecoded"]))
    write_csv(out, ["acked", "redundancy_prob"], rows)


def _cmd_analyze_adaptive(cfg: dict, out: str):
    rho = adaptive_degree_dist(_rsd(cfg), cfg["undecoded"])
    rows = [(d, rho.pmf[d]) for d in range(1, rho.k + 1)]
    write_csv(out, ["degree", "probability"], rows)


def _grid_points(limit: int, step: int) -> list:
    if step < 1:
        raise ValueError(f"grid_step must be >= 1, not {step}")
    points = list(range(0, limit + 1, step))
    if points[-1] != limit:
        points.append(limit)
    return points


def _cmd_analyze_two_layer(cfg: dict, out: str):
    dist = _rsd(cfg)
    layers = two_layer_config(cfg["k"], cfg["alpha"], cfg["beta"])
    base, refine = (_grid_points(m, cfg["grid_step"]) for m in layers.layer_sizes)
    grid = layered_redundancy(dist, layers, (base, refine))
    rows = [(lb, lr, grid[a, b]) for a, lb in enumerate(base) for b, lr in enumerate(refine)]
    write_csv(out, ["undecoded_base", "undecoded_refine", "redundancy_prob"], rows)


def _cmd_analyze_n_layer(cfg: dict, out: str):
    layers = LayerConfig(_int_list(cfg["layer_sizes"]), _float_list(cfg["weights"]))
    pmf = n_layer_reduced_dist(_rsd(cfg), layers, _int_list(cfg["undecoded"]))
    header = [f"reduced_{n + 1}" for n in range(pmf.ndim)] + ["probability"]
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
    overheads = {name: s.mean_overhead for name, s in result.schemes.items()}
    redundant = {name: float(s.redundant_counts.mean()) for name, s in result.schemes.items()}
    return {**overheads, "mean_redundant_count": redundant,
            "payload_errors": result.payload_errors}


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
    overheads = {name: s.mean_overhead for name, s in result.schemes.items()}
    return {**overheads, "payload_errors": result.payload_errors}


def _cmd_simulate_distortion(cfg: dict, out: str) -> dict:
    grid = _ser_grid(cfg["ser"])
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


# name -> (handler, help); the default output file is the name in snake case
_HANDLERS = {
    "analyze reduced": (_cmd_analyze_reduced, "redundancy probability vs decoded count"),
    "analyze reduced-acked": (_cmd_analyze_reduced_acked,
                              "redundancy probability vs acknowledged count"),
    "analyze adaptive": (_cmd_analyze_adaptive, "zero-redundancy adaptive distribution"),
    "analyze two-layer": (_cmd_analyze_two_layer,
                          "joint redundancy over a grid of undecoded counts"),
    "analyze n-layer": (_cmd_analyze_n_layer, "full joint reduced-degree pmf for N layers"),
    "simulate single": (_cmd_simulate_single, "single-layer feedback comparison"),
    "simulate two-layer": (_cmd_simulate_two_layer, "layer-acknowledgment comparison"),
    "simulate distortion": (_cmd_simulate_distortion, "deadline-limited distortion sweep"),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    name = f"{args.command} {args.subcommand}"
    handler = _HANDLERS[name][0]
    try:
        cfg = _effective(args, name)
        out = _out_path(args, name.replace(" ", "_").replace("-", "_") + ".csv")
        extra = handler(cfg, out)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    write_manifest(out + ".manifest.json", name, cfg, extra)
    print(f"wrote {out}")
    return 0
