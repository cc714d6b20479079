"""Tests for the command-line interface."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ltfeedback import cli, simulator
from ltfeedback.cli import main
from ltfeedback.codec import Decoder
from ltfeedback.degree import RsdParams, adaptive_degree_dist, robust_soliton
from oracles import sample_degrees, weighted_strip_counts

ROOT = Path(__file__).resolve().parent.parent
SRC_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))  # the package in this checkout


def trial_forbidden(config):
    raise AssertionError("a trial ran before the configuration was checked")


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestAnalyzeCommands:
    def test_reduced_curve_shape_and_endpoint(self, tmp_path):
        out = tmp_path / "reduced.csv"
        rc = main(["analyze", "reduced", "--k", "100", "--c", "0.1",
                   "--delta", "1.0", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["decoded", "redundancy_prob"]
        assert len(rows) == 101
        assert rows[0][0] == "0" and float(rows[0][1]) == 0.0
        # redundancy grows as decoding progresses
        assert float(rows[90][1]) > float(rows[50][1]) > float(rows[10][1])

    def test_reduced_acked_is_decreasing(self, tmp_path):
        out = tmp_path / "acked.csv"
        rc = main(["analyze", "reduced-acked", "--k", "60", "--undecoded", "20",
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        values = [float(r[1]) for r in rows]
        assert len(values) == 41
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_adaptive_matches_library(self, tmp_path):
        out = tmp_path / "adaptive.csv"
        rc = main(["analyze", "adaptive", "--k", "50", "--undecoded", "20",
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        want = adaptive_degree_dist(robust_soliton(RsdParams(50, 0.1, 1.0)), 20)
        assert len(rows) == 20
        for row in rows:
            degree = int(row[0])
            assert float(row[1]) == pytest.approx(want.pmf[degree], rel=1e-8)

    def test_two_layer_grid_corner_is_zero(self, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main(["analyze", "two-layer", "--k", "100", "--alpha", "0.5",
                   "--beta", "9", "--grid-step", "25", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["undecoded_base", "undecoded_refine", "redundancy_prob"]
        corner = [r for r in rows if r[0] == "50" and r[1] == "50"]
        assert len(corner) == 1 and float(corner[0][2]) == 0.0

    def test_two_layer_large_weighted_argument_does_not_overflow(self, tmp_path):
        # k=80 drove the old Wallenius quadrature's peak search to c*v
        # between 709.78 and 745, where 1/expm1(c*v) overflowed and exited 3
        out = tmp_path / "grid.csv"
        rc = main(["analyze", "two-layer", "--k", "80", "--grid-step", "10",
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert rows[0][:2] == ["0", "0"] and float(rows[0][2]) == 1.0

    def test_two_layer_at_k400(self, tmp_path):
        # a 201 x 201 Wallenius table: large layers must stay cheap
        out = tmp_path / "grid.csv"
        rc = main(["analyze", "two-layer", "--k", "400", "--grid-step", "50",
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        cells = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
        assert len(cells) == 25
        assert abs(cells[(0, 0)] - 1.0) <= 1e-9
        assert abs(cells[(200, 200)]) <= 1e-12

    def test_two_layer_grid_matches_monte_carlo(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(["analyze", "two-layer", "--k", "100", "--alpha", "0.5",
                     "--beta", "9", "--grid-step", "25", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        cells = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
        rng = np.random.default_rng(71)
        dist = robust_soliton(RsdParams(100, 0.1, 1.0))
        n = 200_000
        for lb, lr in [(25, 25), (0, 50)]:
            # subgroups: (base undecoded, base decoded, refine undecoded,
            # refine decoded); redundant = no undecoded neighbor at all
            degrees = sample_degrees(dist, rng, n)
            counts = weighted_strip_counts(
                degrees, (lb, 50 - lb, lr, 50 - lr), (9.0, 9.0, 1.0, 1.0), rng)
            p_hat = ((counts[:, 0] == 0) & (counts[:, 2] == 0)).mean()
            p = cells[(lb, lr)]
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(p_hat - p) <= 3 * se + 5e-10  # cells carry 9 digits

    def test_n_layer_pmf_sums_to_one(self, tmp_path):
        out = tmp_path / "nlayer.csv"
        rc = main(["analyze", "n-layer", "--k", "30", "--layer-sizes", "10,10,10",
                   "--weights", "9,3,1", "--undecoded", "2,3,4", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 3 * 4 * 5
        assert sum(float(r[3]) for r in rows) == pytest.approx(1.0, abs=1e-8)


# SHA-256 of the CSVs of small fixed-seed runs, the same for any worker
# count.  A change to what a trial draws changes them; nothing else may.
SIMULATE_CHECKSUMS = {
    "single": (["--k", "40", "--runs", "4", "--seed", "5"],
               "91769019d54a32d5b899d188318be18d7b94da28408e956f654b768c52702bcf"),
    "two-layer": (["--k", "40", "--runs", "4", "--seed", "5"],
                  "a2c1ce1a34d485ff589bda8d1039318a36becba99e06c795f09689e480501048"),
    "distortion": (["--k", "40", "--ser", "0:0.25:1", "--seconds", "3", "--seed", "5"],
                   "a3517ea38b36cdd1fee7218dc82fbabfa69963eeaa29fc263d6ac219ffcd9a6e"),
}

# One small run of every command, each to be rerun from its manifest.
MANIFEST_RUNS = {
    "analyze-reduced": ["analyze", "reduced", "--k", "30"],
    "analyze-reduced-acked": ["analyze", "reduced-acked", "--k", "30", "--undecoded", "10"],
    "analyze-adaptive": ["analyze", "adaptive", "--k", "30", "--undecoded", "10"],
    "analyze-two-layer": ["analyze", "two-layer", "--k", "30", "--grid-step", "5"],
    "analyze-n-layer": ["analyze", "n-layer", "--k", "30", "--layer-sizes", "10,10,10",
                        "--undecoded", "0,5,10"],
    "simulate-single": ["simulate", "single", "--k", "50", "--runs", "4", "--seed", "3",
                        "--threads", "1"],
    "simulate-two-layer": ["simulate", "two-layer", "--k", "40", "--runs", "3", "--seed", "4",
                           "--ack", "layer", "--no-baseline", "--ser", "0.2", "--threads", "1"],
    "simulate-distortion": ["simulate", "distortion", "--k", "30", "--seconds", "3",
                            "--seed", "6", "--ser", "0:0.3:0.9", "--deadline-basis", "received",
                            "--threads", "1"],
}


class TestSimulateCommands:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "single", "--k", "60", "--runs", "5", "--seed", "7",
                "--threads", "1"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("run", sorted(MANIFEST_RUNS))
    def test_manifest_reproduces_output(self, tmp_path, run):
        args = MANIFEST_RUNS[run]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        manifest = out1.with_suffix(".csv.manifest.json")
        assert manifest.exists()
        assert main(args[:2] + ["--config", str(manifest), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_manifest_records_parameters(self, tmp_path):
        out = tmp_path / "two.csv"
        rc = main(["simulate", "two-layer", "--k", "80", "--alpha", "0.5", "--beta", "9",
                   "--runs", "3", "--seed", "11", "--ack", "layer", "--threads", "1",
                   "--out", str(out)])
        assert rc == 0
        manifest = json.loads(out.with_suffix(".csv.manifest.json").read_text())
        cfg = manifest["config"]
        for key in ("k", "alpha", "beta", "runs", "seed", "c", "delta", "ser", "ack",
                    "baseline", "threads"):
            assert key in cfg
        assert cfg["k"] == 80 and cfg["seed"] == 11 and cfg["ack"] == "layer"
        assert manifest["version"].startswith("ltfeedback ")

    @pytest.mark.parametrize("command", ["single", "two-layer"])
    def test_manifest_reports_payload_errors(self, tmp_path, monkeypatch, command):
        # the input the first ripple symbol decodes gets a flipped bit, as in
        # test_wrong_decoded_value_is_reported
        args = ["simulate", command, "--k", "30", "--runs", "2", "--threads", "1"]
        clean, bad = tmp_path / "clean.csv", tmp_path / "bad.csv"
        assert main(args + ["--out", str(clean)]) == 0
        drain, corrupted = Decoder._drain, []

        def corrupting_drain(self, first):
            if not corrupted:
                self._value[first] ^= 1
                corrupted.append(first)
            return drain(self, first)

        monkeypatch.setattr(Decoder, "_drain", corrupting_drain)
        assert main(args + ["--out", str(bad)]) == 0
        errors = [json.loads(path.with_suffix(".csv.manifest.json").read_text())
                  ["results"]["payload_errors"] for path in (clean, bad)]
        assert corrupted and errors[0] == 0 and errors[1] >= 1

    def test_single_manifest_reports_mean_redundant_counts(self, tmp_path):
        out = tmp_path / "single.csv"
        assert main(["simulate", "single", "--k", "60", "--runs", "4", "--seed", "3",
                     "--threads", "1", "--out", str(out)]) == 0
        results = json.loads(out.with_suffix(".csv.manifest.json").read_text())["results"]
        expected = simulator.experiment_single_layer_feedback(k=60, runs=4, seed=3).schemes
        assert results["mean_redundant_count"] == {
            name: float(s.redundant_counts.mean()) for name, s in expected.items()}
        # per-symbol acks exclude every decoded input, so no arrival is redundant
        assert results["mean_redundant_count"]["ack_original"] == 0.0
        assert results["mean_redundant_count"]["ack_adaptive"] == 0.0

    def test_distortion_output_range(self, tmp_path):
        out = tmp_path / "dist.csv"
        rc = main(["simulate", "distortion", "--k", "40", "--ser", "0:0.5:1",
                   "--seconds", "4", "--seed", "2", "--threads", "1", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header[0] == "ser" and len(rows) == 3
        lo = 0.740192397133012
        for row in rows:
            for cell in row[1:]:
                # cells carry 9 significant digits
                assert lo - 1e-9 <= float(cell) <= 1.0
        assert all(float(cell) == 1.0 for cell in rows[-1][1:])

    def test_flags_override_config_file(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"k": 50, "runs": 3, "seed": 1}))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "single", "--config", str(config), "--threads", "1",
                     "--out", str(out1)]) == 0
        assert main(["simulate", "single", "--k", "50", "--runs", "3", "--seed", "1",
                     "--threads", "1", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("command", sorted(SIMULATE_CHECKSUMS))
    def test_output_checksum(self, tmp_path, command, threads):
        args, digest = SIMULATE_CHECKSUMS[command]
        out = tmp_path / "out.csv"
        assert main(["simulate", command, *args, "--threads", threads,
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# Out-of-range values, each paired with the commands listed, or with every
# command that takes its key when none are.
OUT_OF_RANGE = {
    ("k", "0"): None,
    ("c", "0"): None,
    ("delta", "0"): None,
    ("delta", "1.5"): None,
    ("ser", "1.5"): ("simulate single", "simulate two-layer"),
    ("ser", "0,1.2"): ("simulate distortion",),
    ("ser", "inf"): None,
    ("ser", "nan"): None,
    ("alpha", "0"): None,
    ("alpha", "1"): None,
    ("alpha", "inf"): None,
    ("beta", "0"): None,
    ("threads", "-1"): None,
    ("seed", "-1"): None,
    ("undecoded", "0"): ("analyze adaptive",),
    ("k", "61"): ("analyze n-layer",),
}
OUT_OF_RANGE_RUNS = [
    (name, key, value) for (key, value), names in OUT_OF_RANGE.items()
    for name in names or [n for n, defaults in cli._DEFAULTS.items() if key in defaults]
]


class TestFailureModes:
    @pytest.mark.parametrize("name, key, value", OUT_OF_RANGE_RUNS,
                             ids=[f"{n.replace(' ', '-')}-{k}={v}" for n, k, v in OUT_OF_RANGE_RUNS])
    def test_out_of_range_value_exits_2_before_any_trial(
            self, tmp_path, capsys, monkeypatch, name, key, value):
        monkeypatch.setattr(simulator, "run_trial", trial_forbidden)
        out = tmp_path / "never.csv"
        assert main(name.split() + [f"--{key}", value, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_soliton_missing_at_a_rebuilt_size_exits_2_before_any_trial(
            self, tmp_path, capsys, monkeypatch):
        # ack_original rebuilds the soliton at sizes where c=0.5, delta=0.01 give none
        monkeypatch.setattr(simulator, "run_trial", trial_forbidden)
        out = tmp_path / "never.csv"
        assert main(["simulate", "single", "--k", "200", "--c", "0.5", "--delta", "0.01",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert "ack_original rebuilds the soliton at size 1" in capsys.readouterr().err

    def test_invalid_parameter_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        rc = main(["analyze", "reduced", "--k", "0", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "k must be >= 1" in capsys.readouterr().err

    def test_invalid_undecoded_names_precondition(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        rc = main(["analyze", "reduced-acked", "--k", "10", "--undecoded", "40",
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "undecoded" in capsys.readouterr().err

    def test_urn_above_the_state_budget_exits_2_without_output(self, tmp_path, capsys):
        # two layers of 2500 need a Wallenius table of 2501^2 states
        out = tmp_path / "never.csv"
        rc = main(["analyze", "two-layer", "--k", "5000", "--grid-step", "5000",
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "6255001 states, above the budget" in capsys.readouterr().err

    def test_bad_ser_grid(self, tmp_path, capsys):
        rc = main(["simulate", "distortion", "--k", "20", "--ser", "0:0:1",
                   "--seconds", "2", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_ser_grid_rounded_past_stop_ends_at_stop(self, tmp_path):
        # 0.09 + 13 * 0.07 rounds to 1.0000000000000002, outside [0, 1]
        out = tmp_path / "dist.csv"
        rc = main(["simulate", "distortion", "--ser", "0.09:0.07:1", "--k", "20",
                   "--seconds", "2", "--threads", "1", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 14 and rows[-1][0] == "1"
        assert all(float(cell) == 1.0 for cell in rows[-1][1:])

    @pytest.mark.parametrize("argv", [["simulate", "single", "--runs", "0"],
                                      ["simulate", "distortion", "--seconds", "0"]],
                             ids=["runs", "seconds"])
    def test_zero_trials_exit_2_before_any_trial(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setattr(simulator, "run_trial", trial_forbidden)
        out = tmp_path / "never.csv"
        assert main(argv + ["--k", "20", "--out", str(out)]) == 2
        assert not out.exists()
        assert "trials per scheme must be >= 1" in capsys.readouterr().err

    def test_received_deadline_at_total_erasure_exits_2_before_any_trial(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(simulator, "run_trial", trial_forbidden)
        out = tmp_path / "never.csv"
        rc = main(["simulate", "distortion", "--k", "20", "--ser", "0:0.5:1",
                   "--seconds", "2", "--deadline-basis", "received", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "received" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"bogus": 1}))
        rc = main(["analyze", "reduced", "--config", str(config),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config", [
        (["analyze", "reduced"], {"k": "100"}),
        (["analyze", "reduced"], {"k": 50.5}),
        (["analyze", "reduced"], {"k": True}),
        (["analyze", "two-layer"], {"beta": "9"}),
        (["analyze", "n-layer"], {"layer_sizes": [20, 20, 20]}),
        (["simulate", "single"], {"runs": "3"}),
        (["simulate", "two-layer"], {"baseline": 1}),
        (["simulate", "two-layer"], {"ack": "bogus"}),
    ])
    def test_config_value_its_flag_would_refuse_exits_2_without_output(
            self, tmp_path, capsys, monkeypatch, command, config):
        monkeypatch.setattr(simulator, "run_trial", trial_forbidden)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "never.csv"
        assert main(command + ["--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert next(iter(config)) in err and "must be" in err

    def test_float_config_key_takes_an_int(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k": 30, "beta": 9, "grid_step": 5}))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["analyze", "two-layer", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["analyze", "two-layer", "--k", "30", "--beta", "9", "--grid-step", "5",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        manifest = json.loads(out1.with_suffix(".csv.manifest.json").read_text())
        assert manifest["config"]["beta"] == 9.0

    def test_every_default_has_the_type_its_flag_parses_to(self):
        # config-file values are checked against the type of the default
        for name, defaults in cli._DEFAULTS.items():
            argv = name.split()
            for key, value in defaults.items():
                if type(value) is bool:
                    argv.append(f"--{key}" if value else f"--no-{key}")
                else:
                    argv += [f"--{key.replace('_', '-')}", str(value)]
            args = cli._build_parser().parse_args(argv)
            for key, value in defaults.items():
                assert type(getattr(args, key)) is type(value), (name, key)

    def test_missing_config_file(self, tmp_path):
        rc = main(["analyze", "reduced", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "mod.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "ltfeedback", "analyze", "reduced",
             "--k", "20", "--out", str(out)],
            capture_output=True, text=True, env=SRC_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_import_loads_numpy_random_and_not_scipy(self):
        # numpy.random loads lazily; importing it with the package means
        # forked pool workers inherit it instead of importing it each
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, ltfeedback; "
             "print('scipy' in sys.modules, 'numpy.random' in sys.modules)"],
            capture_output=True, text=True, env=SRC_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]

    def test_benchmark_tracer_finds_every_name_it_wraps(self):
        # the tracer replaces package names by getattr; a renamed one breaks --trace 1
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(str(root / d) for d in ("src", "perfbench")))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import ltfeedback, ltfeedback.cli, tracing; tracing.install(ltfeedback)"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr

    def test_benchmark_tracer_counts_feedback_messages(self):
        # the tracer counts a message when apply_feedback changes the acked
        # indices or fires a layer ack; every per-symbol call after a decode
        # event acks something, and one k=100 trial fires one layer ack
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(str(root / d) for d in ("src", "perfbench")))
        script = """
import ltfeedback, ltfeedback.cli, tracing
from ltfeedback.feedback import FeedbackPolicy
from ltfeedback.simulator import TrialConfig, two_layer_config
tracer = tracing.install(ltfeedback)
for layers, policy in [(None, FeedbackPolicy.ACK_ORIGINAL),
                       (two_layer_config(100, 0.5, 9.0), FeedbackPolicy.LAYER_ACK)]:
    tracer.spans.clear()
    tracer.counts.clear()
    ltfeedback.simulator.run_trial(TrialConfig(k=100, seed=2, layers=layers, policy=policy))
    print(tracer.summary()["feedback.apply_feedback"][0], tracer.counts["feedback.messages"])
"""
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        (acks, ack_messages), (layer_calls, layer_messages) = (
            map(int, line.split()) for line in proc.stdout.split("\n")[:2])
        assert acks > 0 and ack_messages == acks
        assert (layer_calls, layer_messages) == (29, 1)

    def test_reused_parser_writes_what_separate_processes_write(self, tmp_path, capsys):
        # main() shares one argument parser per process; an argparse error
        # in between must not change what a later call parses
        commands = [MANIFEST_RUNS[f"analyze-{sub}"] for sub in
                    ("reduced", "reduced-acked", "adaptive", "two-layer", "n-layer")]
        here, apart = tmp_path / "here", tmp_path / "apart"
        here.mkdir()
        apart.mkdir()
        for i, argv in enumerate(commands):
            assert main(argv + ["--out", str(here / f"{i}.csv")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "reduced", "--k", "many"])
        assert exc.value.code == 2
        assert main(commands[0] + ["--out", str(here / "again.csv")]) == 0

        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        for i, argv in enumerate(commands):
            proc = subprocess.run(
                [sys.executable, "-m", "ltfeedback", *argv, "--out", str(apart / f"{i}.csv")],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
        for i in range(len(commands)):
            for suffix in (".csv", ".csv.manifest.json"):
                name = f"{i}{suffix}"
                assert (here / name).read_bytes() == (apart / name).read_bytes(), name
        for suffix in (".csv", ".csv.manifest.json"):
            assert (here / f"again{suffix}").read_bytes() == (apart / f"0{suffix}").read_bytes()

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LTFEEDBACK_OUTDIR", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        rc = main(["analyze", "reduced", "--k", "10"])
        assert rc == 0
        assert (tmp_path / "analyze_reduced.csv").exists()
