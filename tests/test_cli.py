import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import interval_avoid
from interval_avoid import suites
from interval_avoid.cli import build_parser, main
from interval_avoid.config import parse_config
from interval_avoid.suites import dumps_17g


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------------ README

def _readme_commands() -> list[list[str]]:
    """The argv of every ``interval-avoid ...`` line in README's fenced
    blocks, continuation lines joined and ``# ...`` comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("interval-avoid "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_examples_parse():
    # a flag removed from the parser cannot stay in the examples
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {"tables", "simulate", "condition", "verify"}
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: interval-avoid {shlex.join(argv)}")


# ------------------------------------------------------------------- tables

def test_tables_harmonics(tmp_path, capsys):
    out = tmp_path / "h.csv"
    code, _, _ = run_cli(["tables", "--kind", "harmonics",
                          "--grid", "2:3:0.5", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,h_plus,h_minus,h,U_minus,nu1_mass,gamma"
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["x"]) == 2.0
    assert float(row["h_plus"]) == pytest.approx(0.8681438383679111, rel=1e-15)
    assert float(row["h"]) == pytest.approx(0.9359753802845330, rel=1e-15)


def test_tables_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for target in (a, b):
        code, _, _ = run_cli(["tables", "--grid=-3:-2:0.25",
                              "--out", str(target)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_tables_requires_grid(tmp_path, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--out", str(out)])
    assert exc.value.code == 2
    assert "--grid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k_max", ["0", "-1"])
def test_tables_k_max_below_one_exits_2(tmp_path, capsys, k_max):
    out = tmp_path / "nu.csv"
    code, _, err = run_cli(["tables", "--kind", "nu_masses", "--grid=-1:-1:1",
                            "--k-max", k_max, "--out", str(out)], capsys)
    assert code == 2
    assert "k_max" in err
    assert not out.exists()


def test_tables_grid_inside_interval_exits_2(tmp_path, capsys):
    code, _, err = run_cli(["tables", "--grid", "0:3:0.5",
                            "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2
    assert "outside" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid", ["0:inf:1", "2:3:inf", "nan:1:0.5"])
def test_tables_non_finite_grid_exits_2(tmp_path, capsys, grid):
    code, _, err = run_cli(["tables", f"--grid={grid}", "--out", str(tmp_path / "x.csv")],
                           capsys)
    assert code == 2
    assert "must be finite" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid", ["0:1e300:1e-300", "1:5:1e-12", "-1e308:1e308:1"])
def test_tables_oversized_grid_exits_2(tmp_path, capsys, grid):
    # the step count is bounded before it is rounded or any array is made
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(["tables", f"--grid={grid}", "--out", str(out)], capsys)
    assert code == 2 and stdout == "" and not out.exists()
    assert err.count("\n") == 1 and err.startswith("error:") and "steps" in err


def test_tables_potentials_zero_row(tmp_path, capsys):
    out = tmp_path / "p.csv"
    code, _, _ = run_cli(["tables", "--kind", "potentials", "--grid", "0:2:0.5",
                          "--out", str(out)], capsys)
    assert code == 0
    first = out.read_text().splitlines()[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0 and float(first[2]) == 0.0


def test_tables_nu_masses(tmp_path, capsys):
    out = tmp_path / "nu.csv"
    code, _, _ = run_cli(["tables", "--kind", "nu_masses", "--grid=-1:-1:1",
                          "--k-max", "3", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "start,k,side,mass"
    k1 = lines[1].split(",")
    assert float(k1[3]) == pytest.approx(0.08155371293611257, rel=1e-14)


# ----------------------------------------------------------------- simulate

def test_simulate_survival_json(capsys):
    code, out, _ = run_cli(["simulate", "--estimator", "survival", "--start", "2",
                            "--paths", "2000", "--t", "0.5", "--seed", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["estimator"] == "survival"
    assert 0.0 < doc["mean"] < 1.0
    assert doc["n"] == 2000
    assert doc["config_echo"]["seed"] == 5
    assert doc["variants"]["above"] + doc["variants"]["below"] == pytest.approx(
        doc["mean"], abs=1e-15)


def test_simulate_clock_requires_q(capsys):
    code, _, err = run_cli(["simulate", "--estimator", "clock", "--start", "2",
                            "--paths", "100"], capsys)
    assert code == 2 and "--q" in err


def test_simulate_dump_paths(tmp_path, capsys):
    dump = tmp_path / "p.csv"
    code, _, _ = run_cli(["simulate", "--estimator", "survival", "--start", "2",
                          "--paths", "10", "--t", "0.5", "--dump-paths", "3",
                          "--dump-file", str(dump), "--horizon", "2"], capsys)
    assert code == 0
    lines = dump.read_text().splitlines()
    assert lines[0] == "path_id,t,value,is_jump,killed"
    ids = {line.split(",")[0] for line in lines[1:]}
    assert ids == {"0", "1", "2"}


# sha256 of the --dump-paths CSV, pinned so a kernel change that moves any
# recorded event, value or random draw shows up
@pytest.mark.parametrize("flags,digest", [
    (["--start", "2", "--t", "0.5", "--dump-paths", "3", "--horizon", "2"],
     "8e8640ada5d20bd4d2638f750dc388d752a319e2ff8abb8adfdd79de4b98406f"),
    (["--start", "1.6", "--dt", "0.05", "--horizon", "8", "--seed", "7",
      "--dump-paths", "50"],
     "4333c61085a69550d29f628a8e774bcea49aae919861247ca7b321fc186b55d4"),
])
def test_simulate_dump_paths_pinned(tmp_path, capsys, flags, digest):
    dump = tmp_path / "p.csv"
    code, _, _ = run_cli(["simulate", "--estimator", "survival", "--paths", "10",
                          "--dump-file", str(dump), *flags], capsys)
    assert code == 0
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == digest


def test_simulate_interior_start_exits_2(capsys):
    code, _, err = run_cli(["simulate", "--start", "0.5", "--paths", "10",
                            "--t", "0.1"], capsys)
    assert code == 2 and "outside" in err


@pytest.mark.parametrize("args", [
    ["simulate", "--start", "2", "--sigma", "inf", "--paths", "10", "--t", "0.1"],
    ["simulate", "--start", "nan", "--paths", "10", "--t", "0.1"],
    ["simulate", "--start=-inf", "--paths", "10", "--t", "0.1"],
    ["simulate", "--start", "2", "--b", "inf", "--paths", "10", "--t", "0.1"],
    ["simulate", "--start", "2", "--paths", "10", "--t", "inf"],
    ["simulate", "--estimator", "clock", "--start", "2", "--paths", "10", "--q", "inf"],
    ["condition", "--start", "inf", "--particles", "16", "--horizon", "1"],
    ["condition", "--start", "2", "--eta", "nan", "--particles", "16", "--horizon", "1"],
    ["condition", "--start", "2", "--particles", "16", "--horizon", "inf"],
])
def test_non_finite_input_exits_2(capsys, args):
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert "finite" in err


def test_simulate_avoidance(capsys):
    code, out, _ = run_cli(["simulate", "--estimator", "avoidance", "--drift", "0.5",
                            "--start", "2", "--paths", "4000"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert 0.0 < doc["mean"] < 1.0
    assert doc["variants"] == {"unresolved": 0}


@pytest.mark.parametrize("estimator", ["avoidance", "clock", "survival"])
def test_simulate_dt_gates_only_the_path_grid(capsys, tmp_path, estimator):
    # no estimator reads --dt, and with --t given none reads --horizon: a
    # horizon below --dt changes nothing but the echo; only --dump-paths
    # steps through the grid and rejects it
    base = ["simulate", "--estimator", estimator, "--drift", "0.5", "--start", "2",
            "--paths", "1000", "--q", "1", "--t", "0.5"]
    code, out, _ = run_cli(base, capsys)
    assert code == 0
    code, short, _ = run_cli(base + ["--horizon", "0.01"], capsys)
    assert code == 0
    ref, doc = json.loads(out), json.loads(short)
    assert doc["config_echo"].pop("horizon") == 0.01
    del ref["config_echo"]["horizon"]
    assert doc == ref
    code, out, err = run_cli(base + ["--horizon", "0.01", "--dump-paths", "1",
                                     "--dump-file", str(tmp_path / "p.csv")], capsys)
    assert code == 2 and out == "" and "exceeds horizon" in err
    code, out, err = run_cli(base + ["--dt", "nan"], capsys)
    assert code == 2 and out == "" and "dt must be positive and finite" in err


# ---------------------------------------------------------------- condition

def test_condition_json(capsys, tmp_path):
    ts = tmp_path / "ts.csv"
    code, out, _ = run_cli(["condition", "--transform", "updown", "--start", "2",
                            "--horizon", "5", "--particles", "2048",
                            "--seed", "9", "--timeseries", str(ts)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"transform", "p_up", "p_down", "stderr_up", "stderr_down",
                        "ess_min", "config_echo"}
    assert doc["p_up"] + doc["p_down"] == pytest.approx(1.0, abs=1e-12)
    lines = ts.read_text().splitlines()
    assert lines[0] == "time,total_weight,ess,frac_above,frac_below"
    # no resampling: the ensemble's effective size decays as paths die
    first, last = (float(line.split(",")[2]) for line in (lines[1], lines[-1]))
    assert first == 2048 and last < first


# sha256 of a --timeseries CSV, pinned so that a change to the ensemble's
# sums or to the columns derived from them shows up
def test_condition_timeseries_pinned(tmp_path, capsys):
    ts = tmp_path / "ts.csv"
    code, _, _ = run_cli(["condition", "--start", "1.5", "--horizon", "4", "--dt", "0.25",
                          "--particles", "4096", "--seed", "7", "--timeseries", str(ts)],
                         capsys)
    assert code == 0
    assert hashlib.sha256(ts.read_bytes()).hexdigest() == (
        "a44844c2dc60c9b2b7e3bfab15f7767147f4e2c60e191283b5c07acf996e6256")


def test_condition_timeseries_ends_at_horizon(tmp_path, capsys):
    # 0.7 / 0.1 = 6.999...: the rows still run to the horizon
    ts = tmp_path / "ts.csv"
    code, _, _ = run_cli(["condition", "--start", "2", "--horizon", "0.7", "--dt", "0.1",
                          "--particles", "256", "--seed", "9", "--timeseries", str(ts)],
                         capsys)
    assert code == 0
    rows = ts.read_text().splitlines()[1:]
    assert len(rows) == math.ceil(0.7 / 0.1) + 1
    assert float(rows[0].split(",")[0]) == 0.0
    assert float(rows[-1].split(",")[0]) == 0.7


def test_condition_dt_gates_only_the_timeseries(capsys, tmp_path):
    # p_up comes from one exact terminal sample: --dt > --horizon is harmless
    base = ["condition", "--start", "2", "--horizon", "0.05", "--particles", "64"]
    code, out, _ = run_cli(base, capsys)
    assert code == 0 and json.loads(out)["config_echo"]["dt"] == 0.1
    code, out, err = run_cli(base + ["--timeseries", str(tmp_path / "ts.csv")], capsys)
    assert code == 2 and out == "" and "exceeds horizon" in err
    for dt in ("0", "-0.1", "nan", "inf"):
        code, out, err = run_cli(base + ["--dt", dt], capsys)
        assert code == 2 and out == "" and "dt must be positive and finite" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [
    ["simulate", "--start", "1e300", "--paths", "1000"],
    ["condition", "--start", "1e300", "--particles", "1024", "--horizon", "5"],
])
def test_huge_start_no_overflow_warning(capsys, args):
    code, out, _ = run_cli(args, capsys)
    assert code == 0 and json.loads(out)


def test_condition_extinction_exits_2(capsys):
    code, out, err = run_cli(["condition", "--start", "2", "--particles", "1"], capsys)
    assert code == 2 and out == ""
    assert "extinct" in err


# ------------------------------------------------------------------- verify

def test_verify_closedform_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(["verify", "--suite", "closedform",
                               "--out", str(out)], capsys)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["suite"] == "closedform"
    assert all(c["passed"] for c in report["checks"])
    assert all("claim" in c for c in report["checks"])


def test_verify_report_deterministic_apart_from_runtime(tmp_path, capsys):
    texts = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        code, _, _ = run_cli(["verify", "--suite", "closedform",
                              "--out", str(out)], capsys)
        assert code == 0
        texts.append(re.sub(r'"runtime_seconds": [^,\n]+', '"runtime_seconds": 0',
                            out.read_text()))
    assert texts[0] == texts[1]


@pytest.mark.parametrize("lam", [1e-4, 1e-6])
def test_root_product_reads_the_root_error(tmp_path, capsys, monkeypatch, lam):
    """At small lambda the roots sit next to the pole at eta, where the
    residual -psi(rho1) - q over q is amplified far past rho1's own error:
    the exact roots pass closedform, and a rho1 planted 1e-11 off fails
    root_product."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"lambda": lam}}))
    code, stdout, _ = run_cli(["verify", "--suite", "closedform",
                               "--config", str(cfg)], capsys)
    assert code == 0, [c for c in json.loads(stdout)["checks"] if not c["passed"]]

    exact = suites.wiener_hopf_roots
    monkeypatch.setattr(suites, "wiener_hopf_roots",
                        lambda model, q: (exact(model, q)[0] * (1.0 + 1e-11),
                                          exact(model, q)[1]))
    code, stdout, _ = run_cli(["verify", "--suite", "closedform",
                               "--config", str(cfg)], capsys)
    checks = {c["name"]: c for c in json.loads(stdout)["checks"]}
    assert code == 1 and not checks["root_product"]["passed"]


def test_verify_failing_suite_exits_1(capsys, monkeypatch):
    """A crossing factor planted 1e-6 off, and so the harmonic functions
    built on it, fail the suite: exit 1, with the report still printed."""
    exact = suites.cf.crossing_factor
    monkeypatch.setattr(suites.cf, "crossing_factor",
                        lambda model, interval: exact(model, interval) * (1.0 + 1e-6))
    code, stdout, _ = run_cli(["verify", "--suite", "closedform"], capsys)
    report = json.loads(stdout)
    assert code == 1 and report["passed"] is False
    assert not {c["name"]: c for c in report["checks"]}["crossing_factor"]["passed"]


def test_verify_out_writes_the_printed_report(tmp_path, capsys, monkeypatch):
    """--out holds exactly the bytes that verify prints; run_suite itself
    writes no file."""
    monkeypatch.chdir(tmp_path)
    suites.run_suite(parse_config({}, suite="closedform"))
    assert list(tmp_path.iterdir()) == []
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(["verify", "--suite", "closedform", "--out", str(out)], capsys)
    assert code == 0
    assert out.read_bytes() == stdout.encode("utf-8")
    assert list(tmp_path.iterdir()) == [out]


def test_verify_invalid_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"modle": {}}))
    code, _, err = run_cli(["verify", "--suite", "closedform",
                            "--config", str(cfg)], capsys)
    assert code == 2 and "unknown key" in err


def test_avoidance_at_a_drift_below_rounding_exits_2(tmp_path, capsys):
    """A transient5 config whose drift is too small for the tilted walk to
    drift down in floating point (sigma 12.3, lam 33.5, eta 0.034, drift
    1e-13) exits 2 with one error line, before any path is walked, and so
    does the avoidance estimator of simulate."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"model": {"sigma": 12.3, "lambda": 33.5, "eta": 0.034, "drift": 1e-13}}')
    flags = ["--sigma", "12.3", "--lambda", "33.5", "--eta", "0.034", "--drift", "1e-13"]
    for args in (["verify", "--suite", "transient5", "--config", str(cfg)],
                 ["simulate", "--estimator", "avoidance", "--start", "2", *flags]):
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "drifts down" in err


@pytest.mark.parametrize("text", [
    '{"model": {"sigma": Infinity}}',
    '{"seed": 1180591620717411303424}',
    '{"seed": -1}',
    '{"model": {"lambda": null}}',
    '{"interval": [0, 1]}',
    '{"model": {"sigma": true}}',
])
def test_verify_out_of_range_config_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out, err = run_cli(["verify", "--suite", "closedform",
                              "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("text", [
    '{"output_path": 5}',
    '{"tolerances": {"deterministic": Infinity}}',
])
def test_verify_removed_keys_are_unknown(tmp_path, capsys, text):
    """The tolerances block and output_path are no longer config keys."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out, err = run_cli(["verify", "--suite", "closedform",
                              "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "unknown key" in err


_MISSING = "/nonexistent/x"


@pytest.mark.parametrize("args, named", [
    (["verify", "--suite", "closedform", "--config", _MISSING], _MISSING),
    (["verify", "--suite", "closedform", "--out", _MISSING], _MISSING),
    (["tables", "--grid", "2:3:0.5", "--out", _MISSING], _MISSING),
    (["simulate", "--start", "2", "--paths", "10", "--t", "0.1",
      "--dump-paths", "1", "--dump-file", _MISSING], _MISSING),
    (["condition", "--start", "2", "--particles", "64", "--horizon", "1",
      "--timeseries", _MISSING], _MISSING),
    (["simulate", "--start", "2", "--paths", "10", "--t", "0.1", "--dump-paths", "-3"],
     "dump-paths"),
], ids=["verify-config", "verify-out", "tables-out", "simulate-dump-file",
        "condition-timeseries", "simulate-negative-dump-paths"])
def test_bad_file_or_count_exits_2(capsys, args, named):
    """An unreadable or unwritable file argument and a negative --dump-paths
    are usage errors: exit 2 with one error line naming them, no traceback."""
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


@pytest.mark.parametrize("args, run", [
    (["simulate", "--start", "2", "--paths", "10", "--t", "0.1",
      "--dump-paths", "1", "--dump-file", _MISSING], "estimate_survival"),
    (["condition", "--start", "2", "--particles", "64", "--horizon", "1",
      "--timeseries", _MISSING], "drift_probability"),
    (["verify", "--suite", "closedform", "--out", _MISSING], "run_suite"),
], ids=["simulate", "condition", "verify"])
def test_unwritable_output_fails_before_the_run(capsys, monkeypatch, args, run):
    """Each command opens its output file before its run: an unwritable path
    exits 2 with one error line and nothing on stdout, and the run never
    starts."""
    def never(*_args, **_kwargs):
        raise AssertionError(f"{run} ran before the output file was opened")

    monkeypatch.setattr(f"interval_avoid.cli.{run}", never)
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and _MISSING in err


def test_verify_malformed_thread_count_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("INTERVAL_AVOID_THREADS", "two")
    code, out, err = run_cli(["verify", "--suite", "closedform"], capsys)
    assert code == 2 and out == ""
    assert "INTERVAL_AVOID_THREADS" in err


def _fresh_env(blas_threads=None):
    """The environment of a fresh interpreter that imports this package, run
    sequentially, with OPENBLAS_NUM_THREADS set to ``blas_threads`` or unset."""
    src = os.path.dirname(os.path.dirname(interval_avoid.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    env.pop("INTERVAL_AVOID_THREADS", None)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return env


def test_avoidance_route_imports_no_scipy(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"paths": 1200}))
    script = f"""
import sys
from interval_avoid import Interval, ModelParams, PathConfig, estimate_avoidance
from interval_avoid.cli import main
estimate_avoidance(ModelParams(drift=0.5), Interval(0.0, 1.0), 2.0,
                   PathConfig(dt=1.0, horizon=1.0, seed=1, n_paths=500))
code = main(["verify", "--suite", "transient5", "--config", {str(cfg)!r},
             "--out", {str(tmp_path / "report.json")!r}])
print("RESULT", code, "scipy" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], env=_fresh_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "RESULT 0 False"


_CALIBRATE = Path(__file__).resolve().parents[1] / "tools" / "calibrate.py"


@pytest.mark.parametrize("preset,importing", [
    (None, "import interval_avoid"),
    ("2", "import interval_avoid"),
    (None, f"import runpy; runpy.run_path({str(_CALIBRATE)!r})"),
], ids=["package", "package-preset-2", "calibrate"])
def test_package_runs_blas_on_one_thread(preset, importing):
    """Importing the package before numpy, alone or as the seed-sweep tool
    does, leaves OpenBLAS on one thread, so no idle pool starts; a value
    already in the environment wins."""
    script = f"""
import os
{importing}
task = "/proc/self/task"
print(os.environ["OPENBLAS_NUM_THREADS"], len(os.listdir(task)) if os.path.isdir(task) else "-")
"""
    proc = subprocess.run([sys.executable, "-c", script], env=_fresh_env(preset),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    value, threads = proc.stdout.split()
    assert value == (preset or "1")
    if preset is None and threads != "-":
        assert threads == "1"


def _outputs_by_blas_threads(commands):
    """Each command's output, less runtime_seconds, in fresh interpreters with
    OPENBLAS_NUM_THREADS set to 1 and to 2."""
    outputs = {}
    for preset in ("1", "2"):
        outputs[preset] = []
        for args in commands:
            proc = subprocess.run([sys.executable, "-m", "interval_avoid.cli", *args],
                                  env=_fresh_env(preset), capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs[preset].append("".join(
                line for line in proc.stdout.splitlines(keepends=True)
                if not line.lstrip().startswith('"runtime_seconds":')))
    return outputs


def test_blas_threads_leave_output_unchanged():
    """verify and condition print the same bytes, less runtime_seconds, on
    one OpenBLAS thread and on two."""
    outputs = _outputs_by_blas_threads([
        ["verify", "--suite", "closedform"],
        ["condition", "--transform", "updown", "--start", "2", "--horizon", "5",
         "--particles", "4096", "--seed", "7"]])
    assert outputs["1"] == outputs["2"]
    assert '"suite": "closedform"' in outputs["1"][0] and '"p_up"' in outputs["1"][1]


def test_blas_threads_leave_large_condition_unchanged():
    """OpenBLAS splits a dot product of more than 10 000 elements over its
    threads, which would change the last bits of a sum; at 65 536 particles
    condition's p_up must still print the same bytes on one thread and two,
    so its weighted sum uses no BLAS."""
    outputs = _outputs_by_blas_threads([
        ["condition", "--transform", "updown", "--start", "2", "--horizon", "60",
         "--particles", "65536", "--seed", "20260801"]])
    assert outputs["1"] == outputs["2"]
    assert '"p_up"' in outputs["1"][0]


def test_verify_config_suite_key_is_unknown(tmp_path, capsys):
    """Only --suite names the suite: a config that holds a "suite" key, even
    one naming the suite being run, is rejected as an unknown key."""
    cfg = tmp_path / "cfg.json"
    for suite in ("overshoot", "closedform"):
        cfg.write_text(json.dumps({"suite": suite}))
        code, out, err = run_cli(["verify", "--suite", "closedform", "--config", str(cfg)],
                                 capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: unknown key") and len(err.splitlines()) == 1
        assert "'suite'" in err


def _load_script(folder, name):
    path = Path(__file__).resolve().parents[1] / folder / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pair_timing_rejects_fewer_than_two_pairs(tmp_path, capsys):
    """The quartiles need two pairs: --pairs 1 is a usage error before any run."""
    pair_timing = _load_script("scripts", "pair_timing")
    with pytest.raises(SystemExit) as exc:
        pair_timing.main(["--base", str(tmp_path), "--head", str(tmp_path),
                          "--suites", "closedform", "--pairs", "1"])
    assert exc.value.code == 2
    assert "--pairs" in capsys.readouterr().err


def test_pair_timing_rejects_a_bytecode_cache(tmp_path, capsys):
    """A tree whose package holds a __pycache__ is a usage error before any
    run, naming the directory: its runs would not compile from source."""
    pair_timing = _load_script("scripts", "pair_timing")
    cache = tmp_path / "head" / "src" / "interval_avoid" / "__pycache__"
    cache.mkdir(parents=True)
    with pytest.raises(SystemExit) as exc:
        pair_timing.main(["--base", str(tmp_path / "base"), "--head", str(tmp_path / "head"),
                          "--suites", "closedform", "--pairs", "2"])
    assert exc.value.code == 2
    assert str(cache) in capsys.readouterr().err


def test_pair_timing_reports_process_times(tmp_path, capsys):
    """Two pairs of one tree against itself: the suite's time, process wall,
    CPU seconds and peak RSS each get quartiles, the times a win count.  The
    tree is a copy of this one's ``src/`` without bytecode caches."""
    pair_timing = _load_script("scripts", "pair_timing")
    tree = tmp_path / "tree"
    shutil.copytree(Path(__file__).resolve().parents[1] / "src", tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert pair_timing.main(["--base", str(tree), "--head", str(tree),
                             "--suites", "closedform", "--pairs", "2"]) == 0
    line = json.loads(capsys.readouterr().out)
    assert line["reports_identical"] is True
    for side in ("base", "head"):
        runtime = line[f"{side}_q1_median_q3"]
        wall, cpu = line[f"{side}_wall_s_q1_median_q3"], line[f"{side}_cpu_s_q1_median_q3"]
        assert runtime[0] <= runtime[1] <= runtime[2] < wall[0] <= wall[1] <= wall[2]
        assert 0.0 < cpu[0] <= cpu[1] <= cpu[2]
        assert line[f"{side}_rss_mib_q1_median_q3"][0] > 0.0
    assert all(0 <= line[key] <= 2 for key in ("head_wins", "head_wins_wall_s", "head_wins_cpu_s"))


def test_pair_timing_reports_start_up(capsys, monkeypatch):
    """Each run's start-up is its process wall less its runtime_seconds; the
    line gives its quartiles per tree and the pairs the head won on it."""
    pair_timing = _load_script("scripts", "pair_timing")
    base, head = Path("base"), Path("head")
    startup = {base: iter([0.30, 0.20, 0.40]), head: iter([0.25, 0.25, 0.25])}

    def fake_run(tree, suite, threads, config=None):
        return (1.0, 1.0 + next(startup[tree]), 1.0, 40.0), "[]"

    monkeypatch.setattr(pair_timing, "run_suite", fake_run)
    assert pair_timing.main(["--base", "base", "--head", "head",
                             "--suites", "closedform", "--pairs", "3"]) == 0
    line = json.loads(capsys.readouterr().out)
    assert line["base_startup_s_q1_median_q3"] == [0.2, 0.3, 0.4]
    assert line["head_startup_s_q1_median_q3"] == [0.25, 0.25, 0.25]
    assert line["head_wins_startup_s"] == 2


def test_calibrate_counts_failures_per_check(tmp_path, capsys, monkeypatch):
    """Two seeds of closedform: one line per check in report order, none
    failed, with the exact interval [0, 1 - 0.025^(1/2)] and the median and
    maximum over the seeds with a positive tolerance of the share of the
    band used, and their number, and the mean and sample sd of the signed
    share (sd null on one seed): a check whose tolerance is 0 on one seed
    keeps the other seed's share, and one whose tolerance is always 0 has
    none.  ``--first-seed S`` runs seeds S..S+N-1 instead of 1..N, and the
    halves of a sweep give the lines of the whole.  A bad config and a first
    seed out of range are usage errors."""
    calibrate = _load_script("tools", "calibrate")
    run_suite = calibrate.run_suite
    seeds_run = []

    def one_zero_tolerance(config):
        """The report, with the first check's tolerance 0 on seed 2."""
        seeds_run.append(config.seed)
        report = run_suite(config)
        if config.seed == 2:
            report.checks[0] = dataclasses.replace(report.checks[0], tolerance=0.0)
        return report

    monkeypatch.setattr(calibrate, "run_suite", one_zero_tolerance)
    assert calibrate.main(["--suite", "closedform", "--seeds", "2"]) == 0
    *lines, summary = (json.loads(line) for line in capsys.readouterr().out.splitlines())
    reports = [one_zero_tolerance(parse_config({"seed": seed}, suite="closedform"))
               for seed in (1, 2)]
    assert [line["check"] for line in lines] == [c.name for c in reports[0].checks]
    for line, checks in zip(lines, zip(*(r.checks for r in reports))):
        assert (line["failures"], line["seeds"], line["failed_seeds"]) == (0, 2, [])
        assert line["ci95"][0] == 0.0
        assert line["ci95"][1] == pytest.approx(1.0 - 0.025 ** 0.5, rel=1e-12)
        signed = [(c.observed - c.expected) / c.tolerance for c in checks if c.tolerance > 0.0]
        use = [abs(u) for u in signed]
        if use:
            sd = line["band_use"].pop("signed_sd")
            assert line["band_use"] == {"median": sum(use) / len(use), "max": max(use),
                                        "seeds": len(use),
                                        "signed_mean": sum(signed) / len(signed)}
            if len(signed) == 2:
                assert sd == pytest.approx(abs(signed[0] - signed[1]) / 2**0.5, rel=1e-12)
            else:
                assert sd is None
        else:
            assert line["band_use"] is None
    assert lines[0]["band_use"]["seeds"] == 1
    assert sum(line["band_use"] is not None and line["band_use"]["seeds"] == 2
               for line in lines) >= 10
    assert summary == {"suite": "closedform", "config": None, "seeds": 2, "first_seed": 1,
                       "runs_failed": 0}
    # seeds 2..3 in one run, and 2 and 3 in two, against 1..2 above
    seeds_run.clear()
    assert calibrate.main(["--suite", "closedform", "--seeds", "2", "--first-seed", "2"]) == 0
    *both, summary = (json.loads(line) for line in capsys.readouterr().out.splitlines())
    assert seeds_run == [2, 3]
    assert summary == {"suite": "closedform", "config": None, "seeds": 2, "first_seed": 2,
                       "runs_failed": 0}
    assert both[0]["band_use"]["seeds"] == 1          # seed 2 has tolerance 0 there
    halves = []
    for first in (2, 3):
        assert calibrate.main(["--suite", "closedform", "--seeds", "1",
                               "--first-seed", str(first)]) == 0
        halves.append([json.loads(line) for line in capsys.readouterr().out.splitlines()][:-1])
    for line, (one, two) in zip(both, zip(*halves)):
        assert line["check"] == one["check"] == two["check"]
        assert line["failures"] == one["failures"] + two["failures"] == 0
        if line["band_use"] is not None:
            uses = [h["band_use"]["max"] for h in (one, two) if h["band_use"] is not None]
            assert line["band_use"]["max"] == max(uses)
    for bad_first in ("-1", str(2**64 - 1)):
        with pytest.raises(SystemExit) as exc:
            calibrate.main(["--suite", "closedform", "--seeds", "2", "--first-seed", bad_first])
        assert exc.value.code == 2 and "--first-seed" in capsys.readouterr().err
    # k of n and n - k of n mirror each other
    lo, hi = calibrate.clopper_pearson(3, 60)
    assert calibrate.clopper_pearson(57, 60) == pytest.approx((1.0 - hi, 1.0 - lo), rel=1e-12)
    assert calibrate.clopper_pearson(60, 60) == pytest.approx((0.025 ** (1 / 60), 1.0))
    bad = tmp_path / "bad.json"
    bad.write_text('{"paths": 0}')
    with pytest.raises(SystemExit) as exc:
        calibrate.main(["--suite", "closedform", "--seeds", "2", "--config", str(bad)])
    assert exc.value.code == 2 and "paths" in capsys.readouterr().err


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


# ------------------------------------------------------------- serialisation

def test_dumps_17g_roundtrip():
    doc = {"x": 0.1 + 0.2, "nested": [1.0 / 3.0, {"y": 2.0**-52}], "n": 3,
           "flag": True, "name": "z", "none": None, "arr": np.array([0.5, 0.25])}
    text = dumps_17g(doc)
    back = json.loads(text)
    assert back["x"] == 0.1 + 0.2
    assert back["nested"][0] == 1.0 / 3.0
    assert back["nested"][1]["y"] == 2.0**-52
    assert back["arr"] == [0.5, 0.25]
    assert "0.30000000000000004" in text


def test_dumps_17g_has_17_digits():
    text = dumps_17g({"third": 1.0 / 3.0})
    assert "0.33333333333333331" in text
