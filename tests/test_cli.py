import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import interval_avoid
from interval_avoid import suites
from interval_avoid.cli import main
from interval_avoid.config import parse_config
from interval_avoid.suites import dumps_17g


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


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
     "5a884d02e3fb29edd9a47bcb9c768f1db76a483add7745a758d7b1d9b472e752"),
    (["--start", "1.6", "--dt", "0.05", "--horizon", "8", "--seed", "7",
      "--dump-paths", "50"],
     "376c8e93fb68f97c7c98b1e28bf05563d538d277b8cb09679b3fd7fbc987ede7"),
    (["--start", "-1", "--dt", "0.05", "--horizon", "8", "--seed", "7", "--no-bridge",
      "--dump-paths", "50"],
     "ff5ec2feeda122f37700c60aaecefb4b5b20e3b779f1d0d73fb9f0a5f8cab2c7"),
])
def test_simulate_dump_paths_pinned(tmp_path, capsys, flags, digest):
    dump = tmp_path / "p.csv"
    code, _, _ = run_cli(["simulate", "--estimator", "survival", "--paths", "10",
                          "--dump-file", str(dump), *flags], capsys)
    assert code == 0
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == digest


def test_simulate_no_bridge_outside_survival_exits_2(capsys):
    code, out, err = run_cli(["simulate", "--estimator", "clock", "--start", "1.3",
                              "--q", "2", "--paths", "200", "--dt", "0.2", "--seed", "3",
                              "--no-bridge"], capsys)
    assert code == 2 and out == ""
    assert "survival only" in err


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


@pytest.mark.parametrize("estimator", ["avoidance", "clock"])
def test_simulate_dt_gates_only_the_path_grid(capsys, tmp_path, estimator):
    # avoidance and clock read neither --dt nor --horizon: a horizon below
    # --dt changes nothing but the echo; survival and --dump-paths step
    # through the grid and reject it
    base = ["simulate", "--estimator", estimator, "--drift", "0.5", "--start", "2",
            "--paths", "1000", "--q", "1"]
    code, out, _ = run_cli(base, capsys)
    assert code == 0
    code, short, _ = run_cli(base + ["--horizon", "0.01"], capsys)
    assert code == 0
    ref, doc = json.loads(out), json.loads(short)
    assert doc["config_echo"].pop("horizon") == 0.01
    del ref["config_echo"]["horizon"]
    assert doc == ref
    for extra in (["--dump-paths", "1", "--dump-file", str(tmp_path / "p.csv")],
                  ["--estimator", "survival"]):
        code, out, err = run_cli(base + ["--horizon", "0.01"] + extra, capsys)
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
    assert set(doc) >= {"p_up", "p_down", "stderr_up", "stderr_down",
                        "ess_min", "resamples"}
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


def test_verify_failing_suite_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # impossible tolerance: the frozen reference differs from the library
    # value by an ulp, which 1e-30 cannot absorb
    cfg.write_text(json.dumps({"tolerances": {"deterministic": 1e-30}}))
    code, stdout, _ = run_cli(["verify", "--suite", "closedform",
                               "--config", str(cfg)], capsys)
    assert code == 1
    assert json.loads(stdout)["passed"] is False


def test_verify_invalid_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"modle": {}}))
    code, _, err = run_cli(["verify", "--suite", "closedform",
                            "--config", str(cfg)], capsys)
    assert code == 2 and "unknown key" in err


@pytest.mark.parametrize("text", [
    '{"model": {"sigma": Infinity}}',
    '{"output_path": 5}',
    '{"seed": 1180591620717411303424}',
    '{"seed": -1}',
    '{"model": {"lambda": null}}',
    '{"interval": [0, 1]}',
    '{"model": {"sigma": true}}',
    '{"tolerances": {"deterministic": Infinity}}',
])
def test_verify_out_of_range_config_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out, err = run_cli(["verify", "--suite", "closedform",
                              "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_verify_malformed_thread_count_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("INTERVAL_AVOID_THREADS", "two")
    code, out, err = run_cli(["verify", "--suite", "closedform"], capsys)
    assert code == 2 and out == ""
    assert "INTERVAL_AVOID_THREADS" in err


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
    src = os.path.dirname(os.path.dirname(interval_avoid.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    env.pop("INTERVAL_AVOID_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "RESULT 0 False"


def test_verify_config_suite_must_match(tmp_path, capsys):
    """A config naming another suite than --suite is an error naming both;
    one naming the same suite runs it."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "overshoot"}))
    code, out, err = run_cli(["verify", "--suite", "closedform", "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert "overshoot" in err and "closedform" in err
    cfg.write_text(json.dumps({"suite": "closedform"}))
    code, out, _ = run_cli(["verify", "--suite", "closedform", "--config", str(cfg)], capsys)
    assert code == 0 and json.loads(out)["suite"] == "closedform"


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


def test_calibrate_counts_failures_per_check(tmp_path, capsys):
    """Two seeds of closedform: one line per check in report order, none
    failed, with the exact interval [0, 1 - 0.025^(1/2)] and, for a check
    with a positive tolerance, the median and maximum over seeds 1 and 2 of
    the share of its band used; a bad config is a usage error."""
    calibrate = _load_script("tools", "calibrate")
    assert calibrate.main(["--suite", "closedform", "--seeds", "2"]) == 0
    *lines, summary = (json.loads(line) for line in capsys.readouterr().out.splitlines())
    reports = [suites.run_suite(parse_config({"seed": seed}, suite="closedform"))
               for seed in (1, 2)]
    assert [line["check"] for line in lines] == [c.name for c in reports[0].checks]
    for line, checks in zip(lines, zip(*(r.checks for r in reports))):
        assert (line["failures"], line["seeds"], line["failed_seeds"]) == (0, 2, [])
        assert line["ci95"][0] == 0.0
        assert line["ci95"][1] == pytest.approx(1.0 - 0.025 ** 0.5, rel=1e-12)
        if all(c.tolerance > 0.0 for c in checks):
            use = [abs(c.observed - c.expected) / c.tolerance for c in checks]
            assert line["band_use"] == {"median": (use[0] + use[1]) / 2, "max": max(use)}
        else:
            assert line["band_use"] is None
    assert sum(line["band_use"] is not None for line in lines) >= 10
    assert summary == {"suite": "closedform", "config": None, "seeds": 2, "runs_failed": 0}
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
