import hashlib
import json
import math
import re

import numpy as np
import pytest

from interval_avoid.cli import main
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
     "8c064baa795421b5d73a0bc0f6bd67bca521f5e686bf8d03b1e9e4a9a78e78cf"),
    (["--start", "1.6", "--dt", "0.05", "--horizon", "8", "--seed", "7",
      "--dump-paths", "50"],
     "becdb393819e342a1b05d551eac0cc2518e7903bd9114c2b58bd2d7780b92cfb"),
    (["--start", "-1", "--dt", "0.05", "--horizon", "8", "--seed", "7", "--no-bridge",
      "--dump-paths", "50"],
     "a72eaf07c5f565b3b8d8954e8d8961edf07f0008199501b07dd4e58ad5cd80bc"),
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
    assert doc["variants"]["return_prob_bound"] < 1e-5


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
])
def test_verify_out_of_range_config_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out, err = run_cli(["verify", "--suite", "closedform",
                              "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


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
