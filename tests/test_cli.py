import hashlib
import json
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


def test_tables_grid_inside_interval_exits_2(tmp_path, capsys):
    code, _, err = run_cli(["tables", "--grid", "0:3:0.5",
                            "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2
    assert "outside" in err


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
     "42327ea872518ac76c88b0656c2fe91a6d21d92f71d41a6e97c1a932ac03b4dc"),
    (["--start", "-1", "--dt", "0.05", "--horizon", "8", "--seed", "7", "--no-bridge",
      "--dump-paths", "50"],
     "f6992a8f55f5fbeaa4aada4aef40a278afa2669d6a184f75fd3098b180244db9"),
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
    header = ts.read_text().splitlines()[0]
    assert header == "time,total_weight,ess,frac_above,frac_below"


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
