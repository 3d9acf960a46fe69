"""Tests of the benchmark's own logic (run with: python3 -m pytest bench)."""

import itertools
import json
import re
import sys
from pathlib import Path

import pytest

import probe
import run

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))


def span(name, layer, start, end, parent):
    return [name, layer, start, end, parent]


def test_self_time_subtracts_direct_children_only():
    spans = [span("root", "suites", 0.0, 10.0, -1),
             span("a", "engine.estimator", 1.0, 4.0, 0),
             span("a.inner", "engine.advance", 2.0, 3.0, 1),
             span("b", "particles", 5.0, 9.0, 0)]
    assert probe.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_tracer_nesting_and_layer_totals_cover_the_wall():
    ticks = itertools.count()
    tracer = probe.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap(lambda: None, "leaf", "engine.advance")
    mid = tracer.wrap(lambda: (leaf(), leaf()), "mid", "particles")
    top = tracer.wrap(lambda: (mid(), leaf()), "top", "suites")
    top()
    names = [(s[0], s[4]) for s in tracer.spans]
    assert names == [("top", -1), ("mid", 0), ("leaf", 1), ("leaf", 1), ("leaf", 0)]
    summary = probe.layer_summary(tracer.spans)
    wall = tracer.spans[0][3] - tracer.spans[0][2]
    assert sum(v["self_s"] for v in summary["layers"].values()) == pytest.approx(wall)
    assert summary["layers"]["engine.advance"]["calls"] == 3
    assert summary["advance_call_s"] == []          # only spans named "advance"


def test_span_closes_when_the_wrapped_call_raises():
    tracer = probe.Tracer(clock=iter([0.0, 1.0, 2.0, 3.0]).__next__)

    def boom():
        raise ValueError("x")
    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom", "model")()
    assert tracer.spans == [["boom", "model", 0.0, 1.0, -1]] and tracer.stack == []


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 99) == 99
    assert run.percentile([7.0], 99) == 7.0


def test_metric_names_and_units_are_valid_and_match_the_code():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    names = list(e2e) + list(layer) + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) for n in names), names
    assert all(UNIT_RE.fullmatch(u) for u in [*e2e.values(), *layer.values()])
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER_UNITS
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    assert e2e["setup_s"] == "s"


def _report(passed_flags):
    return {"passed": all(passed_flags), "runtime_seconds": 1.0,
            "checks": [{"name": f"c{i}", "passed": p, "tolerance": 0.1}
                       for i, p in enumerate(passed_flags)]}


def test_crashed_run_counts_all_its_checks_as_failed():
    crashed = run.CliRun(seed=1, code=-9, wall_s=1.0, cpu_s=1.0, rss_mib=1.0, report=None)
    assert run.check_counts(crashed, fallback=4) == (4, 4)
    assert run.check_counts(crashed, fallback=0) == (1, 1)


def test_nonzero_exit_counts_every_check_even_the_passing_ones():
    failing = run.CliRun(seed=1, code=1, wall_s=1.0, cpu_s=1.0, rss_mib=1.0,
                         report=_report([True, False, True]))
    assert run.check_counts(failing, fallback=9) == (3, 3)
    good = run.CliRun(seed=1, code=0, wall_s=1.0, cpu_s=1.0, rss_mib=1.0,
                      report=_report([True, True]))
    assert run.check_counts(good, fallback=9) == (2, 0)


def test_comparable_ignores_only_runtime_seconds_and_telemetry():
    a, b = _report([True]), _report([True])
    b["runtime_seconds"], b["telemetry"] = 99.0, {"iterations": 3}
    assert run.comparable(a) == run.comparable(b)
    b["checks"][0]["tolerance"] = 0.1000000000000001
    assert run.comparable(a) != run.comparable(b)


def test_per_layer_self_times_account_for_the_traced_wall():
    summary = {"layers": {"suites": {"calls": 2, "self_s": 0.5},
                          "engine.advance": {"calls": 3, "self_s": 6.0},
                          "engine.estimator": {"calls": 1, "self_s": 1.0},
                          "closedform": {"calls": 5, "self_s": 0.25}},
               "advance_call_s": [1.0, 2.0, 3.0], "wall_s": 7.75, "pool_startups": 0,
               "observed": {"empirical_crossing_law": [
                   {"paths": 100, "censored_fraction": 0.1},
                   {"paths": 300, "censored_fraction": 0.3}]}}
    traced = run.CliRun(seed=1, code=0, wall_s=8.0, cpu_s=8.0, rss_mib=1.0,
                        report=_report([True]), summary=summary)
    micro = {"engine.pool.call_overhead_ms": 0.0, "engine.advance.tail_block_s": 0.2}
    metrics = run.per_layer(traced, [traced], 7.5, micro)
    layer_self = [metrics[f"{k}.self_s"] for k in
                  ("engine.advance", "engine.estimator", "particles", "closedform",
                   "model", "suites")]
    assert sum(layer_self) == pytest.approx(summary["wall_s"])
    assert metrics["suites.self_s"] == pytest.approx(0.5)
    assert metrics["engine.crossing.censored_frac"] == pytest.approx(0.25)
    assert metrics["engine.advance.call_us.p50"] == pytest.approx(2e6)
    assert metrics["trace.overhead_s"] == pytest.approx(0.5)
    assert set(metrics) - {"engine.advance.tail_block_s"} <= set(run.PER_LAYER_UNITS)


def _condition_payload(p_up, stderr=0.004):
    return {"p_up": p_up, "p_down": 1.0 - p_up, "stderr_up": stderr,
            "config_echo": {"start": 2.0,
                            "model": {"sigma": 2.0**0.5, "lambda": 1.0, "eta": 1.0,
                                      "drift": 0.0},
                            "interval": {"a": 0.0, "b": 1.0}}}


def test_condition_report_applies_the_updown_p_up_criterion():
    from interval_avoid import Interval, ModelParams, harmonics

    h = harmonics(ModelParams(), Interval(0.0, 1.0))
    target = float(h.plus(2.0) / h.combined(2.0))
    good = run.condition_report(_condition_payload(target + 0.02))
    assert good["passed"]
    assert run.headline_tolerance(
        run.CliRun(seed=1, code=0, wall_s=4.0, cpu_s=4.0, rss_mib=1.0, report=good),
        "updown_p_up") == pytest.approx(0.032)
    bad = run.condition_report(_condition_payload(target + 0.04))
    assert [c["passed"] for c in bad["checks"]] == [False, True] and not bad["passed"]
    assert run.condition_report(None) is None


def test_workload_seeds_start_with_the_given_seed_and_repeat():
    condition = run.WORKLOADS["condition"]
    seeds = run.workload_seeds(condition, 7)
    assert seeds[0] == 7 and len(set(seeds)) == condition.seeds
    assert seeds == run.workload_seeds(condition, 7)
    assert run.workload_seeds(run.WORKLOADS["overshoot"], 7) == [7]


def test_setup_time_skips_outputs_without_a_runtime():
    timed = run.CliRun(seed=1, code=0, wall_s=5.0, cpu_s=5.0, rss_mib=1.0,
                       report={"passed": True, "checks": []})
    probe_run = run.CliRun(seed=1, code=0, wall_s=1.5, cpu_s=1.0, rss_mib=1.0,
                           report=_report([True]))
    assert run.setup_times([timed, probe_run]) == [pytest.approx(0.5)]
