"""Child-side probes for the benchmark: the CLI launcher and the traced run.

Run as a script, this module starts ``interval_avoid.cli.main`` with the
arguments after ``--``, exactly as the ``interval-avoid`` console script
would, and counts ``ProcessPoolExecutor`` constructions on the way.  With
``--spans`` it also wraps the public functions of every layer from the
outside, records one span per call (name, layer, start, end, parent) in
memory, and writes the spans and their per-layer aggregates when the run
ends.  The program itself is not modified.

    python3 bench/probe.py --summary out.json -- verify --suite overshoot
    python3 bench/probe.py --summary out.json --spans spans.csv -- verify ...

The traced run must be sequential: spans recorded in forked pool workers
never reach the parent.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import time

# Layer -> (module, public names) whose calls are recorded.  Classes listed
# here have every public method and property wrapped.  The ``cli``,
# ``config`` and ``_rng`` modules are not layers of their own: their time
# lands in the suites layer (run) or in setup_s (process start).
ESTIMATORS = ("estimate_survival", "estimate_clock_event", "empirical_crossing_law",
              "estimate_avoidance", "terminal_sample")
LAYERS = {
    "engine.advance": ("engine", ("advance",)),
    "engine.estimator": ("engine", ESTIMATORS),
    "particles": ("particles", ("propagate_ensemble", "drift_probability",
                                "occupation_time", "harmonicity_residual")),
    "closedform": ("closedform", None),   # None: every name in __all__
    "model": ("model", None),
    "suites": ("suites", ("run_suite",)),
}


class Tracer:
    """In-memory span recorder; one flat list, parent given by index."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []      # [name, layer, start, end, parent]
        self.stack: list[int] = []
        self.observed: dict[str, list] = {}

    def wrap(self, fn, name: str, layer: str, observe=None):
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, layer, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][3] = clock()
                stack.pop()
            if observe is not None:
                self.observed.setdefault(name, []).append(observe(fn, args, kwargs, result))
            return result

        return traced


def self_times(spans) -> list[float]:
    """Per-span duration minus the time covered by its direct children.

    Spans come from one sequential thread, so children of one parent never
    overlap and the covered time is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for _name, _layer, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_n, _l, start, end, _p) in enumerate(spans)]


def layer_summary(spans) -> dict:
    """Calls and self seconds per layer, plus per-call advance durations."""
    layers: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = layers.setdefault(span[1], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
    advance = [end - start for name, _l, start, end, _p in spans if name == "advance"]
    return {"layers": layers, "advance_call_s": advance}


# --------------------------------------------------------------------------- #
# Wasted-work and particle counters read from public return values
# --------------------------------------------------------------------------- #

def _observe_crossing(fn, args, kwargs, result):
    return {"paths": result.n_paths, "censored_fraction": result.censored_fraction}


def _observe_avoidance(fn, args, kwargs, result):
    return {"paths": result.result.n, "unresolved": result.unresolved}


def _observe_drift(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    per_replicate = max(1, bound.arguments["config"].n_paths // bound.arguments["replicates"])
    return {"ess_min": result.ess_min, "per_replicate": per_replicate,
            "resamples": result.resamples}


OBSERVERS = {"empirical_crossing_law": _observe_crossing,
             "estimate_avoidance": _observe_avoidance,
             "drift_probability": _observe_drift}


def _rebind(package_modules, original, replacement) -> None:
    # `from .engine import advance` copies the binding: patch every copy
    for module in package_modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every layer listed in LAYERS."""
    import importlib

    modules = {name: importlib.import_module(f"interval_avoid.{name}")
               for name in ("cli", "config", "_rng", "model", "closedform",
                            "engine", "particles", "suites")}
    package = [sys.modules["interval_avoid"], *modules.values()]
    for layer, (module_name, names) in LAYERS.items():
        module = modules[module_name]
        for name in names if names is not None else module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj):
                _wrap_class(tracer, obj, layer)
            elif inspect.isfunction(obj):
                _rebind(package, obj, tracer.wrap(obj, name, layer, OBSERVERS.get(name)))


def _wrap_class(tracer: Tracer, cls, layer: str) -> None:
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        label = f"{cls.__name__}.{attr}"
        if isinstance(value, property):
            setattr(cls, attr, property(tracer.wrap(value.fget, label, layer)))
        elif inspect.isfunction(value):
            setattr(cls, attr, tracer.wrap(value, label, layer))


def count_pool_startups(counter: list) -> None:
    """Count ProcessPoolExecutor constructions, however the class was imported."""
    from concurrent.futures import ProcessPoolExecutor

    init = ProcessPoolExecutor.__init__

    @functools.wraps(init)
    def counting_init(self, *args, **kwargs):
        counter[0] += 1
        init(self, *args, **kwargs)

    ProcessPoolExecutor.__init__ = counting_init


def write_spans(path: str, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,layer,start,end,parent\n")
        for i, (name, layer, start, end, parent) in enumerate(spans):
            fh.write(f"{i},{name},{layer},{start!r},{end!r},{parent}\n")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        raise SystemExit("usage: probe.py --summary FILE [--spans FILE] -- CLI-ARGS")
    cut = argv.index("--")
    parser = argparse.ArgumentParser(prog="probe.py")
    parser.add_argument("--summary", required=True,
                        help="write pool start-ups (and span aggregates) here at exit")
    parser.add_argument("--spans", default=None,
                        help="trace the run; write one CSV row per span here")
    opts = parser.parse_args(argv[:cut])

    pools = [0]
    count_pool_startups(pools)
    from interval_avoid import cli

    tracer, entry = None, cli.main
    if opts.spans:
        tracer = Tracer()
        instrument(tracer)
        entry = tracer.wrap(cli.main, "cli.main", "suites")    # the root span
    try:
        code = entry(argv[cut + 1:])
    finally:
        summary = {"pool_startups": pools[0]}
        if tracer is not None:
            write_spans(opts.spans, tracer.spans)
            summary.update(layer_summary(tracer.spans))
            _name, _layer, start, end, _parent = tracer.spans[0]
            summary["wall_s"] = end - start
            summary["observed"] = tracer.observed
        with open(opts.summary, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
