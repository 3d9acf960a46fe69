"""Strict JSON configuration for the verification harness.

One document configures a run: model and interval blocks, seed, budgets and
per-suite tolerance overrides.  Unknown keys are rejected so that a config
file can only mean one thing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from .model import Interval, ModelParams, require_number

__all__ = ["SuiteConfig", "ConfigError", "load_config", "parse_config", "DEFAULTS"]


class ConfigError(ValueError):
    pass


DEFAULTS: dict[str, Any] = {
    "model": {"sigma": 2.0**0.5, "lambda": 1.0, "eta": 1.0, "drift": 0.0},
    "interval": {"a": 0.0, "b": 1.0},
    "seed": 20260801,
    "paths": None,        # suite-specific default when None
    "particles": 65536,
    "tolerances": {},
    "output_path": None,
}

_MODEL_KEYS = {"sigma", "lambda", "eta", "drift"}
_INTERVAL_KEYS = {"a", "b"}
_TOP_KEYS = {"suite", "model", "interval", "seed", "paths", "particles",
             "tolerances", "output_path"}
_TOLERANCE_KEYS = {"deterministic", "roots"}     # the names the suites read


@dataclass(frozen=True)
class SuiteConfig:
    suite: Optional[str]
    model: ModelParams
    interval: Interval
    seed: int
    paths: Optional[int]
    particles: int
    tolerances: dict = field(default_factory=dict)
    output_path: Optional[str] = None

    def tolerance(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))


def _reject_unknown(block, allowed: set, where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def parse_config(doc: dict, suite: Optional[str] = None) -> SuiteConfig:
    _reject_unknown(doc, _TOP_KEYS, "config")
    _reject_unknown(doc.get("model", {}), _MODEL_KEYS, "model block")
    _reject_unknown(doc.get("interval", {}), _INTERVAL_KEYS, "interval block")
    model_block = {**DEFAULTS["model"], **doc.get("model", {})}
    interval_block = {**DEFAULTS["interval"], **doc.get("interval", {})}
    tolerances = doc.get("tolerances", {})
    _reject_unknown(tolerances, _TOLERANCE_KEYS, "tolerances block")
    paths = doc.get("paths", DEFAULTS["paths"])
    particles = doc.get("particles", DEFAULTS["particles"])
    seed = doc.get("seed", DEFAULTS["seed"])

    try:
        # the raw JSON values, before float() could accept a string or a boolean
        for where, block in (("model", model_block), ("interval", interval_block)):
            for key, value in block.items():
                require_number(value, f"{where} {key}")
        model = ModelParams(sigma=float(model_block["sigma"]),
                            lam=float(model_block["lambda"]),
                            eta=float(model_block["eta"]),
                            drift=float(model_block["drift"]))
        interval = Interval(a=float(interval_block["a"]), b=float(interval_block["b"]))
        for key, value in tolerances.items():
            require_number(value, f"tolerance {key!r}", low=0.0, strict=True)
        if paths is not None:
            require_number(paths, "paths", integer=True, low=1)
        require_number(particles, "particles", integer=True, low=1)
        require_number(seed, "seed", integer=True, low=0, high=2**64)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if suite is not None and doc.get("suite", suite) != suite:
        raise ConfigError(f"config names suite {doc['suite']!r}, but the run is for {suite!r}")
    output_path = doc.get("output_path", DEFAULTS["output_path"])
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError("output_path must be a string or null")

    return SuiteConfig(
        suite=doc.get("suite", suite),
        model=model,
        interval=interval,
        seed=seed,
        paths=paths,
        particles=particles,
        tolerances=dict(tolerances),
        output_path=output_path,
    )


def load_config(path: Optional[str], suite: Optional[str] = None) -> SuiteConfig:
    if path is None:
        return parse_config({}, suite)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return parse_config(doc, suite)
