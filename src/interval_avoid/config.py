"""Strict JSON configuration for the verification harness.

One document configures a run: model and interval blocks, seed, budgets and
per-suite tolerance overrides.  Unknown keys are rejected so that a config
file can only mean one thing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from .model import Interval, ModelParams

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


def _reject_unknown(block: dict, allowed: set, where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def parse_config(doc: dict, suite: Optional[str] = None) -> SuiteConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "config")
    for key in ("paths", "particles", "seed"):
        if isinstance(doc.get(key), bool):      # bool is an int subclass
            raise ConfigError(f"{key} must be an integer, not a boolean")

    model_block = {**DEFAULTS["model"], **doc.get("model", {})}
    _reject_unknown(doc.get("model", {}), _MODEL_KEYS, "model block")
    interval_block = {**DEFAULTS["interval"], **doc.get("interval", {})}
    _reject_unknown(doc.get("interval", {}), _INTERVAL_KEYS, "interval block")

    tolerances = doc.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances must be an object")
    for key, value in tolerances.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
            raise ConfigError(f"tolerance {key!r} must be a positive number")

    try:
        model = ModelParams(sigma=float(model_block["sigma"]),
                            lam=float(model_block["lambda"]),
                            eta=float(model_block["eta"]),
                            drift=float(model_block["drift"]))
        interval = Interval(a=float(interval_block["a"]), b=float(interval_block["b"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    paths = doc.get("paths", DEFAULTS["paths"])
    if paths is not None and (not isinstance(paths, int) or paths < 1):
        raise ConfigError("paths must be a positive integer")
    particles = doc.get("particles", DEFAULTS["particles"])
    if not isinstance(particles, int) or particles < 1:
        raise ConfigError("particles must be a positive integer")

    return SuiteConfig(
        suite=doc.get("suite", suite),
        model=model,
        interval=interval,
        seed=int(doc.get("seed", DEFAULTS["seed"])),
        paths=paths,
        particles=particles,
        tolerances=dict(tolerances),
        output_path=doc.get("output_path", DEFAULTS["output_path"]),
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
