"""Strict JSON configuration for the verification harness.

One document configures a run: model and interval blocks, seed and budgets.
Unknown keys are rejected so that a config file can only mean one thing;
tolerances are fixed by the suites, so no config can widen a gate, and the
suite is named by the caller, so one document serves every suite.
``DEFAULTS`` is the one written default configuration; its model block is
``ModelParams()``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

from .model import Interval, ModelParams, require_number

__all__ = ["SuiteConfig", "ConfigError", "load_config", "parse_config", "DEFAULTS"]


class ConfigError(ValueError):
    pass


_MODEL = ModelParams()
DEFAULTS: dict[str, Any] = {
    "model": {"sigma": _MODEL.sigma, "lambda": _MODEL.lam, "eta": _MODEL.eta,
              "drift": _MODEL.drift},
    "interval": {"a": 0.0, "b": 1.0},
    "seed": 20260801,
    "paths": None,        # suite-specific default when None
    "particles": 65536,
}

_MODEL_KEYS = {"sigma", "lambda", "eta", "drift"}
_INTERVAL_KEYS = {"a", "b"}
_TOP_KEYS = {"model", "interval", "seed", "paths", "particles"}


@dataclass(frozen=True)
class SuiteConfig:
    suite: Optional[str]
    model: ModelParams
    interval: Interval
    seed: int
    paths: Optional[int]
    particles: int


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
        if paths is not None:
            require_number(paths, "paths", integer=True, low=1)
        require_number(particles, "particles", integer=True, low=1)
        require_number(seed, "seed", integer=True, low=0, high=2**64)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return SuiteConfig(
        suite=suite,
        model=model,
        interval=interval,
        seed=seed,
        paths=paths,
        particles=particles,
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
