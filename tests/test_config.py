import json

import pytest

from interval_avoid.config import ConfigError, load_config, parse_config


def test_defaults():
    cfg = parse_config({}, suite="closedform")
    assert cfg.suite == "closedform"
    assert cfg.model.eta == 1.0 and cfg.model.drift == 0.0
    assert cfg.interval.a == 0.0 and cfg.interval.b == 1.0
    assert cfg.paths is None and cfg.particles == 65536


def test_overrides():
    doc = {"model": {"eta": 2.0, "drift": 0.5}, "interval": {"a": -1.0, "b": 0.5},
           "seed": 99, "paths": 1000, "tolerances": {"deterministic": 1e-8}}
    cfg = parse_config(doc)
    assert cfg.model.eta == 2.0 and cfg.model.drift == 0.5
    assert cfg.interval.a == -1.0
    assert cfg.seed == 99 and cfg.paths == 1000
    assert cfg.tolerance("deterministic", 1e-10) == 1e-8
    assert cfg.tolerance("other", 0.5) == 0.5


@pytest.mark.parametrize("doc", [
    {"mystery": 1},
    {"model": {"eta": 1.0, "theta": 2.0}},
    {"interval": {"a": 0.0, "b": 1.0, "c": 2.0}},
])
def test_unknown_keys_rejected(doc):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(doc)


@pytest.mark.parametrize("doc", [
    {"model": {"sigma": 0.0}},
    {"interval": {"a": 2.0, "b": 1.0}},
    {"paths": -5},
    {"paths": 2.5},
    {"tolerances": {"deterministic": -1.0}},
    {"tolerances": [1, 2]},
    [1, 2, 3],
])
def test_invalid_values_rejected(doc):
    with pytest.raises(ConfigError):
        parse_config(doc)


@pytest.mark.parametrize("doc", [
    {"paths": True},
    {"particles": True},
    {"seed": False},
    {"tolerances": {"deterministic": True}},
])
def test_booleans_rejected_as_numbers(doc):
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"eta": 1.5}, "seed": 7}))
    cfg = load_config(str(path), suite="overshoot")
    assert cfg.model.eta == 1.5 and cfg.seed == 7 and cfg.suite == "overshoot"


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(path))
