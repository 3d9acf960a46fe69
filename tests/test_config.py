import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    {"tolerances": {"determinstic": 5}},
])
def test_unknown_keys_rejected(doc):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(doc)


@pytest.mark.parametrize("doc", [
    {"model": {"sigma": 0.0}},
    {"model": {"sigma": float("inf")}},
    {"model": {"drift": float("nan")}},
    {"interval": {"b": float("inf")}},
    {"output_path": 5},
    {"output_path": ["report.json"]},
    {"seed": 2**70},
    {"seed": 2**64},
    {"seed": -1},
    {"seed": 7.5},
    {"interval": {"a": 2.0, "b": 1.0}},
    {"paths": -5},
    {"paths": 2.5},
    {"tolerances": {"deterministic": -1.0}},
    {"tolerances": [1, 2]},
    [1, 2, 3],
    {"model": {"sigma": "2"}},
    {"model": {"lambda": None}},
    {"model": []},
    {"model": None},
    {"interval": [0, 1]},
    {"interval": "x"},
    {"tolerances": {"deterministic": math.inf}},
])
def test_invalid_values_rejected(doc):
    with pytest.raises(ConfigError):
        parse_config(doc)


@pytest.mark.parametrize("doc", [
    {"paths": True},
    {"particles": True},
    {"seed": False},
    {"tolerances": {"deterministic": True}},
    {"model": {"sigma": True}},
    {"interval": {"a": False}},
])
def test_booleans_rejected_as_numbers(doc):
    with pytest.raises(ConfigError):
        parse_config(doc)


_NUMERIC_KEYS = [("model", "sigma"), ("model", "lambda"), ("model", "eta"),
                 ("model", "drift"), ("interval", "a"), ("interval", "b"),
                 (None, "seed"), (None, "paths"), (None, "particles"),
                 ("tolerances", "deterministic")]
_JUNK = st.one_of(st.booleans(), st.text(max_size=4), st.none(),
                  st.lists(st.floats(), max_size=2),
                  st.floats(allow_nan=True, allow_infinity=True))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(junk=st.dictionaries(st.sampled_from(_NUMERIC_KEYS), _JUNK, min_size=1))
def test_junk_numbers_are_config_errors(junk):
    """Any value in any numeric key either parses or is a ConfigError."""
    doc = {"model": {"sigma": 1.5, "lambda": 2.0, "eta": 1.0, "drift": 0.25},
           "interval": {"a": -1.0, "b": 0.5}, "seed": 11, "paths": 4096,
           "particles": 1024, "tolerances": {"deterministic": 1e-9}}
    for (block, key), value in junk.items():
        (doc[block] if block else doc)[key] = value
    try:
        parse_config(doc)
    except ConfigError:
        pass


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
