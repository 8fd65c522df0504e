"""Run-configuration files: one strict JSON document per run.

Four sections mirror the module boundaries -- ``apparatus``,
``detector``, ``model`` and ``run`` -- and each takes its key set from
the fields of its record (``RunPlan`` less its three section fields;
SI units throughout).  An omitted key takes that record's default, and
every value gets that record's checks.  Unknown sections or keys are
rejected so a typo cannot silently fall back to a default.
Command-line overrides use dotted keys (``apparatus.aperture_width=2e-3``).
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

from .apparatus import ApparatusConfig
from .detection import DetectorConfig
from .record import fields
from .runner import RunPlan
from .sources import (
    INSTANTANEOUS,
    CorrelationModel,
    MalusLHV,
    QuantumState,
    ThresholdLHV,
    TravelingInfluence,
)


class ConfigError(ValueError):
    """The configuration file or an override is malformed."""


_MODELS = {
    "quantum": QuantumState,
    "malus": MalusLHV,
    "threshold": ThresholdLHV,
    "traveling": TravelingInfluence,
}
_SECTIONS = {"apparatus", "detector", "model", "run"}
_APPARATUS_KEYS = set(fields(ApparatusConfig))
_DETECTOR_KEYS = set(fields(DetectorConfig))
_MODEL_KEYS = {name: set(fields(cls)) for name, cls in _MODELS.items()}
_RUN_KEYS = set(fields(RunPlan)) - _SECTIONS


def _parse_int(digits: str):
    # Past Python's 4300-digit limit for int(), read the literal as the
    # float it spells, as for an int beyond the float range (_to_float).
    try:
        return int(digits)
    except ValueError:
        return float(digits)


def _unique_keys(pairs) -> dict:
    # json.loads would keep the last of two equal keys without a word.
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config repeats key {key!r}")
        obj[key] = value
    return obj


def load_config(path) -> dict:
    """Read and schema-check a config file; returns the raw dict.  A key
    repeated within one object is refused."""
    text = Path(path).read_text()
    try:
        cfg = json.loads(text, parse_int=_parse_int, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    validate_schema(cfg)
    return cfg


def validate_schema(cfg: dict) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - _SECTIONS
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
    for section, allowed in (
        ("apparatus", _APPARATUS_KEYS),
        ("detector", _DETECTOR_KEYS),
        ("run", _RUN_KEYS),
    ):
        body = cfg.get(section, {})
        if not isinstance(body, dict):
            raise ConfigError(f"section {section!r} must be an object")
        bad = set(body) - allowed
        if bad:
            raise ConfigError(
                f"unknown key(s) in section {section!r}: {sorted(bad)}"
            )
    if "model" in cfg:
        _validate_model_schema(cfg["model"], where="model")


def _validate_model_schema(body, where: str) -> None:
    if not isinstance(body, dict):
        raise ConfigError(f"section {where!r} must be an object")
    name = body.get("name")
    if name not in _MODEL_KEYS:
        raise ConfigError(
            f"{where}.name must be one of {sorted(_MODEL_KEYS)}, got {name!r}"
        )
    bad = set(body) - _MODEL_KEYS[name] - {"name"}
    if bad:
        raise ConfigError(f"unknown key(s) in {where!r}: {sorted(bad)}")
    if name == "traveling":
        for sub in ("base", "uninformed"):
            if sub not in body:
                raise ConfigError(f"{where}.{sub} is required for a traveling model")
            _validate_model_schema(body[sub], where=f"{where}.{sub}")


def apply_overrides(cfg: dict, assignments) -> dict:
    """Apply ``section.key=value`` overrides; values parse as JSON
    (bare words fall back to strings), a key repeated within one object
    refused as in a config file.  Returns a new validated dict."""
    out = copy.deepcopy(cfg)
    for text in assignments:
        if "=" not in text:
            raise ConfigError(f"override {text!r} must look like section.key=value")
        dotted, raw = text.split("=", 1)
        parts = dotted.strip().split(".")
        if len(parts) < 2 or not all(parts):
            raise ConfigError(f"override key {dotted!r} must be section.key")
        try:
            value = json.loads(raw, parse_int=_parse_int, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError:
            value = raw
        node = out
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override key {dotted!r} does not address an object")
        node[parts[-1]] = value
    validate_schema(out)
    return out


def _to_float(value) -> float:
    # An int beyond the float range is an infinity, as json reads 1e400.
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _coerce_number(section: str, key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
    # Python's json accepts Infinity, NaN and integers of any size; no
    # bench quantity is infinite, NaN or beyond the float range.
    number = _to_float(value)
    if not math.isfinite(number):
        raise ConfigError(f"{section}.{key} must be finite, got {number!r}")
    return number


def build_apparatus(cfg: dict) -> ApparatusConfig:
    body = cfg.get("apparatus", {})
    kwargs = {k: _coerce_number("apparatus", k, v) for k, v in body.items()}
    if "facet_count" in kwargs and kwargs["facet_count"].is_integer():
        # A fractional count stays as it is, for validate_config to reject.
        kwargs["facet_count"] = int(kwargs["facet_count"])
    return ApparatusConfig(**kwargs)


def build_detector(cfg: dict) -> DetectorConfig:
    body = cfg.get("detector", {})
    kwargs = {k: _coerce_number("detector", k, v) for k, v in body.items()}
    try:
        return DetectorConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(
            "detector section needs efficiency_alice and efficiency_bob"
        ) from exc


def parse_speed(value) -> float:
    """An influence speed: a positive number, or 'instant'/'inf'."""
    if isinstance(value, str):
        if value.lower() in ("instant", "instantaneous", "inf", "infinite"):
            return INSTANTANEOUS
        try:
            value = float(value)
        except ValueError as exc:
            raise ConfigError(f"invalid speed {value!r}") from exc
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"invalid speed {value!r}")
    value = _to_float(value)
    if not value > 0 or math.isnan(value):
        raise ConfigError("speed must be positive or 'instant'")
    return value


def build_model(body: dict) -> CorrelationModel:
    kwargs = {k: v for k, v in body.items() if k != "name"}
    if "visibility" in kwargs:
        kwargs["visibility"] = _coerce_number("model", "visibility", kwargs["visibility"])
    if "influence_speed" in kwargs:
        kwargs["influence_speed"] = parse_speed(kwargs["influence_speed"])
    for sub in ("base", "uninformed"):
        if sub in kwargs:
            kwargs[sub] = build_model(kwargs[sub])
    return _MODELS[body["name"]](**kwargs)


def build_plan(cfg: dict) -> RunPlan:
    """Assemble the RunPlan from a schema-checked config."""
    if "model" not in cfg:
        raise ConfigError("config needs a model section to simulate")
    run = dict(cfg.get("run", {}))
    for key in ("pair_rate", "integration_time"):
        if key not in run:
            raise ConfigError(f"run.{key} is required to simulate")
        run[key] = _coerce_number("run", key, run[key])
    try:
        return RunPlan(build_apparatus(cfg), build_detector(cfg), build_model(cfg["model"]), **run)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
