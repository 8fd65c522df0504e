"""Run-configuration files: one strict JSON document per run.

Four sections mirror the module boundaries -- ``apparatus``,
``detector``, ``model`` and ``run`` -- with keys named exactly after the
corresponding dataclass fields (SI units throughout).  Unknown sections
or keys are rejected so a typo cannot silently fall back to a default.
Command-line overrides use dotted keys (``apparatus.aperture_width=2e-3``).
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

from .apparatus import ApparatusConfig
from .detection import DetectorConfig
from .runner import RUN_KINDS, RunPlan
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


_APPARATUS_KEYS = {
    "aperture_width",
    "mirror_radius",
    "rotation_rate",
    "facet_count",
    "fiber_length",
    "fiber_group_index",
    "vacuum_light_speed",
}
_DETECTOR_KEYS = {
    "efficiency_alice",
    "efficiency_bob",
    "dark_rate_alice",
    "dark_rate_bob",
    "coincidence_window",
}
_MODEL_KEYS = {
    "quantum": {"sign_convention", "visibility"},
    "malus": set(),
    "threshold": set(),
    "traveling": {"influence_speed", "base", "uninformed"},
}
_RUN_KEYS = {
    "pair_rate",
    "integration_time",
    "rotation",
    "gate_phase",
    "accidental_convention",
    "seed",
    "settings",
    "kind",
}
_SECTIONS = {"apparatus", "detector", "model", "run"}


def load_config(path) -> dict:
    """Read and schema-check a config file; returns the raw dict."""
    text = Path(path).read_text()
    try:
        cfg = json.loads(text)
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
    """Apply ``section.key=value`` overrides; values parse as JSON scalars
    (bare words fall back to strings).  Returns a new validated dict."""
    out = copy.deepcopy(cfg)
    for text in assignments:
        if "=" not in text:
            raise ConfigError(f"override {text!r} must look like section.key=value")
        dotted, raw = text.split("=", 1)
        parts = dotted.strip().split(".")
        if len(parts) < 2 or not all(parts):
            raise ConfigError(f"override key {dotted!r} must be section.key")
        try:
            value = json.loads(raw)
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


def _coerce_number(section: str, key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
    # Python's json accepts Infinity and NaN; no bench quantity is either.
    if not math.isfinite(value):
        raise ConfigError(f"{section}.{key} must be finite, got {value!r}")
    return float(value)


def build_apparatus(cfg: dict) -> ApparatusConfig:
    body = cfg.get("apparatus", {})
    kwargs = {k: _coerce_number("apparatus", k, v) for k, v in body.items()}
    if "facet_count" in kwargs:
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
    value = float(value)
    if not value > 0 or math.isnan(value):
        raise ConfigError("speed must be positive or 'instant'")
    return value


def build_model(body: dict) -> CorrelationModel:
    name = body["name"]
    if name == "quantum":
        return QuantumState(
            sign_convention=body.get("sign_convention", "mirrored"),
            visibility=_coerce_number("model", "visibility", body.get("visibility", 1.0)),
        )
    if name == "malus":
        return MalusLHV()
    if name == "threshold":
        return ThresholdLHV()
    return TravelingInfluence(
        base=build_model(body["base"]),
        uninformed=build_model(body["uninformed"]),
        influence_speed=parse_speed(body.get("influence_speed", "instant")),
    )


def build_plan(cfg: dict, seed=None, rotation=None) -> RunPlan:
    """Assemble the RunPlan; ``seed``/``rotation`` override the file."""
    if "model" not in cfg:
        raise ConfigError("config needs a model section to simulate")
    run = cfg.get("run", {})
    if "pair_rate" not in run:
        raise ConfigError("run.pair_rate is required to simulate")
    if "integration_time" not in run:
        raise ConfigError("run.integration_time is required to simulate")
    settings = run.get("settings")
    if settings is not None:
        try:
            settings = tuple((float(a), float(b)) for a, b in settings)
        except (TypeError, ValueError) as exc:
            raise ConfigError("run.settings must be a list of [alice, bob] pairs") from exc
    kind = run.get("kind", "chsh")
    if kind not in RUN_KINDS:
        raise ConfigError(f"run.kind must be one of {RUN_KINDS}")
    rotation_value = run.get("rotation", True)
    if rotation is not None:
        rotation_value = rotation
    if not isinstance(rotation_value, bool):
        raise ConfigError("run.rotation must be true or false")
    seed_value = run.get("seed", 0) if seed is None else seed
    if isinstance(seed_value, bool) or not isinstance(seed_value, int):
        raise ConfigError("run.seed must be an integer")
    kwargs = dict(
        apparatus=build_apparatus(cfg),
        detector=build_detector(cfg),
        model=build_model(cfg["model"]),
        pair_rate=_coerce_number("run", "pair_rate", run["pair_rate"]),
        integration_time=_coerce_number("run", "integration_time", run["integration_time"]),
        rotation=rotation_value,
        master_seed=seed_value,
        gate_phase=_coerce_number("run", "gate_phase", run.get("gate_phase", 0.0)),
        accidental_convention=run.get("accidental_convention", "double"),
        kind=kind,
    )
    if settings is not None:
        kwargs["settings"] = settings
    try:
        return RunPlan(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
