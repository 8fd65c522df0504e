"""Run-configuration files: one strict JSON document per run.

Four sections mirror the module boundaries -- ``apparatus``,
``detector``, ``model`` and ``run`` -- and each takes its key set from
the fields of its record (``RunPlan`` less its three section fields;
SI units throughout).  An omitted key takes that record's default, and
every value gets that record's checks.  Unknown sections or keys are
rejected so a typo cannot silently fall back to a default.
Command-line overrides use dotted keys (``apparatus.aperture_width=2e-3``).

:class:`RunPlan` is what a config builds: the records of the four
sections, checked against each other and with the gates every run uses
derived once.  The module is in the plan layer, which imports no numpy,
so reading a config and building its plan (``bellgate geometry``,
``bellgate causality`` and the checks ``simulate`` makes before its first
draw) never waits for it.  A plan says what each of its runs draws
(:meth:`RunPlan.stream`): the pieces of the gate period and each piece's
stream law; :mod:`bellgate.runner` only draws and counts them.  It also
gives each cell's accidental estimate (:meth:`RunPlan.accidentals`), so
the conventions a plan may name are known here alone.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

from .apparatus import ApparatusConfig, DetectorConfig, GateState, gate_geometry, validate_config
from .causality import influence_window_analysis
from .record import Record, fields
from .sources import (
    INSTANTANEOUS,
    NO_POLARIZERS,
    CorrelationModel,
    MalusLHV,
    QuantumState,
    ThresholdLHV,
    TravelingInfluence,
    joint_probabilities,
)

# The most events (firing pairs and darks) a plan may expect in its
# largest sub-run: about 750 times the largest run the README quotes, and
# minutes of counting for that sub-run alone.  Fixed, not an option.
MAX_RUN_EVENTS = 1e10

# Accidental-coincidence estimates by name: the factor on r1*r2*window
# that RunPlan.accidentals applies and that accidental_convention must name.
_CONVENTION_FACTORS = {"single": 1.0, "double": 2.0}


class RunPlan(Record):
    """Everything needed to reproduce one simulated experiment.

    ``__post_init__`` derives four attributes that are not fields:
    ``geometry``, the gate timing of ``apparatus``, derived once after
    validating it; ``gate``, the gate of every gated run: the slits'
    gate, window 0 opening at 0; ``pieces``, ``(GateState, model)`` pairs
    whose windows tile the gate period and on each of which a gated run's
    intensity and marks are constant; and ``informed``, the model every
    emission follows with the mirror stopped.  One rule cuts the open
    window: a ``TravelingInfluence`` informs the arrivals of its informed
    window, which follow its ``base`` (also ``informed``), and the rest
    follow ``uninformed``; any other model is its own ``base`` and
    ``uninformed`` and informs nothing, so its open window is one piece.
    The closed stretch follows with None (darks alone).
    Runs are timed on the slits' clock, the counting card's, so the fiber
    delay only places the informed window, and the causality report
    (:func:`~bellgate.causality.influence_window_analysis`) says where.
    """

    apparatus: ApparatusConfig
    detector: DetectorConfig
    model: CorrelationModel
    pair_rate: float
    integration_time: float  # seconds per setting / per luminosity run
    rotation: bool = True
    seed: int = 0
    accidental_convention: str = "double"

    def __post_init__(self):
        if not isinstance(self.rotation, bool):
            raise ValueError("rotation must be true or false")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError("seed must be an integer")
        if not 0 < self.pair_rate < math.inf:
            raise ValueError("pair rate must be positive and finite")
        if not 0 < self.integration_time < math.inf:
            raise ValueError("integration time must be positive and finite")
        if self.accidental_convention not in _CONVENTION_FACTORS:
            raise ValueError(f"unknown accidental convention {self.accidental_convention!r}")
        geometry = gate_geometry(validate_config(self.apparatus))
        object.__setattr__(self, "geometry", geometry)
        period, width = geometry.gate_period, geometry.aperture_time
        object.__setattr__(self, "gate", GateState(period, width))
        # Informed arrivals fill [start, width) and [0, end) of the open window;
        # a model that informs nothing has the cut (width, 0.0) and one piece.
        base = uninformed = self.model
        start, end = width, 0.0
        if isinstance(self.model, TravelingInfluence):
            # The report places the informed window, refusing one too late for
            # float precision to resolve: in the open window it opens at start
            # or, opened a period earlier, closes at end (both if open over
            # half the time).  Its photon speed is the one gate_geometry
            # divides the fiber length by, so the offset is the plan's.
            base, uninformed = self.model.base, self.model.uninformed
            light, index = self.apparatus.vacuum_light_speed, self.apparatus.fiber_group_index
            start, end = influence_window_analysis(
                geometry, self.apparatus.fiber_length, self.model.influence_speed, light / index
            ).informed_cut
        object.__setattr__(self, "informed", base)
        cuts = sorted({0.0, start, end, width})
        opened = tuple(
            (GateState(period, hi - lo, lo), base if lo < end or lo >= start else uninformed)
            for lo, hi in zip(cuts, cuts[1:])
        )
        closed = (GateState(period, period - width, width), None)  # darks alone
        object.__setattr__(self, "pieces", (*opened, closed))
        # A window as long as the gate period reaches into the next gate
        # opening and pairs detections that no single opening let through.
        if not self.detector.coincidence_window < geometry.gate_period:
            raise ValueError(
                f"coincidence window {self.detector.coincidence_window:g} s must be "
                f"shorter than the gate period {geometry.gate_period:g} s"
            )
        # The largest sub-run is the ungated luminosity run: no gate and no
        # polarizer stops a pair, so no other run fires more.
        [(_, law)] = self.stream(rotation=False)
        events = self.integration_time * law[0]
        if events > MAX_RUN_EVENTS:
            raise ValueError(
                f"run too large: the ungated luminosity run expects {events:.3g} events, "
                f"more than the limit of {MAX_RUN_EVENTS:g}"
            )

    def stream(self, alice_angle=None, bob_angle=None, rotation=None, source=True):
        """What one sub-run draws: ``(GateState, law)`` pieces tiling the
        gate period, each law (:meth:`DetectorConfig.stream_law`) constant
        on its piece.  With the mirror rotating the partition is
        :attr:`pieces`; with it stopped the line of sight is permanent and
        one piece spans the period with :attr:`informed`.  Each piece's law
        is one rule: no polarizers for the closed stretch or both angles
        None, the model's joint law otherwise, and the pair rate on an open
        piece of a run with the source on.  Neighbours with equal laws
        merge at the plan's cut (so merged open pieces are :attr:`gate`).
        The arguments are :func:`~bellgate.runner.run_setting`'s; both
        angles None (the default) take the polarizers out of the path, so
        every pair goes on to the gate whatever the model: the luminosity
        stream.  One angle None (one polarizer out) raises ValueError: no
        model gives that run its joint law yet.
        """
        if (alice_angle is None) != (bob_angle is None):
            raise ValueError(
                f"one polarizer out (angles {alice_angle}, {bob_angle}) has no joint law: "
                "give both angles, or None for both to take both polarizers out"
            )
        period = self.gate.gate_period
        rotating = self.rotation if rotation is None else rotation
        partition = self.pieces if rotating else ((GateState(period, period), self.informed),)
        starts, laws = [], []
        for gate, model in partition:  # model None: the closed stretch, darks alone
            joint = NO_POLARIZERS
            if model is not None and alice_angle is not None:
                joint = joint_probabilities(model, alice_angle, bob_angle)[:3]
            pair_rate = self.pair_rate if source and model is not None else 0.0
            piece_law = self.detector.stream_law(joint, pair_rate)
            if piece_law not in laws[-1:]:
                starts.append(gate.phase_offset)
                laws.append(piece_law)
        return tuple(
            (GateState(period, hi - lo, lo), piece_law)
            for lo, hi, piece_law in zip(starts, [*starts[1:], period], laws)
        )

    def accidentals(self, rate_alice, rate_bob):
        """Expected accidental coincidences of one run of
        :attr:`integration_time` from its singles rates, under
        :attr:`accidental_convention`: ``single`` takes r1*r2*window,
        ``double`` r1*r2*2*window (a detection on either side may open
        the window).  A negative rate raises ValueError.
        """
        if rate_alice < 0 or rate_bob < 0:
            raise ValueError("singles rates must be non-negative")
        factor = _CONVENTION_FACTORS[self.accidental_convention]
        return self.integration_time * (
            rate_alice * rate_bob * factor * self.detector.coincidence_window
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
