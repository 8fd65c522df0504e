"""End-to-end simulated runs: emission -> polarizers -> fibers -> gate ->
detectors -> coincidence counting -> analysis.

A simulated experiment is two measurements, both always made:

* :func:`run_chsh` -- one counting run per polarizer setting of the 4x4
  grid, assembled into a :class:`~bellgate.analysis.CountTable16` with
  accidental estimates from the measured singles rates, then the CHSH
  statistic.
* :func:`run_degradation` -- polarizer-free luminosity runs (dark only,
  gate off, gate on) and the per-column with/without rotation ratios.

A counting run draws one Poisson stream of pairs and darks per time
slice, in detection time.  The gate, the polarizer outcomes and the
detector efficiencies are independent marks of the emission stream, so
the pairs that fire a detector are a Poisson process of rate
``pair_rate * q`` on the gate's open set (the marking theorem), ``q``
from :meth:`~bellgate.detection.DetectorConfig.fire_probability`; with
each arm's darks they add up to one Poisson process (superposition).
:func:`~bellgate.gating.sample_open_times` draws it sorted and
:func:`~bellgate.detection.detection_pattern` marks each entry a pair or
a dark and picks the detectors it fires, :func:`~bellgate.gating.gate_open`
being the one test of an open slit.  Gated ``TravelingInfluence`` pairs
are drawn at the larger ``q`` of its two models, each taking its pattern
from the model its informed flag selects.  The dark-only run is the same
draw with the source off.  :func:`_count` counts every run slice by
slice on that tagged stream, as a time tagger records it: the tail
carried from the slice before joins by concatenation, and the entries up
to the last gap the rest of the run cannot bridge are matched, so memory
stays bounded however long the run.

Every sub-run draws from its own generator seeded by a stable hash of
the master seed and the sub-run's identity (the angle pair, or the
degradation label), never by position, so results are independent of
setting order and reproducible cell by cell.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .analysis import (
    ACCIDENTAL_CONVENTIONS,
    ALICE_ANGLES,
    BOB_ANGLES,
    ChshResult,
    CountTable16,
    DegradationResult,
    NumericalError,
    accidental_rate,
    chsh_S,
    dark_subtract,
    degradation_ratio,
)
from .apparatus import ApparatusConfig, GateGeometry, gate_geometry, validate_config
from .causality import informed_emission_gate
from .detection import (
    ALICE,
    BOB,
    CountRecord,
    DetectorConfig,
    dark_times,  # noqa: F401  unused here; perfbench/trace_child.py wraps runner.dark_times
    detection_pattern,
    match_coincidences,
    thin_times,  # noqa: F401  unused here; perfbench/trace_child.py wraps runner.thin_times
)
from .gating import GateState, gate_open, sample_open_times
from .sources import (
    NO_POLARIZERS,
    CorrelationModel,
    TravelingInfluence,
    joint_outcomes,  # noqa: F401  unused here; perfbench/trace_child.py wraps runner.joint_outcomes
    joint_probabilities,
)

DEGRADATION_LABELS = ("dark", "no_rotation", "with_rotation")

# Runs are drawn and counted in time slices of roughly this many expected
# draws (firing pairs and dark counts), so memory stays bounded and the
# arrays stay cache-sized.  Fixed (not configurable) so a given plan
# always consumes the same random stream.
_CHUNK_EVENTS = 1 << 16
# Entries that the search for a slice's last cluster gap looks back over
# before it falls back to the whole slice.
_LOOKBACK = 64
# The most events (firing pairs and darks) a plan may expect in its
# largest sub-run: about 750 times the largest run the README quotes, and
# minutes of counting for that sub-run alone.  Fixed, like the slice size.
MAX_RUN_EVENTS = 1e10


@dataclass(frozen=True)
class RunPlan:
    """Everything needed to reproduce one simulated experiment."""

    apparatus: ApparatusConfig
    detector: DetectorConfig
    model: CorrelationModel
    pair_rate: float
    integration_time: float  # seconds per setting / per luminosity run
    rotation: bool = True
    seed: int = 0
    gate_phase: float = 0.0
    accidental_convention: str = "double"
    #: Gate timing derived from ``apparatus`` once, after validating it.
    geometry: GateGeometry = field(init=False, repr=False, compare=False)
    #: The gate of every gated run, checked against ``gate_phase`` once.
    gate: GateState = field(init=False, repr=False, compare=False)
    #: The informed emission times of a ``TravelingInfluence`` model, or None.
    informed_gate: GateState | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.rotation, bool):
            raise ValueError("rotation must be true or false")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError("seed must be an integer")
        if not 0 < self.pair_rate < math.inf:
            raise ValueError("pair rate must be positive and finite")
        if not 0 < self.integration_time < math.inf:
            raise ValueError("integration time must be positive and finite")
        if self.accidental_convention not in ACCIDENTAL_CONVENTIONS:
            raise ValueError(f"unknown accidental convention {self.accidental_convention!r}")
        geometry = gate_geometry(validate_config(self.apparatus))
        object.__setattr__(self, "geometry", geometry)
        # Every experiment includes a gated run; check its phase before any run.
        object.__setattr__(self, "gate", GateState.from_geometry(geometry, self.gate_phase))
        if isinstance(self.model, TravelingInfluence):
            # Refuses a speed too slow for its informed phase to be resolved.
            informed_gate = informed_emission_gate(
                self.gate, self.apparatus.fiber_length, self.model.influence_speed
            )
            object.__setattr__(self, "informed_gate", informed_gate)
        # A window as long as the gate period reaches into the next gate
        # opening and pairs detections that no single opening let through.
        if not self.detector.coincidence_window < geometry.gate_period:
            raise ValueError(
                f"coincidence window {self.detector.coincidence_window:g} s must be "
                f"shorter than the gate period {geometry.gate_period:g} s"
            )
        # The largest sub-run is the ungated luminosity run: no gate and no
        # polarizer stops a pair, so no other run fires more.
        det = self.detector
        events = self.integration_time * (
            self.pair_rate * det.fire_probability(NO_POLARIZERS)
            + det.dark_rate_alice
            + det.dark_rate_bob
        )
        if events > MAX_RUN_EVENTS:
            raise ValueError(
                f"run too large: the ungated luminosity run expects {events:.3g} events, "
                f"more than the limit of {MAX_RUN_EVENTS:g}"
            )


class Calibration(NamedTuple):
    pair_rate: float
    efficiency_alice: float
    efficiency_bob: float


def calibrate_from_counts(record: CountRecord, dark: CountRecord) -> Calibration:
    """Infer pair rate and efficiencies from one polarizer-free run.

    With corrected rates S_a, S_b, C and independent per-arm losses,
    C/S_b recovers alice's efficiency, C/S_a bob's, and S_a*S_b/C the
    source pair rate.
    """
    corrected = dark_subtract(record, dark)
    s_a, s_b, c = corrected.rates
    if c <= 0:
        raise NumericalError("coincidence rate is zero after dark subtraction")
    return Calibration(
        pair_rate=s_a * s_b / c,
        efficiency_alice=c / s_b,
        efficiency_bob=c / s_a,
    )


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 63-bit stream seed keyed by the master seed and identity parts."""
    text = "|".join([str(int(master_seed))] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _time_slices(duration: float, event_rate: float):
    """Yield (t0, t1) slices of [0, duration) holding about
    ``_CHUNK_EVENTS`` draws each at ``event_rate`` (one slice if it is
    0); edges are made one at a time, so a huge slice count costs no
    memory."""
    span = max(_CHUNK_EVENTS / event_rate, 1e-9) if event_rate > 0 else duration
    n_slices = max(1, math.ceil(duration / span))
    for i in range(n_slices):
        yield duration * i / n_slices, duration * (i + 1) / n_slices


def run_setting(
    plan: RunPlan,
    alice_angle: float,
    bob_angle: float,
    rng,
    rotation: bool | None = None,
    polarized: bool = True,
    source: bool = True,
) -> CountRecord:
    """One counting run at a fixed polarizer setting.

    ``polarized=False`` removes the polarizers from the path (luminosity
    and calibration runs): every photon pair continues to the gate.
    ``source=False`` turns the source off, leaving the darks alone.
    """
    det = plan.detector
    delay = plan.geometry.fiber_delay
    if rotation is None:
        rotation = plan.rotation
    gate = plan.gate if rotation else None

    # One polarizer group per model a drawn pair may follow.  With the
    # mirror stopped the line of sight is permanent: every emission is
    # informed and a traveling model is its base model.
    joints = [NO_POLARIZERS]
    if polarized:
        models = [plan.model]
        if isinstance(plan.model, TravelingInfluence):
            models = [plan.model.base] + ([plan.model.uninformed] if gate is not None else [])
        joints = [joint_probabilities(model, alice_angle, bob_angle)[:3] for model in models]
    fire = max(det.fire_probability(joint) for joint in joints)
    pair_rate = plan.pair_rate if source else 0.0
    darks = det.dark_rate_alice + det.dark_rate_bob
    open_rate = pair_rate * fire + darks

    def draw(t0, t1):
        times = sample_open_times(open_rate, t0 + delay, t1 + delay, gate, rng, darks)
        # gate_open is the one test of an open slit; perfbench/trace_child.py
        # counts the gated entries through this call.
        is_open = True if gate is None else gate_open(times, gate)
        joint = joints[0]
        if len(joints) > 1:
            informed = gate_open(times - delay, plan.informed_gate)
            joint = [np.where(informed, p, r) for p, r in zip(*joints)]
        return times, detection_pattern(times.size, det, rng, joint, fire, pair_rate, is_open)

    event_rate = pair_rate * fire * (plan.geometry.duty_cycle if gate is not None else 1.0) + darks
    return _count(draw, event_rate, det.coincidence_window, plan.integration_time)


def _count(draw, event_rate: float, window: float, duration: float) -> CountRecord:
    """Count one run of ``duration`` seconds slice by slice, like a counting card.

    ``draw(t0, t1)`` returns a tagged stream ``(times, arms)``, sorted by
    time and detected in [t0 + delay, t1 + delay) for a fixed delay >= 0,
    of about ``event_rate`` entries per second.  The tail carried from
    the slice before is earlier than every new entry, so it joins by
    concatenation; singles are counted from the arm codes.  Every later
    entry is at t1 or after, so the greedy count splits at the last gap
    of at least a window that also lies a window below t1 (see
    :func:`~bellgate.detection.match_coincidences`): the entries before
    it are matched now, the rest are carried.
    """
    tail_times, tail_arms = np.empty(0), np.empty(0, dtype=np.int8)
    singles_alice = singles_bob = coincidences = 0
    for t0, t1 in _time_slices(duration, event_rate):
        times, arms = draw(t0, t1)
        singles_alice += int(np.count_nonzero(arms & ALICE))
        singles_bob += int(np.count_nonzero(arms & BOB))
        times = np.concatenate([tail_times, times])
        arms = np.concatenate([tail_arms, arms])
        i = _settled(times, t1, window)
        coincidences += match_coincidences(times[:i], arms[:i], window)
        tail_times, tail_arms = times[i:], arms[i:]
    coincidences += match_coincidences(tail_times, tail_arms, window)
    return CountRecord(singles_alice, singles_bob, coincidences, duration)


def _settled(times, frontier: float, window: float) -> int:
    """i such that ``times[:i]`` can be matched apart from the rest of
    the run, given a sorted stream and later entries at or after
    ``frontier``.

    The cut follows the last entry x whose next entry, and the frontier,
    are both at least a window later.  The search looks at the last
    ``_LOOKBACK`` entries first and at the whole stream only if no cut
    lies there; 0 carries everything.
    """
    for lowest in ([times.size - _LOOKBACK] if times.size > _LOOKBACK else []) + [0]:
        part = times[lowest:]
        ends = frontier - part >= window
        ends[:-1] &= np.diff(part) >= window
        last = np.flatnonzero(ends)
        if last.size:
            return lowest + int(last[-1]) + 1
    return 0


def run_chsh(plan: RunPlan) -> tuple[CountTable16, ChshResult]:
    """Counting run per setting of the 4x4 grid, assembled into a table
    plus CHSH result.

    Accidental estimates come from each cell's own singles rates and the
    plan's window convention.
    """
    counts = np.zeros((4, 4))
    accidentals = np.zeros((4, 4))
    duration = plan.integration_time
    for i, alice_angle in enumerate(ALICE_ANGLES):
        for j, bob_angle in enumerate(BOB_ANGLES):
            rng = np.random.default_rng(
                derive_seed(plan.seed, "chsh", float(alice_angle), float(bob_angle))
            )
            record = run_setting(plan, alice_angle, bob_angle, rng)
            singles_alice, singles_bob, _ = record.rates
            counts[i, j] = record.coincidences
            accidentals[i, j] = duration * accidental_rate(
                singles_alice,
                singles_bob,
                plan.detector.coincidence_window,
                plan.accidental_convention,
            )
    table = CountTable16(counts=counts, accidentals=accidentals)
    return table, chsh_S(table)


def run_degradation(plan: RunPlan) -> tuple[list[CountRecord], DegradationResult]:
    """Polarizer-free luminosity runs: dark only, gate off, gate on.

    Returns the three records in :data:`DEGRADATION_LABELS` order plus
    the dark-subtracted with/without rotation ratios.
    """
    records = []
    for label in DEGRADATION_LABELS:
        rng = np.random.default_rng(derive_seed(plan.seed, "degradation", label))
        source, gated = label != "dark", label == "with_rotation"
        records.append(run_setting(plan, 0.0, 0.0, rng, gated, polarized=False, source=source))
    ratios = degradation_ratio(records[2], records[1], records[0])
    return records, ratios
