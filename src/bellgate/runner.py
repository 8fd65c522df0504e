"""End-to-end simulated runs: emission -> polarizers -> fibers -> gate ->
detectors -> coincidence counting -> analysis.

A simulated experiment is two measurements, both always made:

* :func:`run_chsh` -- one counting run per polarizer setting of the 4x4
  grid, assembled into a :class:`~bellgate.analysis.CountTable16` with
  accidental estimates from the measured singles rates, then the CHSH
  statistic.
* :func:`run_degradation` -- polarizer-free luminosity runs (dark only,
  gate off, gate on) and the per-column with/without rotation ratios.

A counting run draws only *firing* pairs: pairs that reach the slits
while the gate is open and fire at least one detector.  The gate, the
polarizer outcomes and the detector efficiencies are independent marks
of the Poisson emission stream, and a Poisson process thinned by an
independent mark is again Poisson (the marking theorem), so firing pairs
are a Poisson process of rate ``pair_rate * q`` on the gate's open set,
where ``q`` is the probability that a pair fires a detector
(:meth:`~bellgate.detection.DetectorConfig.fire_probability` of the
polarizer probabilities from :func:`~bellgate.sources.joint_probabilities`,
or of :data:`~bellgate.sources.NO_POLARIZERS`, where it is
``q = 1 - (1 - e_a)(1 - e_b)``).
:func:`~bellgate.gating.sample_open_times` draws them and one
:func:`~bellgate.detection.detection_pattern` call picks which detectors
fire.  Gated ``TravelingInfluence`` pairs are drawn at the larger ``q``
of its two models and each takes its pattern from the model its
informed flag selects; the flag comes from
:func:`~bellgate.causality.informed_emission_gate` and is computed for
drawn pairs only.  At the reference bench's 1.6% duty cycle and 1-2%
efficiencies about one emitted pair in 4000 fires a detector at a
polarizer setting.

Every run, the dark-only one included, is counted by :func:`_count`
slice by slice on one time-ordered tagged stream, as a time tagger
records it: each drawn pair is one entry, tagged with the arms it fired
(both photons share its arrival time).  The sampler returns the
arrivals sorted, so the pattern uniforms go to the pairs in time order;
each slice's dark counts and the tail carried from the slice before are
merged in, and the entries up to the last gap the rest of the run
cannot bridge are matched, so memory stays bounded however long the
run.

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
    dark_times,
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
) -> CountRecord:
    """One counting run at a fixed polarizer setting.

    ``polarized=False`` removes the polarizers from the path (luminosity
    and calibration runs): every photon pair continues to the gate.
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
    informed_gate = None
    if polarized:
        models = [plan.model]
        if isinstance(plan.model, TravelingInfluence):
            models = [plan.model.base]
            if gate is not None:
                models.append(plan.model.uninformed)
                informed_gate = informed_emission_gate(
                    gate, plan.apparatus.fiber_length, plan.model.influence_speed
                )
        joints = [joint_probabilities(model, alice_angle, bob_angle)[:3] for model in models]
    fire = max(det.fire_probability(joint) for joint in joints)
    rate = plan.pair_rate * fire

    def draw(t0, t1):
        arrivals = sample_open_times(rate, t0 + delay, t1 + delay, gate, rng)
        if gate is not None:
            # Keeps gate_open the one test of an open slit; the sampler's
            # draws all pass it, and perfbench/trace_child.py counts the
            # gated pairs through this call.
            arrivals = arrivals[gate_open(arrivals, gate)]
        joint = joints[0]
        if informed_gate is not None:
            informed = gate_open(arrivals - delay, informed_gate)
            joint = [np.where(informed, p, r) for p, r in zip(*joints)]
        arms = detection_pattern(arrivals.size, det, rng, joint, fire)
        if informed_gate is not None:
            # Pairs drawn above their own model's q fire nothing.
            fired = arms.astype(bool)
            return arrivals[fired], arms[fired]
        return arrivals, arms

    open_fraction = plan.geometry.duty_cycle if gate is not None else 1.0
    return _count(draw, rate * open_fraction, det, plan.integration_time, rng)


def _count(draw, draw_rate: float, det: DetectorConfig, duration: float, rng) -> CountRecord:
    """Count one run of ``duration`` seconds slice by slice, like a counting card.

    ``draw(t0, t1)`` returns the tagged stream ``(times, arms)``, sorted
    by time, of the pairs emitted in [t0, t1), none detected earlier
    than t0, and draws about ``draw_rate`` pairs per second;
    ``draw=None`` counts darks only.  Each slice's dark counts (Alice's
    first) and the tail carried from the slice before are merged into
    the stream; singles are counted from the arm codes as entries
    arrive.  Every later entry is at t1 or after, so the greedy count
    splits at the last gap of at least a window that also lies a window
    below t1 (see :func:`~bellgate.detection.match_coincidences`): the
    entries before it are matched now, the rest are carried.
    """
    window = det.coincidence_window
    no_times, no_arms = np.empty(0), np.empty(0, dtype=np.int8)
    tail_times, tail_arms = no_times, no_arms
    singles_alice = singles_bob = coincidences = 0
    event_rate = draw_rate + det.dark_rate_alice + det.dark_rate_bob
    for t0, t1 in _time_slices(duration, event_rate):
        times, arms = draw(t0, t1) if draw is not None else (no_times, no_arms)
        dark_alice = t0 + dark_times(det.dark_rate_alice, t1 - t0, rng)
        dark_bob = t0 + dark_times(det.dark_rate_bob, t1 - t0, rng)
        singles_alice += dark_alice.size + int(np.count_nonzero(arms & ALICE))
        singles_bob += dark_bob.size + int(np.count_nonzero(arms & BOB))
        # The draws, the tail and each arm's darks are sorted runs, which
        # one stable sort merges in linear time.
        dark_alice.sort()
        dark_bob.sort()
        times = np.concatenate([times, tail_times, dark_alice, dark_bob])
        order = np.argsort(times, kind="stable")
        times = times[order]
        arms = np.concatenate(
            [
                arms,
                tail_arms,
                np.full(dark_alice.size, ALICE, dtype=np.int8),
                np.full(dark_bob.size, BOB, dtype=np.int8),
            ]
        )[order]
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
    dark_rng = np.random.default_rng(derive_seed(plan.seed, "degradation", "dark"))
    records = [_count(None, 0.0, plan.detector, plan.integration_time, dark_rng)]
    for label, rotation in (("no_rotation", False), ("with_rotation", True)):
        rng = np.random.default_rng(derive_seed(plan.seed, "degradation", label))
        records.append(run_setting(plan, 0.0, 0.0, rng, rotation=rotation, polarized=False))
    ratios = degradation_ratio(records[2], records[1], records[0])
    return records, ratios
