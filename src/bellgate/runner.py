"""End-to-end simulated runs: emission -> polarizers -> fibers -> gate ->
detectors -> coincidence counting -> analysis.

A simulated experiment is two measurements, both always made:

* :func:`run_chsh` -- one counting run per polarizer setting of the 4x4
  grid, assembled into a :class:`~bellgate.analysis.CountTable16` with
  accidental estimates from the measured singles rates, then the CHSH
  statistic.
* :func:`run_degradation` -- polarizer-free luminosity runs (dark only,
  gate off, gate on) and the per-column with/without rotation ratios.

A counting run draws only *candidate* pairs: pairs that reach the slits
while the gate is open and that at least one detector keeps.  The gate
and the detector efficiencies are independent marks of the Poisson
emission stream, and a Poisson process thinned by an independent mark
is again Poisson (the marking theorem), so candidates are a Poisson
process of rate ``pair_rate * k`` on the gate's open set, with
``k = 1 - (1 - e_a)(1 - e_b)``.  :func:`~bellgate.gating.sample_open_times`
draws them slice by slice; each candidate then gets its detection
pattern (alice only, both, bob only) from
:func:`~bellgate.detection.detection_pattern` and, in polarized runs, its
polarizer outcomes from :func:`~bellgate.sources.joint_outcomes`; the
``TravelingInfluence`` flags and hidden-variable angles are computed for
candidates only.  A detector fires where its arm both keeps the photon
and passes the polarizer.  At the reference bench's 1.6% duty cycle and
1-2% efficiencies about one emitted pair in 2000 is a candidate.
Every run, the dark-only one included, ends in the same step: each arm's
dark counts join its detections, and the sorted streams are matched.

Every sub-run draws from its own generator seeded by a stable hash of
the master seed and the sub-run's identity (the angle pair, or the
degradation label), never by position, so results are independent of
setting order and reproducible cell by cell.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
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
from .apparatus import ApparatusConfig, gate_geometry, validate_config
from .detection import (
    CountRecord,
    DetectorConfig,
    dark_times,
    detection_pattern,
    match_coincidences,
    thin_times,  # noqa: F401  unused here; perfbench/trace_child.py wraps runner.thin_times
)
from .gating import GateState, gate_open, sample_open_times
from .sources import CorrelationModel, TravelingInfluence, joint_outcomes

DEGRADATION_LABELS = ("dark", "no_rotation", "with_rotation")

# Candidate pairs are drawn in time slices of roughly this many expected
# draws so memory stays bounded at high pair rates.  Fixed (not
# configurable) so a given plan always consumes the same random stream.
_CHUNK_EVENTS = 1 << 22


@dataclass(frozen=True)
class RunPlan:
    """Everything needed to reproduce one simulated experiment."""

    apparatus: ApparatusConfig
    detector: DetectorConfig
    model: CorrelationModel
    pair_rate: float
    integration_time: float  # seconds per setting / per luminosity run
    rotation: bool = True
    master_seed: int = 0
    gate_phase: float = 0.0
    accidental_convention: str = "double"

    def __post_init__(self):
        if not 0 < self.pair_rate < math.inf:
            raise ValueError("pair rate must be positive and finite")
        if not 0 < self.integration_time < math.inf:
            raise ValueError("integration time must be positive and finite")
        if self.accidental_convention not in ACCIDENTAL_CONVENTIONS:
            raise ValueError(f"unknown accidental convention {self.accidental_convention!r}")
        geometry = gate_geometry(validate_config(self.apparatus))
        # Every experiment includes a gated run; check its phase before any run.
        GateState.from_geometry(geometry, self.gate_phase)
        # A window as long as the gate period reaches into the next gate
        # opening and pairs detections that no single opening let through.
        if not self.detector.coincidence_window < geometry.gate_period:
            raise ValueError(
                f"coincidence window {self.detector.coincidence_window:g} s must be "
                f"shorter than the gate period {geometry.gate_period:g} s"
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
    ``_CHUNK_EVENTS`` draws each at ``event_rate``; edges are made one
    at a time, so a huge slice count costs no memory."""
    span = max(_CHUNK_EVENTS / event_rate, 1e-9)
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
    geometry = gate_geometry(validate_config(plan.apparatus))
    det = plan.detector
    duration = plan.integration_time
    delay = geometry.fiber_delay
    if rotation is None:
        rotation = plan.rotation
    gate = GateState.from_geometry(geometry, plan.gate_phase) if rotation else None

    influence_gate = None
    if polarized and isinstance(plan.model, TravelingInfluence):
        # An emission is "informed" iff the slit was in view one influence
        # transit earlier, i.e. the gate pattern shifted by that delay.
        if gate is not None:
            influence_delay = (
                0.0
                if math.isinf(plan.model.influence_speed)
                else plan.apparatus.fiber_length / plan.model.influence_speed
            )
            influence_gate = GateState(
                gate.gate_period,
                gate.aperture_time,
                (gate.phase_offset + influence_delay) % gate.gate_period,
            )
        # With the mirror stopped the line of sight is permanent: every
        # emission is informed (influence_gate stays None).

    candidate_rate = plan.pair_rate * det.pair_keep_probability
    alice_parts = []
    bob_parts = []
    for t0, t1 in _time_slices(duration, candidate_rate):
        arrivals = sample_open_times(candidate_rate, t0 + delay, t1 + delay, gate, rng)
        if gate is not None:
            # Keeps gate_open the one test of an open slit; the sampler's
            # draws all pass it, and perfbench/trace_child.py counts the
            # gated candidates through this call.
            arrivals = arrivals[gate_open(arrivals, gate)]
        n = arrivals.size
        alice_kept, bob_kept = detection_pattern(n, det, rng)
        if polarized:
            hidden = None
            if isinstance(plan.model, TravelingInfluence):
                hidden = (
                    gate_open(arrivals - delay, influence_gate)
                    if influence_gate is not None
                    else np.ones(n, dtype=bool)
                )
            alice_pass, bob_pass = joint_outcomes(
                plan.model, alice_angle, bob_angle, n, rng, hidden
            )
            alice_kept &= alice_pass
            bob_kept &= bob_pass
        alice_parts.append(arrivals[alice_kept])
        bob_parts.append(arrivals[bob_kept])

    return _count(alice_parts, bob_parts, det, duration, rng)


def _count(alice_parts, bob_parts, det: DetectorConfig, duration: float, rng) -> CountRecord:
    """Add each arm's dark counts to its detections, sort and match.

    The parts are lists of unsorted detection times; the sort orders
    what the matcher sees.  Alice's darks are drawn before Bob's.
    """
    alice = np.sort(np.concatenate([*alice_parts, dark_times(det.dark_rate_alice, duration, rng)]))
    bob = np.sort(np.concatenate([*bob_parts, dark_times(det.dark_rate_bob, duration, rng)]))
    coincidences = match_coincidences(alice, bob, det.coincidence_window)
    return CountRecord(alice.size, bob.size, coincidences, duration)


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
                derive_seed(plan.master_seed, "chsh", float(alice_angle), float(bob_angle))
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
    table = CountTable16(counts=counts, accidentals=accidentals, integration_time=duration)
    return table, chsh_S(table)


def run_degradation(plan: RunPlan) -> tuple[list[CountRecord], DegradationResult]:
    """Polarizer-free luminosity runs: dark only, gate off, gate on.

    Returns the three records in :data:`DEGRADATION_LABELS` order plus
    the dark-subtracted with/without rotation ratios.
    """
    dark_rng = np.random.default_rng(derive_seed(plan.master_seed, "degradation", "dark"))
    records = [_count([], [], plan.detector, plan.integration_time, dark_rng)]
    for label, rotation in (("no_rotation", False), ("with_rotation", True)):
        rng = np.random.default_rng(derive_seed(plan.master_seed, "degradation", label))
        records.append(run_setting(plan, 0.0, 0.0, rng, rotation=rotation, polarized=False))
    ratios = degradation_ratio(records[2], records[1], records[0])
    return records, ratios
