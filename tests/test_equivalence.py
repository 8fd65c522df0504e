"""The candidate sampler against the event-level path it replaced.

``event_level_counts`` is the earlier pair stage of
``runner.run_setting``, kept here as the oracle: it emits every pair,
sorts the stream, draws polarizer outcomes for all of them, gates the
slit arrivals and thins each arm by its efficiency.  The runner now
draws only the pairs a detector can register.  Both must give the same
distribution of coincidences and singles, which is tested over a seed
list fixed in advance: Welch's z on the means and an F-test on the
variances of each quantity.
"""

import math

import numpy as np
import pytest

from bellgate.apparatus import ApparatusConfig, gate_geometry, validate_config
from bellgate.causality import resonant_influence_speeds
from bellgate.detection import DetectorConfig, dark_times, match_coincidences, thin_times
from bellgate.gating import GateState, gate_open
from bellgate.runner import RunPlan, run_setting
from bellgate.sources import MalusLHV, QuantumState, TravelingInfluence, joint_outcomes


def event_level_counts(plan, alice_angle, bob_angle, rng, rotation=None, polarized=True):
    """(coincidences, singles_alice, singles_bob) of one run, pair by pair."""
    geometry = gate_geometry(validate_config(plan.apparatus))
    det = plan.detector
    duration = plan.integration_time
    if rotation is None:
        rotation = plan.rotation
    gate = GateState.from_geometry(geometry, plan.gate_phase) if rotation else None
    influence_gate = None
    if polarized and isinstance(plan.model, TravelingInfluence) and gate is not None:
        delay = (
            0.0
            if math.isinf(plan.model.influence_speed)
            else plan.apparatus.fiber_length / plan.model.influence_speed
        )
        influence_gate = GateState(
            gate.gate_period, gate.aperture_time, (gate.phase_offset + delay) % gate.gate_period
        )

    n = int(rng.poisson(plan.pair_rate * duration))
    times = np.sort(rng.random(n) * duration)
    if polarized:
        hidden = None
        if isinstance(plan.model, TravelingInfluence):
            hidden = (
                gate_open(times, influence_gate)
                if influence_gate is not None
                else np.ones(n, dtype=bool)
            )
        alice_pass, bob_pass = joint_outcomes(plan.model, alice_angle, bob_angle, n, rng, hidden)
    else:
        alice_pass = bob_pass = np.ones(n, dtype=bool)
    arrivals = times + geometry.fiber_delay
    if gate is not None:
        open_mask = gate_open(arrivals, gate)
        alice_pass = alice_pass & open_mask
        bob_pass = bob_pass & open_mask
    alice = thin_times(arrivals[alice_pass], det.efficiency_alice, rng)
    bob = thin_times(arrivals[bob_pass], det.efficiency_bob, rng)
    alice = np.sort(np.concatenate([alice, dark_times(det.dark_rate_alice, duration, rng)]))
    bob = np.sort(np.concatenate([bob, dark_times(det.dark_rate_bob, duration, rng)]))
    return match_coincidences(alice, bob, det.coincidence_window), alice.size, bob.size


# Duty cycle 0.159, so the gate matters and counts stay cheap.
APPARATUS = ApparatusConfig(aperture_width=0.01)
DETECTOR = DetectorConfig(
    efficiency_alice=0.5,
    efficiency_bob=0.4,
    dark_rate_alice=300.0,
    dark_rate_bob=200.0,
    coincidence_window=20e-9,
)
RESONANT_SPEED = resonant_influence_speeds(
    gate_geometry(APPARATUS), APPARATUS.fiber_length, APPARATUS.vacuum_light_speed, 1
)[0].center

# name -> (model, rotation, polarized)
CASES = {
    "gated_polarized": (QuantumState("mirrored", 0.82), True, True),
    "ungated_polarized": (QuantumState("mirrored", 0.82), False, True),
    "gated_luminosity": (QuantumState("mirrored", 0.82), True, False),
    "traveling_resonant": (
        TravelingInfluence(QuantumState("mirrored", 1.0), MalusLHV(), RESONANT_SPEED),
        True,
        True,
    ),
}
QUANTITIES = ("coincidences", "singles_alice", "singles_bob")
SEEDS = range(400)
# Total false-alarm rate 1e-3, split evenly over the two tests of every
# quantity of every case (Bonferroni).
ALPHA = 1e-3 / (2 * len(QUANTITIES) * len(CASES))


def _two_sided_p(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


@pytest.mark.parametrize("case", sorted(CASES))
def test_candidate_path_matches_event_level_oracle(case):
    model, rotation, polarized = CASES[case]
    plan = RunPlan(
        apparatus=APPARATUS,
        detector=DETECTOR,
        model=model,
        pair_rate=2e4,
        integration_time=0.3,
        rotation=rotation,
        gate_phase=7.3e-6,
    )
    # (0, 22.5) has correlation kernel cos 45 deg, so the polarizers matter.
    oracle = np.array(
        [
            event_level_counts(
                plan, 0.0, 22.5, np.random.default_rng([seed, 0]), polarized=polarized
            )
            for seed in SEEDS
        ],
        dtype=float,
    )
    candidate = np.array(
        [
            run_setting(plan, 0.0, 22.5, np.random.default_rng([seed, 1]), polarized=polarized)[:3]
            for seed in SEEDS
        ],
        dtype=float,
    )
    n = len(SEEDS)
    for column, name in enumerate(QUANTITIES):
        x, y = oracle[:, column], candidate[:, column]
        var_x, var_y = x.var(ddof=1), y.var(ddof=1)
        z_mean = (y.mean() - x.mean()) / math.sqrt((var_x + var_y) / n)
        # F-test on the variance ratio through Fisher's z = ln(F)/2, which
        # is close to normal with variance (1/df1 + 1/df2)/2 at these sizes.
        z_var = 0.5 * math.log(var_y / var_x) / math.sqrt(1.0 / (n - 1))
        assert _two_sided_p(z_mean) > ALPHA, f"{case} {name}: mean z = {z_mean:.2f}"
        assert _two_sided_p(z_var) > ALPHA, f"{case} {name}: variance z = {z_var:.2f}"
