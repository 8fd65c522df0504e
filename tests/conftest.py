import numpy as np
import pytest

from bellgate.analysis import ALICE_ANGLES, BOB_ANGLES, CountTable16
from bellgate.apparatus import ApparatusConfig, GateState, gate_geometry, validate_config
from bellgate.causality import influence_window_analysis, resonant_influence_speeds
from bellgate.detection import ALICE, BOB
from bellgate.sources import joint_probabilities

# A gate with no closed time: built directly, as gate_geometry refuses its timing.
ALWAYS_OPEN = GateState(gate_period=1.0, aperture_time=1.0)

# The reference bench's gate (ApparatusConfig's defaults: A=1e-3 m slit,
# R=0.34 m, w=1000 Hz, N=34 facets): open time, period and duty cycle.
T_ON = 4.681027737996921e-07
GATE_PERIOD = 2.9411764705882354e-05
DUTY = 0.015915494309189534


@pytest.fixture
def bench():
    """Reference bench configuration (the record defaults)."""
    return ApparatusConfig()


@pytest.fixture
def bench_geometry(bench):
    return gate_geometry(validate_config(bench))


def speed_at_pass_fraction(apparatus, share, early):
    """The influence speed at which ``share`` of the informed arrivals pass
    the first later window: arriving late (between the first resonance's
    low and centre speeds, where the pass fraction rises with the speed)
    or early (between its centre and high speeds, where it falls), found
    by bisection."""
    geometry = gate_geometry(apparatus)
    fiber = apparatus.fiber_length
    photon_speed = apparatus.vacuum_light_speed / apparatus.fiber_group_index
    first = resonant_influence_speeds(geometry, fiber, photon_speed, 1)[0]
    lo, hi = (first.center, first.high) if early else (first.low, first.center)
    for _ in range(100):
        mid = (lo + hi) / 2
        report = influence_window_analysis(geometry, fiber, mid, photon_speed)
        if (report.pass_fraction < share) != early:
            lo = mid
        else:
            hi = mid
    return lo


def sampled_table(model, pairs_per_setting, seed):
    """Count table drawn directly from a model's joint pass probabilities.

    Bypasses the event-level pipeline: each cell is a binomial draw of
    coincidences out of ``pairs_per_setting`` pairs.  Useful for fast
    statistical properties of the estimator itself.
    """
    rng = np.random.default_rng(seed)
    counts = np.zeros((4, 4))
    for i, alice in enumerate(ALICE_ANGLES):
        for j, bob in enumerate(BOB_ANGLES):
            p_pass_pass = joint_probabilities(model, alice, bob)[0]
            counts[i, j] = rng.binomial(pairs_per_setting, p_pass_pass)
    return CountTable16(counts=counts, accidentals=np.zeros((4, 4)))


def tag_arms(alice, bob):
    """The tagged stream (times, arms) of two arms' detection times: one
    entry per detection, in time order, each tagged with its own arm."""
    alice = np.asarray(alice, dtype=float)
    bob = np.asarray(bob, dtype=float)
    times = np.concatenate([alice, bob])
    arms = np.repeat(np.array([ALICE, BOB], dtype=np.int8), [alice.size, bob.size])
    order = np.argsort(times, kind="stable")
    return times[order], arms[order]


def _sliced(draw, n, duration):
    """Pieces for the counter tests: ``draw(t0, t1)``'s tagged stream
    ``(times, arms)`` for each of ``n`` equal time slices of [0, duration).
    This slicing is the tests' own; a gated run is drawn in chunks of
    expected draws (:func:`bellgate.gating.sample_times`)."""
    return (draw(duration * i / n, duration * (i + 1) / n) for i in range(n))
