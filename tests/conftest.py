import numpy as np
import pytest

from bellgate.analysis import ALICE_ANGLES, BOB_ANGLES, CountTable16
from bellgate.apparatus import ApparatusConfig, GateState, gate_geometry, validate_config
from bellgate.detection import ALICE, BOB
from bellgate.runner import _time_slices
from bellgate.sources import joint_probabilities

# A gate with no closed time: built directly, as from_geometry refuses it.
ALWAYS_OPEN = GateState(gate_period=1.0, aperture_time=1.0)


@pytest.fixture
def bench():
    """Reference bench configuration (the record defaults)."""
    return ApparatusConfig()


@pytest.fixture
def bench_geometry(bench):
    return gate_geometry(validate_config(bench))


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


def _sliced(draw, rate, duration):
    """The pieces a gated run hands the counter: ``draw(t0, t1)``'s tagged
    stream ``(times, arms)`` for each time slice of [0, duration) at
    ``rate`` entries per second."""
    return (draw(t0, t1) for t0, t1 in _time_slices(duration, rate))
