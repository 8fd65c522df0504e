"""The pair-by-pair chain the simulator's fast path is checked against.

The runner draws only the pairs that fire a detector, as one stream with
the darks, and marks each entry from closed-form probabilities.  This
module keeps the chain the bench describes, one step per stage, and
shares no outcome, thinning or dark-count code with the runner:
:func:`event_level_counts` emits every pair, sorts the stream, draws
polarizer outcomes for all of them (:func:`joint_outcomes`), gates the
slit arrivals, thins each arm by its efficiency (:func:`thin_times`),
adds each arm's darks (:func:`dark_times`) and matches the whole run at
once.  :func:`same_distribution` is the two-sample check that a sampler
and the chain it replaced draw one law.
"""

import math

import numpy as np

from bellgate.apparatus import GateState, gate_geometry, validate_config
from bellgate.detection import match_coincidences
from bellgate.gating import gate_open
from bellgate.sources import (
    MalusLHV,
    QuantumState,
    ThresholdLHV,
    TravelingInfluence,
    joint_probabilities,
)
from conftest import tag_arms


def joint_outcomes(model, alice_angle: float, bob_angle: float, n: int, seed, hidden=None):
    """Sample joint (alice_pass, bob_pass) outcomes for ``n`` pairs.

    ``hidden`` carries per-pair state where the model needs it: hidden
    angles (radians) for the LHV models, drawn internally when omitted,
    and the required informed/uninformed boolean flags for
    :class:`~bellgate.sources.TravelingInfluence`.  Returns two boolean
    arrays.
    """
    rng = np.random.default_rng(seed)  # a Generator passes through unchanged
    if isinstance(model, QuantumState):
        p_pp, p_pb, p_bp, _ = joint_probabilities(model, alice_angle, bob_angle)
        u = rng.random(n)
        alice_pass = u < p_pp + p_pb
        bob_pass = (u < p_pp) | ((u >= p_pp + p_pb) & (u < p_pp + p_pb + p_bp))
        return alice_pass, bob_pass

    if isinstance(model, (MalusLHV, ThresholdLHV)):
        if hidden is None:
            theta = rng.random(n) * math.pi
        else:
            theta = np.asarray(hidden, dtype=float)
            if theta.shape != (n,):
                raise ValueError("hidden angles must be one per pair")
        a = theta - math.radians(alice_angle)
        b = theta - math.radians(bob_angle)
        if isinstance(model, MalusLHV):
            alice_pass = rng.random(n) < np.cos(a) ** 2
            bob_pass = rng.random(n) < np.cos(b) ** 2
        else:
            alice_pass = np.cos(2.0 * a) > 0.0
            bob_pass = np.cos(2.0 * b) > 0.0
        return alice_pass, bob_pass

    if isinstance(model, TravelingInfluence):
        if hidden is None:
            raise ValueError(
                "TravelingInfluence needs per-pair informed flags as hidden state"
            )
        informed = np.asarray(hidden, dtype=bool)
        if informed.shape != (n,):
            raise ValueError("informed flags must be one per pair")
        alice_pass = np.empty(n, dtype=bool)
        bob_pass = np.empty(n, dtype=bool)
        n_inf = int(informed.sum())
        a_inf, b_inf = joint_outcomes(model.base, alice_angle, bob_angle, n_inf, rng)
        a_unf, b_unf = joint_outcomes(
            model.uninformed, alice_angle, bob_angle, n - n_inf, rng
        )
        alice_pass[informed] = a_inf
        bob_pass[informed] = b_inf
        alice_pass[~informed] = a_unf
        bob_pass[~informed] = b_unf
        return alice_pass, bob_pass

    raise ValueError(f"unsupported correlation model {model!r}")


def thin_times(times, efficiency: float, rng) -> np.ndarray:
    """Keep each timestamp independently with the given probability."""
    times = np.asarray(times, dtype=float)
    if efficiency >= 1.0:
        return times
    return times[rng.random(times.size) < efficiency]


def dark_times(rate: float, duration: float, rng) -> np.ndarray:
    """Unsorted timestamps of a Poisson process on [0, duration): one
    arm's darks, drawn on their own."""
    if rate <= 0 or duration <= 0:
        return np.empty(0, dtype=float)
    n = int(rng.poisson(rate * duration))
    return rng.random(n) * duration


def event_level_counts(plan, alice_angle, bob_angle, rng, rotation=None):
    """(coincidences, singles_alice, singles_bob) of one run, pair by pair.

    Both angles None take the polarizers out: every pair passes them.
    Pairs are gated at their slit arrival, one fiber delay after
    emission, against the slits' gate, window 0 opening at 0.
    """
    geometry = gate_geometry(validate_config(plan.apparatus))
    det = plan.detector
    duration = plan.integration_time
    polarized = (alice_angle, bob_angle) != (None, None)
    if rotation is None:
        rotation = plan.rotation
    gate = GateState(geometry.gate_period, geometry.aperture_time) if rotation else None
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
    alice = np.concatenate([alice, dark_times(det.dark_rate_alice, duration, rng)])
    bob = np.concatenate([bob, dark_times(det.dark_rate_bob, duration, rng)])
    coincidences = match_coincidences(*tag_arms(alice, bob), det.coincidence_window)
    return coincidences, alice.size, bob.size


def same_distribution(x, y, alpha: float, label: str):
    """Check that two samples share one law: Welch's z on the means and an
    F-test on the variance ratio through Fisher's z = ln(F)/2, which is
    close to normal with variance (1/df1 + 1/df2)/2 at these sizes.
    Asserts that each two-sided p-value is above ``alpha``, naming
    ``label`` if not, and returns (z_mean, z_var)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    var_x, var_y = x.var(ddof=1), y.var(ddof=1)
    z_mean = (y.mean() - x.mean()) / math.sqrt(var_x / x.size + var_y / y.size)
    z_var = 0.5 * math.log(var_y / var_x) / math.sqrt(0.5 / (x.size - 1) + 0.5 / (y.size - 1))
    for kind, z in (("mean", z_mean), ("variance", z_var)):
        assert math.erfc(abs(z) / math.sqrt(2.0)) > alpha, f"{label}: {kind} z = {z:.2f}"
    return z_mean, z_var
