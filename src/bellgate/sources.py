"""Pluggable polarization-correlation models and their outcome sampling.

Each emitted pair meets
one linear polarizer per arm (angles ``alice_angle``, ``bob_angle`` in
degrees) and either passes toward its detector or is blocked; only the
transmitted port is instrumented.  Four models supply the joint
pass/block statistics:

* :class:`QuantumState` -- entangled-state statistics with a selectable
  correlation kernel and a single visibility knob V.  Joint pass
  probability is (1 + V*K(a, b))/4 with marginals 1/2 per arm, where K
  is ``cos 2(a-b)`` ("plus"), ``-cos 2(a-b)`` ("minus") or
  ``cos 2(a+b)`` ("mirrored").
* :class:`MalusLHV` -- shared hidden polarization angle theta, uniform
  on [0, pi); each arm passes independently with Malus-law probability
  cos^2(theta - setting).
* :class:`ThresholdLHV` -- same hidden angle, deterministic outcome
  sign(cos 2(theta - setting)).
* :class:`TravelingInfluence` -- a time-gated mixture: emissions
  flagged "informed" (the flag is computed upstream from gate timing)
  use the ``base`` model, all others the ``uninformed`` model.

The correlation E reported by :func:`correlation_theory` follows the
agree-minus-disagree convention of the count estimator in
:mod:`bellgate.analysis`, so Monte Carlo counts fed through that
estimator converge to these closed forms.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .record import Record

SIGN_CONVENTIONS = ("plus", "minus", "mirrored")

#: Distinguished influence speed meaning "arrives with no delay".
INSTANTANEOUS = math.inf

#: (p_pass_pass, p_pass_block, p_block_pass) with the polarizers out of
#: the path, as in luminosity runs: every pair reaches both detectors.
NO_POLARIZERS = (1.0, 0.0, 0.0)


class QuantumState(Record):
    sign_convention: str = "mirrored"
    visibility: float = 1.0

    def __post_init__(self):
        if self.sign_convention not in SIGN_CONVENTIONS:
            raise ValueError(
                f"unknown sign convention {self.sign_convention!r}; "
                f"expected one of {SIGN_CONVENTIONS}"
            )
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")


class MalusLHV(Record):
    pass


class ThresholdLHV(Record):
    pass


class TravelingInfluence(Record):
    base: "CorrelationModel"
    uninformed: "CorrelationModel"
    influence_speed: float = INSTANTANEOUS  # m/s; math.inf = instantaneous

    def __post_init__(self):
        if not self.influence_speed > 0:
            raise ValueError("influence speed must be positive or instantaneous")
        # The runner draws each group from its model's fixed joint probabilities.
        if any(isinstance(m, TravelingInfluence) for m in (self.base, self.uninformed)):
            raise ValueError("a traveling model cannot nest another traveling model")


CorrelationModel = Union[QuantumState, MalusLHV, ThresholdLHV, TravelingInfluence]


def correlation_kernel(convention: str, alice_angle: float, bob_angle: float) -> float:
    """Correlation kernel K(a, b) for the given sign convention (degrees in)."""
    a = math.radians(alice_angle)
    b = math.radians(bob_angle)
    if convention == "plus":
        return math.cos(2.0 * (a - b))
    if convention == "minus":
        return -math.cos(2.0 * (a - b))
    if convention == "mirrored":
        return math.cos(2.0 * (a + b))
    raise ValueError(f"unknown sign convention {convention!r}")


def _folded_delta(alice_angle: float, bob_angle: float) -> float:
    """|a - b| in radians folded into [0, pi/2] (polarizers have period pi)."""
    d = abs(math.radians(alice_angle - bob_angle)) % math.pi
    return min(d, math.pi - d)


def joint_probabilities(model: CorrelationModel, alice_angle: float, bob_angle: float):
    """Exact (p_pass_pass, p_pass_block, p_block_pass, p_block_block).

    All three static models are symmetric under swapping pass/block on
    both arms, so p_pp = p_bb and p_pb = p_bp, with marginals 1/2.
    """
    if isinstance(model, QuantumState):
        k = model.visibility * correlation_kernel(
            model.sign_convention, alice_angle, bob_angle
        )
    elif isinstance(model, MalusLHV):
        # E_theta[cos^2(theta-a) cos^2(theta-b)] = 1/4 + cos(2(a-b))/8
        k = 0.5 * math.cos(2.0 * math.radians(alice_angle - bob_angle))
    elif isinstance(model, ThresholdLHV):
        k = 1.0 - 4.0 * _folded_delta(alice_angle, bob_angle) / math.pi
    else:
        raise ValueError(
            "joint probabilities are time-dependent for TravelingInfluence"
        )
    same = 0.25 * (1.0 + k)
    diff = 0.25 * (1.0 - k)
    return same, diff, diff, same


def correlation_theory(model: CorrelationModel, alice_angle: float, bob_angle: float) -> float:
    """Exact expected correlation E = P(agree) - P(disagree) in [-1, 1]."""
    p_pp, p_pb, p_bp, p_bb = joint_probabilities(model, alice_angle, bob_angle)
    return (p_pp + p_bb) - (p_pb + p_bp)


def joint_outcomes(
    model: CorrelationModel,
    alice_angle: float,
    bob_angle: float,
    n: int,
    seed,
    hidden=None,
):
    """Sample joint (alice_pass, bob_pass) outcomes for ``n`` pairs.

    ``hidden`` carries per-pair state where the model needs it: hidden
    angles (radians) for the LHV models, drawn internally when omitted,
    and the required informed/uninformed boolean flags for
    :class:`TravelingInfluence`.  Returns two boolean arrays.  The
    runner does not sample outcomes pair by pair: it draws only pairs
    that fire a detector, from :func:`joint_probabilities`.
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
