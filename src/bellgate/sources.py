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
* :class:`TravelingInfluence` -- a time-gated mixture: "informed"
  emissions (a plan derives their times from the gate's) use the
  ``base`` model, all others the ``uninformed`` model.

The correlation E reported by :func:`correlation_theory` follows the
agree-minus-disagree convention of the count estimator in
:mod:`bellgate.analysis`, so Monte Carlo counts fed through that
estimator converge to these closed forms.

The module holds the models and their closed forms only, and imports no
numpy.  Nothing samples outcomes pair by pair: the runner marks each
pair it draws from :func:`joint_probabilities`.
"""

from __future__ import annotations

import math
from typing import Union

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
        # The plan gives each piece one model's fixed joint probabilities.
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

