"""Bench configuration and closed-form gating geometry: the mirror, the
slits' gate and the detectors as configured.

A rotating multi-facet mirror sweeps a reflected beam across a slit of
width A at distance R, so each facet opens a transmission window of
duration A / (2*pi*R*w).  Every derived timing quantity used elsewhere
(gate period, duty cycle, fiber transit, light flight distance while the
gate is open) is computed once in :func:`gate_geometry` so that all
modules work from identical numbers.

The module is in the plan layer, which imports no numpy: the records
here are what a plan is built from and checked against, and the run
layer (:mod:`bellgate.gating`, :mod:`bellgate.detection`) draws and
counts with them.
"""

from __future__ import annotations

import math

from .record import Record

LIGHT_SPEED_VACUUM = 2.998e8  # m/s


class ValidationError(ValueError):
    """A configuration value violates a bench invariant."""


class ApparatusConfig(Record):
    """Physical bench parameters, SI units.

    Defaults reproduce the reference bench: 1 mm slits 0.34 m from a
    34-facet mirror spinning at 1000 Hz, with 200 m of single-mode fiber
    per arm.  ``fiber_group_index`` 1.0 keeps the vacuum-speed timing
    convention; set the fiber's group index (about 1.468 for single-mode
    fiber at 810 nm) for in-fiber speeds.
    """

    aperture_width: float = 1e-3
    mirror_radius: float = 0.34
    rotation_rate: float = 1000.0
    facet_count: int = 34
    fiber_length: float = 200.0
    fiber_group_index: float = 1.0
    vacuum_light_speed: float = LIGHT_SPEED_VACUUM


class DetectorConfig(Record):
    """Per-arm APD characteristics plus the shared coincidence window."""

    efficiency_alice: float
    efficiency_bob: float
    dark_rate_alice: float = 0.0
    dark_rate_bob: float = 0.0
    coincidence_window: float = 20e-9

    def __post_init__(self):
        if not 0.0 < self.efficiency_alice <= 1.0:
            raise ValueError("alice efficiency must lie in (0, 1]")
        if not 0.0 < self.efficiency_bob <= 1.0:
            raise ValueError("bob efficiency must lie in (0, 1]")
        if not (0 <= self.dark_rate_alice < math.inf and 0 <= self.dark_rate_bob < math.inf):
            raise ValueError("dark rates must be finite and non-negative")
        if not self.coincidence_window > 0:
            raise ValueError("coincidence window must be positive")

    def fire_probability(self, joint):
        """Probability that a pair reaching both slits fires at least one detector.

        ``joint`` holds the polarizer probabilities (pass-pass, pass-block,
        block-pass) of one model at one setting;
        :data:`~bellgate.sources.NO_POLARIZERS` when the polarizers are out.
        """
        p_pp, p_pb, p_bp = joint
        keep_both = 1.0 - (1.0 - self.efficiency_alice) * (1.0 - self.efficiency_bob)
        return p_pp * keep_both + self.efficiency_alice * p_pb + self.efficiency_bob * p_bp

    def stream_law(self, joint, pair_rate):
        """A stream of pairs and darks: its intensity, pairs at ``pair_rate``
        times their :meth:`fire_probability` plus both arms' darks, then
        the upper ends of its parts that fire Alice only and both, laid end
        to end: Alice's darks, pairs that fire Alice only (probability
        e_a(p_pb + p_pp(1-e_b))), both (e_a*e_b*p_pp) or Bob only, then
        Bob's darks.
        """
        e_a, e_b, d_a = self.efficiency_alice, self.efficiency_bob, self.dark_rate_alice
        p_pp, p_pb, _ = joint
        return (
            d_a + pair_rate * self.fire_probability(joint) + self.dark_rate_bob,
            d_a + pair_rate * (e_a * (p_pb + p_pp * (1.0 - e_b))),
            d_a + pair_rate * (e_a * (p_pp + p_pb)),
        )


class GateGeometry(Record):
    """Derived gate timing; see :func:`gate_geometry`."""

    aperture_time: float                # gate-open duration per facet, s
    duty_cycle: float                   # open fraction of each gate period
    gate_period: float                  # time between facet sweeps, s
    fiber_delay: float                  # source-to-slit transit per arm, s
    flight_distance_during_gate: float  # fiber-speed distance covered in one window, m


class GateState(Record):
    """Periodic top-hat transmission window shared by both slits."""

    gate_period: float
    aperture_time: float
    phase_offset: float = 0.0  # time of the first window opening, s

    @classmethod
    def from_geometry(cls, geometry: GateGeometry) -> "GateState":
        """The slits' gate, window 0 opening at 0; direct construction skips the check."""
        if not geometry.aperture_time < geometry.gate_period:
            raise ValidationError("aperture time must be shorter than the gate period")
        return cls(geometry.gate_period, geometry.aperture_time)


def validate_config(cfg: ApparatusConfig) -> ApparatusConfig:
    """Return ``cfg`` unchanged iff every invariant holds.

    Raises :class:`ValidationError` naming the first violated invariant.
    Every field must be finite: an infinite rotation rate, for one, would
    give a zero gate period.  The slit must be narrower than one facet
    sweep (2*pi*R/N), otherwise the "gate" never closes and the duty cycle
    would reach or exceed 1.  Finite inputs can still derive a degenerate
    timing; :func:`gate_geometry` refuses that.
    """
    for name, value in vars(cfg).items():
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite")
    if not cfg.aperture_width > 0:
        raise ValidationError("aperture must be positive")
    if not cfg.mirror_radius > 0:
        raise ValidationError("mirror radius must be positive")
    if not cfg.rotation_rate > 0:
        raise ValidationError("rotation rate must be positive")
    if int(cfg.facet_count) != cfg.facet_count or cfg.facet_count < 1:
        raise ValidationError("facet count must be a positive integer")
    if not cfg.fiber_length > 0:
        raise ValidationError("fiber length must be positive")
    if not cfg.fiber_group_index >= 1.0:
        raise ValidationError("fiber group index must be at least 1")
    if not cfg.vacuum_light_speed > 0:
        raise ValidationError("light speed must be positive")
    if not cfg.aperture_width < 2.0 * math.pi * cfg.mirror_radius / cfg.facet_count:
        raise ValidationError("aperture exceeds facet sweep")
    return cfg


def gate_geometry(cfg: ApparatusConfig) -> GateGeometry:
    """Compute all derived timing quantities in one place.

    The gate-open duration is A / (2*pi*R*w) and the open fraction
    A*N / (2*pi*R).  The flight distance uses the in-fiber speed
    c/index, which with the default index of 1.0 reduces to the
    vacuum-speed convention.  Assumes a config whose fields
    :func:`validate_config` has checked.  Such finite inputs can still
    overflow or underflow (a rotation rate of 1e-320 gives an infinite
    gate period, one of 1e308 a zero one), so a zero or infinite aperture
    time, gate period or fiber delay raises :class:`ValidationError`.
    """
    sweep_speed = 2.0 * math.pi * cfg.mirror_radius * cfg.rotation_rate  # at the slit, m/s
    fiber_speed = cfg.vacuum_light_speed / cfg.fiber_group_index
    t_on = cfg.aperture_width / sweep_speed if sweep_speed else math.inf
    geometry = GateGeometry(
        aperture_time=t_on,
        duty_cycle=cfg.aperture_width * cfg.facet_count / (2.0 * math.pi * cfg.mirror_radius),
        gate_period=1.0 / (cfg.rotation_rate * cfg.facet_count),
        fiber_delay=cfg.fiber_length / fiber_speed if fiber_speed else math.inf,
        flight_distance_during_gate=fiber_speed * t_on,
    )
    for name in ("aperture_time", "gate_period", "fiber_delay"):
        value = getattr(geometry, name)
        if not 0 < value < math.inf:
            raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    return geometry
