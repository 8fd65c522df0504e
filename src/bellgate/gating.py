"""The rotating-mirror time gate.

Both arms run through equal-length fibers and bounce off the same
mirror, so the two photons of a pair reach their slits simultaneously,
one fiber delay after emission, and are transmitted or blocked as a
unit.  The gate is a top-hat in time: open for ``aperture_time`` at the
start of every ``gate_period``.  :func:`sample_open_times` draws the
arrivals of a Poisson process on the open set and returns them in time
order, the order in which the runner counts them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .apparatus import GateGeometry, ValidationError


@dataclass(frozen=True)
class GateState:
    """Periodic top-hat transmission window shared by both slits."""

    gate_period: float
    aperture_time: float
    phase_offset: float = 0.0  # time of the first window opening, s

    @classmethod
    def from_geometry(cls, geometry: GateGeometry, phase_offset: float = 0.0) -> "GateState":
        """Build a validated gate; direct construction skips the checks."""
        if not 0.0 <= phase_offset < geometry.gate_period:
            raise ValidationError("phase offset must lie in [0, gate period)")
        if not geometry.aperture_time < geometry.gate_period:
            raise ValidationError("aperture time must be shorter than the gate period")
        return cls(geometry.gate_period, geometry.aperture_time, phase_offset)


def gate_open(t, gate: GateState):
    """True where the gate transmits at time(s) ``t``.

    Accepts a scalar or an array; the window is the half-open interval
    [0, aperture_time) within each period, measured from ``phase_offset``.
    """
    rem = np.mod(np.asarray(t, dtype=float) - gate.phase_offset, gate.gate_period)
    is_open = rem < gate.aperture_time
    if np.ndim(t) == 0:
        return bool(is_open)
    return is_open


def sample_open_times(rate: float, t0: float, t1: float, gate: GateState | None, rng):
    """Times of a Poisson process of ``rate`` kept to the open part of [t0, t1).

    The count is Poisson over the exact open measure of the windows that
    overlap the interval, each window at the edges weighted by the open
    length inside it, and every time lies uniformly on that open set.
    ``gate=None`` (mirror stopped) leaves the whole interval open.  The
    times come back sorted, in place after the draws, so they are the
    time-ordered stream a time tagger records; memory grows with the
    number drawn, never with the number of windows.
    """
    if gate is None:
        n = int(rng.poisson(rate * (t1 - t0)))
        times = t0 + rng.random(n) * (t1 - t0)
        times.sort()
        return times
    period, width = gate.gate_period, gate.aperture_time
    # Window k opens at phase_offset + k*period.  Laying the windows from
    # ``first`` to ``last`` end to end gives an open-time coordinate s in
    # [0, n*width); the interval covers s in [s0, s1).
    first = math.floor((t0 - gate.phase_offset) / period)
    last = math.ceil((t1 - gate.phase_offset) / period) - 1
    start = gate.phase_offset + first * period
    last_start = gate.phase_offset + last * period
    s0 = min(max(t0 - start, 0.0), width)
    s1 = (last - first) * width + min(max(t1 - last_start, 0.0), width)
    measure = max(s1 - s0, 0.0)
    n = int(rng.poisson(rate * measure))
    s = s0 + rng.random(n) * measure
    window = np.floor(s / width)
    times = start + window * period + (s - window * width)
    times.sort()
    return times
