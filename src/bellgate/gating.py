"""The rotating-mirror time gate.

Both arms run through equal-length fibers and bounce off the same
mirror, so the two photons of a pair reach their slits simultaneously,
one fiber delay after emission, and are transmitted or blocked as a
unit.  The gate is a top-hat in time: open for ``aperture_time`` at the
start of every ``gate_period``.  :func:`sample_open_times` draws the
times of a Poisson process with one intensity on the open set and a
lower one on the closed set (pairs and darks, or darks alone) and
returns them in time order, the order in which the runner counts them.
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


def sample_open_times(
    rate: float, t0: float, t1: float, gate: GateState | None, rng, closed_rate: float = 0.0
):
    """Sorted times on [t0, t1) of a Poisson process of intensity ``rate``
    while the gate is open and ``closed_rate`` (at most ``rate``) while
    it is closed; ``gate=None`` (mirror stopped) opens the whole interval.

    The cumulative intensity over ``rate`` is a coordinate s that grows
    by each window's aperture time, then by its closed time times
    ``closed_rate / rate``.  One Poisson count over the measure of s on
    the interval and uniforms on it, mapped back to time, give every time,
    sorted in place and clipped to [t0, t1) against rounding; memory grows
    with the number drawn, never with the number of windows.
    """
    if gate is None:
        n = int(rng.poisson(rate * (t1 - t0)))
        times = t0 + rng.random(n) * (t1 - t0)
    else:
        period, width = gate.gate_period, gate.aperture_time
        shrink = closed_rate / rate if closed_rate > 0 else 0.0
        span = width + shrink * (period - width)  # s per period
        # Window k opens at phase_offset + k*period; s counts from the
        # opening of window ``first``, and [t0, t1) covers s in [s0, s1).
        first = math.floor((t0 - gate.phase_offset) / period)
        last = math.ceil((t1 - gate.phase_offset) / period) - 1
        start, last_start = (gate.phase_offset + k * period for k in (first, last))
        s0, s1 = (
            min(max(x, 0.0), width) + shrink * max(x - width, 0.0)
            for x in (t0 - start, t1 - last_start)
        )
        measure = max((last - first) * span + s1 - s0, 0.0)
        s = s0 + rng.random(int(rng.poisson(rate * measure))) * measure
        window = s / span
        np.floor(window, out=window)  # in place: fresh arrays cost page faults
        s -= window * span  # s within its window
        if shrink:  # closed time, stretched back
            excess = s - width
            np.maximum(excess, 0.0, out=excess)
            excess *= 1.0 / shrink - 1.0
            s += excess
        times = start + window * period + s
    times.sort()
    if times.size and not t0 <= times[0] <= times[-1] < t1:
        np.clip(times, t0, np.nextafter(t1, t0), out=times)
    return times
