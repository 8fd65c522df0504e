"""The rotating-mirror time gate.

Both arms run through equal-length fibers and bounce off the same
mirror, so the two photons of a pair reach their slits simultaneously,
one fiber delay after emission, and are transmitted or blocked as a
unit.  The gate is a top-hat in time: open for ``aperture_time`` at the
start of every ``gate_period``.  :func:`sample_open_times` draws the
times of a Poisson process with one intensity on the open set and a
lower one on the closed set (pairs and darks, or darks alone) and
returns them in time order, the order in which the runner counts them.
Only gated runs draw through it: with the mirror stopped the stream's
intensity is constant, and the runner counts it by its close pairs.

The module is in the run layer, which draws with numpy; the gate itself,
:class:`~bellgate.apparatus.GateState`, is a plan-layer record.
"""

from __future__ import annotations

import math

import numpy as np

from .apparatus import GateState


def gate_open(t, gate: GateState):
    """True where the gate transmits at time(s) ``t``.

    Accepts a scalar or an array; the window is the half-open interval
    [0, aperture_time) within each period, measured from ``phase_offset``.
    A time within a few float steps of a window edge may fall either side.
    """
    rem = np.asarray(t, dtype=float) - gate.phase_offset
    rem -= np.floor(rem / gate.gate_period) * gate.gate_period  # np.mod is several times slower
    is_open = rem < gate.aperture_time
    if np.ndim(t) == 0:
        return bool(is_open)
    return is_open


def sample_open_times(
    rate: float, t0: float, t1: float, gate: GateState, rng, closed_rate: float = 0.0
):
    """Sorted times on [t0, t1) of a Poisson process of intensity ``rate``
    while the gate is open and ``closed_rate`` (at most ``rate``) while
    it is closed.

    The cumulative intensity over ``rate`` is a coordinate s that grows
    by each window's aperture time, then by its closed time times
    ``closed_rate / rate``.  One Poisson count over the measure of s on
    the interval and uniforms on it, mapped back to time, give every time,
    sorted in place and clipped to [t0, t1) against rounding; memory grows
    with the number drawn, never with the number of windows.
    """
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
