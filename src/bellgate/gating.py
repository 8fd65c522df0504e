"""The rotating-mirror time gate.

Both arms run through equal-length fibers and bounce off the same
mirror, so the two photons of a pair reach their slits simultaneously,
one fiber delay after emission, and are transmitted or blocked as a
unit.  Runs are timed on the slits' clock, the counting card's: a time is
when a pair reaches its slits, so the fiber delay only places a
``traveling`` model's informed window.  The gate is a top-hat in time:
open for ``aperture_time`` at the start of every ``gate_period``.  :func:`sample_open_times` draws a
Poisson process of constant intensity on one such gate's windows, in
time order.  The plan gives each piece of a run's gate period and its
stream law (:meth:`~bellgate.config.RunPlan.stream`), and the run layer
only draws and counts: a gated run draws each piece, a gate of its own,
through it.  With the mirror stopped the one piece spans the period, and
the runner counts it by its close pairs.

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


def sample_open_times(rate: float, t0: float, t1: float, gate: GateState, rng):
    """Sorted times on [t0, t1) of a Poisson process of intensity ``rate``
    while the gate is open.

    Open time is a coordinate s that grows by each window's aperture
    time.  One Poisson count over the measure of s on the interval and
    uniforms on it, mapped back to time, give every time, sorted in place
    and clipped to [t0, t1) against rounding; memory grows with the
    number drawn, never with the number of windows.  A gate of zero
    aperture draws nothing.
    """
    period, width = gate.gate_period, gate.aperture_time
    # Window k opens at phase_offset + k*period; s counts from the
    # opening of window ``first``, and [t0, t1) covers s in [s0, s1).
    first = math.floor((t0 - gate.phase_offset) / period)
    last = math.ceil((t1 - gate.phase_offset) / period) - 1
    start, last_start = (gate.phase_offset + k * period for k in (first, last))
    s0, s1 = (min(max(x, 0.0), width) for x in (t0 - start, t1 - last_start))
    measure = max((last - first) * width + s1 - s0, 0.0)
    s = s0 + rng.random(int(rng.poisson(rate * measure))) * measure
    window = s / width
    np.floor(window, out=window)  # in place: fresh arrays cost page faults
    s -= window * width  # s within its window
    times = start + window * period + s
    times.sort()
    if times.size and not t0 <= times[0] <= times[-1] < t1:
        np.clip(times, t0, np.nextafter(t1, t0), out=times)
    return times
