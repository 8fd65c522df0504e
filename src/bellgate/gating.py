"""The rotating-mirror time gate.

Both arms run through equal-length fibers and bounce off the same
mirror, so the two photons of a pair reach their slits simultaneously,
one fiber delay after emission, and are transmitted or blocked as a
unit.  Runs are timed on the slits' clock, the counting card's: a time is
when a pair reaches its slits, so the fiber delay only places a
``traveling`` model's informed window.  The gate is a top-hat in time:
open for ``aperture_time`` at the start of every ``gate_period``.
:func:`sample_open_times` draws a Poisson process of constant intensity
on a run of whole windows of one such gate, the last cut where the run
ends, in time order.  The plan gives each piece of a run's gate period
and its stream law (:meth:`~bellgate.config.RunPlan.stream`), and the
run layer only draws and counts: a gated run draws each piece, a gate of
its own, through it, in slices of whole gate periods (or of cells of a
window where one period expects more draws than a slice holds).  With
the mirror stopped the one piece spans the period, and the runner counts
it by its close pairs.

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
    rate: float, first: int, count: int, gate: GateState, rng, end: float = math.inf
):
    """Sorted times of a Poisson process of intensity ``rate`` while the
    gate is open in its ``count`` windows from window ``first`` on, the
    last of them cut at ``end`` (the others close before it).

    Window k opens at ``k*gate_period + phase_offset``.  Open time is a
    coordinate s that grows by each window's aperture time, so each window
    but the last holds one aperture time of it and the last what it is
    open before ``end``.  One Poisson count over that measure and sorted
    uniforms on it, mapped back to time, give every time in order; memory
    grows with the number drawn, never with the number of windows.  A
    time in the last window may round onto ``end`` or past it.  A gate
    of zero aperture draws nothing.
    """
    period, width = gate.gate_period, gate.aperture_time
    last = (first + count - 1) * period + gate.phase_offset  # the last window's opening
    measure = (count - 1) * width + min(max(end - last, 0.0), width)
    s = rng.random(int(rng.poisson(rate * measure)))
    s.sort()
    s *= measure
    window = s / width
    np.floor(window, out=window)  # in place: fresh arrays cost page faults
    s -= window * width  # s within its window
    # The time (first + window)*period + phase_offset + s, in place.
    window += first
    window *= period
    window += gate.phase_offset
    window += s
    return window
