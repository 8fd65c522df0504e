"""Timing analysis of a hypothesized detector-to-source influence.

Suppose something leaves the slit the moment a gate window opens,
travels back down the fiber at speed v (possibly instantaneous), and
makes the source emit "informed" pairs for as long as the line of sight
stays open.  Those pairs still have to cover the fiber to reach the
slit.  :func:`informed_slit_gate` gives the periodic pattern of informed
pairs on the time axis of the gate it is given, the one the runner
flags simulated pairs with.
:func:`influence_window_analysis` computes the informed photons'
arrival interval and how much of it overlaps *any* periodic gate
window; a pass fraction of zero means no photon carrying information
about the open gate can ever be detected through it.  Both take the
influence transit from one place.

With the reference bench the fiber transit alone (667 ns) outlasts the
467 ns window, so every speed from c upward -- including instantaneous
-- gives a zero pass fraction.  The loophole the closed form exposes is
a discrete family of much slower speeds whose round trip lands exactly
on a *later* window; :func:`resonant_influence_speeds` enumerates those
intervals.
"""

from __future__ import annotations

import math

from .apparatus import GateGeometry, GateState
from .record import Record, replace

# The most later windows a resonance sweep may examine: the reference
# bench's 10 000th window is 0.29 s out, where a resonant influence
# crawls at under 700 m/s.  Fixed, not an option, so the sweep's time,
# memory and output stay bounded.
MAX_SWEEP_WINDOWS = 10_000


class CausalityReport(Record):
    """Windows, overlap and margin for one hypothesized influence speed."""

    influence_speed: float                         # m/s; math.inf = instantaneous
    influence_arrival_at_source: float             # s after the gate opens
    informed_emission_window: tuple[float, float]  # s
    informed_arrival_window_at_slit: tuple[float, float]  # s
    earliest_open_overlap: int | None              # gate-window index, or None
    pass_fraction: float                           # fraction of informed arrivals gated through
    isolation_margin: float                        # arrival start minus window-0 close, s


class SpeedInterval(Record):
    """Influence speeds whose informed arrivals overlap gate window k."""

    window_index: int
    low: float
    high: float     # math.inf when arbitrarily fast influences reach the window
    center: float


def _windowed_overlap(start: float, end: float, period: float, open_time: float):
    """Overlap of [start, end] with the union of [k*period, k*period+open_time),
    k >= 0.  Returns (total overlap, earliest overlapping k or None)."""
    total = 0.0
    earliest = None
    k_lo = max(0, int(math.floor(start / period)) - 1)
    k_hi = int(math.floor(end / period)) + 1
    for k in range(k_lo, k_hi + 1):
        lo = k * period
        overlap = min(end, lo + open_time) - max(start, lo)
        if overlap > 0:
            total += overlap
            if earliest is None:
                earliest = k
    return total, earliest


def _influence_transit(fiber_length: float, influence_speed: float) -> float:
    """Time the influence takes from the slit back to the source."""
    return 0.0 if math.isinf(influence_speed) else fiber_length / influence_speed


def check_resolvable(time: float, aperture_time: float, influence_speed: float) -> None:
    """Raise ``ValueError`` unless float precision resolves to 1e-6 aperture
    times an informed window at ``time``, influence transit plus fiber delay."""
    if not math.isfinite(time) or math.ulp(time) > 1e-6 * aperture_time:
        raise ValueError(
            f"influence speed {influence_speed!r} m/s: the informed-to-detected offset "
            "(influence transit plus fiber delay) is too long for float precision to "
            "resolve its informed window; a slow influence or a long fiber causes this"
        )


def informed_slit_gate(
    gate: GateState, fiber_length: float, influence_speed: float, fiber_delay: float
) -> GateState:
    """The informed pairs on ``gate``'s own time axis: ``gate_open(t, result)``.

    ``gate`` passes a pair labelled ``t`` iff the slit is open one
    ``fiber_delay`` after its emission, whatever origin the labels have
    (the runner labels a pair by its emission time).  The pair is
    informed iff the slit was in view one influence transit before its
    emission, so one transit plus one ``fiber_delay`` before the time
    ``gate`` tests: the informed pattern is ``gate`` delayed by both,
    its phase taken modulo the gate period once it is resolved.
    """
    delayed = gate.phase_offset + _influence_transit(fiber_length, influence_speed) + fiber_delay
    check_resolvable(delayed, gate.aperture_time, influence_speed)
    return replace(gate, phase_offset=delayed % gate.gate_period)


def influence_window_analysis(
    geometry: GateGeometry,
    fiber_length: float,
    influence_speed: float,
    photon_speed: float,
) -> CausalityReport:
    """Closed-form pass fraction for one influence speed.

    The influence departs the slit when window 0 opens (t = 0), reaches
    the source after fiber_length/influence_speed, and informs emissions
    only while the slit stays in view (one aperture time).  Informed
    photons then need fiber_length/photon_speed to come back.  The pass
    fraction is the part of their arrival interval that lands inside any
    open window.  The arrival at the source is the transit of
    :func:`informed_slit_gate`, not reduced modulo the gate period,
    because the window index and the margin depend on it.  A speed too
    slow for the arrival window to be resolved is refused
    (:func:`check_resolvable`).
    """
    if not influence_speed > 0:
        raise ValueError("influence speed must be positive or instantaneous")
    if not photon_speed > 0:
        raise ValueError("photon speed must be positive")
    if fiber_length < 0:
        raise ValueError("fiber length must be non-negative")
    t_on = geometry.aperture_time
    influence_arrival = _influence_transit(fiber_length, influence_speed)
    emission = (influence_arrival, influence_arrival + t_on)
    photon_transit = fiber_length / photon_speed
    arrival = (emission[0] + photon_transit, emission[1] + photon_transit)
    check_resolvable(arrival[1], t_on, influence_speed)
    overlap, earliest = _windowed_overlap(
        arrival[0], arrival[1], geometry.gate_period, t_on
    )
    return CausalityReport(
        influence_speed=influence_speed,
        influence_arrival_at_source=influence_arrival,
        informed_emission_window=emission,
        informed_arrival_window_at_slit=arrival,
        earliest_open_overlap=earliest,
        pass_fraction=overlap / (arrival[1] - arrival[0]),
        isolation_margin=arrival[0] - t_on,
    )


def resonant_influence_speeds(
    geometry: GateGeometry,
    fiber_length: float,
    photon_speed: float,
    max_windows: int,
) -> list[SpeedInterval]:
    """All influence speeds that sneak informed photons through a later window.

    The arrival interval overlaps window k iff the total transit
    fiber_length/v + fiber_length/photon_speed falls within one aperture
    time of k*gate_period (the tolerance is the arrival-interval width
    plus the window width, i.e. 2 aperture times, centred on the period
    multiple).  Solving for v gives one speed interval per reachable k.
    """
    if not 1 <= max_windows <= MAX_SWEEP_WINDOWS:
        raise ValueError(
            f"max_windows must lie in [1, {MAX_SWEEP_WINDOWS}], got {max_windows}"
        )
    if fiber_length <= 0:
        return []
    t_on = geometry.aperture_time
    period = geometry.gate_period
    photon_transit = fiber_length / photon_speed
    intervals: list[SpeedInterval] = []
    for k in range(1, max_windows + 1):
        slow_gap = k * period + t_on - photon_transit  # longest useful influence transit
        fast_gap = k * period - t_on - photon_transit  # shortest useful influence transit
        if slow_gap <= 0:
            # Even an instantaneous influence returns after window k closes.
            continue
        low = fiber_length / slow_gap
        high = math.inf if fast_gap <= 0 else fiber_length / fast_gap
        center_gap = k * period - photon_transit
        center = math.inf if center_gap <= 0 else fiber_length / center_gap
        intervals.append(SpeedInterval(window_index=k, low=low, high=high, center=center))
    return intervals
