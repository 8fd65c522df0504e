"""Timing analysis of a hypothesized detector-to-source influence.

Suppose something leaves the slit the moment a gate window opens,
travels back down the fiber at speed v (possibly instantaneous), and
makes the source emit "informed" pairs for as long as the line of sight
stays open.  Those pairs still have to cover the fiber to reach the
slit.  :func:`influence_window_analysis` computes the informed photons'
arrival interval on the slits' clock, where it falls within every gate
window, and how much of it overlaps *any* periodic gate window; a pass
fraction of zero means no photon carrying information about the open
gate can ever be detected through it.  It is the one home of that
window: a plan cuts its pieces where the report places it.

With the reference bench the fiber transit alone (667 ns) outlasts the
467 ns window, so every speed from c upward -- including instantaneous
-- gives a zero pass fraction.  The loophole the closed form exposes is
a discrete family of much slower speeds whose round trip lands exactly
on a *later* window; :func:`resonant_influence_speeds` enumerates those
intervals.
"""

from __future__ import annotations

import math

from .apparatus import GateGeometry
from .record import Record

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
    # (start, end): informed arrivals fill [start, aperture) and [0, end)
    # of every gate window, s after it opens; (aperture, 0) for none.
    informed_cut: tuple[float, float]
    earliest_open_overlap: int | None              # gate-window index, or None
    pass_fraction: float                           # fraction of informed arrivals gated through
    isolation_margin: float                        # arrival start minus window-0 close, s


class SpeedInterval(Record):
    """Influence speeds whose informed arrivals overlap gate window k."""

    window_index: int
    low: float
    high: float     # math.inf when arbitrarily fast influences reach the window
    center: float


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
    photons then need fiber_length/photon_speed to come back, so they
    arrive for one aperture time from that offset.  Raises ``ValueError``
    unless float precision resolves that informed window to 1e-6 aperture
    times at its end; a slow influence or a long fiber makes the offset
    too long.  The offset is not reduced modulo the gate period, because
    the window index and the margin depend on it.  An arrival window one
    aperture long can overlap only the window k that opens last before it
    starts, from its start on, and window k + 1, up to its end; the cut
    says where, and the pass fraction is the part of it that does.  An
    overlap no longer than the offset's float resolution, as at a
    resonance interval's edge, is rounding and counts as none.
    """
    if not influence_speed > 0:
        raise ValueError("influence speed must be positive or instantaneous")
    if not photon_speed > 0:
        raise ValueError("photon speed must be positive")
    if fiber_length < 0:
        raise ValueError("fiber length must be non-negative")
    t_on, period = geometry.aperture_time, geometry.gate_period
    influence_arrival = 0.0 if math.isinf(influence_speed) else fiber_length / influence_speed
    offset = influence_arrival + fiber_length / photon_speed
    resolution = math.ulp(offset + t_on)  # infinite for an infinite offset
    if not resolution <= 1e-6 * t_on:
        raise ValueError(
            f"influence speed {influence_speed!r} m/s: the informed-to-detected offset "
            "(influence transit plus fiber delay) is too long for float precision to "
            "resolve its informed window; a slow influence or a long fiber causes this"
        )
    k, phase = divmod(offset, period)
    in_k, in_next = (  # overlaps with windows k, k + 1
        x if x > resolution else 0.0 for x in (t_on - phase, phase + t_on - period)
    )
    return CausalityReport(
        influence_speed=influence_speed,
        influence_arrival_at_source=influence_arrival,
        informed_emission_window=(influence_arrival, influence_arrival + t_on),
        informed_arrival_window_at_slit=(offset, offset + t_on),
        informed_cut=(phase if in_k else t_on, in_next),
        earliest_open_overlap=int(k) if in_k else int(k) + 1 if in_next else None,
        pass_fraction=(in_k + in_next) / t_on,
        isolation_margin=offset - t_on,
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
