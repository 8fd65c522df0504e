"""The rotating-mirror time gate.

Both arms run through equal-length fibers and bounce off the same
mirror, so the two photons of a pair reach their slits simultaneously,
one fiber delay after emission, and are transmitted or blocked as a
unit.  Runs are timed on the slits' clock, the counting card's: a time is
when a pair reaches its slits, so the fiber delay only places a
``traveling`` model's informed window.  The gate is a top-hat in time:
open for ``aperture_time`` at the start of every ``gate_period``.  The
plan gives each piece of a run's gate period and its stream law
(:meth:`~bellgate.config.RunPlan.stream`), and the run layer only draws
and counts.  A gated run's stream has an intensity constant on each
piece, and :func:`sample_times` draws it by one rule, in operational
time (the expected number of draws so far): chunks that expect at most
``_CHUNK_EVENTS`` draws, each one Poisson count of sorted uniforms
mapped back to time, in time order, with nothing at or after the run's
end.  With the mirror stopped the one piece spans the period, and the
runner counts it by its close pairs.

The module is in the run layer, which draws with numpy; the gate itself,
:class:`~bellgate.apparatus.GateState`, is a plan-layer record.
"""

from __future__ import annotations

import math

import numpy as np

from .apparatus import GateState

# A gated run is drawn in chunks of operational time that each expect at
# most this many draws (firing pairs and dark counts), whatever the gate
# period, so memory stays bounded and the arrays stay cache-sized.  Fixed
# (not configurable) so a given plan always consumes the same random stream.
_CHUNK_EVENTS = 1 << 16


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


def sample_times(pieces, duration: float, rng):
    """The stream of a gated run of ``duration`` seconds, chunk by chunk
    in time order: each chunk is ``(times, piece)``, sorted times before
    ``duration`` and the index in ``pieces`` of the piece each lies in.

    ``pieces`` are ``(GateState, law)`` pairs tiling the gate period from
    0 in order (:meth:`~bellgate.config.RunPlan.stream`); the stream's
    intensity on a piece is the first entry of its law.  Operational time
    u = Lambda(t), the expected number of draws before t, grows by each
    piece's rate times its width every period, Lambda_P in all, and the
    run ends at Lambda(T): its whole periods and each piece's open time
    in the last.  A unit-rate Poisson stream on [0, Lambda(T)), mapped
    back through the inverse of Lambda, is the run's stream, in time
    order (the time-change theorem; Kingman, *Poisson Processes*, 1993,
    section 2.3).  [0, Lambda(T)) is cut into chunks that expect at most
    ``_CHUNK_EVENTS`` draws, and each chunk draws one Poisson count and
    sorted uniforms on its share.  A u lies in period u div Lambda_P; the
    share of that period's draws before it picks its piece (a piece of
    no draws never) and its place there: the piece's start plus its
    offset over the piece's rate, capped where the next piece starts.
    Every step of the map is monotone in floats, so the times keep the
    order of the uniforms however they round, within and across chunks;
    the few that round onto or past the end are dropped (the stream
    restricted to [0, T) is the run's).  Memory grows with the draws of
    one chunk, never with the run.
    """
    period = pieces[0][0].gate_period
    whole = math.floor(duration / period)
    rest = duration - whole * period  # the run's time in its last period
    table, per_period, total = [], 0.0, 0.0
    for gate, (rate, *_) in pieces:
        table.append((per_period, rate, gate.phase_offset))
        per_period += rate * gate.aperture_time
        total += rate * min(max(rest - gate.phase_offset, 0.0), gate.aperture_time)
    total += whole * per_period  # Lambda(T)
    if not total:
        return
    # Per piece: the share of a period's draws before it, its shares per
    # period, and where it starts and stops (where the next starts), in
    # periods.  Stops are starts, bit for bit, so pieces keep their order.
    first, pace, start = np.array(table).T / [[per_period], [per_period / period], [period]]
    stop = np.append(start[1:], 1.0)
    for lo in range(0, math.ceil(total), _CHUNK_EVENTS):
        size = min(_CHUNK_EVENTS, total - lo)
        u = rng.random(int(rng.poisson(size)))
        u.sort()
        u *= size  # in place: fresh arrays cost page faults
        u += lo  # at most lo + size, the next chunk's least u
        u /= per_period
        k = np.floor(u)  # the period
        u -= k  # the share of its period's draws before u, exactly
        piece = np.zeros(u.size, dtype=np.intp)
        for end in first[1:]:
            piece += u >= end  # a piece without draws ends where it starts: passed over
        u -= first.take(piece)
        u /= pace.take(piece)
        u += start.take(piece)
        np.minimum(u, stop.take(piece), out=u)  # the place in the period, in periods
        u += k
        u *= period
        del k  # before the chunk is marked
        n = u.searchsorted(duration)
        piece = piece[:n].astype(np.int8)  # an eighth of the memory while marked
        yield u[:n], piece
