"""Avalanche-photodiode detection and hardware coincidence matching: the
detectors, the marks of a stream and the matcher, but not the totals they
count (:class:`~bellgate.analysis.CountRecord`).

Each arm's detector keeps a photon with its quantum-efficiency
probability and adds an independent Poisson dark-count background.
Neither is drawn on its own: the plan gives each piece of a run its
stream law (:meth:`~bellgate.config.RunPlan.stream`), the run layer
draws each piece as a stream of constant intensity, and
:func:`detection_pattern` gives each entry its arm code
(:data:`ALICE`, :data:`BOTH` or :data:`BOB`) from that law.  Both
photons of a pair share one arrival time, so a run is one time-ordered
*tagged stream*, as a time tagger records it: entry times plus an
``int8`` arm code per entry, bit 1 for Alice and bit 2 for Bob.  A dark
count is an entry of one arm.  The coincidence matcher reproduces a
counting card on that stream: two detections closer than the window form
one coincidence, each detection used at most once, matched greedily in
time order.  It counts in numpy: it cuts the stream at every gap of a
window or more, counts an isolated entry as one coincidence when both
arms fired, and runs the greedy sweep only over the rare clusters of two
or more entries (see :func:`match_coincidences` for why that is exact).
The same cut lets the runner's one counter take a run in pieces that
need only come in time order: a gated run's slices of whole gate
periods (or of cells of one), or a mirror-stopped run's entries within
a window of a neighbour, the isolated rest split by the same law.  Dark
and accidental coincidences are not injected anywhere; they emerge from
the matcher like they do in hardware.

The module is in the run layer, which draws and counts with numpy; the
detectors as configured, :class:`~bellgate.apparatus.DetectorConfig`,
and their stream laws are in the plan layer.
"""

from __future__ import annotations

import numpy as np

#: Arm codes of a tagged stream entry: which detectors it fired.
ALICE = 1
BOB = 2
BOTH = ALICE | BOB


def detection_pattern(n: int, law, rng):
    """Arm codes of ``n`` entries of one stream of pairs and darks.

    By the marking theorem one uniform on [0, intensity) per entry picks
    its part of ``law`` (:meth:`~bellgate.apparatus.DetectorConfig.stream_law`).
    Returns an ``int8`` array of :data:`ALICE`, :data:`BOTH` or :data:`BOB`.
    """
    rate, alice_only, both = law
    u = rng.random(n)
    u *= rate  # in place: no second entry-sized array
    bob = u >= alice_only
    alice = u < both
    arms = bob.view(np.int8) * np.int8(BOB)
    arms |= alice.view(np.int8)
    return arms


def _greedy_sweep(a_list, b_list, window: float) -> int:
    """Two-pointer sweep over two sorted lists: the counting card itself."""
    n_a, n_b = len(a_list), len(b_list)
    i = j = matched = 0
    while i < n_a and j < n_b:
        dt = a_list[i] - b_list[j]
        if dt <= -window:
            i += 1
        elif dt >= window:
            j += 1
        else:
            matched += 1
            i += 1
            j += 1
    return matched


def match_coincidences(times, arms, window: float) -> int:
    """Count one-to-one coincidences with |t_alice - t_bob| < window on a
    tagged stream: sorted entry ``times`` and their ``arms`` codes.

    The count is exactly that of the greedy earliest-first sweep over
    the two arms' sorted detections, where each detection participates
    in at most one coincidence; an entry of code :data:`BOTH` gives one
    detection to each arm, and one of code 0 none.  Raises on an
    unsorted stream; a NaN between two timestamps counts as unsorted.

    The stream splits into clusters wherever two consecutive entries are
    at least a window apart.  Floating-point subtraction is monotonic,
    so for ``x <= p < q <= y`` the computed ``y - x`` is at least the
    computed ``q - p``: no pair across such a gap lies inside the window,
    the sweep steps past it without matching, and its count is the sum
    of its counts over the clusters.  An isolated entry counts 1 if both
    arms fired and 0 otherwise, which covers nearly every entry because
    both photons of a pair share one entry.  Only clusters of two or
    more entries go through the sweep, in one call over their
    concatenation, which is exact because whole clusters stay at least a
    window apart.
    """
    times = np.asarray(times, dtype=float)
    arms = np.asarray(arms)
    if times.shape != arms.shape:
        raise ValueError("times and arms must have the same shape")
    if times.size > 1 and not np.all(times[1:] >= times[:-1]):
        raise ValueError("timestamps are not sorted")
    # Link k joins entries k and k + 1.  Negated so that a NaN gap
    # (inf - inf) links, as the sweep would match the two entries.
    links = np.flatnonzero(~(np.diff(times) >= window))
    both = arms == BOTH
    # A mask, not np.union1d: that lazily imports numpy.ma on first use.
    chained = np.zeros(times.size, dtype=bool)
    chained[links] = chained[links + 1] = True
    alone = int(np.count_nonzero(both)) - int(np.count_nonzero(both[chained]))
    times, arms = times[chained], arms[chained]
    # Plain lists: much faster than ndarray scalar indexing.
    return alone + _greedy_sweep(
        times[(arms & ALICE) != 0].tolist(), times[(arms & BOB) != 0].tolist(), window
    )
