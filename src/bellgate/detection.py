"""Avalanche-photodiode detection and hardware coincidence matching: the
detectors, the marks of a stream and the matcher, but not the totals they
count (:class:`~bellgate.analysis.CountRecord`).

Each arm's detector keeps a photon with its quantum-efficiency
probability and adds an independent Poisson dark-count background.
Neither is drawn on its own: the runner draws the darks and the pairs
that fire a detector as one stream; :func:`detection_pattern` marks each
entry a pair or a dark and gives it its arm code (:data:`ALICE`,
:data:`BOTH` or :data:`BOB`) from the dark rates, the efficiencies and
the polarizer pass probabilities (:data:`~bellgate.sources.NO_POLARIZERS`
in luminosity runs).  Both photons of a pair share one arrival time, so
a run is one time-ordered *tagged stream*, as a time tagger records it:
entry times plus an ``int8`` arm code per entry, bit 1 for Alice and bit
2 for Bob.  A dark count is an entry of one arm.  The coincidence matcher reproduces a
counting card on that stream: two detections closer than the window form
one coincidence, each detection used at most once, matched greedily in
time order.  It counts in numpy: it cuts the stream at every gap of a
window or more, counts an isolated entry as one coincidence when both
arms fired, and runs the greedy sweep only over the rare clusters of two
or more entries (see :func:`match_coincidences` for why that is exact).
The same cut lets the runner's one counter take a run in pieces that
need only come in time order: a gated run's time slices, or a
mirror-stopped run's entries within a window of a neighbour, the
isolated rest split by :func:`pattern_bounds`.  Dark and accidental
coincidences are not injected anywhere; they emerge from the matcher
like they do in hardware.
"""

from __future__ import annotations

import math

import numpy as np

from .record import Record

#: Arm codes of a tagged stream entry: which detectors it fired.
ALICE = 1
BOB = 2
BOTH = ALICE | BOB


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
        block-pass), scalars or per-pair arrays;
        :data:`~bellgate.sources.NO_POLARIZERS` when the polarizers are out.
        """
        p_pp, p_pb, p_bp = joint
        keep_both = 1.0 - (1.0 - self.efficiency_alice) * (1.0 - self.efficiency_bob)
        return p_pp * keep_both + self.efficiency_alice * p_pb + self.efficiency_bob * p_bp


def detection_pattern(
    n: int, det: DetectorConfig, rng, joint, drawn_at: float, pair_rate: float, is_open
):
    """Arm codes of ``n`` entries of one stream of pairs and darks.

    The stream's intensity is the sum of its parts': pairs at
    ``pair_rate * drawn_at`` (in the dark rates' unit; with no darks the
    scale cancels) where ``is_open``, a scalar or a per-entry mask, holds,
    and each arm's darks.  By the marking theorem one uniform on
    [0, intensity) per entry picks its part from intervals laid end to
    end: Alice's darks, pairs that fire Alice only, both or Bob only,
    Bob's darks, then pairs that fire nothing; a closed-set entry is a
    dark.  A pair passes the polarizers with the probabilities in
    ``joint`` (scalars or per-pair arrays, see
    :meth:`DetectorConfig.fire_probability`) and each arm keeps its
    photon independently, so alice only, both and bob only have
    probabilities e_a(p_pb + p_pp(1-e_b)), e_a*e_b*p_pp and
    e_b(p_bp + p_pp(1-e_a)), which sum to the pair's own firing
    probability q; pairs drawn at a larger ``drawn_at`` (several models
    drawn at the largest q) fire nothing past q.  With ``drawn_at`` equal
    to q every entry fires: ``random() <= 1 - 2**-53`` keeps the rounded
    product below the intensity.  Returns an ``int8`` array of
    :data:`ALICE`, :data:`BOTH`, :data:`BOB`, or 0 for an entry that
    fires nothing, which the counts skip.
    """
    rate = np.where(is_open, pair_rate, 0.0)  # the pairs' scale per entry
    bounds = pattern_bounds(det, joint, rate, drawn_at)
    u = rng.random(n) * next(bounds)
    bob = u >= next(bounds)
    alice = u < next(bounds)
    bob &= u < next(bounds)
    arms = bob.view(np.int8) * np.int8(BOB)
    arms |= alice.view(np.int8)
    return arms


def pattern_bounds(det: DetectorConfig, joint, pair_rate, drawn_at):
    """The intensity of a stream of pairs and darks, then the upper ends of
    its parts that fire Alice only, both and Bob only, laid end to end as
    :func:`detection_pattern` lays them; the rest fires nothing.

    Alice only holds her darks and the pairs that fire her alone, Bob
    only the pairs that fire him alone and his darks.  Yielded one at a
    time, so per-entry bounds are made only when used: fresh arrays cost
    page faults.
    """
    e_a, e_b = det.efficiency_alice, det.efficiency_bob
    d_a, d_b = det.dark_rate_alice, det.dark_rate_bob
    p_pp, p_pb, _ = joint
    yield d_a + pair_rate * drawn_at + d_b
    yield d_a + pair_rate * (e_a * (p_pb + p_pp * (1.0 - e_b)))
    yield d_a + pair_rate * (e_a * (p_pp + p_pb))
    yield d_a + pair_rate * det.fire_probability(joint) + d_b


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
