"""Avalanche-photodiode detection and hardware coincidence matching.

Each arm's detector keeps a photon with its quantum-efficiency
probability and adds an independent Poisson dark-count background.  The
runner draws the darks and the pairs that fire a detector as one stream;
:func:`detection_pattern` marks each entry a pair or a dark and gives it
its arm code (:data:`ALICE`, :data:`BOTH` or :data:`BOB`) from the dark
rates, the efficiencies and the polarizer pass probabilities
(:data:`~bellgate.sources.NO_POLARIZERS` in luminosity runs).  Both
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
The same cut lets the runner count a long run slice by slice.  Dark and
accidental coincidences are not injected anywhere; they emerge from the
matcher like they do in hardware.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

#: Arm codes of a tagged stream entry: which detectors it fired.
ALICE = 1
BOB = 2
BOTH = ALICE | BOB

#: Header of the count-record CSV (:func:`write_count_records`).
COUNT_RECORD_HEADER = ("label", "singles_alice_per_s", "singles_bob_per_s", "coincidences_per_s")


@dataclass(frozen=True)
class DetectorConfig:
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


@dataclass(frozen=True)
class CountRecord:
    """Singles and coincidence totals accumulated over ``duration`` seconds."""

    singles_alice: float
    singles_bob: float
    coincidences: float
    duration: float = 1.0

    def __post_init__(self):
        counts = (self.singles_alice, self.singles_bob, self.coincidences)
        if not all(0 <= n < math.inf for n in counts):
            raise ValueError("counts must be finite and non-negative")
        if not 0 < self.duration < math.inf:
            raise ValueError("duration must be positive and finite")
        if self.coincidences > min(self.singles_alice, self.singles_bob):
            raise ValueError("coincidences cannot exceed either singles count")

    @property
    def rates(self) -> tuple[float, float, float]:
        """(singles_alice, singles_bob, coincidences) per second."""
        return (
            self.singles_alice / self.duration,
            self.singles_bob / self.duration,
            self.coincidences / self.duration,
        )


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
    e_a, e_b = det.efficiency_alice, det.efficiency_bob
    d_a, d_b = det.dark_rate_alice, det.dark_rate_bob
    p_pp, p_pb, _ = joint
    rate = np.where(is_open, pair_rate, 0.0)  # the pairs' scale per entry
    u = rng.random(n) * (d_a + rate * drawn_at + d_b)
    bob = u >= d_a + rate * (e_a * (p_pb + p_pp * (1.0 - e_b)))
    bob &= u < d_a + rate * det.fire_probability(joint) + d_b
    arms = bob.view(np.int8) * np.int8(BOB)
    arms |= (u < d_a + rate * (e_a * (p_pp + p_pb))).view(np.int8)
    return arms


def thin_times(times, efficiency: float, rng) -> np.ndarray:
    """Keep each timestamp independently with the given probability."""
    times = np.asarray(times, dtype=float)
    if efficiency >= 1.0:
        return times
    return times[rng.random(times.size) < efficiency]


def dark_times(rate: float, duration: float, rng) -> np.ndarray:
    """Unsorted timestamps of a Poisson process on [0, duration): one arm's
    darks drawn on their own (the runner draws them in its stream)."""
    if rate <= 0 or duration <= 0:
        return np.empty(0, dtype=float)
    n = int(rng.poisson(rate * duration))
    return rng.random(n) * duration


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


def format_number(x: float) -> str:
    """The shortest digits that read back as exactly ``x``, with no exponent
    (whose ``-`` would split a ``count-accidental`` cell) and -0.0 as 0."""
    return np.format_float_positional(float(x) + 0.0, trim="-")


def write_count_records(rows, path) -> None:
    """Write labeled CountRecords as CSV rows of per-second rates, which
    :func:`read_count_records` reads back exactly.

    ``rows`` is an iterable of (label, CountRecord).
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COUNT_RECORD_HEADER)
        for label, record in rows:
            writer.writerow([label, *(format_number(r) for r in record.rates)])


def read_count_records(path) -> dict[str, CountRecord]:
    """Read the CSV written by :func:`write_count_records`; rates become
    counts over a 1 s duration."""
    records: dict[str, CountRecord] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != COUNT_RECORD_HEADER:
            raise ValueError(f"count-record CSV must start with header {COUNT_RECORD_HEADER}")
        for row in reader:
            if not row or not any(cell.strip() for cell in row):
                continue
            if len(row) != 4:
                raise ValueError(f"malformed count-record row: {row!r}")
            label = row[0].strip()
            try:
                sa, sb, c = (float(cell) for cell in row[1:])
            except ValueError as exc:
                raise ValueError(f"malformed count-record row: {row!r}") from exc
            records[label] = CountRecord(sa, sb, c, duration=1.0)
    return records
