"""End-to-end simulated runs: emission -> polarizers -> fibers -> gate ->
detectors -> coincidence counting -> analysis.  It owns the sub-runs and
the counter; the plan they follow is :class:`~bellgate.config.RunPlan`,
and the counts belong to :mod:`bellgate.analysis`.

The module is in the run layer, which draws and counts with numpy: a
process that only reads configs, builds plans or reports gate timing
(the plan layer) never imports it.

A simulated experiment is two measurements, both always made:

* :func:`run_chsh` -- one counting run per polarizer setting of the 4x4
  grid, assembled into a :class:`~bellgate.analysis.CountTable16` with
  accidental estimates from the measured singles rates, then the CHSH
  statistic.
* :func:`run_degradation` -- polarizer-free luminosity runs (dark only,
  gate off, gate on) and the per-column with/without rotation ratios.

A counting run draws one Poisson stream of pairs and darks on the slits'
clock, the counting card's: a pair's time is when it reaches its slits,
and :attr:`~bellgate.config.RunPlan.gate` is the slits' gate, window 0
opening at 0.  The fiber delay only places a ``traveling`` model's
informed window, where the causality report
(:func:`~bellgate.causality.influence_window_analysis`) says, so the
times a run draws stay as fine as its length allows however long the
fiber.  The gate, the polarizer outcomes
and the detector efficiencies are independent marks of the emission
stream, so the pairs that fire a detector are a Poisson process on the
gate's open set (the marking theorem), and with each arm's darks they
add up to one Poisson process (superposition; Kingman, *Poisson
Processes*, 1993, ch. 2).  The plan gives each piece of a run's gate
period and the stream law constant on it
(:meth:`~bellgate.config.RunPlan.stream`); this module only draws and
counts, and the number of pieces picks the sampler.

Several pieces (the mirror rotating) are one stream whose intensity is
constant on each piece, and :func:`~bellgate.gating.sample_times` draws
it in chunks of operational time, each expecting at most
``_CHUNK_EVENTS`` draws, in time order and before the run's end,
whatever the gate period and however the run's end cuts it; each entry
is marked by :func:`~bellgate.detection.detection_pattern` under its
piece's law.  One piece spanning the period (the mirror stopped: the
dark and gate-off luminosity runs, and every run of a scan with
``rotation`` false) is a stream of constant intensity, and
:func:`_count_homogeneous` places only the entries within a window of a
neighbour before the run's end, which are all that the matcher can
pair, and counts the isolated rest by one multinomial over the same
law.

Either way one counter, :func:`_count`, counts the tagged stream piece by
piece, in time order, as a time tagger records it: a gated run hands it
one piece per chunk, a mirror-stopped run its placed entries one block
of steps at a time.  The tail carried from the piece before joins by
concatenation, and the entries up to the last gap of a window or more
are matched, so memory stays bounded however long the run.

Every sub-run draws from its own generator seeded by a stable hash of
the master seed and the sub-run's identity (the angle pair, or the
degradation label), never by position, so results are independent of
setting order and reproducible cell by cell.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .analysis import (
    ALICE_ANGLES,
    BOB_ANGLES,
    ChshResult,
    CountRecord,
    CountTable16,
    DegradationResult,
    chsh_S,
    degradation_ratio,
)
from .config import RunPlan
from .detection import ALICE, BOB, detection_pattern, match_coincidences
from .gating import gate_open, sample_times

# perfbench/trace_child.py wraps these six names on this module and never
# calls them; the line goes when ROADMAP item E drops those lookups.  Only
# that tracer reads the one gate_open pass of each gated chunk, and it
# counts the Poisson draws made inside run_setting: ROADMAP E removes both.
joint_outcomes = thin_times = dark_times = gate_geometry = validate_config = accidental_rate = None

DEGRADATION_LABELS = ("dark", "no_rotation", "with_rotation")

# The most steps (see _count_homogeneous) that a mirror-stopped run draws
# per block, which bounds its memory.  Fixed (not configurable) so a
# given plan always consumes the same random stream.
_BLOCK_STEPS = 1 << 11


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 63-bit stream seed keyed by the master seed and identity parts."""
    text = "|".join([str(int(master_seed))] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def run_setting(
    plan: RunPlan,
    alice_angle: float | None,
    bob_angle: float | None,
    rng,
    rotation: bool | None = None,
    source: bool = True,
) -> CountRecord:
    """One counting run at a fixed polarizer setting.

    Both angles None remove the polarizers from the path (luminosity
    and calibration runs): every photon pair continues to the gate.
    ``source=False`` turns the source off, leaving the darks alone.  One
    piece of :meth:`~bellgate.config.RunPlan.stream` is counted by its
    close pairs; several are drawn chunk by chunk
    (:func:`~bellgate.gating.sample_times`), each entry marked under the
    law of the piece it lies in.
    """
    pieces = plan.stream(alice_angle, bob_angle, rotation, source)
    window, duration = plan.detector.coincidence_window, plan.integration_time
    if len(pieces) == 1:
        return _count_homogeneous(pieces[0][1], window, duration, rng)
    laws = np.array([law for _, law in pieces]).T

    def marked(chunk):
        times, piece = chunk
        gate_open(times, plan.gate)  # read only by the tracer, see above
        return times, detection_pattern(times.size, laws.take(piece, axis=1), rng)

    return _count(map(marked, sample_times(pieces, duration, rng)), window, duration)


def _count_homogeneous(law, window, duration, rng) -> CountRecord:
    """Count a mirror-stopped run of ``duration`` seconds by its close pairs.

    With the mirror stopped, pairs and darks are one Poisson stream of
    constant intensity, the first of ``law``, and each entry's arm code is
    an independent mark (the marking theorem).  Its gaps are independent
    Exp(rate), each shorter than the window with probability
    p = 1 - exp(-rate*window).  An entry whose
    gaps on both sides are a window or longer never changes the greedy
    count (see :func:`~bellgate.detection.match_coincidences`), so only
    the entries next to a short gap are placed.  The run is drawn as
    steps from time 0, each m long gaps and then one short gap: m is
    geometric, the floor of Exp(1)/(rate*window); the long gaps, each a
    window plus Exp(rate) by memorylessness, add up to
    m*window + Gamma(m)/rate; the short gap is Exp(rate) truncated to
    [0, window).  A step places the entry that ends its short gap and,
    if m > 0, the one that starts it, after m - 1 isolated entries.

    The run ends inside one step, in its long run or in the short gap
    after it, and every entry of that long run before the end is
    isolated: its one close neighbour, if any, lies past the end.  So a
    run places only its whole steps' entries, and :func:`_entries_before`
    counts the rest.

    Steps are drawn in blocks of as many as the rest of the run expects,
    and one more, at most ``_BLOCK_STEPS``: block edges only group
    independent steps, so they change no law.  Each block's placed
    entries, marked by :func:`~bellgate.detection.detection_pattern`, go
    to :func:`_count` as one piece.  The next block starts at the entry
    that ends this one's last step, so the pieces come in time order and
    the counter holds about a block however long the run.  The isolated
    entries are counted afterwards by one multinomial over the same parts.
    """
    rate, *ends = law
    if rate == 0:
        return CountRecord(0, 0, 0, duration)
    short_p = -math.expm1(-rate * window)
    isolated = 0

    def placed():
        nonlocal isolated
        # Below 1e-100 entries per window, a run holds a close pair with
        # probability under 1e-90 and its long runs overflow float: every
        # entry is isolated.
        if short_p < 1e-100:
            isolated = int(rng.poisson(rate * duration))
            return
        last = 0.0  # the entry that ends the last step drawn
        while last < duration:
            # The steps the rest of the run expects, and one more for its end.
            n = min(_BLOCK_STEPS, math.ceil(rate * (duration - last) * short_p) + 1)
            longs = np.floor(rng.standard_exponential(n) / (rate * window))
            excess = rng.standard_gamma(longs)
            shorts = -np.log1p(-short_p * rng.random(n)) / rate
            # One sequential sum over each step's long run and short gap gives
            # the entries that start and end its short gap, in time order.
            steps = np.column_stack([longs * window + excess / rate, shorts]).ravel()
            points = np.cumsum(np.concatenate([[last], steps]))[1:].reshape(n, 2)
            full = int(np.searchsorted(points[:, 1], duration))  # steps ending before the end
            keep = np.column_stack([longs[:full] > 0, np.ones(full, dtype=bool)])
            isolated += int(np.maximum(longs[:full] - 1.0, 0.0).sum())
            if full < n:
                # The run ends in step ``full``: its long run's entries before
                # the end are isolated, all of them if it ends in the short gap.
                room = duration - (points[full - 1, 1] if full else last)
                isolated += _entries_before(room, int(longs[full]), excess[full], rate, window, rng)
            last = float(points[-1, 1])
            times = points[:full][keep]
            yield times, detection_pattern(times.size, law, rng)

    record = _count(placed(), window, duration)
    part_alice, part_both, part_bob = rng.multinomial(isolated, np.diff([0, *ends, rate]) / rate)
    return CountRecord(
        record.singles_alice + int(part_alice + part_both),
        record.singles_bob + int(part_both + part_bob),
        record.coincidences + int(part_both),
        duration,
    )


def _entries_before(
    room: float, count: int, excess: float, rate: float, window: float, rng
) -> int:
    """How many of the ``count`` entries that long gaps put after an entry
    lie less than ``room`` after it.

    Entry i lies i*window + excess*B_i/rate after the first, where
    ``excess`` is the gaps' Gamma(count) total excess over the window and
    B_i the share of it that the first i gaps hold.  If the last lies
    before ``room``, all of them do.  Otherwise, between B_lo and B_hi,
    B_mid is B_lo + (B_hi - B_lo)*Beta(mid - lo, hi - mid) (the Dirichlet
    bridge), so bisection finds the count with O(log count) Beta draws.
    """
    if count * window + excess / rate < room:
        return count
    lo, hi, share_lo, share_hi = 0, count, 0.0, 1.0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        share = share_lo + (share_hi - share_lo) * rng.beta(mid - lo, hi - mid)
        if mid * window + excess * share / rate < room:
            lo, share_lo = mid, share
        else:
            hi, share_hi = mid, share
    return lo


def _count(pieces, window: float, duration: float) -> CountRecord:
    """Count one run of ``duration`` seconds piece by piece, like a counting card.

    ``pieces`` yields tagged streams ``(times, arms)`` in time order: no
    entry is earlier than an entry of an earlier piece.  The tail carried
    from the piece before, if any, joins by concatenation; singles are
    counted from the arm codes.  The greedy count splits at every gap of a
    window or more (see :func:`~bellgate.detection.match_coincidences`),
    so the entries up to the last such gap are matched now and a copy of
    the rest is carried: between pieces only that tail stays alive.  The
    last tail is matched when the pieces run out.  A piece
    out of time order raises: at least its last entry is carried, so the
    bad junction reaches a match.
    """
    tail_times, tail_arms = np.empty(0), np.empty(0, dtype=np.int8)
    singles_alice = singles_bob = coincidences = 0
    for times, arms in pieces:
        singles_alice += int(np.count_nonzero(arms & ALICE))
        singles_bob += int(np.count_nonzero(arms & BOB))
        if tail_times.size:
            times = np.concatenate([tail_times, times])
            arms = np.concatenate([tail_arms, arms])
        long_gaps = np.diff(times) >= window
        # One past the last gap of a window or more; 0 if there is none.
        i = long_gaps.size - int(long_gaps[::-1].argmax()) if long_gaps.any() else 0
        coincidences += match_coincidences(times[:i], arms[:i], window)
        tail_times, tail_arms = times[i:].copy(), arms[i:].copy()
        del times, arms, long_gaps  # hold only the tail while the next piece is drawn
    coincidences += match_coincidences(tail_times, tail_arms, window)
    return CountRecord(singles_alice, singles_bob, coincidences, duration)


def run_chsh(plan: RunPlan) -> tuple[CountTable16, ChshResult]:
    """Counting run per setting of the 4x4 grid, assembled into a table
    plus CHSH result.

    Accidental estimates come from each cell's own singles rates
    (:meth:`~bellgate.config.RunPlan.accidentals`).
    """
    counts = np.zeros((4, 4))
    accidentals = np.zeros((4, 4))
    for i, alice_angle in enumerate(ALICE_ANGLES):
        for j, bob_angle in enumerate(BOB_ANGLES):
            rng = np.random.default_rng(
                derive_seed(plan.seed, "chsh", float(alice_angle), float(bob_angle))
            )
            record = run_setting(plan, alice_angle, bob_angle, rng)
            singles_alice, singles_bob, _ = record.rates
            counts[i, j] = record.coincidences
            accidentals[i, j] = plan.accidentals(singles_alice, singles_bob)
    table = CountTable16(counts=counts, accidentals=accidentals)
    return table, chsh_S(table)


def run_degradation(plan: RunPlan) -> tuple[list[CountRecord], DegradationResult]:
    """Polarizer-free luminosity runs: dark only, gate off, gate on.

    Each is a :func:`run_setting` with both angles None; only the gate
    on run has the mirror rotating, and the dark run has the source off.
    Returns the three records in :data:`DEGRADATION_LABELS` order plus
    the dark-subtracted with/without rotation ratios.
    """
    records = []
    for label in DEGRADATION_LABELS:
        rng = np.random.default_rng(derive_seed(plan.seed, "degradation", label))
        records.append(
            run_setting(plan, None, None, rng, label == "with_rotation", source=label != "dark")
        )
    ratios = degradation_ratio(records[2], records[1], records[0])
    return records, ratios
