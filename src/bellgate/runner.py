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

A counting run draws one Poisson stream of pairs and darks, in emission
time: a pair reaches its slits one fiber delay after it is emitted, so
:attr:`~bellgate.config.RunPlan.gate` is the slits' gate moved back by
that delay, once per plan, and the times a run draws stay as fine as its
length allows however long the fiber.  The gate, the polarizer outcomes
and the detector efficiencies are independent marks of the emission
stream, so the pairs that fire a detector are a Poisson process of rate
``pair_rate * q`` on the gate's open set (the marking theorem), ``q``
from :meth:`~bellgate.apparatus.DetectorConfig.fire_probability`; with
each arm's darks they add up to one Poisson process (superposition).
:func:`~bellgate.detection.detection_pattern` marks each entry a pair or
a dark and picks the detectors it fires.

With the mirror rotating, :func:`~bellgate.gating.sample_open_times`
draws the stream sorted, one time slice at a time,
:func:`~bellgate.gating.gate_open` being the one test of an open slit.
Gated ``TravelingInfluence`` pairs are drawn at the larger ``q`` of its
two models, each taking its pattern from the model its informed flag
selects: ``gate_open`` of its emission time against
:attr:`~bellgate.config.RunPlan.informed_gate`, derived once per plan.

With the mirror stopped (the dark and gate-off luminosity runs, and every
run of a scan with ``rotation`` false) the stream's intensity is
constant, and :func:`_count_homogeneous` places only the entries within a
window of a neighbour, which are all that the matcher can pair, and
counts the isolated rest by one multinomial over the same marks.  The
dark-only run is the same count with the source off.

Either way one counter, :func:`_count`, counts the tagged stream piece by
piece, in time order, as a time tagger records it: a gated run hands it
one piece per time slice, a mirror-stopped run its placed entries a few
steps at a time.  The tail carried from the piece before joins by
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
    accidental_rate,
    chsh_S,
    degradation_ratio,
)
from .config import RunPlan
from .detection import ALICE, BOB, detection_pattern, match_coincidences, pattern_bounds
from .gating import gate_open, sample_open_times
from .sources import NO_POLARIZERS, TravelingInfluence, joint_probabilities

# perfbench/trace_child.py wraps these five names on this module and never
# calls them; the line goes when ROADMAP item E drops those lookups.
joint_outcomes = thin_times = dark_times = gate_geometry = validate_config = None

DEGRADATION_LABELS = ("dark", "no_rotation", "with_rotation")

# Runs are drawn and counted in time slices of roughly this many expected
# draws (firing pairs and dark counts), so memory stays bounded and the
# arrays stay cache-sized.  Fixed (not configurable) so a given plan
# always consumes the same random stream.
_CHUNK_EVENTS = 1 << 16
# Steps (see _count_homogeneous) that a mirror-stopped run draws per
# block.  Fixed, like the slice size.
_BLOCK_STEPS = 1 << 11


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 63-bit stream seed keyed by the master seed and identity parts."""
    text = "|".join([str(int(master_seed))] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _time_slices(duration: float, event_rate: float):
    """Yield (t0, t1) slices of [0, duration) holding about
    ``_CHUNK_EVENTS`` draws each at ``event_rate`` (one slice if it is
    0); edges are made one at a time, so a huge slice count costs no
    memory.  A run that :data:`~bellgate.config.MAX_RUN_EVENTS` admits has at most about
    1.5e5 slices, far too few for ``duration * i / n`` to collapse."""
    span = _CHUNK_EVENTS / event_rate if event_rate > 0 else duration
    n_slices = max(1, math.ceil(duration / span))
    for i in range(n_slices):
        yield duration * i / n_slices, duration * (i + 1) / n_slices


def run_setting(
    plan: RunPlan,
    alice_angle: float,
    bob_angle: float,
    rng,
    rotation: bool | None = None,
    polarized: bool = True,
    source: bool = True,
) -> CountRecord:
    """One counting run at a fixed polarizer setting.

    ``polarized=False`` removes the polarizers from the path (luminosity
    and calibration runs): every photon pair continues to the gate.
    ``source=False`` turns the source off, leaving the darks alone.
    """
    det = plan.detector
    if rotation is None:
        rotation = plan.rotation

    # One polarizer group per model a drawn pair may follow.  With the
    # mirror stopped the line of sight is permanent: every emission is
    # informed and a traveling model is its base model.
    joints = [NO_POLARIZERS]
    if polarized:
        models = [plan.model]
        if isinstance(plan.model, TravelingInfluence):
            models = [plan.model.base] + ([plan.model.uninformed] if rotation else [])
        joints = [joint_probabilities(model, alice_angle, bob_angle)[:3] for model in models]
    fire = max(det.fire_probability(joint) for joint in joints)
    pair_rate = plan.pair_rate if source else 0.0
    if not rotation:
        return _count_homogeneous(det, joints[0], fire, pair_rate, plan.integration_time, rng)
    darks = det.dark_rate_alice + det.dark_rate_bob
    open_rate = pair_rate * fire + darks

    def draw(t0, t1):
        times = sample_open_times(open_rate, t0, t1, plan.gate, rng, darks)
        # gate_open is the one test of an open slit; perfbench/trace_child.py
        # counts the gated entries through this call.
        is_open = gate_open(times, plan.gate)
        joint = joints[0]
        if len(joints) > 1:
            informed = gate_open(times, plan.informed_gate)
            joint = [np.where(informed, p, r) for p, r in zip(*joints)]
        return times, detection_pattern(times.size, det, rng, joint, fire, pair_rate, is_open)

    event_rate = pair_rate * fire * plan.geometry.duty_cycle + darks
    slices = _time_slices(plan.integration_time, event_rate)
    pieces = (draw(t0, t1) for t0, t1 in slices)
    return _count(pieces, det.coincidence_window, plan.integration_time)


def _count_homogeneous(det, joint, fire, pair_rate, duration, rng) -> CountRecord:
    """Count a mirror-stopped run of ``duration`` seconds by its close pairs.

    With the mirror stopped, pairs and darks are one Poisson stream of
    constant intensity, the first of :func:`~bellgate.detection.pattern_bounds`,
    and each entry's arm code is an independent mark (the marking
    theorem).  Its gaps are independent Exp(rate), each shorter than the
    window with probability p = 1 - exp(-rate*window).  An entry whose
    gaps on both sides are a window or longer never changes the greedy
    count (see :func:`~bellgate.detection.match_coincidences`), so only
    the entries next to a short gap are placed.  The run is drawn as
    steps from an entry that fires nothing at 0, each m long gaps and
    then one short gap: m is geometric, the floor of Exp(1)/(rate*window);
    the long gaps, each a window plus Exp(rate) by memorylessness, add up
    to m*window + Gamma(m)/rate; the short gap is Exp(rate) truncated to
    [0, window).  A step places the entry that ends its short gap and,
    if m > 0, the one that starts it, after m - 1 isolated entries.

    Steps are drawn ``_BLOCK_STEPS`` at a time and handed to
    :func:`_count` a piece at a time (the steps that span about
    ``_CHUNK_EVENTS`` entries, at most a block: with a block per piece a
    sparse run's peak memory grows with its length), their placed entries
    marked by :func:`~bellgate.detection.detection_pattern`.  Every later
    step starts at the entry that ends a piece's last step, so the pieces
    come in time order and the counter holds about a piece however long
    the run.  The isolated entries are counted afterwards by one
    multinomial over the same parts.
    """
    window = det.coincidence_window
    rate, *ends = pattern_bounds(det, joint, pair_rate, fire)
    if rate == 0:
        return CountRecord(0, 0, 0, duration)
    short_p = -math.expm1(-rate * window)
    isolated = 0

    def placed():
        nonlocal isolated
        last = 0.0  # the entry that ends the last step drawn
        n = _BLOCK_STEPS
        piece = min(n, math.ceil(_CHUNK_EVENTS * short_p))
        # Below 1e-100 entries per window, a run holds a close pair with
        # probability under 1e-90 and its long runs overflow float: every
        # entry is isolated.
        done = short_p < 1e-100
        if done:
            isolated = int(rng.poisson(rate * duration))
        while not done:
            longs = np.floor(rng.standard_exponential(n) / (rate * window))
            excess = rng.standard_gamma(longs)
            shorts = -np.log1p(-short_p * rng.random(n)) / rate
            # One sequential sum over each step's long run and short gap gives
            # the entries that start and end its short gap, in time order.
            steps = np.column_stack([longs * window + excess / rate, shorts]).ravel()
            points = np.cumsum(np.concatenate([[last], steps]))[1:].reshape(n, 2)
            full = int(np.searchsorted(points[:, 1], duration))  # steps ending before the end
            keep = np.column_stack([longs > 0, np.ones(n, dtype=bool)])
            keep[full:] = False
            isolated += int(np.maximum(longs[:full] - 1.0, 0.0).sum())
            done = full < n
            if done:
                # The run ends in step ``full``: in its short gap, or in its long run.
                room = duration - (points[full - 1, 1] if full else last)
                count = int(longs[full])
                if points[full, 0] < duration:
                    keep[full, 0] = count > 0
                    isolated += max(count - 1, 0)
                else:
                    isolated += _entries_before(room, count, excess[full], rate, window, rng)
            else:
                last = float(points[-1, 1])
            used = full + 1 if done else n
            for lo in range(0, used, piece):
                hi = min(lo + piece, used)
                times = points[lo:hi][keep[lo:hi]]
                yield times, detection_pattern(times.size, det, rng, joint, fire, pair_rate, True)

    record = _count(placed(), window, duration)
    part_alice, part_both, part_bob, _ = rng.multinomial(isolated, np.diff([0, *ends, rate]) / rate)
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
    lie less than ``room`` after it, given that the last does not.

    Entry i lies i*window + excess*B_i/rate after the first, where
    ``excess`` is the gaps' Gamma(count) total excess over the window and
    B_i the share of it that the first i gaps hold.  Between B_lo and
    B_hi, B_mid is B_lo + (B_hi - B_lo)*Beta(mid - lo, hi - mid) (the
    Dirichlet bridge), so bisection finds the count with O(log count)
    Beta draws.
    """
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
    from the piece before joins by concatenation; singles are counted
    from the arm codes.  The greedy count splits at every gap of a window
    or more (see :func:`~bellgate.detection.match_coincidences`), so the
    entries up to the last such gap are matched now and the rest are
    carried; the last tail is matched when the pieces run out.  A piece
    out of time order raises: at least its last entry is carried, so the
    bad junction reaches a match.
    """
    tail_times, tail_arms = np.empty(0), np.empty(0, dtype=np.int8)
    singles_alice = singles_bob = coincidences = 0
    for times, arms in pieces:
        singles_alice += int(np.count_nonzero(arms & ALICE))
        singles_bob += int(np.count_nonzero(arms & BOB))
        times = np.concatenate([tail_times, times])
        arms = np.concatenate([tail_arms, arms])
        gaps = np.flatnonzero(np.diff(times) >= window)
        i = int(gaps[-1]) + 1 if gaps.size else 0
        coincidences += match_coincidences(times[:i], arms[:i], window)
        tail_times, tail_arms = times[i:], arms[i:]
    coincidences += match_coincidences(tail_times, tail_arms, window)
    return CountRecord(singles_alice, singles_bob, coincidences, duration)


def run_chsh(plan: RunPlan) -> tuple[CountTable16, ChshResult]:
    """Counting run per setting of the 4x4 grid, assembled into a table
    plus CHSH result.

    Accidental estimates come from each cell's own singles rates and the
    plan's window convention.
    """
    counts = np.zeros((4, 4))
    accidentals = np.zeros((4, 4))
    duration = plan.integration_time
    for i, alice_angle in enumerate(ALICE_ANGLES):
        for j, bob_angle in enumerate(BOB_ANGLES):
            rng = np.random.default_rng(
                derive_seed(plan.seed, "chsh", float(alice_angle), float(bob_angle))
            )
            record = run_setting(plan, alice_angle, bob_angle, rng)
            singles_alice, singles_bob, _ = record.rates
            counts[i, j] = record.coincidences
            accidentals[i, j] = duration * accidental_rate(
                singles_alice,
                singles_bob,
                plan.detector.coincidence_window,
                plan.accidental_convention,
            )
    table = CountTable16(counts=counts, accidentals=accidentals)
    return table, chsh_S(table)


def run_degradation(plan: RunPlan) -> tuple[list[CountRecord], DegradationResult]:
    """Polarizer-free luminosity runs: dark only, gate off, gate on.

    Returns the three records in :data:`DEGRADATION_LABELS` order plus
    the dark-subtracted with/without rotation ratios.
    """
    records = []
    for label in DEGRADATION_LABELS:
        rng = np.random.default_rng(derive_seed(plan.seed, "degradation", label))
        source, gated = label != "dark", label == "with_rotation"
        records.append(run_setting(plan, 0.0, 0.0, rng, gated, polarized=False, source=source))
    ratios = degradation_ratio(records[2], records[1], records[0])
    return records, ratios
