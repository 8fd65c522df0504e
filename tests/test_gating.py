import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from bellgate.apparatus import ApparatusConfig, DetectorConfig, GateState
from bellgate.config import RunPlan
from bellgate.detection import ALICE, BOB, BOTH, detection_pattern
from bellgate.gating import _CHUNK_EVENTS, gate_open, sample_times
from bellgate.runner import run_setting
from bellgate.sources import NO_POLARIZERS, QuantumState
from conftest import ALWAYS_OPEN, DUTY, GATE_PERIOD, T_ON


@pytest.fixture
def bench_gate(bench_geometry):
    return GateState(bench_geometry.gate_period, bench_geometry.aperture_time)


def test_gate_open_inside_first_window(bench_gate):
    assert gate_open(2e-7, bench_gate) is True  # 2e-7 < 4.681e-7


def test_gate_closed_between_windows(bench_gate):
    assert gate_open(1e-6, bench_gate) is False  # 4.681e-7 < 1e-6 < 2.941e-5


def test_gate_reopens_each_period(bench_gate):
    assert gate_open(GATE_PERIOD + 1e-8, bench_gate) is True
    t = np.linspace(0, 5 * GATE_PERIOD, 1000)
    assert np.array_equal(gate_open(t, bench_gate), gate_open(t + 7 * GATE_PERIOD, bench_gate))


def test_phase_offset_shifts_the_window(bench_gate):
    shifted = GateState(bench_gate.gate_period, bench_gate.aperture_time, 1e-5)
    assert gate_open(1e-5 + 1e-8, shifted) is True
    assert gate_open(1e-8, shifted) is False


@pytest.mark.parametrize("phase", [0.0, 1.2345678e-5])
def test_gate_open_agrees_with_exact_arithmetic(bench_geometry, phase):
    # gate_open reduces in floats, so only a time within a few float steps
    # of a window edge may land on the wrong side; every other time must
    # agree with the exact remainder.  Half the times are drawn uniformly
    # over 1000 s, half 16-64 float steps from an edge of a window between
    # the first and the 3*10**7th.
    gate = GateState(bench_geometry.gate_period, bench_geometry.aperture_time, phase)
    period, width = Fraction(gate.gate_period), Fraction(gate.aperture_time)
    rng = np.random.default_rng(44)
    times = list(rng.random(1000) * 1e3)
    windows = (10 ** rng.uniform(0, 7.5, 1000)).astype(int)
    for k, edge in zip(windows, rng.choice([0.0, gate.aperture_time], 1000)):
        t = phase + k * gate.gate_period + edge
        times.append(t + int(rng.choice([-1, 1]) * rng.integers(16, 65)) * math.ulp(t))
    got = gate_open(np.array(times), gate)
    checked = 0
    for t, is_open in zip(times, got):
        rem = (Fraction(t) - Fraction(phase)) % period
        if min(rem, abs(rem - width), period - rem) > 8 * math.ulp(abs(t) + gate.gate_period):
            assert is_open == (rem < width), t
            checked += 1
    assert checked > 1900


def test_uniform_arrivals_pass_at_duty_cycle(bench_gate):
    rng = np.random.default_rng(40)
    n = 1_000_000
    arrivals = rng.random(n) * 10.0  # 10 s spans an integer number of periods
    fraction = np.count_nonzero(gate_open(arrivals, bench_gate)) / n
    sigma = math.sqrt(DUTY * (1 - DUTY) / n)
    assert abs(fraction - DUTY) < 3 * sigma


def test_always_open_gate_keeps_everything():
    # aperture == period: degenerate fixture constructed directly,
    # gate_geometry would refuse its timing
    gate = GateState(gate_period=1e-3, aperture_time=1e-3)
    times = np.linspace(0, 1, 5000)
    assert np.all(gate_open(times, gate))


def test_pairs_survive_or_drop_atomically(bench):
    # one arrival time per pair and a gate shared by both arms: with
    # lossless detectors and no darks every gated pair is one coincidence
    plan = RunPlan(
        apparatus=bench,
        detector=DetectorConfig(efficiency_alice=1.0, efficiency_bob=1.0),
        model=QuantumState(),
        pair_rate=2e5,
        integration_time=1.0,
    )
    record = run_setting(plan, None, None, np.random.default_rng(42))
    assert record.coincidences == record.singles_alice == record.singles_bob
    assert abs(record.coincidences - 2e5 * DUTY) < 5 * math.sqrt(2e5 * DUTY)


# ---------------------------------------------------------------------------
# Sampling in operational time

PHASE = 1.1e-5
GATE = GateState(GATE_PERIOD, T_ON, PHASE)


def _window_start(k):
    return PHASE + k * GATE_PERIOD


def _window_pieces(gate, law, closed=(0.0, 0.0, 0.0)):
    """Pieces tiling the period from 0 as the plan's do: the closed
    stretch before ``gate``'s window, the window drawn under ``law``, and
    the closed stretch after it, both drawn under ``closed``."""
    period, lo, hi = gate.gate_period, gate.phase_offset, gate.phase_offset + gate.aperture_time
    return [
        (GateState(period, lo, 0.0), closed),
        (gate, law),
        (GateState(period, period - hi, hi), closed),
    ]


def _drawn(pieces, duration, rng):
    """A gated run's ``(times, piece)``, its chunks joined."""
    chunks = [*sample_times(pieces, duration, rng), (np.empty(0), np.empty(0, dtype=np.int8))]
    return tuple(np.concatenate(parts) for parts in zip(*chunks))


def _open_time(duration, gate=GATE):
    """The time that ``gate``, its window inside its period, is open in [0, duration)."""
    whole = math.floor(duration / gate.gate_period)
    rest = duration - whole * gate.gate_period - gate.phase_offset
    return whole * gate.aperture_time + min(max(rest, 0.0), gate.aperture_time)


def _inverse_lambda(u, pieces):
    """The oracle: the time whose cumulative intensity is ``u``, one draw
    at a time in plain floats, by walking the pieces of each period."""
    period = pieces[0][0].gate_period
    per_period = sum(law[0] * gate.aperture_time for gate, law in pieces)
    k = math.floor(u / per_period)
    rest = u - k * per_period
    for gate, law in pieces:
        mass = law[0] * gate.aperture_time
        if rest < mass:
            return k * period + gate.phase_offset + rest / law[0]
        rest -= mass
    return (k + 1) * period


def _run_length(t0, t1):
    """The run that draws the span [t0, t1): the stream is the same in
    every gate period, so the span from the start of t0's period to t1 is
    a run from 0 of that length."""
    return t1 - math.floor(t0 / GATE_PERIOD) * GATE_PERIOD


# Each case is a span: 41 periods near t = 60 s ending 0.6 of an aperture
# into a window, one period ending inside its window, one ending in its
# closed stretch, and 0.05 s (1700 periods) from 0.
N60 = math.floor((60.0 - PHASE) / GATE_PERIOD)
RANGES = [
    (_window_start(N60) + 0.3 * T_ON, _window_start(N60 + 40) + 0.6 * T_ON),
    (_window_start(N60 + 3) + 0.2 * T_ON, _window_start(N60 + 3) + 0.7 * T_ON),
    (_window_start(N60) + 2 * T_ON, _window_start(N60) + 5 * T_ON),
    (0.0, 0.05),
]


def test_poisson_arrivals_pass_at_duty_cycle(bench_gate):
    times, _ = _drawn([(ALWAYS_OPEN, (2e5, 2e5, 2e5))], 10.0, np.random.default_rng(41))
    fraction = np.count_nonzero(gate_open(times, bench_gate)) / times.size
    sigma = math.sqrt(DUTY * (1 - DUTY) / times.size)
    assert abs(fraction - DUTY) < 4 * sigma


@pytest.mark.parametrize("t0, t1", RANGES)
def test_sampled_arrivals_lie_on_the_open_set(t0, t1):
    duration = _run_length(t0, t1)
    rate = 2000.0 / _open_time(duration)  # about 2000 draws a run
    pieces = _window_pieces(GATE, (rate, rate, rate))
    rng = np.random.default_rng(7)
    for _ in range(20):
        times, piece = _drawn(pieces, duration, rng)
        assert np.all(gate_open(times, GATE)) and np.all(piece == 1)
        assert np.all((times >= 0.0) & (times < duration))


def _assert_sorted_draws(pieces, duration, total, seed):
    """The sampler's times are its uniforms on [0, total), sorted, each
    mapped through the inverse of the cumulative intensity: the oracle
    maps them unsorted."""
    rng, check = np.random.default_rng(seed), np.random.default_rng(seed)
    times, _ = _drawn(pieces, duration, rng)
    u = check.random(int(check.poisson(total))) * total
    oracle = np.sort([_inverse_lambda(x, pieces) for x in u])
    assert np.all(times[1:] >= times[:-1])
    np.testing.assert_allclose(times, oracle[oracle < duration], rtol=0.0, atol=1e-12)
    assert rng.random() == check.random()  # the same number of draws


@pytest.mark.parametrize("gated", [True, False])
@pytest.mark.parametrize("t0, t1", RANGES)
def test_sampled_arrivals_are_the_sorted_draws(t0, t1, gated):
    # About 2000 draws a run, gated with a nonzero phase or on a gate that
    # never closes.
    duration = _run_length(t0, t1)
    rate = 2000.0 / (_open_time(duration) if gated else duration)
    law = (rate, rate, rate)
    pieces = _window_pieces(GATE, law) if gated else [(GateState(GATE_PERIOD, GATE_PERIOD), law)]
    total = rate * (_open_time(duration) if gated else duration)
    for seed in range(5):
        _assert_sorted_draws(pieces, duration, total, seed)


def test_a_minute_long_run_is_the_sorted_draws():
    # The first span's end read as a run from 0: near t = 60 s a float
    # step is 7e-15 s, and the map agrees with the oracle to 1e-12 s.
    duration = RANGES[0][1]
    rate = 2000.0 / _open_time(duration)
    pieces = _window_pieces(GATE, (rate, rate, rate))
    for seed in range(5):
        _assert_sorted_draws(pieces, duration, rate * _open_time(duration), seed)


@pytest.mark.parametrize("t0, t1", RANGES)
def test_sampled_count_matches_open_measure(t0, t1):
    duration = _run_length(t0, t1)
    rate = 4000.0 / _open_time(duration)
    pieces = _window_pieces(GATE, (rate, rate, rate))
    total = sum(_drawn(pieces, duration, np.random.default_rng(s))[0].size for s in range(50))
    expected = 50 * rate * _open_time(duration)
    assert abs(total - expected) <= 4 * math.sqrt(max(expected, 1.0))


# Where the run ends in its third window, in apertures from its opening:
# before it, inside it, at its close and past it.
@pytest.mark.parametrize("cut", [-0.5, 0.0, 0.4, 1.0, 1.5])
def test_a_cut_last_window_holds_its_open_time_before_the_end(cut):
    duration = _window_start(2) + cut * T_ON
    rate = 1000.0 / T_ON  # about 1000 draws a whole window
    pieces = _window_pieces(GATE, (rate, rate, rate))
    total = 0
    for seed in range(40):
        times, _ = _drawn(pieces, duration, np.random.default_rng(seed))
        assert np.all(gate_open(times, GATE)) and np.all(times < duration)
        total += times.size
    expected = 40 * rate * T_ON * (2 + min(max(cut, 0.0), 1.0))
    assert abs(total - expected) <= 4 * math.sqrt(expected)


def test_windows_share_the_draws_evenly():
    # 41 whole periods at about 1.9e5 draws a run, so three chunks: each
    # window holds a 41st of the draws, and inside its window a time's
    # offset is uniform.
    count = 41
    pieces = _window_pieces(GATE, (1e10, 1e10, 1e10))
    times = np.concatenate(
        [_drawn(pieces, count * GATE_PERIOD, np.random.default_rng(s))[0] for s in range(5)]
    )
    k = np.floor((times - PHASE) / GATE_PERIOD)
    offsets = (times - PHASE - k * GATE_PERIOD) / T_ON
    windows = np.bincount(k.astype(int))
    assert windows.size == count and np.all((offsets >= 0.0) & (offsets < 1.0))
    chi2 = np.sum((windows - windows.mean()) ** 2 / windows.mean())
    assert chi2 < 82.1  # chi-square, 40 degrees of freedom, p = 1e-4
    counts, _ = np.histogram(offsets, bins=10, range=(0.0, 1.0))
    chi2 = np.sum((counts - counts.mean()) ** 2 / counts.mean())
    assert chi2 < 33.7  # chi-square, 9 degrees of freedom, p = 1e-4


class _FixedUniform(np.random.Generator):
    """One draw per Poisson count, and every uniform at ``u``."""

    def __init__(self, u):
        super().__init__(np.random.PCG64(0))
        self.u = u

    def poisson(self, lam, size=None):
        return 1

    def random(self, size=None):
        return np.full(size, self.u)


@pytest.mark.parametrize("duration", [1.0, 60.0])
def test_top_of_a_chunk_stays_before_the_next_chunk(bench, duration):
    # The bench's darks and pairs expect about 4.2e4 draws a second, so
    # 60 s is 39 chunks.  Under the largest uniform below 1 each chunk
    # draws one time at its top, under 0 one at its bottom: each top comes
    # no later than the next chunk's bottom, and none at or after T.
    plan = RunPlan(
        apparatus=bench,
        detector=LOSSLESS_DARK,
        model=QuantumState(),
        pair_rate=1e5,
        integration_time=duration,
    )
    pieces = plan.stream()
    tops = [t for t, _ in sample_times(pieces, duration, _FixedUniform(1.0 - 2.0**-53))]
    bottoms = [t for t, _ in sample_times(pieces, duration, _FixedUniform(0.0))]
    per_period = sum(law[0] * gate.aperture_time for gate, law in pieces)
    chunks = math.ceil(duration / plan.gate.gate_period * per_period / _CHUNK_EVENTS)
    assert len(bottoms) == len(tops) == chunks
    assert [t.size for t in bottoms] == [1] * chunks
    joined = np.concatenate([t for pair in zip(bottoms, tops) for t in pair])
    assert np.all(joined[1:] >= joined[:-1]) and joined.max() < duration


@pytest.mark.parametrize("first, count", [(68000, 5), (2039997, 2)])
def test_top_of_a_slice_stays_before_the_next_slice(bench, first, count):
    # A run of the bench that ends where ``count`` gate periods from period
    # ``first`` end, near 2 s and 60 s, where the next period's first
    # window opens.  Under the largest uniform below 1 each chunk draws
    # one time at its top; the last chunk's, in the closed stretch of the
    # last period, rounds onto or past the end unless the run drops it.
    end = (first + count) * GATE_PERIOD
    plan = RunPlan(
        apparatus=bench,
        detector=LOSSLESS_DARK,
        model=QuantumState(),
        pair_rate=1e5,
        integration_time=end,
    )
    tops = [t for t, _ in sample_times(plan.stream(), end, _FixedUniform(1.0 - 2.0**-53))]
    joined = np.concatenate(tops)
    assert len(tops) - 1 <= joined.size <= len(tops)
    assert np.all(joined[1:] >= joined[:-1]) and joined.max() < end
    assert gate_open(end, plan.gate)


# A gate of period 1 s open on [k, k + 0.3), each piece drawing one a second.
FIXED_PIECES = [(GateState(1.0, 0.3), (1.0, 1.0, 1.0)), (GateState(1.0, 0.7, 0.3), (1.0, 1.0, 1.0))]


def test_top_of_a_window_the_end_cuts_stays_before_the_end():
    # The end cuts the third window.  Under the largest uniform below 1
    # the one draw lies at the top of [0, Lambda(T)): in that window, a
    # float step before the end.
    times, piece = _drawn(FIXED_PIECES, 2.1, _FixedUniform(1.0 - 2.0**-53))
    assert times.tolist() == [math.nextafter(2.1, 0.0)] and piece.tolist() == [0]


@pytest.mark.parametrize("duration, piece", [(2.5, 1), (1.0, None)])
def test_top_of_the_run_stays_before_its_end(duration, piece):
    # The run ends in its third closed stretch, where the top draw lies a
    # float step or two before the end, or where its first period ends,
    # onto which the top draw rounds: it is dropped.
    times, pieces_of = _drawn(FIXED_PIECES, duration, _FixedUniform(1.0 - 2.0**-53))
    assert times.size == (piece is not None) and np.all(times < duration)
    assert pieces_of.tolist() == [piece][: times.size]
    assert np.all(duration - times <= 4 * math.ulp(duration))


def test_always_open_gate_samples_the_whole_interval():
    # A gate of period 1 s, open throughout, over 60.25 s: the draws cover
    # the whole run, its last quarter second too.
    pieces = [(ALWAYS_OPEN, (1e3, 1e3, 1e3))]
    total, last = 0, 0
    for seed in range(10):
        times, _ = _drawn(pieces, 60.25, np.random.default_rng(seed))
        assert np.all((times >= 0.0) & (times < 60.25))
        total += times.size
        last += np.count_nonzero(times >= 60.0)
    assert abs(total - 602500) <= 4 * math.sqrt(602500)
    assert abs(last - 2500) <= 4 * math.sqrt(2500)


# ---------------------------------------------------------------------------
# Pairs and darks drawn as one marked stream

LOSSLESS_DARK = DetectorConfig(
    efficiency_alice=1.0, efficiency_bob=1.0, dark_rate_alice=3e4, dark_rate_bob=1e4
)


def _marked_stream(pair_rate, duration, gate, rng, det=LOSSLESS_DARK, joint=NO_POLARIZERS):
    """A gated run's tagged stream, drawn and marked as the runner does:
    the open window's pairs and darks and the closed stretches' darks
    before and after it, each entry marked under its piece's law."""
    pieces = _window_pieces(gate, det.stream_law(joint, pair_rate), det.stream_law(NO_POLARIZERS, 0.0))
    times, piece = _drawn(pieces, duration, rng)
    laws = np.array([law for _, law in pieces]).T
    return times, gate_open(times, gate), detection_pattern(times.size, laws.take(piece, axis=1), rng)


@pytest.mark.parametrize("t0, t1", RANGES)
def test_marked_stream_parts_match_their_poisson_means(t0, t1):
    # Lossless detectors without polarizers: a pair fires both arms, a
    # dark one, so each part of the stream on each set is countable.
    # About 4000 pairs and 4000 darks a run.
    duration = _run_length(t0, t1)
    open_measure = _open_time(duration)
    closed_measure = duration - open_measure
    pair_rate = 4000.0 / open_measure
    d_a, d_b = 3000.0 / duration, 1000.0 / duration
    det = DetectorConfig(
        efficiency_alice=1.0, efficiency_bob=1.0, dark_rate_alice=d_a, dark_rate_bob=d_b
    )
    counts = np.zeros((2, 3))  # [closed, open] x [alice, bob, both]
    seeds = 40
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        _, is_open, arms = _marked_stream(pair_rate, duration, GATE, rng, det)
        for k, code in enumerate((ALICE, BOB, BOTH)):
            counts[0, k] += np.count_nonzero(~is_open & (arms == code))
            counts[1, k] += np.count_nonzero(is_open & (arms == code))
        assert np.all(arms != 0)  # every entry fires a detector
    expected = seeds * np.array(
        [
            [d_a * closed_measure, d_b * closed_measure, 0.0],
            [d_a * open_measure, d_b * open_measure, pair_rate * open_measure],
        ]
    )
    assert counts[0, 2] == 0  # the closed set holds darks only
    assert np.all(np.abs(counts - expected) <= 4 * np.sqrt(np.maximum(expected, 1.0))), counts


@pytest.mark.parametrize("t0, t1", RANGES)
def test_marked_stream_is_sorted_and_inside_the_slice(t0, t1):
    # The slice of time is the run's, [0, T).
    duration = _run_length(t0, t1)
    pair_rate = 2000.0 / _open_time(duration)
    det = DetectorConfig(
        efficiency_alice=1.0, efficiency_bob=1.0, dark_rate_alice=2000.0 / duration
    )
    for seed in range(10):
        rng = np.random.default_rng(seed)
        times, is_open, arms = _marked_stream(pair_rate, duration, GATE, rng, det)
        assert np.all(times[1:] >= times[:-1])
        assert np.all((times >= 0.0) & (times < duration))
        assert np.all(is_open[arms == BOTH])  # every pair passes the gate


def test_darks_alone_are_uniform_across_the_gate():
    # Darks alone over the 41 periods of the first span: the open window
    # and the closed stretches draw at one rate.
    duration = _run_length(*RANGES[0])
    det = DetectorConfig(
        efficiency_alice=0.5, efficiency_bob=0.5, dark_rate_alice=1.5e7, dark_rate_bob=5e6
    )
    total = 0
    open_count = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        times, is_open, _ = _marked_stream(0.0, duration, GATE, rng, det)
        total += times.size
        open_count += np.count_nonzero(is_open)
    expected = 20 * 2e7 * duration
    assert abs(total - expected) <= 4 * math.sqrt(expected)
    share = _open_time(duration) / duration
    assert abs(open_count - share * total) <= 4 * math.sqrt(share * (1 - share) * total)


@pytest.mark.parametrize(
    "pair_rate, joint, darks",
    [
        (5e5, NO_POLARIZERS, 0.0),  # no darks
        (5e5, (0.0, 0.0, 0.0), 5e5),  # q = 0
        (0.0, NO_POLARIZERS, 5e5),  # dark only
        (0.0, NO_POLARIZERS, 0.0),  # nothing at all
    ],
)
# The bench gate; one never closed, whose closed stretches have zero
# aperture; and one never open, whose open window has.  Each draws the
# 340 periods of 0.01 s.
@pytest.mark.parametrize("gated", [True, False, "shut"])
def test_zero_rate_edges_raise_no_warning(pair_rate, joint, darks, gated):
    gate, duty = {
        True: (GATE, DUTY),
        False: (GateState(GATE_PERIOD, GATE_PERIOD), 1.0),
        "shut": (GateState(GATE_PERIOD, 0.0, PHASE), 0.0),
    }[gated]
    det = DetectorConfig(efficiency_alice=0.5, efficiency_bob=0.5, dark_rate_alice=darks)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        rng = np.random.default_rng(3)
        times, _, arms = _marked_stream(pair_rate, 0.01, gate, rng, det, joint)
    assert np.all(arms != 0)  # no part is drawn past its own firing probability
    expected = 0.01 * (darks + pair_rate * det.fire_probability(joint) * duty)
    assert abs(times.size - expected) <= 4 * math.sqrt(max(expected, 1.0))


@pytest.mark.parametrize("darks", [0.0, 2e4])
@pytest.mark.parametrize("rotation", [False, True])
def test_dark_only_run_raises_no_warning(darks, rotation):
    detector = DetectorConfig(
        efficiency_alice=0.3, efficiency_bob=0.3, dark_rate_alice=darks, dark_rate_bob=darks / 2
    )
    plan = RunPlan(
        apparatus=ApparatusConfig(),
        detector=detector,
        model=QuantumState(),
        pair_rate=1e5,
        integration_time=0.5,
    )
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        rng = np.random.default_rng(4)
        record = run_setting(plan, None, None, rng, rotation, source=False)
    for singles, rate in ((record.singles_alice, darks), (record.singles_bob, darks / 2)):
        assert abs(singles - 0.5 * rate) <= 4 * math.sqrt(max(0.5 * rate, 1.0))
