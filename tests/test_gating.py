import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from bellgate.apparatus import ApparatusConfig, DetectorConfig, GateState
from bellgate.config import RunPlan
from bellgate.detection import ALICE, BOB, BOTH
from bellgate.gating import gate_open, sample_open_times
from bellgate.runner import _draw_pieces, run_setting
from bellgate.sources import NO_POLARIZERS, QuantumState
from conftest import ALWAYS_OPEN

T_ON = 4.681027737996921e-07
GATE_PERIOD = 2.9411764705882354e-05
DUTY = 0.015915494309189534


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


def test_poisson_arrivals_pass_at_duty_cycle(bench_gate):
    times = sample_open_times(2e5, 0, 10, ALWAYS_OPEN, np.random.default_rng(41))
    fraction = np.count_nonzero(gate_open(times, bench_gate)) / times.size
    sigma = math.sqrt(DUTY * (1 - DUTY) / times.size)
    assert abs(fraction - DUTY) < 4 * sigma


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
# Sampling directly on the open set

PHASE = 1.1e-5
K = DetectorConfig(efficiency_alice=0.0197, efficiency_bob=0.0119).fire_probability(NO_POLARIZERS)


def _unsorted_open_times(rate, first, count, gate, rng):
    """The sampler without its sort, kept as the oracle: the same Poisson
    count and uniforms, mapped from open time onto the windows in draw
    order."""
    period, width = gate.gate_period, gate.aperture_time
    measure = count * width
    s = rng.random(int(rng.poisson(rate * measure))) * measure
    window = np.floor(s / width)
    return (first + window) * period + gate.phase_offset + (s - window * width)


def _window_start(k):
    return PHASE + k * GATE_PERIOD


def _periods(t0, t1):
    """The whole gate periods ``(first, count)`` that cover [t0, t1): a
    piece's window k lies in period k, [k*GATE_PERIOD, (k+1)*GATE_PERIOD)."""
    first = math.floor(t0 / GATE_PERIOD)
    return first, math.ceil(t1 / GATE_PERIOD) - first


# Each case is the whole periods that cover one (t0, t1) span: 41 periods
# near t = 60 s, one period around a window, one around a closed
# stretch, and 0.05 s from 0.
N60 = math.floor((60.0 - PHASE) / GATE_PERIOD)
RANGES = [
    (_window_start(N60) + 0.3 * T_ON, _window_start(N60 + 40) + 0.6 * T_ON),
    (_window_start(N60 + 3) + 0.2 * T_ON, _window_start(N60 + 3) + 0.7 * T_ON),
    (_window_start(N60) + 2 * T_ON, _window_start(N60) + 5 * T_ON),
    (0.0, 0.05),
]


@pytest.mark.parametrize("t0, t1", RANGES)
def test_sampled_arrivals_lie_on_the_open_set(t0, t1):
    first, count = _periods(t0, t1)
    gate = GateState(GATE_PERIOD, T_ON, PHASE)
    rate = 2000.0 / (count * T_ON)  # about 2000 draws per call
    rng = np.random.default_rng(7)
    for _ in range(20):
        times = sample_open_times(rate, first, count, gate, rng)
        assert np.all(gate_open(times, gate))
        assert np.all((times >= first * GATE_PERIOD) & (times < (first + count) * GATE_PERIOD))


@pytest.mark.parametrize("gated", [True, False])
@pytest.mark.parametrize("t0, t1", RANGES)
def test_sampled_arrivals_are_the_sorted_draws(t0, t1, gated):
    # Gated with a nonzero phase over 41 periods, one period or the 1700
    # periods of 0.05 s; or never closed.
    first, count = _periods(t0, t1)
    gate = GateState(GATE_PERIOD, T_ON if gated else GATE_PERIOD, PHASE)
    rate = 2000.0 / (count * gate.aperture_time)
    for seed in range(5):
        rng, check = np.random.default_rng(seed), np.random.default_rng(seed)
        times = sample_open_times(rate, first, count, gate, rng)
        assert np.all(times[1:] >= times[:-1])
        assert np.array_equal(times, np.sort(_unsorted_open_times(rate, first, count, gate, check)))
        assert rng.random() == check.random()  # the same number of draws


@pytest.mark.parametrize("t0, t1", RANGES)
def test_sampled_count_matches_open_measure(t0, t1):
    first, count = _periods(t0, t1)
    gate = GateState(GATE_PERIOD, T_ON, PHASE)
    pair_rate = 2e8
    total = sum(
        sample_open_times(pair_rate * K, first, count, gate, np.random.default_rng(seed)).size
        for seed in range(50)
    )
    expected = 50 * pair_rate * K * count * T_ON
    assert abs(total - expected) <= 4 * math.sqrt(max(expected, 1.0))


# Where the end falls in the last of three windows, in apertures from its
# opening: before it, inside it, at its close and past it.
@pytest.mark.parametrize("cut", [-0.5, 0.0, 0.4, 1.0, 1.5])
def test_a_cut_last_window_holds_its_open_time_before_the_end(cut):
    gate = GateState(GATE_PERIOD, T_ON, PHASE)
    first, count = 2000, 3
    end = _window_start(first + count - 1) + cut * T_ON
    rate = 1000.0 / T_ON  # about 1000 draws a whole window
    total = 0
    for seed in range(40):
        times = sample_open_times(rate, first, count, gate, np.random.default_rng(seed), end)
        assert np.all(gate_open(times, gate)) and np.all(times < end)
        total += times.size
    expected = 40 * rate * T_ON * (count - 1 + min(max(cut, 0.0), 1.0))
    assert abs(total - expected) <= 4 * math.sqrt(expected)


def test_windows_share_the_draws_evenly():
    # The 41 windows of the first case each hold a 41st of the draws, and
    # inside its window a time's offset is uniform.
    first, count = _periods(*RANGES[0])
    gate = GateState(GATE_PERIOD, T_ON, PHASE)
    times = np.concatenate(
        [sample_open_times(1e10, first, count, gate, np.random.default_rng(s)) for s in range(5)]
    )
    k = np.floor((times - PHASE) / GATE_PERIOD)
    offsets = (times - PHASE - k * GATE_PERIOD) / T_ON
    windows = np.bincount(k.astype(int) - first)
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


@pytest.mark.parametrize("first, count", [(0, 1), (68000, 5), (2039997, 2)])
def test_top_of_a_slice_stays_before_the_next_slice(bench, first, count):
    # The largest uniform below 1 puts each piece's draw at the top of the
    # slice's last period.  At the last two slices the closed stretch's
    # draw rounds onto or past the next slice's first possible time (its
    # first window's opening, the slice's end) unless the slice drops it.
    plan = RunPlan(
        apparatus=bench,
        detector=LOSSLESS_DARK,
        model=QuantumState(),
        pair_rate=1e5,
        integration_time=1.0,
    )
    pieces = plan.stream()
    end = (first + count) * GATE_PERIOD
    top, _ = _draw_pieces(pieces, first, count, end, _FixedUniform(1.0 - 2.0**-53))
    start, _ = _draw_pieces(pieces, first + count, 1, math.inf, _FixedUniform(0.0))
    assert len(pieces) - 1 <= top.size <= start.size == len(pieces)
    assert top.max() < start.min() == end


def test_top_of_a_window_the_end_cuts_stays_before_the_end():
    # The end cuts the third window of a gate open on [k, k + 0.3): the
    # top of its open time rounds onto the end, and the slice drops it.
    # The closed stretch's last window opens after the end, so its top
    # lies in the window before.
    law = LOSSLESS_DARK.stream_law(NO_POLARIZERS, 0.0)
    pieces = [(GateState(1.0, 0.3), law), (GateState(1.0, 0.7, 0.3), law)]
    top = sample_open_times(1.0, 0, 3, pieces[0][0], _FixedUniform(1.0 - 2.0**-53), 2.1)
    assert top.tolist() == [2.1]
    times, _ = _draw_pieces(pieces, 0, 3, 2.1, _FixedUniform(1.0 - 2.0**-53))
    assert times.size == 1 and 1.3 < times[0] < 2.0


def test_always_open_gate_samples_the_whole_interval():
    total = 0
    for seed in range(20):
        times = sample_open_times(1e4, 60, 1, ALWAYS_OPEN, np.random.default_rng(seed))
        assert np.all((times >= 60.0) & (times < 61.0))
        total += times.size
    assert abs(total - 2e5) <= 4 * math.sqrt(2e5)


# ---------------------------------------------------------------------------
# Pairs and darks drawn as one marked stream, piece by piece

LOSSLESS_DARK = DetectorConfig(
    efficiency_alice=1.0, efficiency_bob=1.0, dark_rate_alice=3e4, dark_rate_bob=1e4
)


def _marked_stream(pair_rate, first, count, gate, rng, det=LOSSLESS_DARK, joint=NO_POLARIZERS):
    """The runner's draw of a slice of ``count`` periods from period
    ``first``, ending where the next slice starts: the open window's pairs
    and darks and the closed stretches' darks before and after it, pieces
    that tile the period from 0 as the plan's do, each drawn on its own
    and merged."""
    period, lo, hi = gate.gate_period, gate.phase_offset, gate.phase_offset + gate.aperture_time
    dark = det.stream_law(NO_POLARIZERS, 0.0)
    pieces = [
        (GateState(period, lo, 0.0), dark),
        (gate, det.stream_law(joint, pair_rate)),
        (GateState(period, period - hi, hi), dark),
    ]
    times, arms = _draw_pieces(pieces, first, count, (first + count) * period, rng)
    return times, gate_open(times, gate), arms


@pytest.mark.parametrize("t0, t1", RANGES)
def test_marked_stream_parts_match_their_poisson_means(t0, t1):
    # Lossless detectors without polarizers: a pair fires both arms, a
    # dark one, so each part of the stream on each set is countable.
    first, count = _periods(t0, t1)
    gate = GateState(GATE_PERIOD, T_ON, PHASE)
    open_measure, closed_measure = count * T_ON, count * (GATE_PERIOD - T_ON)
    pair_rate = 4000.0 / open_measure
    counts = np.zeros((2, 3))  # [closed, open] x [alice, bob, both]
    seeds = 40
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        _, is_open, arms = _marked_stream(pair_rate, first, count, gate, rng)
        for k, code in enumerate((ALICE, BOB, BOTH)):
            counts[0, k] += np.count_nonzero(~is_open & (arms == code))
            counts[1, k] += np.count_nonzero(is_open & (arms == code))
        assert np.all(arms != 0)  # every entry fires a detector
    d_a, d_b = LOSSLESS_DARK.dark_rate_alice, LOSSLESS_DARK.dark_rate_bob
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
    first, count = _periods(t0, t1)
    gate = GateState(GATE_PERIOD, T_ON, PHASE)
    pair_rate = 2000.0 / (count * T_ON)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        times, is_open, arms = _marked_stream(pair_rate, first, count, gate, rng)
        assert np.all(times[1:] >= times[:-1])
        assert np.all((times >= first * GATE_PERIOD) & (times < (first + count) * GATE_PERIOD))
        assert np.all(is_open[arms == BOTH])  # every pair passes the gate


def test_darks_alone_are_uniform_across_the_gate():
    # Darks alone: the open window and the closed stretch draw at one rate.
    first, count = _periods(*RANGES[0])
    gate = GateState(GATE_PERIOD, T_ON, PHASE)
    det = DetectorConfig(
        efficiency_alice=0.5, efficiency_bob=0.5, dark_rate_alice=1.5e7, dark_rate_bob=5e6
    )
    total = 0
    open_count = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        times, is_open, _ = _marked_stream(0.0, first, count, gate, rng, det)
        total += times.size
        open_count += np.count_nonzero(is_open)
    expected = 20 * 2e7 * count * GATE_PERIOD
    assert abs(total - expected) <= 4 * math.sqrt(expected)
    share = T_ON / GATE_PERIOD
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
        True: (GateState(GATE_PERIOD, T_ON, PHASE), DUTY),
        False: (GateState(GATE_PERIOD, GATE_PERIOD), 1.0),
        "shut": (GateState(GATE_PERIOD, 0.0, PHASE), 0.0),
    }[gated]
    det = DetectorConfig(efficiency_alice=0.5, efficiency_bob=0.5, dark_rate_alice=darks)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        rng = np.random.default_rng(3)
        times, _, arms = _marked_stream(pair_rate, 0, 340, gate, rng, det, joint)
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
