import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from bellgate.apparatus import (
    ApparatusConfig,
    DetectorConfig,
    GateGeometry,
    GateState,
    ValidationError,
)
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
    return GateState.from_geometry(bench_geometry)


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
    times = sample_open_times(2e5, 0.0, 10.0, ALWAYS_OPEN, np.random.default_rng(41))
    fraction = np.count_nonzero(gate_open(times, bench_gate)) / times.size
    sigma = math.sqrt(DUTY * (1 - DUTY) / times.size)
    assert abs(fraction - DUTY) < 4 * sigma


def test_always_open_gate_keeps_everything():
    # aperture == period: degenerate fixture constructed directly,
    # from_geometry would refuse it
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


def test_from_geometry_validates(bench_geometry):
    degenerate = GateGeometry(
        aperture_time=2.0,
        duty_cycle=1.0,
        gate_period=1.0,
        fiber_delay=0.0,
        flight_distance_during_gate=0.0,
    )
    with pytest.raises(ValidationError, match="aperture time"):
        GateState.from_geometry(degenerate)


# ---------------------------------------------------------------------------
# Sampling directly on the open set

PHASE = 1.1e-5
K = DetectorConfig(efficiency_alice=0.0197, efficiency_bob=0.0119).fire_probability(NO_POLARIZERS)


def _open_measure(t0, t1, gate):
    """Brute-force oracle: the overlap of [t0, t1) with every window, summed."""
    k = math.floor((t0 - gate.phase_offset) / gate.gate_period)
    total = 0.0
    while gate.phase_offset + k * gate.gate_period < t1:
        opens = gate.phase_offset + k * gate.gate_period
        total += max(0.0, min(t1, opens + gate.aperture_time) - max(t0, opens))
        k += 1
    return total


def _unsorted_open_times(rate, t0, t1, gate, rng):
    """The sampler before it sorted its times, kept as the oracle: the
    same Poisson count and uniforms, mapped from open time onto the
    windows in draw order."""
    period, width = gate.gate_period, gate.aperture_time
    first = math.floor((t0 - gate.phase_offset) / period)
    last = math.ceil((t1 - gate.phase_offset) / period) - 1
    start = gate.phase_offset + first * period
    last_start = gate.phase_offset + last * period
    s0 = min(max(t0 - start, 0.0), width)
    s1 = (last - first) * width + min(max(t1 - last_start, 0.0), width)
    measure = max(s1 - s0, 0.0)
    s = s0 + rng.random(int(rng.poisson(rate * measure))) * measure
    window = np.floor(s / width)
    return start + window * period + (s - window * width)


def _window_start(k):
    return PHASE + k * GATE_PERIOD


# (t0, t1) pairs: partial windows at both edges near t = 60 s, a range
# inside one window, a range inside one closed stretch, a long range from 0.
N60 = math.floor((60.0 - PHASE) / GATE_PERIOD)
RANGES = [
    (_window_start(N60) + 0.3 * T_ON, _window_start(N60 + 40) + 0.6 * T_ON),
    (_window_start(N60 + 3) + 0.2 * T_ON, _window_start(N60 + 3) + 0.7 * T_ON),
    (_window_start(N60) + 2 * T_ON, _window_start(N60) + 5 * T_ON),
    (0.0, 0.05),
]


@pytest.mark.parametrize("t0, t1", RANGES)
def test_sampled_arrivals_lie_on_the_open_set(t0, t1):
    gate = GateState(GATE_PERIOD, T_ON, PHASE)
    measure = _open_measure(t0, t1, gate)
    rate = 2000.0 / max(measure, T_ON)  # about 2000 draws per call
    rng = np.random.default_rng(7)
    for _ in range(20):
        times = sample_open_times(rate, t0, t1, gate, rng)
        assert np.all(gate_open(times, gate))
        assert np.all((times >= t0) & (times < t1))


@pytest.mark.parametrize("gated", [True, False])
@pytest.mark.parametrize("t0, t1", RANGES)
def test_sampled_arrivals_are_the_sorted_draws(t0, t1, gated):
    # Gated with a nonzero phase over partial windows at both edges, one
    # window, a closed stretch and a long range; or never closed.
    gate = GateState(GATE_PERIOD, T_ON if gated else GATE_PERIOD, PHASE)
    rate = 2000.0 / max(_open_measure(t0, t1, gate), T_ON)
    for seed in range(5):
        rng, check = np.random.default_rng(seed), np.random.default_rng(seed)
        times = sample_open_times(rate, t0, t1, gate, rng)
        assert np.all(times[1:] >= times[:-1])
        assert np.array_equal(times, np.sort(_unsorted_open_times(rate, t0, t1, gate, check)))
        assert rng.random() == check.random()  # the same number of draws


@pytest.mark.parametrize("t0, t1", RANGES)
def test_sampled_count_matches_open_measure(t0, t1):
    gate = GateState(GATE_PERIOD, T_ON, PHASE)
    pair_rate = 2e8
    expected_per_call = pair_rate * K * _open_measure(t0, t1, gate)
    total = sum(
        sample_open_times(pair_rate * K, t0, t1, gate, np.random.default_rng(seed)).size
        for seed in range(50)
    )
    expected = 50 * expected_per_call
    assert abs(total - expected) <= 4 * math.sqrt(max(expected, 1.0))


def test_edge_windows_weighted_by_open_length():
    # the first range: 0.7 of the first window and 0.6 of the last are inside
    t0, t1 = RANGES[0]
    gate = GateState(GATE_PERIOD, T_ON, PHASE)
    times = np.concatenate(
        [sample_open_times(1e10, t0, t1, gate, np.random.default_rng(s)) for s in range(20)]
    )
    window = np.floor((times - PHASE) / GATE_PERIOD) - N60
    share = np.array([np.mean(window == 0), np.mean(window == 40)])
    expected = np.array([0.7, 0.6]) * T_ON / _open_measure(t0, t1, gate)
    sigma = np.sqrt(expected / times.size)
    assert np.all(np.abs(share - expected) < 4 * sigma)
    # inside a window the offset is uniform
    offsets = np.mod(times - PHASE, GATE_PERIOD)[(window > 0) & (window < 40)] / T_ON
    counts, _ = np.histogram(offsets, bins=10, range=(0.0, 1.0))
    chi2 = np.sum((counts - counts.mean()) ** 2 / counts.mean())
    assert chi2 < 33.7  # chi-square, 9 degrees of freedom, p = 1e-4


class _TopUniform(np.random.Generator):
    """One draw, at the largest uniform below 1: the top of the open measure."""

    def __init__(self):
        super().__init__(np.random.PCG64(0))

    def poisson(self, lam, size=None):
        return 1

    def random(self, size=None):
        return np.full(size, 1.0 - 2.0**-53)


def test_sampled_time_at_the_top_of_the_open_measure_stays_before_t1():
    # t1 = 2.1 cuts window 2, open on [2, 2.3): mapped back to time, the
    # top of the open measure rounds to t1 itself, and the clip keeps it
    # inside [t0, t1).
    gate = GateState(gate_period=1.0, aperture_time=0.3)
    times = sample_open_times(1.0, 0.0, 2.1, gate, _TopUniform())
    assert times.size == 1 and 2.0 <= times[0] < 2.1


def test_always_open_gate_samples_the_whole_interval():
    t0, t1 = 60.0, 60.5
    total = 0
    for seed in range(20):
        times = sample_open_times(1e4, t0, t1, ALWAYS_OPEN, np.random.default_rng(seed))
        assert np.all((times >= t0) & (times < t1))
        total += times.size
    assert abs(total - 1e5) <= 4 * math.sqrt(1e5)


# ---------------------------------------------------------------------------
# Pairs and darks drawn as one marked stream, piece by piece

LOSSLESS_DARK = DetectorConfig(
    efficiency_alice=1.0, efficiency_bob=1.0, dark_rate_alice=3e4, dark_rate_bob=1e4
)


def _marked_stream(pair_rate, t0, t1, gate, rng, det=LOSSLESS_DARK, joint=NO_POLARIZERS):
    """The runner's draw of a slice: the open window's pairs and darks and
    the closed stretch's darks, each piece drawn on its own and merged."""
    period, width = gate.gate_period, gate.aperture_time
    closed = GateState(period, period - width, gate.phase_offset + width)
    laws = det.stream_law(joint, pair_rate), det.stream_law(NO_POLARIZERS, 0.0)
    pieces = [(gate, laws[0]), (closed, laws[1])]
    times, arms = _draw_pieces(pieces, t0, t1, rng)
    return times, gate_open(times, gate), arms


@pytest.mark.parametrize("t0, t1", RANGES)
def test_marked_stream_parts_match_their_poisson_means(t0, t1):
    # Lossless detectors without polarizers: a pair fires both arms, a
    # dark one, so each part of the stream on each set is countable.
    gate = GateState(GATE_PERIOD, T_ON, PHASE)
    open_measure = _open_measure(t0, t1, gate)
    closed_measure = (t1 - t0) - open_measure
    pair_rate = 4000.0 / max(open_measure, T_ON)
    counts = np.zeros((2, 3))  # [closed, open] x [alice, bob, both]
    seeds = 40
    for seed in range(seeds):
        _, is_open, arms = _marked_stream(pair_rate, t0, t1, gate, np.random.default_rng(seed))
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
    gate = GateState(GATE_PERIOD, T_ON, PHASE)
    pair_rate = 2000.0 / max(_open_measure(t0, t1, gate), T_ON)
    for seed in range(10):
        times, is_open, arms = _marked_stream(pair_rate, t0, t1, gate, np.random.default_rng(seed))
        assert np.all(times[1:] >= times[:-1])
        assert np.all((times >= t0) & (times < t1))
        assert np.all(is_open[arms == BOTH])  # every pair passes the gate


def test_darks_alone_are_uniform_across_the_gate():
    # Darks alone: the open window and the closed stretch draw at one rate.
    t0, t1 = RANGES[0]
    gate = GateState(GATE_PERIOD, T_ON, PHASE)
    det = DetectorConfig(
        efficiency_alice=0.5, efficiency_bob=0.5, dark_rate_alice=1.5e7, dark_rate_bob=5e6
    )
    total = 0
    open_count = 0
    for seed in range(20):
        times, is_open, _ = _marked_stream(0.0, t0, t1, gate, np.random.default_rng(seed), det)
        total += times.size
        open_count += np.count_nonzero(is_open)
    expected = 20 * 2e7 * (t1 - t0)
    assert abs(total - expected) <= 4 * math.sqrt(expected)
    share = _open_measure(t0, t1, gate) / (t1 - t0)
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
# The bench gate; one never closed, whose closed stretch has zero aperture;
# and one never open, whose open window has.
@pytest.mark.parametrize("gated", [True, False, "shut"])
def test_zero_rate_edges_raise_no_warning(pair_rate, joint, darks, gated):
    gate, duty = {
        True: (GateState(GATE_PERIOD, T_ON, PHASE), DUTY),
        False: (ALWAYS_OPEN, 1.0),
        "shut": (GateState(GATE_PERIOD, 0.0, PHASE), 0.0),
    }[gated]
    det = DetectorConfig(efficiency_alice=0.5, efficiency_bob=0.5, dark_rate_alice=darks)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        rng = np.random.default_rng(3)
        times, _, arms = _marked_stream(pair_rate, 0.0, 0.01, gate, rng, det, joint)
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
