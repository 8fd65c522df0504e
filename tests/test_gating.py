import math

import numpy as np
import pytest

from bellgate.apparatus import GateGeometry, ValidationError
from bellgate.detection import DetectorConfig
from bellgate.gating import GateState, gate_open, sample_open_times
from bellgate.runner import RunPlan, run_setting
from bellgate.sources import NO_POLARIZERS, QuantumState

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


def test_uniform_arrivals_pass_at_duty_cycle(bench_gate):
    rng = np.random.default_rng(40)
    n = 1_000_000
    arrivals = rng.random(n) * 10.0  # 10 s spans an integer number of periods
    fraction = np.count_nonzero(gate_open(arrivals, bench_gate)) / n
    sigma = math.sqrt(DUTY * (1 - DUTY) / n)
    assert abs(fraction - DUTY) < 3 * sigma


def test_poisson_arrivals_pass_at_duty_cycle(bench_gate):
    times = sample_open_times(2e5, 0.0, 10.0, None, np.random.default_rng(41))
    fraction = np.count_nonzero(gate_open(times, bench_gate)) / times.size
    sigma = math.sqrt(DUTY * (1 - DUTY) / times.size)
    assert abs(fraction - DUTY) < 4 * sigma


def test_always_open_gate_keeps_everything():
    # aperture == period: degenerate fixture constructed directly,
    # from_geometry would refuse it
    gate = GateState(gate_period=1e-3, aperture_time=1e-3)
    times = np.linspace(0, 1, 5000)
    assert np.all(gate_open(times, gate))


def test_no_rotation_mode_is_identity():
    # gate=None: the sampler is the plain Poisson process on the interval,
    # draw for draw, sorted
    times = sample_open_times(3e4, 0.25, 1.25, None, np.random.default_rng(43))
    rng = np.random.default_rng(43)
    expected = 0.25 + rng.random(int(rng.poisson(3e4))) * 1.0
    assert np.array_equal(times, np.sort(expected))


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
    record = run_setting(plan, 0.0, 0.0, np.random.default_rng(42), polarized=False)
    assert record.coincidences == record.singles_alice == record.singles_bob
    assert abs(record.coincidences - 2e5 * DUTY) < 5 * math.sqrt(2e5 * DUTY)


def test_from_geometry_validates(bench_geometry):
    with pytest.raises(ValidationError, match="phase offset"):
        GateState.from_geometry(bench_geometry, phase_offset=-1.0)
    with pytest.raises(ValidationError, match="phase offset"):
        GateState.from_geometry(bench_geometry, phase_offset=bench_geometry.gate_period)
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
    if gate is None:
        n = int(rng.poisson(rate * (t1 - t0)))
        return t0 + rng.random(n) * (t1 - t0)
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
    # window, a closed stretch and a long range; or with the mirror stopped.
    gate = GateState(GATE_PERIOD, T_ON, PHASE) if gated else None
    rate = 2000.0 / (max(_open_measure(t0, t1, gate), T_ON) if gated else t1 - t0)
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


def test_stopped_mirror_opens_the_whole_interval():
    t0, t1 = 60.0, 60.5
    total = 0
    for seed in range(20):
        times = sample_open_times(1e4, t0, t1, None, np.random.default_rng(seed))
        assert np.all((times >= t0) & (times < t1))
        total += times.size
    assert abs(total - 1e5) <= 4 * math.sqrt(1e5)
