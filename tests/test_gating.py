import math

import numpy as np
import pytest

from bellgate.apparatus import GateGeometry, ValidationError
from bellgate.detection import DetectorConfig
from bellgate.gating import (
    ALICE,
    BOB,
    GateState,
    apply_gate,
    gate_open,
    propagate,
    propagate_times,
    sample_open_times,
)
from bellgate.sources import PairEvent, sample_emissions

T_ON = 4.681027737996921e-07
GATE_PERIOD = 2.9411764705882354e-05
FIBER_DELAY = 6.671114076050701e-07
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


def test_propagate_reference_bench(bench_geometry):
    alice, bob = propagate(PairEvent(emission_time=0.0), bench_geometry, pair_id=42)
    assert alice.arm == ALICE and bob.arm == BOB
    assert alice.pair_id == bob.pair_id == 42
    assert alice.arrival_time == pytest.approx(FIBER_DELAY, rel=1e-12)
    assert bob.arrival_time == alice.arrival_time


def test_propagate_zero_length_fiber(bench_geometry):
    # degenerate geometry built directly; validate_config would reject it
    geom = GateGeometry(
        aperture_time=bench_geometry.aperture_time,
        duty_cycle=bench_geometry.duty_cycle,
        gate_period=bench_geometry.gate_period,
        fiber_delay=0.0,
        flight_distance_during_gate=bench_geometry.flight_distance_during_gate,
    )
    alice, _ = propagate(PairEvent(emission_time=0.125), geom)
    assert alice.arrival_time == 0.125


def test_propagation_preserves_spacing(bench_geometry):
    emissions = np.array([0.0, 1.5e-6, 7.7e-3])
    arrivals = propagate_times(emissions, bench_geometry)
    assert np.allclose(np.diff(arrivals), np.diff(emissions), rtol=0, atol=1e-18)


def test_uniform_arrivals_pass_at_duty_cycle(bench_gate):
    rng = np.random.default_rng(40)
    n = 1_000_000
    arrivals = rng.random(n) * 10.0  # 10 s spans an integer number of periods
    kept = apply_gate(arrivals, bench_gate)
    fraction = kept.size / n
    sigma = math.sqrt(DUTY * (1 - DUTY) / n)
    assert abs(fraction - DUTY) < 3 * sigma


def test_poisson_arrivals_pass_at_duty_cycle(bench_gate):
    times = sample_emissions(2e5, 10.0, seed=41)
    kept = apply_gate(times, bench_gate)
    fraction = kept.size / times.size
    sigma = math.sqrt(DUTY * (1 - DUTY) / times.size)
    assert abs(fraction - DUTY) < 4 * sigma


def test_always_open_gate_keeps_everything():
    # aperture == period: degenerate fixture constructed directly,
    # from_geometry would refuse it
    gate = GateState(gate_period=1e-3, aperture_time=1e-3)
    times = np.linspace(0, 1, 5000)
    assert np.array_equal(apply_gate(times, gate), times)


def test_no_rotation_mode_is_identity():
    times = np.array([0.0, 0.3, 0.9])
    assert np.array_equal(apply_gate(times, None), times)


def test_pairs_survive_or_drop_atomically(bench_gate, bench_geometry):
    # equal fiber delays and a shared gate: the two arms see identical times
    emissions = sample_emissions(5e4, 1.0, seed=42)
    alice_arrivals = propagate_times(emissions, bench_geometry)
    bob_arrivals = propagate_times(emissions, bench_geometry)
    assert np.array_equal(
        gate_open(alice_arrivals, bench_gate), gate_open(bob_arrivals, bench_gate)
    )
    assert np.array_equal(apply_gate(alice_arrivals, bench_gate), apply_gate(bob_arrivals, bench_gate))


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
K = DetectorConfig(efficiency_alice=0.0197, efficiency_bob=0.0119).pair_keep_probability


def _open_measure(t0, t1, gate):
    """Brute-force oracle: the overlap of [t0, t1) with every window, summed."""
    k = math.floor((t0 - gate.phase_offset) / gate.gate_period)
    total = 0.0
    while gate.phase_offset + k * gate.gate_period < t1:
        opens = gate.phase_offset + k * gate.gate_period
        total += max(0.0, min(t1, opens + gate.aperture_time) - max(t0, opens))
        k += 1
    return total


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
