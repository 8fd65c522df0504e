import math

import numpy as np
import pytest

from bellgate.detection import (
    CountRecord,
    DetectorConfig,
    count_run,
    dark_times,
    detect,
    detection_pattern,
    match_coincidences,
    read_count_records,
    thin_times,
    write_count_records,
)


def greedy_match_reference(alice, bob, window):
    """Independent O(n*m) oracle: walk alice events in time order, match
    each with the earliest unused bob event inside the window."""
    used = [False] * len(bob)
    count = 0
    for t in alice:
        for j, u in enumerate(bob):
            if used[j] or u <= t - window:
                continue
            if u >= t + window:
                break
            used[j] = True
            count += 1
            break
    return count


def test_thinning_rate():
    # efficiency comparable to the reference bench's bob arm
    arrivals = np.linspace(0, 1, 1_000_000)
    kept = thin_times(arrivals, 0.0119, np.random.default_rng(1))
    expected = 11900
    assert abs(kept.size - expected) < 5 * math.sqrt(expected)


def test_detection_pattern_is_conditioned_on_a_detection():
    det = DetectorConfig(efficiency_alice=0.5, efficiency_bob=0.4)
    k = det.pair_keep_probability
    assert k == pytest.approx(0.7)
    n = 200_000
    alice, bob = detection_pattern(n, det, np.random.default_rng(8))
    assert not np.any(~alice & ~bob)
    observed = np.array([np.sum(alice & ~bob), np.sum(alice & bob), np.sum(~alice & bob)])
    expected = n * np.array([0.5 * 0.6, 0.5 * 0.4, 0.5 * 0.4]) / k
    assert np.all(np.abs(observed - expected) < 4 * np.sqrt(expected))


def test_perfect_detector_is_identity():
    det = DetectorConfig(efficiency_alice=1.0, efficiency_bob=1.0)
    alice_in = np.sort(np.random.default_rng(2).random(1000))
    bob_in = np.sort(np.random.default_rng(3).random(800))
    alice, bob = detect(alice_in, bob_in, det, duration=1.0, seed=4)
    assert np.array_equal(alice, alice_in)
    assert np.array_equal(bob, bob_in)


def test_dark_counts_alone():
    det = DetectorConfig(
        efficiency_alice=0.5, efficiency_bob=0.5, dark_rate_alice=1300.0, dark_rate_bob=600.0
    )
    alice, bob = detect(np.empty(0), np.empty(0), det, duration=1.0, seed=5)
    assert abs(alice.size - 1300) < 5 * math.sqrt(1300)
    assert abs(bob.size - 600) < 5 * math.sqrt(600)
    assert np.all(np.diff(alice) >= 0)


def test_match_inside_window():
    assert match_coincidences([0.0], [15e-9], 20e-9) == 1


def test_match_outside_window():
    assert match_coincidences([0.0], [25e-9], 20e-9) == 0


def test_match_rejects_unsorted():
    with pytest.raises(ValueError, match="not sorted"):
        match_coincidences([2.0, 1.0], [0.0], 1e-9)
    with pytest.raises(ValueError, match="not sorted"):
        match_coincidences([0.0], [2.0, 1.0], 1e-9)


def test_each_detection_used_once():
    # one bob event cannot serve two alice events
    assert match_coincidences([0.0, 5e-9], [1e-9], 20e-9) == 1
    assert match_coincidences([1e-9], [0.0, 5e-9], 20e-9) == 1


def test_match_agrees_with_reference_oracle():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n_a = int(rng.integers(0, 200))
        n_b = int(rng.integers(0, 200))
        alice = np.sort(rng.random(n_a))
        bob = np.sort(rng.random(n_b))
        window = float(rng.choice([1e-4, 1e-3, 1e-2, 0.05]))
        expected = greedy_match_reference(alice.tolist(), bob.tolist(), window)
        assert match_coincidences(alice, bob, window) == expected


def test_coincidences_bounded_by_singles():
    rng = np.random.default_rng(7)
    for _ in range(20):
        alice = np.sort(rng.random(int(rng.integers(1, 500))))
        bob = np.sort(rng.random(int(rng.integers(1, 500))))
        matched = match_coincidences(alice, bob, 0.05)
        assert matched <= min(alice.size, bob.size)


def test_independent_streams_match_at_accidental_rate():
    # Two unrelated Poisson streams at the reference bench's with-rotation
    # singles rates; the greedy matcher realizes the 2*tau ("double")
    # accidental convention because either side may open the window.
    rng = np.random.default_rng(8)
    duration = 3600.0
    alice = dark_times(2301.0, duration, rng)
    bob = dark_times(1098.0, duration, rng)
    window = 20e-9
    count = match_coincidences(alice, bob, window)
    expected_double = 2301.0 * 1098.0 * 2 * window * duration
    assert abs(count - expected_double) < 5 * math.sqrt(expected_double)
    # over one minute that is about 6 accidentals
    assert expected_double / 60 == pytest.approx(6.06, abs=0.01)


def test_doubling_duration_doubles_counts():
    det = DetectorConfig(
        efficiency_alice=0.5, efficiency_bob=0.5, dark_rate_alice=5000.0, dark_rate_bob=5000.0
    )
    short = detect(np.empty(0), np.empty(0), det, duration=10.0, seed=9)
    long = detect(np.empty(0), np.empty(0), det, duration=20.0, seed=10)
    for a, b in zip(short, long):
        assert abs(b.size - 2 * a.size) < 8 * math.sqrt(b.size)


def test_count_run_summary():
    det = DetectorConfig(efficiency_alice=1.0, efficiency_bob=1.0)
    times = np.sort(np.random.default_rng(11).random(500))
    record = count_run(times, times, det, duration=1.0, seed=12)
    assert record.singles_alice == record.singles_bob == 500
    assert record.coincidences == 500  # identical timestamps always match


def test_detector_config_validation():
    with pytest.raises(ValueError, match="alice efficiency"):
        DetectorConfig(efficiency_alice=0.0, efficiency_bob=0.5)
    with pytest.raises(ValueError, match="bob efficiency"):
        DetectorConfig(efficiency_alice=0.5, efficiency_bob=1.5)
    with pytest.raises(ValueError, match="dark rates"):
        DetectorConfig(efficiency_alice=0.5, efficiency_bob=0.5, dark_rate_alice=-1.0)
    with pytest.raises(ValueError, match="coincidence window"):
        DetectorConfig(efficiency_alice=0.5, efficiency_bob=0.5, coincidence_window=0.0)


def test_count_record_validation():
    with pytest.raises(ValueError, match="non-negative"):
        CountRecord(-1.0, 10.0, 0.0)
    with pytest.raises(ValueError, match="cannot exceed"):
        CountRecord(10.0, 10.0, 11.0)
    with pytest.raises(ValueError, match="duration"):
        CountRecord(10.0, 10.0, 1.0, duration=0.0)
    record = CountRecord(100.0, 50.0, 10.0, duration=2.0)
    assert record.rates == (50.0, 25.0, 5.0)


def test_count_records_roundtrip(tmp_path):
    rows = [
        ("dark", CountRecord(1300.0, 600.0, 0.08)),
        ("no_rotation", CountRecord(33894.0, 20329.0, 389.0)),
    ]
    path = tmp_path / "records.csv"
    write_count_records(rows, path)
    back = read_count_records(path)
    assert back["dark"].rates == (1300.0, 600.0, 0.08)
    assert back["no_rotation"].rates == (33894.0, 20329.0, 389.0)


def test_count_records_reject_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope,a,b,c\n1,2,3,4\n")
    with pytest.raises(ValueError, match="header"):
        read_count_records(path)
