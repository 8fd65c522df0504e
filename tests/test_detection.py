import math

import numpy as np
import pytest

from bellgate.detection import ALICE, BOB, BOTH, detection_pattern, match_coincidences
from bellgate.analysis import CountRecord, read_count_records, write_count_records
from bellgate.apparatus import ApparatusConfig, DetectorConfig
from bellgate.config import RunPlan
from bellgate.runner import _count, run_setting
from bellgate.sources import (
    NO_POLARIZERS,
    MalusLHV,
    QuantumState,
    ThresholdLHV,
    joint_probabilities,
)
from conftest import _sliced, tag_arms
from oracle import dark_times, thin_times


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


def two_pointer_reference(alice, bob, window):
    """The earlier pure-Python matcher, kept as an oracle: the greedy
    earliest-first two-pointer sweep over the two sorted lists."""
    i = j = matched = 0
    while i < len(alice) and j < len(bob):
        dt = alice[i] - bob[j]
        if dt <= -window:
            i += 1
        elif dt >= window:
            j += 1
        else:
            matched += 1
            i += 1
            j += 1
    return matched


def assert_exact(times, arms, window, greedy=True):
    """The matcher on a tagged stream equals the two-pointer loop over its
    two arms and, unless ``greedy`` is off, the O(n*m) oracle too."""
    times = np.asarray(times, dtype=float)
    arms = np.asarray(arms, dtype=np.int8)
    alice = times[(arms & ALICE) != 0].tolist()
    bob = times[(arms & BOB) != 0].tolist()
    expected = two_pointer_reference(alice, bob, window)
    assert match_coincidences(times, arms, window) == expected
    if greedy:
        assert greedy_match_reference(alice, bob, window) == expected
    return expected


def pattern_counts(arms):
    """(alice only, both, bob only, none) of an array of arm codes."""
    return [np.count_nonzero(arms == code) for code in (ALICE, BOTH, BOB, 0)]


def test_thinning_rate():
    # efficiency comparable to the reference bench's bob arm
    arrivals = np.linspace(0, 1, 1_000_000)
    kept = thin_times(arrivals, 0.0119, np.random.default_rng(1))
    expected = 11900
    assert abs(kept.size - expected) < 5 * math.sqrt(expected)


def test_detection_pattern_is_conditioned_on_a_detection():
    det = DetectorConfig(efficiency_alice=0.5, efficiency_bob=0.4)
    k = det.fire_probability(NO_POLARIZERS)
    assert k == pytest.approx(0.7)
    n = 200_000
    arms = detection_pattern(n, det, np.random.default_rng(8), NO_POLARIZERS, k, 1.0, True)
    assert arms.dtype == np.int8
    *observed, none = pattern_counts(arms)
    assert none == 0
    observed = np.array(observed)
    expected = n * np.array([0.5 * 0.6, 0.5 * 0.4, 0.5 * 0.4]) / k
    assert np.all(np.abs(observed - expected) < 4 * np.sqrt(expected))


# Closed-form E at (0, 22.5) degrees.  Each model has marginals 1/2, so
# p_pp = (1 + E)/4 and p_pb = p_bp = (1 - E)/4.
COS45 = math.cos(math.radians(45.0))
PATTERN_MODELS = {
    "quantum": (QuantumState("mirrored", 0.82), 0.82 * COS45),  # V cos 2(a + b)
    "malus": (MalusLHV(), 0.5 * COS45),  # cos 2(a - b) / 2
    "threshold": (ThresholdLHV(), 0.5),  # 1 - 4|a - b|/pi
}
PATTERN_DETECTOR = DetectorConfig(efficiency_alice=0.5, efficiency_bob=0.4)


def _pattern_probabilities(e):
    """(alice only, both, bob only) for a pair reaching the polarizers."""
    e_a, e_b = PATTERN_DETECTOR.efficiency_alice, PATTERN_DETECTOR.efficiency_bob
    p_pp, p_pb = (1 + e) / 4, (1 - e) / 4
    return np.array(
        [e_a * (p_pb + p_pp * (1 - e_b)), e_a * e_b * p_pp, e_b * (p_pb + p_pp * (1 - e_a))]
    )


def _assert_binomial_within_4_sigma(observed, n, p):
    for count, share in zip(observed, p):
        sigma = math.sqrt(n * share * (1 - share))
        assert abs(count - n * share) <= 4 * sigma, (count, n * share, sigma)


@pytest.mark.parametrize("name", sorted(PATTERN_MODELS))
def test_firing_pattern_frequencies_match_closed_form(name):
    model, e = PATTERN_MODELS[name]
    joint = joint_probabilities(model, 0.0, 22.5)[:3]
    expected = _pattern_probabilities(e)
    fire = PATTERN_DETECTOR.fire_probability(joint)
    assert fire == pytest.approx(expected.sum(), rel=1e-12)
    n = 400_000
    arms = detection_pattern(
        n, PATTERN_DETECTOR, np.random.default_rng(21), joint, fire, 1.0, True
    )
    *observed, none = pattern_counts(arms)
    assert none == 0
    _assert_binomial_within_4_sigma(observed, n, expected / expected.sum())


@pytest.mark.parametrize("informed", [True, False])
def test_traveling_firing_pattern_frequencies_per_flag(informed):
    # Quantum when informed, Malus otherwise; both groups are drawn at the
    # larger firing probability, and the rest of a group's draws fire nothing.
    models = {True: QuantumState("mirrored", 1.0), False: MalusLHV()}
    joints = {flag: joint_probabilities(m, 0.0, 22.5)[:3] for flag, m in models.items()}
    drawn_at = max(PATTERN_DETECTOR.fire_probability(j) for j in joints.values())
    n = 600_000
    flags = np.arange(n) % 3 == 0
    per_pair = [np.where(flags, p, r) for p, r in zip(joints[True], joints[False])]
    rng = np.random.default_rng(22)
    arms = detection_pattern(n, PATTERN_DETECTOR, rng, per_pair, drawn_at, 1.0, True)
    group = flags == informed
    expected = _pattern_probabilities(COS45 if informed else 0.5 * COS45) / drawn_at
    observed = pattern_counts(arms[group])
    _assert_binomial_within_4_sigma(observed, group.sum(), [*expected, 1 - expected.sum()])


def test_perfect_detector_is_identity():
    det = DetectorConfig(efficiency_alice=1.0, efficiency_bob=1.0)
    rng = np.random.default_rng(4)
    assert np.all(detection_pattern(1000, det, rng, NO_POLARIZERS, 1.0, 1.0, True) == BOTH)
    times = np.sort(np.random.default_rng(2).random(1000))
    assert np.array_equal(thin_times(times, 1.0, rng), times)


def test_dark_counts_alone():
    rng = np.random.default_rng(5)
    alice = dark_times(1300.0, 1.0, rng)
    bob = dark_times(600.0, 1.0, rng)
    assert abs(alice.size - 1300) < 5 * math.sqrt(1300)
    assert abs(bob.size - 600) < 5 * math.sqrt(600)
    assert np.all((alice >= 0) & (alice < 1.0))


def test_match_inside_window():
    assert match_coincidences(*tag_arms([0.0], [15e-9]), 20e-9) == 1


def test_match_outside_window():
    assert match_coincidences(*tag_arms([0.0], [25e-9]), 20e-9) == 0


def test_match_rejects_unsorted():
    with pytest.raises(ValueError, match="not sorted"):
        match_coincidences([2.0, 1.0], [ALICE, BOB], 1e-9)
    with pytest.raises(ValueError, match="not sorted"):
        match_coincidences([0.0, 2.0, 1.0], [BOTH, BOB, BOB], 1e-9)
    with pytest.raises(ValueError, match="not sorted"):
        match_coincidences([0.0, math.nan, 1.0], [ALICE, ALICE, BOB], 1e-9)
    with pytest.raises(ValueError, match="not sorted"):
        match_coincidences([math.nan, math.nan], [BOTH, BOTH], 1e-9)
    with pytest.raises(ValueError, match="same shape"):
        match_coincidences([0.0, 1.0], [BOTH], 1e-9)


def test_each_detection_used_once():
    # one bob event cannot serve two alice events
    assert match_coincidences(*tag_arms([0.0, 5e-9], [1e-9]), 20e-9) == 1
    assert match_coincidences(*tag_arms([1e-9], [0.0, 5e-9]), 20e-9) == 1
    # nor can one entry where both arms fired serve a neighbour too
    assert match_coincidences([0.0, 5e-9], [BOTH, ALICE], 20e-9) == 1
    assert match_coincidences([0.0, 5e-9], [BOB, BOTH], 20e-9) == 1
    assert match_coincidences([0.0, 5e-9], [BOTH, BOTH], 20e-9) == 2


def test_match_agrees_with_reference_oracle():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n_a = int(rng.integers(0, 200))
        n_b = int(rng.integers(0, 200))
        alice = np.sort(rng.random(n_a))
        bob = np.sort(rng.random(n_b))
        # up to windows spanning the whole stream
        window = float(rng.choice([1e-4, 1e-3, 1e-2, 0.05, 0.5, 2.0]))
        assert_exact(*tag_arms(alice, bob), window)


def test_match_is_exact_on_dense_clusters():
    # Clusters a few windows wide, so chains of three or more events and
    # gaps close to the window are common.
    rng = np.random.default_rng(13)
    seen_multi = 0
    for _ in range(200):
        window = float(rng.choice([1e-4, 1e-3, 1e-2]))
        centers = rng.random(int(rng.integers(1, 40)))
        spread = window * rng.uniform(0.2, 4.0)
        alice, bob = (
            np.sort(rng.choice(centers, n) + spread * rng.random(n))
            for n in rng.integers(0, 150, 2)
        )
        assert_exact(*tag_arms(alice, bob), window)
        gaps = np.diff(np.sort(np.concatenate([alice, bob])))
        seen_multi += np.any((gaps[1:] < window) & (gaps[:-1] < window))
    assert seen_multi > 100


def test_match_is_exact_on_runner_like_streams():
    # Both photons of a detected pair share one entry; each arm keeps its
    # own subset of pairs, and uniform darks join as entries of one arm.
    rng = np.random.default_rng(14)
    for _ in range(100):
        pairs = rng.random(int(rng.integers(0, 200)))
        codes = (ALICE * (rng.random(pairs.size) < 0.6) + BOB * (rng.random(pairs.size) < 0.5))
        fired = codes != 0
        times = np.concatenate([pairs[fired], rng.random(30), rng.random(20)])
        arms = np.concatenate([codes[fired], np.full(30, ALICE), np.full(20, BOB)])
        order = np.argsort(times)
        times, arms = times[order], arms[order].astype(np.int8)
        matched = assert_exact(times, arms, float(rng.choice([1e-4, 1e-3, 2e-2])))
        singles = [np.count_nonzero(arms & arm) for arm in (ALICE, BOB)]
        assert matched <= min(singles)


def test_match_is_exact_on_gaps_of_one_window():
    # Dyadic grid: differences are exact, so gaps equal the window exactly
    # and both oracles agree.
    rng = np.random.default_rng(15)
    for _ in range(100):
        step = 2.0 ** -int(rng.integers(2, 8))
        alice = np.sort(rng.integers(0, 40, int(rng.integers(0, 60))) * step)
        bob = np.sort(rng.integers(0, 40, int(rng.integers(0, 60))) * step)
        assert_exact(*tag_arms(alice, bob), step)
    assert match_coincidences(*tag_arms([0.0, 0.5], [0.25, 0.75]), 0.25) == 0
    assert match_coincidences(*tag_arms([0.0, 0.5], [0.25, 0.75]), 0.2500001) == 2
    # Decimal grid: the differences round, and the gap test must round
    # exactly as the sweep does.  greedy_match_reference compares t - window
    # with u instead, which may round the other way, so it is left out.
    for _ in range(100):
        step = float(rng.choice([0.1, 0.3, 0.7, 1e-3]))
        alice = np.sort(rng.integers(0, 50, int(rng.integers(0, 80))) * step)
        bob = np.sort(rng.integers(0, 50, int(rng.integers(0, 80))) * step)
        assert_exact(*tag_arms(alice, bob), step, greedy=False)


def test_match_is_exact_on_empty_and_single_events():
    for alice, bob in [([], []), ([], [0.5]), ([0.5], []), ([0.5], [0.5]), ([0.5], [0.7])]:
        assert_exact(*tag_arms(alice, bob), 0.1)
    assert_exact(*tag_arms([], np.arange(10.0)), 0.1)
    assert_exact(*tag_arms([3.0], np.arange(10.0)), 0.1)
    assert_exact(*tag_arms(np.arange(10.0), [3.05]), 0.1)
    # Entries where both arms fired, or none, alone or sharing a timestamp.
    for times, arms, expected in [
        ([0.5], [BOTH], 1),
        ([0.5], [0], 0),
        ([0.5, 0.5], [BOTH, BOTH], 2),
        ([0.5, 0.5], [BOTH, 0], 1),
        ([0.5, 0.7], [BOTH, BOTH], 2),
    ]:
        assert assert_exact(times, np.array(arms, dtype=np.int8), 0.1) == expected


# Codes with both arms firing dominate, as in a run's stream; a few
# entries fire nothing.
STREAM_CODES = np.array([ALICE, BOB, BOTH, 0], dtype=np.int8)
STREAM_SHARES = [0.3, 0.25, 0.4, 0.05]


def test_match_on_tagged_streams_with_both_arms_fired():
    rng = np.random.default_rng(16)
    seen_multi = 0
    for _ in range(300):
        window = float(rng.choice([1e-4, 1e-3, 1e-2, 0.5]))
        centers = rng.random(int(rng.integers(1, 60)))
        n = int(rng.integers(0, 150))
        times = np.sort(rng.choice(centers, n) + window * rng.uniform(0.0, 3.0) * rng.random(n))
        arms = rng.choice(STREAM_CODES, n, p=STREAM_SHARES)
        assert_exact(times, arms, window)
        seen_multi += np.any(np.diff(times) < window)
    assert seen_multi > 200


def test_match_on_tagged_streams_with_ties_and_gaps_of_one_window():
    # Dyadic grid: entries share timestamps (ties of any codes), and gaps
    # equal the window exactly, between chains when the window is two steps.
    rng = np.random.default_rng(17)
    for _ in range(300):
        step = 2.0 ** -int(rng.integers(2, 8))
        window = step * int(rng.integers(1, 3))
        n = int(rng.integers(0, 80))
        times = np.sort(rng.integers(0, 30, n) * step)
        arms = rng.choice(STREAM_CODES, n, p=STREAM_SHARES)
        expected = assert_exact(times, arms, window)
        # the same instants, each arm's detections as entries of their own
        alice, bob = (times[(arms & arm) != 0] for arm in (ALICE, BOB))
        assert match_coincidences(*tag_arms(alice, bob), window) == expected
    assert match_coincidences([0.0, 0.25, 0.5], [BOTH, BOTH, BOTH], 0.25) == 3
    assert match_coincidences([0.0, 0.25], [ALICE, BOB], 0.25) == 0


def test_coincidences_bounded_by_singles():
    rng = np.random.default_rng(7)
    for _ in range(20):
        alice = np.sort(rng.random(int(rng.integers(1, 500))))
        bob = np.sort(rng.random(int(rng.integers(1, 500))))
        matched = match_coincidences(*tag_arms(alice, bob), 0.05)
        assert matched <= min(alice.size, bob.size)


def test_independent_streams_match_at_accidental_rate():
    # Two unrelated Poisson streams at the reference bench's with-rotation
    # singles rates; the greedy matcher realizes the 2*tau ("double")
    # accidental convention because either side may open the window.  The
    # hour is drawn and counted slice by slice, as the runner counts a run,
    # so its 12 million entries are never held at once.
    rng = np.random.default_rng(8)
    duration = 3600.0

    def draw(t0, t1):
        alice = t0 + dark_times(2301.0, t1 - t0, rng)
        bob = t0 + dark_times(1098.0, t1 - t0, rng)
        return tag_arms(alice, bob)

    window = 20e-9
    count = _count(_sliced(draw, 2301.0 + 1098.0, duration), window, duration).coincidences
    expected_double = 2301.0 * 1098.0 * 2 * window * duration
    assert abs(count - expected_double) < 5 * math.sqrt(expected_double)
    # over one minute that is about 6 accidentals
    assert expected_double / 60 == pytest.approx(6.06, abs=0.01)


def test_doubling_duration_doubles_counts():
    short_rng, long_rng = np.random.default_rng(9), np.random.default_rng(10)
    for _ in range(2):  # one stream per arm
        short = dark_times(5000.0, 10.0, short_rng)
        long = dark_times(5000.0, 20.0, long_rng)
        assert abs(long.size - 2 * short.size) < 8 * math.sqrt(long.size)


def test_count_run_summary():
    # the runner's last step: join the carried tail to each slice's draws, match
    window = DetectorConfig(efficiency_alice=1.0, efficiency_bob=1.0).coincidence_window
    times = np.sort(np.random.default_rng(11).random(500))  # sorted, as the runner's draws are

    def draw(t0, t1):
        kept = times[(times >= t0) & (times < t1)]
        return kept, np.full(kept.size, BOTH, dtype=np.int8)

    record = _count(_sliced(draw, 500.0, 1.0), window, 1.0)
    assert record == CountRecord(500, 500, 500, 1.0)  # identical timestamps always match
    # Darks only, drawn in the slice as the runner's draws bring them.
    rng = np.random.default_rng(13)

    def dark_draw(t0, t1):
        alice = t0 + dark_times(1300.0, t1 - t0, rng)
        bob = t0 + dark_times(600.0, t1 - t0, rng)
        return tag_arms(alice, bob)

    record = _count(_sliced(dark_draw, 1900.0, 2.0), window, 2.0)
    check = np.random.default_rng(13)
    alice = dark_times(1300.0, 2.0, check)
    bob = dark_times(600.0, 2.0, check)
    assert record == CountRecord(
        alice.size,
        bob.size,
        match_coincidences(*tag_arms(alice, bob), window),
        2.0,
    )


def test_dark_only_run_over_many_slices_has_the_accidental_rate():
    # 2e5 darks/s for 3 s: about ten slices, each drawing its own darks
    det = DetectorConfig(
        efficiency_alice=1.0, efficiency_bob=1.0, dark_rate_alice=1e5, dark_rate_bob=1e5
    )
    plan = RunPlan(ApparatusConfig(), det, MalusLHV(), pair_rate=1.0, integration_time=3.0)
    record = run_setting(
        plan, 0.0, 0.0, np.random.default_rng(14), rotation=False, polarized=False, source=False
    )
    for singles in (record.singles_alice, record.singles_bob):
        assert abs(singles - 3e5) < 4 * math.sqrt(3e5)
    accidentals = 2 * det.coincidence_window * 1e5 * 1e5 * 3.0  # 1200
    assert abs(record.coincidences - accidentals) < 4 * math.sqrt(accidentals)


def test_detector_config_validation():
    with pytest.raises(ValueError, match="alice efficiency"):
        DetectorConfig(efficiency_alice=0.0, efficiency_bob=0.5)
    with pytest.raises(ValueError, match="bob efficiency"):
        DetectorConfig(efficiency_alice=0.5, efficiency_bob=1.5)
    for arm in ("dark_rate_alice", "dark_rate_bob"):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="dark rates must be finite and non-negative"):
                DetectorConfig(efficiency_alice=0.5, efficiency_bob=0.5, **{arm: bad})
    with pytest.raises(ValueError, match="coincidence window"):
        DetectorConfig(efficiency_alice=0.5, efficiency_bob=0.5, coincidence_window=0.0)


def test_count_record_validation(tmp_path):
    with pytest.raises(ValueError, match="non-negative"):
        CountRecord(-1.0, 10.0, 0.0)
    with pytest.raises(ValueError, match="cannot exceed"):
        CountRecord(10.0, 10.0, 11.0)
    with pytest.raises(ValueError, match="duration"):
        CountRecord(10.0, 10.0, 1.0, duration=0.0)
    for bad in (math.nan, math.inf):
        for counts in ((bad, 10.0, 0.0), (10.0, bad, 0.0), (10.0, 10.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                CountRecord(*counts)
        with pytest.raises(ValueError, match="duration"):
            CountRecord(10.0, 10.0, 1.0, duration=bad)
    path = tmp_path / "records.csv"
    path.write_text("label,singles_alice_per_s,singles_bob_per_s,coincidences_per_s\n"
                    "dark,nan,600,0.08\n")
    with pytest.raises(ValueError, match="finite"):
        read_count_records(path)
    record = CountRecord(100.0, 50.0, 10.0, duration=2.0)
    assert record.rates == (50.0, 25.0, 5.0)


def test_count_records_roundtrip(tmp_path):
    rows = [
        ("dark", CountRecord(1300.0, 600.0, 0.08)),
        ("no_rotation", CountRecord(33894.0, 20329.0, 389.0)),
        ("third", CountRecord(1.0, 1.0, 1 / 3)),
    ]
    path = tmp_path / "records.csv"
    write_count_records(rows, path)
    back = read_count_records(path)
    assert back["dark"].rates == (1300.0, 600.0, 0.08)
    assert back["no_rotation"].rates == (33894.0, 20329.0, 389.0)
    assert back["third"].rates == (1.0, 1.0, 1 / 3)


def test_count_records_reject_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope,a,b,c\n1,2,3,4\n")
    with pytest.raises(ValueError, match="header"):
        read_count_records(path)
