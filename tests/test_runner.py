import json
import math
import statistics
import tracemalloc
import warnings

import numpy as np
import pytest

from bellgate.analysis import (
    CountRecord,
    NumericalError,
    calibrate_from_counts,
    correlation_E,
    read_count_records,
)
from bellgate.apparatus import (
    ApparatusConfig,
    DetectorConfig,
    GateState,
    LIGHT_SPEED_VACUUM,
    gate_geometry,
)
from bellgate.causality import influence_window_analysis, resonant_influence_speeds
from bellgate.config import MAX_RUN_EVENTS, RunPlan, build_plan
from bellgate.detection import ALICE, BOB, BOTH, detection_pattern, match_coincidences
from bellgate.fixtures import fixture_path
from bellgate.gating import _CHUNK_EVENTS, gate_open
from bellgate import runner
from bellgate.record import replace
from bellgate.runner import (
    _BLOCK_STEPS,
    DEGRADATION_LABELS,
    _count,
    _count_homogeneous,
    _entries_before,
    derive_seed,
    run_chsh,
    run_degradation,
    run_setting,
)
from bellgate.sources import (
    NO_POLARIZERS,
    MalusLHV,
    QuantumState,
    ThresholdLHV,
    TravelingInfluence,
    correlation_theory,
    joint_probabilities,
)
from conftest import _sliced, speed_at_pass_fraction, tag_arms
from oracle import dark_times, same_distribution

PERFECT = DetectorConfig(efficiency_alice=1.0, efficiency_bob=1.0, coincidence_window=20e-9)


def quick_plan(model, pair_rate=20000.0, integration_time=1.0, seed=0, **kwargs):
    return RunPlan(
        apparatus=ApparatusConfig(),
        detector=PERFECT,
        model=model,
        pair_rate=pair_rate,
        integration_time=integration_time,
        rotation=False,
        seed=seed,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# Calibration


def test_calibration_from_reference_luminosity():
    record = CountRecord(33894.0, 20329.0, 389.0)
    dark = CountRecord(1300.0, 600.0, 0.08)
    cal = calibrate_from_counts(record, dark)
    assert cal.pair_rate == pytest.approx(32594.0 * 19729.0 / 388.92, rel=1e-12)
    assert cal.pair_rate == pytest.approx(1.653e6, rel=1e-3)
    assert cal.efficiency_alice == pytest.approx(388.92 / 19729.0, rel=1e-12)
    assert cal.efficiency_alice == pytest.approx(0.0197, abs=1e-4)
    assert cal.efficiency_bob == pytest.approx(388.92 / 32594.0, rel=1e-12)
    assert cal.efficiency_bob == pytest.approx(0.0119, abs=1e-4)
    # These are the bundled Table 1's rows, and the rates they calibrate
    # to are reference_bench.json's.
    records = read_count_records(fixture_path("table1.csv"))
    assert calibrate_from_counts(records["no_rotation"], records["dark"]) == cal
    bench = json.loads(fixture_path("reference_bench.json").read_text())
    assert cal.pair_rate == pytest.approx(bench["run"]["pair_rate"], rel=1e-3)
    detector = bench["detector"]
    assert cal.efficiency_alice == pytest.approx(detector["efficiency_alice"], abs=1e-4)
    assert cal.efficiency_bob == pytest.approx(detector["efficiency_bob"], abs=1e-4)


def test_calibration_lossless_detectors():
    record = CountRecord(500.0, 500.0, 500.0)
    dark = CountRecord(0.0, 0.0, 0.0)
    cal = calibrate_from_counts(record, dark)
    assert cal.efficiency_alice == pytest.approx(1.0, rel=1e-12)
    assert cal.efficiency_bob == pytest.approx(1.0, rel=1e-12)
    assert cal.pair_rate == pytest.approx(500.0, rel=1e-12)


def test_calibration_scales():
    dark = CountRecord(1.0, 1.0, 0.0)
    one = calibrate_from_counts(CountRecord(1001.0, 501.0, 50.0), dark)
    two = calibrate_from_counts(CountRecord(2001.0, 1001.0, 100.0), dark)
    assert two.pair_rate == pytest.approx(2 * one.pair_rate, rel=1e-12)
    assert two.efficiency_alice == pytest.approx(one.efficiency_alice, rel=1e-12)
    assert two.efficiency_bob == pytest.approx(one.efficiency_bob, rel=1e-12)


def test_calibration_needs_coincidences():
    with pytest.raises(NumericalError):
        calibrate_from_counts(CountRecord(100.0, 100.0, 0.0), CountRecord(0.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# Seed derivation and reproducibility


def test_seed_derivation_is_stable_and_distinct():
    # frozen so recorded results stay reproducible across releases
    assert derive_seed(0, "chsh", 0.0, 22.5) == 3565258022464246938
    assert derive_seed(0, "chsh", 0.0, 22.5) != derive_seed(0, "chsh", 22.5, 0.0)
    assert derive_seed(0, "chsh", 0.0, 22.5) != derive_seed(1, "chsh", 0.0, 22.5)


def test_chsh_runs_are_deterministic():
    plan = quick_plan(QuantumState("mirrored", 0.9), pair_rate=5000.0, seed=77)
    table_a, result_a = run_chsh(plan)
    table_b, result_b = run_chsh(plan)
    assert np.array_equal(table_a.counts, table_b.counts)
    assert np.array_equal(table_a.accidentals, table_b.accidentals)
    assert result_a.S == result_b.S


def test_plan_validation():
    with pytest.raises(ValueError, match="pair rate"):
        quick_plan(MalusLHV(), pair_rate=0.0)
    with pytest.raises(ValueError, match="integration time"):
        quick_plan(MalusLHV(), integration_time=0.0)
    with pytest.raises(ValueError, match="unknown accidental convention 'dobule'"):
        quick_plan(MalusLHV(), accidental_convention="dobule")
    quick_plan(MalusLHV(), accidental_convention="single")
    # derive_seed would run seed 1.5 as seed 1, and a truthy string would run gated
    for seed in (1.5, True):
        with pytest.raises(ValueError, match="seed must be an integer"):
            quick_plan(MalusLHV(), seed=seed)
    for rotation in ("false", 1):
        with pytest.raises(ValueError, match="rotation must be true or false"):
            replace(quick_plan(MalusLHV()), rotation=rotation)
    period = gate_geometry(ApparatusConfig()).gate_period
    for window in (period, 2 * period):
        with pytest.raises(ValueError, match="shorter than the gate period"):
            replace(quick_plan(MalusLHV()), detector=replace(PERFECT, coincidence_window=window))
    replace(quick_plan(MalusLHV()), detector=replace(PERFECT, coincidence_window=0.99 * period))
    # Perfect detectors fire every pair of the ungated luminosity run.
    quick_plan(MalusLHV(), pair_rate=1e6, integration_time=MAX_RUN_EVENTS / 1e6)
    with pytest.raises(ValueError, match="run too large"):
        quick_plan(MalusLHV(), pair_rate=1e6, integration_time=1.01 * MAX_RUN_EVENTS / 1e6)
    # Darks count too: 1e9 pairs alone fit, with 20 darks per second they do not.
    dark_plan = quick_plan(MalusLHV(), pair_rate=1.0, integration_time=1e9)
    with pytest.raises(ValueError, match="run too large"):
        replace(dark_plan, detector=replace(PERFECT, dark_rate_alice=10.0, dark_rate_bob=10.0))


@pytest.mark.parametrize(
    "model", [MalusLHV(), TravelingInfluence(QuantumState(), MalusLHV())], ids=["malus", "traveling"]
)
def test_run_size_refusal_reads_the_luminosity_stream(model):
    # The refusal compares the ungated luminosity run's events, its
    # stream's intensity times the integration time, with MAX_RUN_EVENTS.
    detector = replace(PERFECT, efficiency_bob=0.3, dark_rate_alice=7.0, dark_rate_bob=3.0)
    plan = replace(quick_plan(model, pair_rate=1e6), detector=detector)
    [(gate, law)] = plan.stream(rotation=False)
    assert gate == GateState(plan.gate.gate_period, plan.gate.gate_period)
    assert law[0] == 7.0 + 1e6 * detector.fire_probability(NO_POLARIZERS) + 3.0
    limit = MAX_RUN_EVENTS / law[0]
    for duration in (0.99 * limit, limit, math.nextafter(limit, math.inf), 1.01 * limit):
        if duration * law[0] > MAX_RUN_EVENTS:
            with pytest.raises(ValueError, match="run too large"):
                replace(plan, integration_time=duration)
        else:
            replace(plan, integration_time=duration)


def test_plan_rejects_non_finite_rate_and_time():
    with pytest.raises(ValueError, match="pair rate must be positive and finite"):
        quick_plan(MalusLHV(), pair_rate=math.inf)
    with pytest.raises(ValueError, match="integration time must be positive and finite"):
        quick_plan(MalusLHV(), integration_time=math.nan)


def test_plan_accidentals_conventions():
    # PERFECT's window is 20 ns; a plan's estimate is for one run of its integration time.
    single = quick_plan(MalusLHV(), accidental_convention="single")
    double = replace(single, accidental_convention="double")
    assert single.accidentals(2301.0, 1098.0) == pytest.approx(0.05052996, rel=1e-12)
    assert double.accidentals(2301.0, 1098.0) == pytest.approx(0.10105992, rel=1e-12)
    # about 3 per minute (single) vs 6 per minute (double)
    minute = replace(single, integration_time=60.0)
    assert minute.accidentals(2301.0, 1098.0) == pytest.approx(3.03, abs=0.01)


def test_plan_accidentals_zero_and_errors():
    double = quick_plan(MalusLHV(), accidental_convention="double")
    assert double.accidentals(0.0, 1098.0) == 0.0
    assert replace(double, accidental_convention="single").accidentals(2301.0, 0.0) == 0.0
    with pytest.raises(ValueError, match="singles rates must be non-negative"):
        double.accidentals(-1.0, 1.0)
    # An unknown convention is refused when the plan is built.
    with pytest.raises(ValueError, match="unknown accidental convention 'triple'"):
        replace(double, accidental_convention="triple")


def _counted_pieces(monkeypatch):
    """The list of the pieces that a run hands :func:`~bellgate.runner._count`."""
    seen = []

    def count(pieces, window, duration):
        seen.extend(pieces)
        return _count(iter(seen), window, duration)

    monkeypatch.setattr(runner, "_count", count)
    return seen


def _lambda(pieces, duration):
    """The draws a gated run of ``duration`` seconds expects: its whole
    periods and each piece's open time in the last."""
    period = pieces[0][0].gate_period
    whole = math.floor(duration / period)
    rest = duration - whole * period
    return sum(
        law[0] * (whole * gate.aperture_time + min(max(rest - gate.phase_offset, 0.0), gate.aperture_time))
        for gate, law in pieces
    )


def test_gated_run_is_drawn_in_chunks_of_expected_draws(monkeypatch):
    # demo.json at 2e6 pairs/s expects about 0.2 draws a period, so 30 s
    # takes four chunks.  One Poisson count each: the chunks tile
    # [0, Lambda(T)), all but the last expect _CHUNK_EVENTS draws, and the
    # counter gets one piece per chunk, about a chunk long, in time order
    # and before T.
    plan = build_plan(json.loads(fixture_path("demo.json").read_text()))
    plan = replace(plan, pair_rate=2e6, integration_time=30.1234)
    pieces = plan.stream(0.0, 22.5)
    seen = _counted_pieces(monkeypatch)
    rng = _PoissonMeans(5)
    run_setting(plan, 0.0, 22.5, rng)
    assert len(rng.means) == len(seen) == 4
    assert rng.means[:-1] == [_CHUNK_EVENTS] * 3 and 0 < rng.means[-1] <= _CHUNK_EVENTS
    assert sum(rng.means) == pytest.approx(_lambda(pieces, plan.integration_time), rel=1e-12)
    assert max(times.size for times, _ in seen) < _CHUNK_EVENTS + 5 * math.sqrt(_CHUNK_EVENTS)
    times = np.concatenate([times for times, _ in seen])
    assert np.all(times[1:] >= times[:-1]) and times.max() < plan.integration_time


def _cut_plan(rotation_rate, dark_rate, duration):
    """demo.json with its mirror turning at ``rotation_rate``, both dark
    rates at ``dark_rate`` and a 0.1 ns window, for ``duration`` seconds."""
    plan = build_plan(json.loads(fixture_path("demo.json").read_text()))
    apparatus = replace(plan.apparatus, rotation_rate=rotation_rate)
    detector = replace(
        plan.detector, dark_rate_alice=dark_rate, dark_rate_bob=dark_rate, coincidence_window=1e-10
    )
    return replace(plan, apparatus=apparatus, detector=detector, integration_time=duration)


def test_a_period_that_expects_more_than_a_chunk_is_drawn_in_chunks(monkeypatch):
    # At 1 turn/s the period is 29 ms, and darks of 1e7/s per arm put
    # about 5.9e5 draws in it.  The run ends halfway through its third
    # period: its chunks tile [0, Lambda(T)), each expecting at most
    # _CHUNK_EVENTS draws, so the counter gets pieces of about a chunk,
    # and nothing at or after T.
    period = gate_geometry(_cut_plan(1.0, 1e7, 1.0).apparatus).gate_period
    plan = _cut_plan(1.0, 1e7, 2.5 * period)
    pieces = plan.stream(0.0, 22.5)
    assert sum(law[0] * gate.aperture_time for gate, law in pieces) > 8 * _CHUNK_EVENTS
    total = _lambda(pieces, plan.integration_time)
    seen = _counted_pieces(monkeypatch)
    rng = _PoissonMeans(5)
    run_setting(plan, 0.0, 22.5, rng)
    assert len(rng.means) == len(seen) == math.ceil(total / _CHUNK_EVENTS)
    assert max(rng.means) == _CHUNK_EVENTS and sum(rng.means) == pytest.approx(total, rel=1e-12)
    assert max(times.size for times, _ in seen) < _CHUNK_EVENTS + 5 * math.sqrt(_CHUNK_EVENTS)
    times = np.concatenate([times for times, _ in seen])
    assert np.all(times[1:] >= times[:-1]) and times.max() < plan.integration_time
    assert abs(times.size - total) < 5 * math.sqrt(total)


def test_marks_follow_the_piece_a_time_lies_in(monkeypatch):
    # A traveling model whose informed arrivals fill the last quarter of
    # the open window cuts it in two, each part under its own model's
    # joint law, and the closed stretch holds darks alone.  Each entry,
    # placed in its piece by gate_open on that piece's gate, fires Alice
    # alone, both or Bob alone in that piece's shares, and each piece
    # holds its rate times its open time.
    apparatus = ApparatusConfig(aperture_width=0.01)
    detector = DetectorConfig(
        efficiency_alice=0.5, efficiency_bob=0.4, dark_rate_alice=3e4, dark_rate_bob=2e4
    )
    speed = speed_at_pass_fraction(apparatus, 0.25, early=False)
    model = TravelingInfluence(QuantumState("mirrored", 1.0), MalusLHV(), speed)
    plan = RunPlan(apparatus, detector, model, pair_rate=2e6, integration_time=0.1)
    pieces = plan.stream(0.0, 22.5)
    assert len(pieces) == 3
    seen, drawn = _counted_pieces(monkeypatch), []
    for seed in range(20):
        seen.clear()
        run_setting(plan, 0.0, 22.5, np.random.default_rng(seed))
        drawn.extend(seen)
    times = np.concatenate([times for times, _ in drawn])
    arms = np.concatenate([arms for _, arms in drawn])
    for gate, (rate, alice_only, both) in pieces:
        inside = gate_open(times, gate)
        periods = 20 * plan.integration_time / gate.gate_period
        expected = periods * gate.aperture_time * np.diff([0.0, alice_only, both, rate])
        counts = [np.count_nonzero(inside & (arms == code)) for code in (ALICE, BOTH, BOB)]
        assert np.all(np.abs(counts - expected) <= 4 * np.sqrt(expected)), (gate, counts, expected)


class _PoissonMeans(np.random.Generator):
    """A generator that notes the mean of every Poisson count it draws."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.means = []

    def poisson(self, lam, size=None):
        self.means.append(lam)
        return super().poisson(lam, size)


@pytest.mark.parametrize("dark_rate", [1e3, 1e7])
def test_a_run_much_shorter_than_its_gate_period_draws_only_its_length(dark_rate):
    # At 1e-4 turns/s the period is about 290 s and the window stays open
    # for its first 4.7 s, so a 1 ms run lies inside one open window.  It
    # draws one Poisson count over its own length, whether its period
    # expects fewer draws than a chunk (darks of 1e3/s per arm) or far
    # more (1e7/s, 2.9e9 draws a period).
    plan = _cut_plan(1e-4, dark_rate, 1e-3)
    (gate, law), *_ = pieces = plan.stream(0.0, 22.5)
    assert gate.phase_offset == 0.0 and gate.aperture_time > 1e3 * plan.integration_time
    rng = _PoissonMeans(3)
    record = run_setting(plan, 0.0, 22.5, rng)
    # One draw over the run for its cell or piece, none past the run's end.
    assert len(rng.means) <= len(pieces)
    assert rng.means == pytest.approx([law[0] * plan.integration_time] + [0.0] * (len(rng.means) - 1))
    assert record.singles_alice + record.singles_bob < 3 * law[0] * plan.integration_time + 10


def test_gated_run_ending_inside_an_open_window(monkeypatch):
    # demo.json ends 0.4 of an aperture into its fourth window, at rates
    # that put hundreds of entries in each period.  The counter gets no
    # entry at or after the end, and the singles are each piece's rate
    # times its open measure of [0, T): three whole windows and what the
    # end leaves of the fourth.
    plan = build_plan(json.loads(fixture_path("demo.json").read_text()))
    period, width = plan.gate.gate_period, plan.gate.aperture_time
    duration = 3 * period + 0.4 * width
    detector = replace(plan.detector, dark_rate_alice=6e6, dark_rate_bob=3e6)
    plan = replace(plan, detector=detector, pair_rate=1e9, integration_time=duration)
    seen = _counted_pieces(monkeypatch)
    seeds = 20
    singles = np.zeros(2)
    for seed in range(seeds):
        seen.clear()
        record = run_setting(plan, 0.0, 22.5, np.random.default_rng(seed))
        times = np.concatenate([times for times, _ in seen])
        assert times.size > 0 and times.max() < duration
        singles += record.singles_alice, record.singles_bob
    expected = np.zeros(2)
    for gate, (rate, alice_only, alice) in plan.stream(0.0, 22.5):
        last = min(max(duration - 3 * period - gate.phase_offset, 0.0), gate.aperture_time)
        expected += seeds * (3 * gate.aperture_time + last) * np.array([alice, rate - alice_only])
    assert np.all(np.abs(singles - expected) <= 4 * np.sqrt(expected)), (singles, expected)


# ---------------------------------------------------------------------------
# Streamed counting against one match over the whole run

def _streamed_equals_whole(times, arms, window, delay=0.0, slices=4, darks=(0.0, 0.0)):
    """_count over a fixed tagged stream, each entry drawn in the slice
    where it was emitted (``delay`` before it is detected), against one
    match_coincidences over the whole stream.  ``darks`` are the (alice,
    bob) dark rates: each slice's draw adds its own darks, detected in
    the same delayed slice, and the whole stream holds every draw.  The
    run is cut into ``slices`` equal slices: four have the dyadic edges
    0.25, 0.5 and 0.75."""
    order = np.argsort(times, kind="stable")
    times, arms = np.asarray(times, dtype=float)[order], np.asarray(arms, dtype=np.int8)[order]
    rng = np.random.default_rng(0)
    drawn = []

    def draw(t0, t1):
        emitted = (times - delay >= t0) & (times - delay < t1)
        parts = [(times[emitted], arms[emitted])]
        for dark_rate, arm in zip(darks, (ALICE, BOB)):
            dark = t0 + delay + dark_times(dark_rate, t1 - t0, rng)
            parts.append((dark, np.full(dark.size, arm, dtype=np.int8)))
        drawn.extend(parts)
        return tag_parts(parts)

    record = _count(_sliced(draw, slices, 1.0), window, 1.0)
    all_times, all_arms = tag_parts(drawn)
    whole = match_coincidences(all_times, all_arms, window)
    singles = [np.count_nonzero(all_arms & arm) for arm in (ALICE, BOB)]
    assert record == CountRecord(*singles, whole, 1.0)
    return whole


def tag_parts(parts):
    """One time-ordered tagged stream of (times, arms) parts."""
    times = np.concatenate([t for t, _ in parts])
    arms = np.concatenate([a for _, a in parts])
    order = np.argsort(times, kind="stable")
    return times[order], arms[order]


def _clusters(rng, centers, size, spacing):
    """Chains of ``size`` events ``spacing`` apart around each center, on random arms."""
    times = (np.asarray(centers)[:, None] + spacing * (np.arange(size) - size / 2)).ravel()
    on_alice = rng.random(times.size) < 0.5
    return times[on_alice], times[~on_alice]


def test_dark_only_run_without_darks_counts_nothing():
    plan = quick_plan(MalusLHV(), integration_time=5.0)
    for rotation in (False, True):
        record = run_setting(plan, None, None, np.random.default_rng(1), rotation, source=False)
        assert record == CountRecord(0, 0, 0, 5.0)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("delay", [0.0, 3e-3])
def test_streamed_count_with_clusters_across_slice_edges(seed, delay):
    rng = np.random.default_rng(seed)
    window = 1e-3
    edges = np.array([0.25, 0.5, 0.75])
    # Dense chains straddling each edge, a few events sitting just inside
    # or outside a window of it, and a sparse background.
    size = int(rng.integers(3, 9))
    chain_a, chain_b = _clusters(rng, edges + rng.uniform(-window, window, 3), size, 0.6 * window)
    near = (edges[:, None] + window * np.array([-1.001, -0.999, -0.5, 0.0, 0.5, 0.999])).ravel()
    near_alice = rng.random(near.size) < 0.5
    background = rng.random(400) * 0.99
    background_alice = rng.random(400) < 0.5
    alice = np.concatenate([chain_a, near[near_alice], background[background_alice]])
    bob = np.concatenate([chain_b, near[~near_alice], background[~background_alice]])
    times, arms = tag_arms(alice, bob)
    # Entries where both arms fired, as both photons of a pair share one.
    pairs = rng.random(100) * 0.99
    times = np.concatenate([times, pairs])
    arms = np.concatenate([arms, np.full(pairs.size, BOTH, dtype=np.int8)])
    # No darks, a few per slice, and more darks than draws.
    for darks in [(0.0, 0.0), (40.0, 20.0), (4e3, 2e3)]:
        assert _streamed_equals_whole(times + delay, arms, window, delay, darks=darks) > 0


@pytest.mark.parametrize("seed", range(5))
def test_streamed_count_with_gaps_of_exactly_one_window_at_the_frontier(seed):
    # Dyadic grid of half windows around each edge: every difference is
    # exact, so gaps of exactly one window (no match, a valid cut) fall on
    # and around the slice edge.
    rng = np.random.default_rng(seed)
    window = 2.0**-12
    steps = np.arange(-8, 8)
    grid = (np.array([0.25, 0.5, 0.75])[:, None] + 0.5 * window * steps).ravel()
    alice = grid[rng.random(grid.size) < 0.4]
    bob = grid[rng.random(grid.size) < 0.4]
    # Exactly one window below and at each edge, the slice edge itself.
    alice = np.concatenate([alice, [0.25 - window, 0.5 - window, 0.75 - window]])
    bob = np.concatenate([bob, [0.25, 0.5, 0.75]])
    _streamed_equals_whole(*tag_arms(alice, bob), window)


def test_streamed_count_at_the_frontier_to_the_last_bit():
    # Each slice's last event is one window, or one window less 2**-20 of
    # it, below the slice edge, where the next slice's first event sits.
    window = 2.0**-12
    just_inside = window * (1.0 - 2.0**-20)
    alice = [0.25 - window, 0.5 - just_inside, 0.75 - just_inside]
    bob = [0.25, 0.5, 0.75]
    assert _streamed_equals_whole(*tag_arms(alice, bob), window) == 2
    assert _streamed_equals_whole(*tag_arms(bob, alice), window) == 2


@pytest.mark.parametrize("delay", [0.0, 3e-3])
def test_streamed_count_matches_the_tail_left_at_the_end_of_the_run(delay):
    # Entries within a window of the run's end, or detected after it, stay
    # in the tail that the last slice carries and are matched after the loop.
    window = 2.0**-12
    times = 1.0 - np.array([0.75, 0.5, 0.25]) * window
    arms = np.array([BOTH, ALICE, BOB], dtype=np.int8)
    assert _streamed_equals_whole(times + delay, arms, window, delay) == 2


@pytest.mark.parametrize("seed", range(3))
def test_streamed_count_with_a_long_cluster_and_a_slice_without_a_cut(seed):
    rng = np.random.default_rng(seed)
    window = 2.0**-10
    # A chain of 512 events across the 0.5 edge, and one that fills the
    # whole slice [0.25, 0.5) so that slice has no cut.
    across = _clusters(rng, [0.5], 512, 0.3 * window)
    filling = _clusters(rng, [0.4], int(0.3 / (0.7 * window)), 0.7 * window)
    background = rng.random(200) * 0.99
    on_alice = rng.random(200) < 0.5
    alice = np.concatenate([across[0], filling[0], background[on_alice]])
    bob = np.concatenate([across[1], filling[1], background[~on_alice]])
    assert _streamed_equals_whole(*tag_arms(alice, bob), window) > 0


def test_streamed_count_cuts_below_a_one_sided_chain():
    # Alice's last 128 entries below the 0.5 edge are a chain with no
    # cut; the last cut lies below it, between pairs of an Alice and a
    # Bob entry half a window apart.
    window = 2.0**-10
    chain = 0.5 - 0.5 * window * np.arange(1, 129)
    pairs = chain[-1] - 3.0 * window * np.arange(1, 21)
    alice = np.concatenate([chain, pairs + 0.5 * window])
    assert _streamed_equals_whole(*tag_arms(alice, pairs), window) == 20


def test_count_with_a_piece_starting_at_the_last_entry_before_it():
    # The second piece starts at the first piece's last entry, not at a
    # slice edge, and chains a cluster across the junction (Alice,
    # Alice | Bob, Bob, Bob); the third piece is empty.
    window = 2.0**-10
    pieces = [
        ([0.1, 0.25, 0.25 + 0.5 * window], [BOTH, ALICE, ALICE]),
        ([0.25 + 0.5 * window, 0.25 + 0.75 * window, 0.25 + 1.25 * window, 0.5],
         [BOB, BOB, BOB, ALICE]),
        ([], []),
        ([0.75, 0.9], [BOB, BOTH]),
    ]
    pieces = [(np.array(t, dtype=float), np.array(a, dtype=np.int8)) for t, a in pieces]
    times = np.concatenate([t for t, _ in pieces])
    arms = np.concatenate([a for _, a in pieces])
    whole = match_coincidences(times, arms, window)
    # Matched piece by piece with nothing carried, the chain goes unmatched.
    assert sum(match_coincidences(t, a, window) for t, a in pieces) == 2 < whole == 4
    singles = [np.count_nonzero(arms & arm) for arm in (ALICE, BOB)]
    assert _count(iter(pieces), window, 1.0) == CountRecord(*singles, whole, 1.0)


def test_count_carries_a_cluster_that_starts_before_the_next_piece():
    # Alice at 1.0 ends her piece; Bob half a window later starts the next.
    window = 1e-3
    pieces = [
        (np.array([1.0]), np.array([ALICE], dtype=np.int8)),
        (np.array([1.0005]), np.array([BOB], dtype=np.int8)),
    ]
    assert _count(iter(pieces), window, 2.0) == CountRecord(1, 1, 1, 2.0)


def _random_split(rng, window):
    """A random tagged stream on a grid of quarter windows, about one entry
    per window (ties, gaps of exactly one window and clusters all occur),
    and sorted cut indices into it, repeats and ends included."""
    n = int(rng.integers(0, 80))
    times = np.sort(rng.integers(0, 4 * n + 1, n)) * (window / 4)
    arms = rng.choice(np.array([0, ALICE, BOB, BOTH], dtype=np.int8), n)
    cuts = np.sort(rng.integers(0, n + 1, int(rng.integers(0, 12))))
    return times, arms, cuts


def test_count_of_any_split_in_time_order_equals_one_match():
    window = 2.0**-6
    rng = np.random.default_rng(2024)
    seen = {"inside a cluster": 0, "between tied entries": 0, "at one window": 0,
            "empty piece": 0, "one-entry piece": 0}
    for _ in range(300):
        times, arms, cuts = _random_split(rng, window)
        edges = [0, *cuts, times.size]
        pieces = [(times[lo:hi], arms[lo:hi]) for lo, hi in zip(edges, edges[1:])]
        whole = match_coincidences(times, arms, window)
        singles = [np.count_nonzero(arms & arm) for arm in (ALICE, BOB)]
        assert _count(iter(pieces), window, 1.0) == CountRecord(*singles, whole, 1.0)
        gaps = [times[c] - times[c - 1] for c in cuts if 0 < c < times.size]
        seen["inside a cluster"] += sum(0 < gap < window for gap in gaps)
        seen["between tied entries"] += sum(gap == 0 for gap in gaps)
        seen["at one window"] += sum(gap == window for gap in gaps)
        seen["empty piece"] += sum(hi == lo for lo, hi in zip(edges, edges[1:]))
        seen["one-entry piece"] += sum(hi - lo == 1 for lo, hi in zip(edges, edges[1:]))
    assert min(seen.values()) > 0, seen


def test_count_of_a_piece_earlier_than_the_carried_tail_raises():
    # At least the last entry of every piece is carried, so an entry of a
    # later piece before it always reaches a match.
    window = 2.0**-6
    rng = np.random.default_rng(2025)
    cases = 0
    while cases < 200:
        times, arms, cuts = _random_split(rng, window)
        cuts = cuts[(0 < cuts) & (cuts < times.size)]
        if not cuts.size:
            continue
        cases += 1
        edges = [0, *cuts, times.size]
        pieces = [(times[lo:hi], arms[lo:hi]) for lo, hi in zip(edges, edges[1:])]
        # The new entry starts a later piece, which stays sorted itself.
        k = int(rng.integers(1, len(pieces)))
        early = times[edges[k] - 1] - int(rng.integers(1, 9)) * (window / 4)
        later_times, later_arms = pieces[k]
        pieces[k] = (np.concatenate([[early], later_times]),
                     np.concatenate([[BOTH], later_arms]).astype(np.int8))
        with pytest.raises(ValueError, match="timestamps are not sorted"):
            _count(iter(pieces), window, 1.0)


def test_count_holds_only_the_tail_while_the_next_piece_is_drawn():
    # Pieces of a gated chunk's size whose every gap is a window or more:
    # each is matched whole but its last entry.  The generator keeps no
    # reference to what it yields, so what is live when the counter asks
    # for the next piece is the counter's own (a piece is 576 KB).
    window, n = 1e-8, 65536
    live = []

    def pieces():
        for k in range(3):
            if k:
                live.append(tracemalloc.get_traced_memory()[0])
            yield k + np.arange(n) * (2 * window), np.full(n, BOTH, dtype=np.int8)

    tracemalloc.start()
    try:
        record = _count(pieces(), window, 1.0)
    finally:
        tracemalloc.stop()
    assert record == CountRecord(3 * n, 3 * n, 3 * n, 1.0)
    assert max(live) < 64 * 1024, f"{live} B live between pieces"


@pytest.mark.parametrize("seed", range(3))
def test_streamed_count_across_empty_slices(seed):
    rng = np.random.default_rng(seed)
    window = 1e-3
    # Events only in the first and last of eight slices, chains at the
    # edges of the empty ones, and a run of empty slices at the end.
    first = rng.random(300) * 0.125
    last = 0.875 + rng.random(300) * 0.1
    chain_a, chain_b = _clusters(rng, [0.125 - 0.2 * window, 0.875], 5, 0.5 * window)
    events = np.concatenate([first, last])
    on_alice = rng.random(events.size) < 0.5
    alice = np.concatenate([events[on_alice], chain_a])
    bob = np.concatenate([events[~on_alice], chain_b, events[on_alice][:50]])
    _streamed_equals_whole(*tag_arms(alice, bob), window, slices=8)
    _streamed_equals_whole(*tag_arms(alice / 4, bob / 4), window, slices=8)


@pytest.mark.parametrize(
    "rotation, crowded",
    [
        pytest.param(False, False, id="False"),
        pytest.param(True, False, id="True"),
        # About one entry per window with the mirror stopped: most entries
        # are placed and clusters straddle the blocks, so the open cluster
        # is carried between them.
        pytest.param(False, True, id="crowded"),
    ],
)
def test_run_setting_memory_does_not_grow_with_integration_time(rotation, crowded):
    plan = replace(build_plan(json.loads(fixture_path("demo.json").read_text())), rotation=rotation)
    det = plan.detector
    fire = det.fire_probability(joint_probabilities(plan.model, 0.0, 22.5)[:3])
    darks = det.dark_rate_alice + det.dark_rate_bob
    if crowded:
        plan = replace(plan, pair_rate=(1.0 / det.coincidence_window - darks) / fire)
    open_fraction = gate_geometry(plan.apparatus).duty_cycle if rotation else 1.0
    draws_per_s = plan.pair_rate * fire * open_fraction + darks
    slice_events = _CHUNK_EVENTS
    if not rotation:
        # A full block's steps, each one short gap, span this many entries.
        slice_events = _BLOCK_STEPS / -math.expm1(-draws_per_s * det.coincidence_window)
    # Just under four full slices or blocks, so T and 8T both fill them.
    duration = 3.99 * slice_events / draws_per_s
    warm_up = replace(plan, integration_time=min(1.0, duration))
    run_setting(warm_up, 0.0, 22.5, np.random.default_rng(0))
    peaks = []
    for scale in (1, 8):
        tracemalloc.start()
        try:
            record = run_setting(
                replace(plan, integration_time=scale * duration),
                0.0,
                22.5,
                np.random.default_rng(1),
            )
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert record.singles_alice > scale * slice_events / 2  # the slices really filled
    assert peaks[1] <= 1.25 * peaks[0], f"peak {peaks[0]} B at T, {peaks[1]} B at 8T"


# ---------------------------------------------------------------------------
# Mirror-stopped runs, counted by their close pairs

# A pair fires both arms in 43% of its entries, so coincidences are common.
STOPPED_JOINT = (0.5, 0.2, 0.2)
STOPPED_WINDOW = 1e-3


def _stopped_detector(rate):
    """Detectors whose darks are half of a stream of ``rate`` entries per
    second, Alice's twice Bob's, and the pair rate whose firing pairs are
    the other half."""
    det = DetectorConfig(
        efficiency_alice=0.9,
        efficiency_bob=0.8,
        dark_rate_alice=rate / 3,
        dark_rate_bob=rate / 6,
        coincidence_window=STOPPED_WINDOW,
    )
    return det, rate / 2 / det.fire_probability(STOPPED_JOINT)


def _count_stopped(det, joint, pair_rate, duration, rng):
    """Count a mirror-stopped run of ``det``'s stream law at ``joint`` and ``pair_rate``."""
    law = det.stream_law(joint, pair_rate)
    return _count_homogeneous(law, det.coincidence_window, duration, rng)


def _placed_pieces(monkeypatch, det, joint, pair_rate, duration, rng):
    """The record of a mirror-stopped run and the pieces of placed entries
    that it hands :func:`~bellgate.runner._count`."""
    seen = _counted_pieces(monkeypatch)
    return _count_stopped(det, joint, pair_rate, duration, rng), seen


def _placed_counts(det, pair_rate, duration, rng):
    """(singles_alice, singles_bob, coincidences) of the same run with every
    entry placed: a Poisson count of sorted uniforms, marked and matched whole."""
    darks = det.dark_rate_alice + det.dark_rate_bob
    rate = pair_rate * det.fire_probability(STOPPED_JOINT) + darks
    times = np.sort(rng.random(rng.poisson(rate * duration)) * duration)
    arms = detection_pattern(times.size, det.stream_law(STOPPED_JOINT, pair_rate), rng)
    singles = [np.count_nonzero(arms & arm) for arm in (ALICE, BOB)]
    return *singles, match_coincidences(times, arms, det.coincidence_window)


# name -> (entries per window, entries per run): where the run's end
# mostly falls, and whether clusters are rare, common or the whole run.
STOPPED_REGIMES = {
    "end_in_a_long_run": (1e-3, 20.0),
    "end_in_a_short_gap": (8.0, 20.0),
    "one_per_window": (1.0, 40.0),
    "far_past_one_per_window": (40.0, 40.0),  # p rounds to 1: one cluster
}
STOPPED_SEEDS = range(400)
# Total false-alarm rate 1e-3 over two tests of three quantities per regime.
STOPPED_ALPHA = 1e-3 / (2 * 3 * len(STOPPED_REGIMES))


def _counts(record):
    return record.singles_alice, record.singles_bob, record.coincidences


@pytest.mark.parametrize("regime", sorted(STOPPED_REGIMES))
def test_mirror_stopped_count_matches_the_fully_placed_stream(monkeypatch, regime):
    per_window, entries = STOPPED_REGIMES[regime]
    det, pair_rate = _stopped_detector(per_window / STOPPED_WINDOW)
    duration = entries * STOPPED_WINDOW / per_window
    placed, counted, lonely = [], [], 0
    for seed in STOPPED_SEEDS:
        rng = np.random.default_rng([seed, 0])
        placed.append(_placed_counts(det, pair_rate, duration, rng))
        rng = np.random.default_rng([seed, 1])
        record, pieces = _placed_pieces(monkeypatch, det, STOPPED_JOINT, pair_rate, duration, rng)
        counted.append(_counts(record))
        # Every entry the run places but its first (whose short gap may
        # start at time 0, where no entry is) lies within a window of another.
        close = np.diff(np.concatenate([times for times, _ in pieces])) < STOPPED_WINDOW
        lonely += int(np.count_nonzero(~(close | np.append(close[1:], False))))
    for column in range(3):
        x, y = np.array(placed)[:, column], np.array(counted)[:, column]
        same_distribution(x, y, STOPPED_ALPHA, f"{regime} column {column}")
    assert lonely == 0


def test_mirror_stopped_run_ending_before_its_first_entry():
    # 0.3 entries per run: three runs in four end before their first
    # entry, in the first step's long run or in its short gap.
    det, pair_rate = _stopped_detector(6.0)
    duration, seeds = 0.05, 1000
    records = [
        _count_stopped(det, STOPPED_JOINT, pair_rate, duration, np.random.default_rng(s))
        for s in range(seeds)
    ]
    # Every entry fires a detector, so a run with no singles has no entries.
    empty = sum(record.singles_alice + record.singles_bob == 0 for record in records)
    p_empty = math.exp(-6.0 * duration)
    assert abs(empty - seeds * p_empty) <= 4 * math.sqrt(seeds * p_empty * (1 - p_empty))
    # Each arm fires in its own darks and in the pairs that pass its polarizer.
    alice = duration * (det.dark_rate_alice + pair_rate * 0.9 * (0.5 + 0.2))
    bob = duration * (det.dark_rate_bob + pair_rate * 0.8 * (0.5 + 0.2))
    for singles, mean in (
        (sum(record.singles_alice for record in records), alice),
        (sum(record.singles_bob for record in records), bob),
    ):
        assert abs(singles - seeds * mean) <= 4 * math.sqrt(seeds * mean)


def test_mirror_stopped_count_of_nothing_draws_nothing():
    # No darks, and the source off or a pair that fires no detector.
    det = DetectorConfig(efficiency_alice=0.5, efficiency_bob=0.5, coincidence_window=20e-9)
    for pair_rate, joint in ((0.0, STOPPED_JOINT), (1e5, (0.0, 0.0, 0.0))):
        rng = np.random.default_rng(5)
        record = _count_stopped(det, joint, pair_rate, 3.0, rng)
        assert record == CountRecord(0, 0, 0, 3.0)
        assert rng.random() == np.random.default_rng(5).random()


def test_mirror_stopped_run_at_one_entry_in_1e20_windows():
    # Darks of 1e-12/s each with the source off: its steps' long runs hold
    # about 1e20 gaps, where numpy's geometric draw returns 2**63 - 1, yet
    # the singles are Poisson and nothing warns.
    detector = DetectorConfig(
        efficiency_alice=0.5,
        efficiency_bob=0.5,
        dark_rate_alice=1e-12,
        dark_rate_bob=1e-12,
        coincidence_window=20e-9,
    )
    plan = quick_plan(MalusLHV(), pair_rate=1e-3, integration_time=1.5e12)
    plan = replace(plan, detector=detector)
    totals = []
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            record = run_setting(plan, None, None, rng, source=False)
            assert record.coincidences == 0
            totals.append(record.singles_alice + record.singles_bob)
    totals = np.array(totals)
    mean = 2e-12 * 1.5e12
    assert abs(totals.mean() - mean) <= 4 * math.sqrt(mean / totals.size)
    # A Poisson count's variance is its mean; the sample variance spreads
    # by sqrt((2 mean^2 + mean) / n).
    assert abs(totals.var(ddof=1) - mean) <= 4 * math.sqrt((2 * mean**2 + mean) / totals.size)


def test_mirror_stopped_run_below_one_entry_in_1e100_windows():
    # 1e-300 darks per second: every entry is isolated, and the count is
    # Poisson with no warning from gaps past the float range.
    det = DetectorConfig(efficiency_alice=0.5, efficiency_bob=0.5, dark_rate_alice=1e-300)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        singles = [
            _count_stopped(
                det, NO_POLARIZERS, 0.0, 3e300, np.random.default_rng(seed)
            ).singles_alice
            for seed in range(400)
        ]
    assert abs(np.mean(singles) - 3.0) <= 4 * math.sqrt(3.0 / 400)


class _ScriptedSteps(np.random.Generator):
    """A generator whose first block of steps is scripted at rate 1 and
    window 0.5: (m, excess, short gap) per step, then steps far past any
    end up to the block's size.  Later draws, the arm codes' among them,
    are its own."""

    def __init__(self, steps):
        super().__init__(np.random.PCG64(0))
        self.steps = steps
        self.scripted = False

    def standard_exponential(self, size):
        assert size >= len(self.steps)  # the block holds every scripted step
        self.block = np.array(self.steps + [(1e6, 1e6, 0.1)] * (size - len(self.steps)))
        return (self.block[:, 0] + 0.5) * 0.5  # floor(2 * x) is m

    def standard_gamma(self, shape):
        return self.block[:, 1]

    def random(self, size=None):
        if self.scripted:
            return super().random(size)
        self.scripted = True
        return np.expm1(-self.block[:, 2]) / np.expm1(-0.5)  # the short gaps' inverse


# name -> (steps, duration, entries before it)
SCRIPTED_ENDS = {
    # Three long gaps to 2.4, then a short gap to 2.7.
    "in_the_short_gap_after_a_long_run": ([(3, 0.9, 0.3)], 2.5, 3),
    "in_the_long_run": ([(3, 0.9, 0.3)], 2.0, 2),
    "before_the_first_entry": ([(0, 0.0, 0.3)], 0.2, 0),
    "before_the_first_entry_of_a_long_run": ([(2, 0.3, 0.3)], 0.4, 0),
    # Then a short gap straight after, from 1.5 to 1.9.
    "in_a_second_short_gap": ([(2, 0.2, 0.3), (0, 0.0, 0.4)], 1.7, 3),
}


@pytest.mark.parametrize("end", sorted(SCRIPTED_ENDS))
def test_mirror_stopped_run_counts_the_entries_before_its_end(end):
    steps, duration, entries = SCRIPTED_ENDS[end]
    det = DetectorConfig(
        efficiency_alice=0.5, efficiency_bob=0.5, dark_rate_alice=1.0, coincidence_window=0.5
    )
    record = _count_stopped(det, NO_POLARIZERS, 0.0, duration, _ScriptedSteps(steps))
    assert record == CountRecord(entries, 0, 0, duration)


def test_mirror_stopped_run_places_no_entry_past_its_last_close_pair(monkeypatch):
    # The run ends in the short gap from 2.4 to 2.7: the entry at 2.4 has a
    # long gap before it and its only close neighbour past the end, so it is
    # counted with the isolated entries, and still fires both arms.
    det = DetectorConfig(efficiency_alice=1.0, efficiency_bob=1.0, coincidence_window=0.5)
    steps = _ScriptedSteps([(3, 0.9, 0.3)])
    record, pieces = _placed_pieces(monkeypatch, det, NO_POLARIZERS, 1.0, 2.5, steps)
    assert sum(times.size for times, _ in pieces) == 0
    assert record == CountRecord(3, 3, 3, 2.5)


def test_mirror_stopped_count_in_pieces_equals_one_match(monkeypatch):
    # About one entry per window over several blocks: the open cluster is
    # carried from piece to piece, so the pieces' counts must add up to
    # one match over the whole placed stream.
    det, pair_rate = _stopped_detector(1.0 / STOPPED_WINDOW)
    pieces = []

    def match(times, arms, window):
        count = match_coincidences(times, arms, window)
        pieces.append((times, arms, count))
        return count

    monkeypatch.setattr(runner, "match_coincidences", match)
    _count_stopped(det, STOPPED_JOINT, pair_rate, 30.0, np.random.default_rng(11))
    assert len(pieces) > 30_000 * -math.expm1(-1.0) / _BLOCK_STEPS  # one per block
    times = np.concatenate([times for times, _, _ in pieces])
    arms = np.concatenate([arms for _, arms, _ in pieces])
    whole = match_coincidences(times, arms, STOPPED_WINDOW)
    assert sum(count for _, _, count in pieces) == whole > 0


class _CountedSteps(np.random.Generator):
    """A generator that keeps the size of each block of steps drawn."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.blocks = []

    def standard_exponential(self, size=None):
        self.blocks.append(size)
        return super().standard_exponential(size)


def test_mirror_stopped_pieces_come_in_time_order(monkeypatch):
    # At 1/64 entries per window the run spans two and a half full blocks.
    # Each block is one piece, and no entry of a piece is earlier than an
    # entry of the piece before.
    det, pair_rate = _stopped_detector(1 / 64 / STOPPED_WINDOW)
    duration = 2.5 * _BLOCK_STEPS * 64 * 64 * STOPPED_WINDOW  # 64 entries a step
    rng = _CountedSteps(3)
    _, seen = _placed_pieces(monkeypatch, det, STOPPED_JOINT, pair_rate, duration, rng)
    assert len(seen) == len(rng.blocks) >= 3
    assert rng.blocks[:2] == [_BLOCK_STEPS, _BLOCK_STEPS]
    times = np.concatenate([times for times, _ in seen])
    assert times.size > 0 and np.all(np.diff(times) >= 0)


def test_mirror_stopped_run_draws_only_the_steps_it_expects():
    # A 1 s mirror-stopped demo.json run expects about 10 steps in a CHSH
    # cell and 40 in the gate-off run: its blocks are sized to that, not
    # to a full block.
    plan = build_plan(json.loads(fixture_path("demo.json").read_text()))
    plan = replace(plan, rotation=False, integration_time=1.0)
    for angles in ((0.0, 22.5), (None, None)):
        rng = _CountedSteps(5)
        record = run_setting(plan, *angles, rng)
        assert record.singles_alice > 0
        assert 0 < sum(rng.blocks) < _BLOCK_STEPS, rng.blocks


# (count, room): a run of two long gaps, and one of fifty that the end
# cuts early or near its last entry.
LONG_RUNS = ((2, 2.5), (50, 30.0), (50, 99.0))


@pytest.mark.parametrize("count, room", LONG_RUNS)
def test_entries_before_the_end_of_a_long_run(count, room):
    # The bisection on the Dirichlet bridge against the run drawn gap by
    # gap, both given that its last entry lies ``room`` or more after the
    # first.  With window and rate 1, entry i lies i + (i Exp(1) summed).
    rng = np.random.default_rng(count)
    bridged, direct = [], []
    while len(bridged) < 500:
        excess = rng.standard_gamma(count)
        if count + excess >= room:
            bridged.append(_entries_before(room, count, excess, 1.0, 1.0, rng))
    while len(direct) < 500:
        points = np.arange(1, count + 1) + np.cumsum(rng.standard_exponential(count))
        if points[-1] >= room:
            direct.append(int(np.count_nonzero(points < room)))
    assert 0 <= min(bridged) and max(bridged) < count
    same_distribution(direct, bridged, 1e-3 / (2 * len(LONG_RUNS)), f"{count}, {room}")


# ---------------------------------------------------------------------------
# Physics through the full pipeline


def test_a_long_fiber_keeps_the_gate():
    # 3e20 m of fiber delays each pair by 1e12 s, where one float step is
    # 1.2e-4 s, four gate periods.  Drawn in detection time, the gate was
    # garbled and S read 1.805 +/- 0.084, 6.1 sigma under the closed form.
    plan = build_plan(json.loads(fixture_path("demo.json").read_text()))
    apparatus = replace(plan.apparatus, fiber_length=3e20)
    plan = replace(plan, apparatus=apparatus, integration_time=2.0)
    assert math.ulp(plan.geometry.fiber_delay) > 4 * plan.geometry.gate_period
    _, result = run_chsh(plan)
    expected = 2 * math.sqrt(2) * plan.model.visibility
    assert abs(result.S - expected) < 4 * result.S_sigma


def test_quantum_plan_violates_classical_bound():
    plan = quick_plan(QuantumState("mirrored", 0.82), pair_rate=30000.0, seed=90)
    _, result = run_chsh(plan)
    assert result.S > 2.0 + 3 * result.S_sigma
    assert result.S == pytest.approx(0.82 * 2 * math.sqrt(2), abs=5 * result.S_sigma)


def test_lhv_plan_respects_classical_bound():
    plan = quick_plan(MalusLHV(), pair_rate=30000.0, seed=91)
    _, result = run_chsh(plan)
    assert result.S <= 2.0 + 4 * result.S_sigma
    assert result.S == pytest.approx(math.sqrt(2), abs=5 * result.S_sigma)


def test_gating_ratio_matches_enlarged_duty_cycle():
    # wider slit: duty cycle 0.159, cheap to resolve statistically
    apparatus = ApparatusConfig(aperture_width=0.01)
    detector = DetectorConfig(efficiency_alice=0.8, efficiency_bob=0.8, coincidence_window=20e-9)
    plan = RunPlan(
        apparatus=apparatus,
        detector=detector,
        model=QuantumState(),
        pair_rate=20000.0,
        integration_time=20.0,
        seed=92,
    )
    records, ratios = run_degradation(plan)
    duty = 0.01 * 34 / (2 * math.pi * 0.34)
    assert ratios.ratios[2] == pytest.approx(duty, abs=4 * ratios.sigmas[2])
    # singles columns degrade identically
    assert ratios.ratios[0] == pytest.approx(duty, abs=4 * ratios.sigmas[0])
    assert ratios.ratios[1] == pytest.approx(duty, abs=4 * ratios.sigmas[1])


def test_degradation_records_layout():
    plan = quick_plan(MalusLHV(), pair_rate=5000.0, seed=93)
    records, ratios = run_degradation(plan)
    assert len(records) == len(DEGRADATION_LABELS) == 3
    dark, no_rotation, with_rotation = records
    assert dark.singles_alice == 0  # no dark rate configured
    assert no_rotation.coincidences > with_rotation.coincidences > 0
    assert 0 < ratios.ratios[2] < 1


def test_coincidence_to_singles_ratio_invariant_under_gating():
    # gating removes pairs, not halves of pairs, so coincidences stay
    # proportional to singles (linear, not quadratic)
    apparatus = ApparatusConfig(aperture_width=0.01)  # duty 0.159
    detector = DetectorConfig(efficiency_alice=0.5, efficiency_bob=0.5, coincidence_window=20e-9)
    plan = RunPlan(
        apparatus=apparatus,
        detector=detector,
        model=QuantumState(),
        pair_rate=20000.0,
        integration_time=20.0,
        seed=94,
    )
    records, _ = run_degradation(plan)
    _, no_rotation, with_rotation = records
    ratio_off = no_rotation.coincidences / no_rotation.singles_alice
    ratio_on = with_rotation.coincidences / with_rotation.singles_alice
    sigma = ratio_on * math.sqrt(
        1 / with_rotation.coincidences + 1 / no_rotation.coincidences
    )
    assert abs(ratio_on - ratio_off) < 4 * sigma


# ---------------------------------------------------------------------------
# Traveling influence through the gate


def test_traveling_influence_blocked_when_isolated():
    # informed photons would show quantum statistics, but with the real
    # bench timing none of them ever make it back through the gate, so
    # the surviving counts carry the uninformed hidden-variable statistics
    model = TravelingInfluence(
        base=QuantumState("mirrored", 1.0),
        uninformed=MalusLHV(),
        influence_speed=math.inf,
    )
    plan = RunPlan(
        apparatus=ApparatusConfig(),
        detector=PERFECT,
        model=model,
        pair_rate=1e5,
        integration_time=2.0,
        rotation=True,
        seed=96,
    )
    _, result = run_chsh(plan)
    assert result.S <= 2.0 + 4 * result.S_sigma
    assert result.S == pytest.approx(math.sqrt(2), abs=5 * result.S_sigma)


def test_traveling_influence_leaks_at_resonant_speed():
    apparatus = ApparatusConfig()
    from bellgate.apparatus import gate_geometry

    geometry = gate_geometry(apparatus)
    resonance = resonant_influence_speeds(
        geometry, apparatus.fiber_length, LIGHT_SPEED_VACUUM, 1
    )[0]
    model = TravelingInfluence(
        base=QuantumState("mirrored", 1.0),
        uninformed=MalusLHV(),
        influence_speed=resonance.center,
    )
    plan = RunPlan(
        apparatus=apparatus,
        detector=PERFECT,
        model=model,
        pair_rate=1e5,
        integration_time=2.0,
        rotation=True,
        seed=97,
    )
    _, result = run_chsh(plan)
    # at the resonance every gated photon is an informed one
    assert result.S > 2.0 + 4 * result.S_sigma
    assert result.S == pytest.approx(2 * math.sqrt(2), abs=5 * result.S_sigma)


# (window index, pass fraction): partial overlaps on the fast side of the
# resonance, at both ends of the range and in between.
PARTIAL_OVERLAPS = ((1, 0.25), (2, 0.5), (1, 0.9))
# Total false-alarm rate 1e-3 over the cases (Bonferroni): |pull| < 3.59.
PARTIAL_PULL_BOUND = statistics.NormalDist().inv_cdf(1 - 1e-3 / (2 * len(PARTIAL_OVERLAPS)))


@pytest.mark.parametrize("window_index, target", PARTIAL_OVERLAPS)
def test_traveling_influence_mixes_models_by_pass_fraction(window_index, target):
    # Gated pairs are informed in the share of informed arrivals that the
    # gate passes, so E(0, 22.5) is the pass-fraction mixture of the two
    # models' correlations.  Perfect detectors make that exact: both
    # photons of every pass-pass pair are counted, whichever model it
    # follows.  The 1 ns window keeps accidental pairings of neighbouring
    # pairs, which the mixture leaves out, below a tenth of a sigma.
    apparatus = ApparatusConfig()
    geometry = gate_geometry(apparatus)
    fiber = apparatus.fiber_length
    resonance = resonant_influence_speeds(geometry, fiber, LIGHT_SPEED_VACUUM, window_index)[-1]
    # Overlap falls linearly from 1 at the centre transit to 0 at the
    # shortest one (the interval's fast end).
    centre, shortest = fiber / resonance.center, fiber / resonance.high
    speed = fiber / (centre - (1 - target) * (centre - shortest))
    pass_fraction = influence_window_analysis(
        geometry, fiber, speed, LIGHT_SPEED_VACUUM
    ).pass_fraction
    assert pass_fraction == pytest.approx(target)
    base, uninformed = QuantumState("mirrored", 1.0), MalusLHV()
    plan = RunPlan(
        apparatus=apparatus,
        detector=replace(PERFECT, coincidence_window=1e-9),
        model=TravelingInfluence(base, uninformed, speed),
        pair_rate=1e5,
        integration_time=4.0,
    )
    quadruple = ((0.0, 22.5), (90.0, 112.5), (0.0, 112.5), (90.0, 22.5))
    counts = [
        run_setting(
            plan, alice, bob, np.random.default_rng([window_index, round(100 * target), cell])
        ).coincidences
        for cell, (alice, bob) in enumerate(quadruple)
    ]
    e, sigma = correlation_E(*counts)
    expected = pass_fraction * correlation_theory(base, 0.0, 22.5) + (
        1 - pass_fraction
    ) * correlation_theory(uninformed, 0.0, 22.5)
    assert abs(e - expected) < PARTIAL_PULL_BOUND * sigma, (e, expected, sigma)


def test_traveling_influence_without_rotation_all_informed():
    # mirror stopped: permanent line of sight, the base model everywhere
    model = TravelingInfluence(
        base=QuantumState("mirrored", 1.0),
        uninformed=MalusLHV(),
        influence_speed=math.inf,
    )
    plan = quick_plan(model, pair_rate=30000.0, seed=98)
    _, result = run_chsh(plan)
    assert result.S == pytest.approx(2 * math.sqrt(2), abs=5 * result.S_sigma)


# (rotation, source) of the three luminosity sub-runs: gate on, gate off, dark
LUMINOSITY_RUNS = ((True, True), (False, True), (False, False))


@pytest.mark.parametrize("name", ["demo.json", "reference_bench.json"])
@pytest.mark.parametrize("model", ["bundled", "malus", "threshold", "instant", "partial"])
def test_luminosity_streams_do_not_depend_on_the_model(name, model):
    # With the polarizers out every pair goes on to the gate whatever the
    # model, so each luminosity sub-run draws the bundled plan's stream.
    plan = build_plan(json.loads(fixture_path(name).read_text()))
    fiber = plan.apparatus.fiber_length
    first = resonant_influence_speeds(plan.geometry, fiber, LIGHT_SPEED_VACUUM, 1)[0]
    models = {
        "bundled": plan.model,
        "malus": MalusLHV(),
        "threshold": ThresholdLHV(),
        "instant": TravelingInfluence(plan.model, MalusLHV(), math.inf),
        "partial": TravelingInfluence(plan.model, MalusLHV(), (first.low + first.center) / 2),
    }
    other = replace(plan, model=models[model])
    for rotation, source in LUMINOSITY_RUNS:
        expected = plan.stream(None, None, rotation, source)
        assert other.stream(None, None, rotation, source) == expected, (rotation, source)


def test_one_polarizer_out_is_refused():
    # Both angles or neither may be None: no model gives one arm without
    # its polarizer a joint law yet, so the plan refuses before it draws.
    plan = build_plan(json.loads(fixture_path("demo.json").read_text()))
    rng = np.random.default_rng(0)
    calls = (
        lambda: plan.stream(None, 22.5),
        lambda: plan.stream(0.0, None, rotation=False),
        lambda: run_setting(plan, None, 22.5, rng),
    )
    for call in calls:
        with pytest.raises(ValueError, match="one polarizer out"):
            call()
    assert rng.random() == np.random.default_rng(0).random()


def test_partially_informed_luminosity_runs_are_the_base_models():
    # Without polarizers a pair's model changes nothing, so a traveling
    # plan's informed and uninformed open pieces merge into the plan's
    # gate, and its luminosity runs draw exactly as its base model's do.
    plan = build_plan(json.loads(fixture_path("demo.json").read_text()))
    plan = replace(plan, integration_time=1.0)
    fiber = plan.apparatus.fiber_length
    first = resonant_influence_speeds(plan.geometry, fiber, LIGHT_SPEED_VACUUM, 1)[0]
    traveling = replace(
        plan, model=TravelingInfluence(plan.model, MalusLHV(), (first.low + first.center) / 2)
    )
    assert [model for _, model in traveling.pieces] == [MalusLHV(), plan.model, None]
    assert run_degradation(traveling)[0] == run_degradation(plan)[0]
