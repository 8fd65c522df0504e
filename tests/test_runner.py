import itertools
import json
import math
import statistics
import tracemalloc
import types
from dataclasses import replace

import numpy as np
import pytest

from bellgate.analysis import NumericalError, correlation_E
from bellgate.apparatus import ApparatusConfig, LIGHT_SPEED_VACUUM, gate_geometry
from bellgate.causality import influence_window_analysis, resonant_influence_speeds
from bellgate.config import build_plan
from bellgate.detection import (
    ALICE,
    BOB,
    BOTH,
    CountRecord,
    DetectorConfig,
    dark_times,
    match_coincidences,
)
from bellgate.fixtures import fixture_path
from bellgate.runner import (
    _CHUNK_EVENTS,
    _LOOKBACK,
    DEGRADATION_LABELS,
    MAX_RUN_EVENTS,
    RunPlan,
    _count,
    calibrate_from_counts,
    _time_slices,
    derive_seed,
    run_chsh,
    run_degradation,
    run_setting,
)
from bellgate.sources import (
    MalusLHV,
    QuantumState,
    TravelingInfluence,
    correlation_theory,
    joint_probabilities,
)
from conftest import tag_arms

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
    period = gate_geometry(ApparatusConfig()).gate_period
    for phase in (-1e-9, period, 1.0, math.nan):
        with pytest.raises(ValueError, match="phase offset must lie in"):
            quick_plan(MalusLHV(), gate_phase=phase)
    quick_plan(MalusLHV(), gate_phase=0.5 * period, accidental_convention="single")
    # derive_seed would run seed 1.5 as seed 1, and a truthy string would run gated
    for seed in (1.5, True):
        with pytest.raises(ValueError, match="seed must be an integer"):
            quick_plan(MalusLHV(), seed=seed)
    for rotation in ("false", 1):
        with pytest.raises(ValueError, match="rotation must be true or false"):
            replace(quick_plan(MalusLHV()), rotation=rotation)
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


def test_plan_rejects_non_finite_rate_and_time():
    with pytest.raises(ValueError, match="pair rate must be positive and finite"):
        quick_plan(MalusLHV(), pair_rate=math.inf)
    with pytest.raises(ValueError, match="integration time must be positive and finite"):
        quick_plan(MalusLHV(), integration_time=math.nan)


def test_time_slices_tile_the_run():
    slices = list(_time_slices(30.0, 1e6))
    assert len(slices) == 458  # 30 s at 1e6/s over 2**16 draws per slice
    assert slices[0][0] == 0.0 and slices[-1][1] == 30.0
    assert all(a[1] == b[0] for a, b in zip(slices, slices[1:]))


def test_time_slices_are_lazy():
    slices = _time_slices(30.0, 1e25)
    assert isinstance(slices, types.GeneratorType)
    # 3e10 slices of 1 ns: only the edges asked for are ever made
    first = list(itertools.islice(slices, 2))
    assert first == [(0.0, 1e-9), (1e-9, 2e-9)]


# ---------------------------------------------------------------------------
# Streamed counting against one match over the whole run

# Four slices of [0, 1) with dyadic edges 0.25, 0.5 and 0.75.
FOUR_SLICES = 4.0 * _CHUNK_EVENTS


def _streamed_equals_whole(times, arms, window, delay=0.0, rate=FOUR_SLICES, darks=(0.0, 0.0)):
    """_count over a fixed tagged stream, each entry drawn in the slice
    where it was emitted (``delay`` before it is detected), against one
    match_coincidences over the whole stream.  ``darks`` are the (alice,
    bob) dark rates: each slice's draw adds its own darks, detected in
    the same delayed slice, and the whole stream holds every draw.
    Slices hold ``rate`` events per second, darks included."""
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

    record = _count(draw, rate, window, 1.0)
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


def test_time_slices_with_no_events_make_one_slice():
    # a dark-only run with both dark rates 0 once divided by zero here
    assert list(_time_slices(5.0, 0.0)) == [(0.0, 5.0)]
    quarters = [(0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)]
    assert list(_time_slices(1.0, FOUR_SLICES)) == quarters


def test_dark_only_run_without_darks_counts_nothing():
    plan = quick_plan(MalusLHV(), integration_time=5.0)
    for rotation in (False, True):
        record = run_setting(
            plan, 0.0, 0.0, np.random.default_rng(1), rotation, polarized=False, source=False
        )
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
    # and around the frontier.
    rng = np.random.default_rng(seed)
    window = 2.0**-12
    steps = np.arange(-8, 8)
    grid = (np.array([0.25, 0.5, 0.75])[:, None] + 0.5 * window * steps).ravel()
    alice = grid[rng.random(grid.size) < 0.4]
    bob = grid[rng.random(grid.size) < 0.4]
    # Exactly one window below and at each edge, the frontier itself.
    alice = np.concatenate([alice, [0.25 - window, 0.5 - window, 0.75 - window]])
    bob = np.concatenate([bob, [0.25, 0.5, 0.75]])
    _streamed_equals_whole(*tag_arms(alice, bob), window)


def test_streamed_count_at_the_frontier_to_the_last_bit():
    # Each slice's last event is one window, or one window less 2**-20 of
    # it, below the frontier, where the next slice's first event sits.
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
def test_streamed_count_with_a_cluster_longer_than_the_look_back(seed):
    rng = np.random.default_rng(seed)
    window = 2.0**-10
    # A chain far longer than _LOOKBACK events across the 0.5 edge, and
    # one that fills the whole slice [0.25, 0.5) so that slice has no cut.
    across = _clusters(rng, [0.5], 8 * _LOOKBACK, 0.3 * window)
    filling = _clusters(rng, [0.4], int(0.3 / (0.7 * window)), 0.7 * window)
    background = rng.random(200) * 0.99
    on_alice = rng.random(200) < 0.5
    alice = np.concatenate([across[0], filling[0], background[on_alice]])
    bob = np.concatenate([across[1], filling[1], background[~on_alice]])
    assert _streamed_equals_whole(*tag_arms(alice, bob), window) > 0


def test_streamed_count_looks_back_past_a_one_sided_chain():
    # Alice's last 2 * _LOOKBACK entries below the 0.5 edge are a chain
    # with no cut, longer than the look-back; the last cut lies below it,
    # between pairs of an Alice and a Bob entry half a window apart.
    window = 2.0**-10
    chain = 0.5 - 0.5 * window * np.arange(1, 2 * _LOOKBACK + 1)
    pairs = chain[-1] - 3.0 * window * np.arange(1, 21)
    alice = np.concatenate([chain, pairs + 0.5 * window])
    assert _streamed_equals_whole(*tag_arms(alice, pairs), window) == 20


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
    _streamed_equals_whole(*tag_arms(alice, bob), window, rate=2 * FOUR_SLICES)
    _streamed_equals_whole(*tag_arms(alice / 4, bob / 4), window, rate=2 * FOUR_SLICES)


@pytest.mark.parametrize("rotation", [False, True])
def test_run_setting_memory_does_not_grow_with_integration_time(rotation):
    plan = replace(build_plan(json.loads(fixture_path("demo.json").read_text())), rotation=rotation)
    det = plan.detector
    fire = det.fire_probability(joint_probabilities(plan.model, 0.0, 22.5)[:3])
    open_fraction = gate_geometry(plan.apparatus).duty_cycle if rotation else 1.0
    draws_per_s = plan.pair_rate * fire * open_fraction + det.dark_rate_alice + det.dark_rate_bob
    # Just under four full slices, so T and 8T both cut into full slices.
    duration = 3.99 * _CHUNK_EVENTS / draws_per_s
    run_setting(replace(plan, integration_time=1.0), 0.0, 22.5, np.random.default_rng(0))
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
        assert record.singles_alice > scale * _CHUNK_EVENTS / 2  # the slices really filled
    assert peaks[1] <= 1.25 * peaks[0], f"peak {peaks[0]} B at T, {peaks[1]} B at 8T"


# ---------------------------------------------------------------------------
# Physics through the full pipeline


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
