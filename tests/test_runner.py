import itertools
import math
import types
from dataclasses import replace

import numpy as np
import pytest

from bellgate.analysis import NumericalError
from bellgate.apparatus import ApparatusConfig, LIGHT_SPEED_VACUUM, gate_geometry
from bellgate.causality import resonant_influence_speeds
from bellgate.detection import CountRecord, DetectorConfig
from bellgate.runner import (
    DEGRADATION_LABELS,
    RunPlan,
    calibrate_from_counts,
    _time_slices,
    derive_seed,
    run_chsh,
    run_degradation,
)
from bellgate.sources import MalusLHV, QuantumState, TravelingInfluence

PERFECT = DetectorConfig(efficiency_alice=1.0, efficiency_bob=1.0, coincidence_window=20e-9)


def quick_plan(model, pair_rate=20000.0, integration_time=1.0, seed=0, **kwargs):
    return RunPlan(
        apparatus=ApparatusConfig(),
        detector=PERFECT,
        model=model,
        pair_rate=pair_rate,
        integration_time=integration_time,
        rotation=False,
        master_seed=seed,
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
    for window in (period, 2 * period):
        with pytest.raises(ValueError, match="shorter than the gate period"):
            replace(quick_plan(MalusLHV()), detector=replace(PERFECT, coincidence_window=window))
    replace(quick_plan(MalusLHV()), detector=replace(PERFECT, coincidence_window=0.99 * period))


def test_plan_rejects_non_finite_rate_and_time():
    with pytest.raises(ValueError, match="pair rate must be positive and finite"):
        quick_plan(MalusLHV(), pair_rate=math.inf)
    with pytest.raises(ValueError, match="integration time must be positive and finite"):
        quick_plan(MalusLHV(), integration_time=math.nan)


def test_time_slices_tile_the_run():
    slices = list(_time_slices(30.0, 1e6))
    assert len(slices) == 8  # 30 s at 1e6/s over 2**22 draws per slice
    assert slices[0][0] == 0.0 and slices[-1][1] == 30.0
    assert all(a[1] == b[0] for a, b in zip(slices, slices[1:]))


def test_time_slices_are_lazy():
    slices = _time_slices(30.0, 1e25)
    assert isinstance(slices, types.GeneratorType)
    # 3e10 slices of 1 ns: only the edges asked for are ever made
    first = list(itertools.islice(slices, 2))
    assert first == [(0.0, 1e-9), (1e-9, 2e-9)]


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
        master_seed=92,
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
        master_seed=94,
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
        master_seed=96,
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
        master_seed=97,
    )
    _, result = run_chsh(plan)
    # at the resonance every gated photon is an informed one
    assert result.S > 2.0 + 4 * result.S_sigma
    assert result.S == pytest.approx(2 * math.sqrt(2), abs=5 * result.S_sigma)


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
