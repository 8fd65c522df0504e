"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s``) and then
asserts, so the suite doubles as a checklist report.
"""

import json
import math

import numpy as np

from bellgate.analysis import degradation_ratio, read_count_records
from bellgate.apparatus import (
    ApparatusConfig,
    DetectorConfig,
    LIGHT_SPEED_VACUUM,
    gate_geometry,
    validate_config,
)
from bellgate.causality import influence_window_analysis, resonant_influence_speeds
from bellgate.cli import main
from bellgate.config import RunPlan
from bellgate.fixtures import fixture_path
from bellgate.runner import run_chsh, run_degradation
from bellgate.sources import INSTANTANEOUS, MalusLHV, QuantumState

FIBER_LENGTH = 200.0


def _criterion(number, description, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number}: {description} -- {detail}")
    assert passed, f"criterion {number} ({description}): {detail}"


def test_criterion_1_geometry():
    geom = gate_geometry(validate_config(ApparatusConfig()))
    checks = [
        abs(geom.aperture_time / 4.68e-7 - 1) <= 0.01,
        abs(geom.aperture_time / 4.7e-7 - 1) <= 0.01,
        abs(geom.duty_cycle / 0.0159 - 1) <= 0.01,
        abs(geom.duty_cycle / 0.016 - 1) <= 0.01,
        abs(geom.flight_distance_during_gate / 140.3 - 1) <= 0.01,
        abs(geom.flight_distance_during_gate / 140.0 - 1) <= 0.01,
    ]
    _criterion(
        1,
        "gate timing at the reference bench",
        all(checks),
        f"aperture_time={geom.aperture_time:.4e} s, duty={geom.duty_cycle:.5f}, "
        f"flight={geom.flight_distance_during_gate:.1f} m",
    )


def test_criterion_2_degradation_ratios():
    records = read_count_records(fixture_path("table1.csv"))
    result = degradation_ratio(records["with_rotation"], records["no_rotation"], records["dark"])
    rounded = tuple(round(r, 3) for r in result.ratios)
    _criterion(
        2,
        "luminosity degradation ratios from the bundled records",
        rounded == (0.031, 0.025, 0.018),
        f"ratios={result.ratios[0]:.6f}/{result.ratios[1]:.6f}/{result.ratios[2]:.6f} "
        f"round to {rounded}",
    )


def test_criterion_3_chsh_from_bundled_table(tmp_path, capsys):
    exit_code = main(
        ["analyze", str(fixture_path("table2.csv")), "--out", str(tmp_path)]
    )
    capsys.readouterr()
    report = (tmp_path / "chsh_report.csv").read_text().strip().splitlines()[-1].split(",")
    s, s_sigma = float(report[3]), float(report[4])
    checks = [
        exit_code == 0,
        abs(s - 2.310) <= 5e-4,
        abs(s_sigma - 0.0707) <= 5e-4,
        abs(s - 2.302) <= 0.02,
        abs(s_sigma - 0.071) <= 0.002,
    ]
    _criterion(
        3,
        "CHSH statistic of the bundled count table",
        all(checks),
        f"S={s:.6f} sigma={s_sigma:.6f} (oracle 2.310/0.0707, quoted 2.302/0.071)",
    )


def test_criterion_4_monte_carlo_physics():
    detector = DetectorConfig(
        efficiency_alice=1.0, efficiency_bob=1.0, coincidence_window=20e-9
    )
    quantum_plan = RunPlan(
        apparatus=ApparatusConfig(),
        detector=detector,
        model=QuantumState("mirrored", 1.0),
        pair_rate=30000.0,
        integration_time=1.0,
        rotation=False,
        seed=20260809,
    )
    table, result = run_chsh(quantum_plan)
    total = int(table.counts.sum())
    tsirelson = 2 * math.sqrt(2)
    quantum_ok = total >= 100_000 and abs(result.S - tsirelson) <= 4 * result.S_sigma

    failures = 0
    for seed in range(100):
        plan = RunPlan(
            apparatus=ApparatusConfig(),
            detector=detector,
            model=MalusLHV(),
            pair_rate=4000.0,
            integration_time=1.0,
            rotation=False,
            seed=seed,
        )
        _, lhv = run_chsh(plan)
        if lhv.S > 2.0 + 4 * lhv.S_sigma:
            failures += 1
    lhv_ok = failures <= 1

    _criterion(
        4,
        "simulated quantum model reaches the Tsirelson point, hidden-variable model stays classical",
        quantum_ok and lhv_ok,
        f"quantum S={result.S:.4f}+/-{result.S_sigma:.4f} from {total} coincidences; "
        f"hidden-variable bound exceeded in {failures}/100 runs",
    )


def test_criterion_5_gating_linearity():
    plan = RunPlan(
        apparatus=ApparatusConfig(),
        detector=DetectorConfig(
            efficiency_alice=0.6, efficiency_bob=0.6, coincidence_window=20e-9
        ),
        model=QuantumState(),
        pair_rate=5e4,
        integration_time=120.0,
        seed=2026,
    )
    _, ratios = run_degradation(plan)
    duty = gate_geometry(ApparatusConfig()).duty_cycle
    ratio, sigma = ratios.ratios[2], ratios.sigmas[2]
    _criterion(
        5,
        "with/without rotation coincidence ratio converges to the duty cycle",
        abs(ratio - duty) <= 4 * sigma,
        f"ratio={ratio:.6f}+/-{sigma:.6f} vs duty={duty:.6f} "
        f"({abs(ratio - duty) / sigma:.2f} sigma)",
    )


def test_criterion_6_causal_isolation():
    geometry = gate_geometry(validate_config(ApparatusConfig()))

    leaks = []
    # instantaneous influence, then everything from light speed upward
    for speed in [INSTANTANEOUS] + list(np.logspace(math.log10(LIGHT_SPEED_VACUUM), 12, 200)):
        report = influence_window_analysis(geometry, FIBER_LENGTH, float(speed), LIGHT_SPEED_VACUUM)
        if report.pass_fraction != 0.0:
            leaks.append(speed)
    superluminal_ok = not leaks

    # full log sweep, 1e4 points over 1e3..1e12 m/s, resonance intervals excluded
    speeds = np.logspace(3, 12, 10_000)
    max_windows = (
        int(math.ceil((FIBER_LENGTH / speeds[0] + geometry.fiber_delay) / geometry.gate_period)) + 1
    )
    intervals = resonant_influence_speeds(geometry, FIBER_LENGTH, LIGHT_SPEED_VACUUM, max_windows)
    lows = np.array([iv.low for iv in intervals])
    highs = np.array([iv.high for iv in intervals])
    guard = 1e-9
    sweep_failures = 0
    checked = 0
    for speed in speeds:
        inside = np.any((speed > lows * (1 + guard)) & (speed < highs * (1 - guard)))
        near_edge = np.any(np.abs(speed / lows - 1) < guard) or np.any(
            np.abs(speed / highs - 1) < guard
        )
        if inside or near_edge:
            continue
        checked += 1
        report = influence_window_analysis(geometry, FIBER_LENGTH, float(speed), LIGHT_SPEED_VACUUM)
        if report.pass_fraction != 0.0:
            sweep_failures += 1
    sweep_ok = sweep_failures == 0

    # every reported resonance actually leaks
    roundtrip_failures = 0
    for interval in intervals:
        report = influence_window_analysis(
            geometry, FIBER_LENGTH, interval.center, LIGHT_SPEED_VACUUM
        )
        if not report.pass_fraction > 0.0:
            roundtrip_failures += 1
    roundtrip_ok = roundtrip_failures == 0

    _criterion(
        6,
        "no traveling influence passes the gate outside resonance intervals",
        superluminal_ok and sweep_ok and roundtrip_ok,
        f"instantaneous + {200} superluminal speeds isolated; "
        f"{checked}/10000 sweep points isolated ({sweep_failures} failures); "
        f"{len(intervals)} resonance intervals all round-trip to a positive pass fraction",
    )


def test_criterion_7_determinism(tmp_path, capsys):
    config = {
        "detector": {
            "efficiency_alice": 1.0,
            "efficiency_bob": 1.0,
            "dark_rate_alice": 100.0,
            "dark_rate_bob": 100.0,
            "coincidence_window": 2e-8,
        },
        "model": {"name": "quantum", "sign_convention": "mirrored", "visibility": 0.9},
        "run": {"pair_rate": 20000.0, "integration_time": 0.5, "rotation": True, "seed": 11},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    outputs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        code = main(["simulate", "--config", str(config_path), "--out", str(out_dir)])
        assert code == 0
        outputs.append(
            {
                f: (out_dir / f).read_bytes()
                for f in ("results.json", "chsh_counts.csv", "degradation.csv")
            }
        )
    capsys.readouterr()
    identical = outputs[0] == outputs[1]
    _criterion(
        7,
        "identical config and seed give byte-identical simulation outputs",
        identical,
        "results.json, chsh_counts.csv, degradation.csv all byte-identical"
        if identical
        else "outputs differ",
    )
