import json
import math

import numpy as np
import pytest

from bellgate.analysis import ALICE_ANGLES, BOB_ANGLES, CountTable16, write_table_csv
from bellgate.cli import main
from bellgate.config import ConfigError, build_plan
from bellgate.fixtures import fixture_path

TINY_CONFIG = {
    "apparatus": {"aperture_width": 1e-3, "mirror_radius": 0.34, "rotation_rate": 1000.0,
                  "facet_count": 34, "fiber_length": 200.0},
    "detector": {"efficiency_alice": 1.0, "efficiency_bob": 1.0,
                 "dark_rate_alice": 50.0, "dark_rate_bob": 50.0,
                 "coincidence_window": 2e-8},
    "model": {"name": "quantum", "sign_convention": "mirrored", "visibility": 0.9},
    "run": {"pair_rate": 20000.0, "integration_time": 0.5, "rotation": False, "seed": 5},
}


def write_config(tmp_path, body=TINY_CONFIG, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return path


# ---------------------------------------------------------------------------
# geometry


def test_geometry_defaults_to_bundled_bench(capsys):
    assert main(["geometry"]) == 0
    out = capsys.readouterr().out
    assert "4.681028e-07" in out
    assert "0.015915" in out
    assert "2.941176e-05" in out
    assert "6.671114e-07" in out
    assert "140.3372" in out


def test_geometry_missing_config(capsys):
    assert main(["geometry", "--config", "/no/such/file.json"]) == 2
    assert "config not found" in capsys.readouterr().err


def test_geometry_override_doubles_aperture_time(capsys):
    assert main(["geometry", "--set", "apparatus.aperture_width=2e-3"]) == 0
    out = capsys.readouterr().out
    assert "9.362055e-07" in out  # 2x the bench value
    assert "0.031831" in out


def test_geometry_invalid_config_value(capsys):
    assert main(["geometry", "--set", "apparatus.aperture_width=0"]) == 1
    assert "aperture must be positive" in capsys.readouterr().err


def test_geometry_rejects_infinite_rotation_rate(capsys):
    # would otherwise print a zero gate period
    assert main(["geometry", "--set", "apparatus.rotation_rate=Infinity"]) == 1
    assert "apparatus.rotation_rate must be finite" in capsys.readouterr().err


def test_unknown_config_key_rejected(capsys):
    assert main(["geometry", "--set", "apparatus.slit_count=2"]) == 1
    assert "unknown key" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_bundled_table(capsys, tmp_path):
    out_dir = tmp_path / "report"
    assert main(["analyze", str(fixture_path("table2.csv")), "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "S = 2.3101 +/- 0.0707" in out
    assert (out_dir / "chsh_report.txt").is_file()
    csv_text = (out_dir / "chsh_report.csv").read_text()
    assert csv_text.startswith("quantity,alice_angle,bob_angle,value,sigma")
    s_line = [line for line in csv_text.splitlines() if line.startswith("S,")][0]
    assert float(s_line.split(",")[3]) == pytest.approx(2.3100625328289692, rel=1e-12)


def test_analyze_uniform_table(capsys, tmp_path):
    table = CountTable16(counts=np.full((4, 4), 100.0), accidentals=np.zeros((4, 4)))
    path = tmp_path / "uniform.csv"
    write_table_csv(table, path)
    assert main(["analyze", str(path)]) == 0
    assert "S = 0.0000" in capsys.readouterr().out


def test_analyze_noise_free_quantum_table(capsys, tmp_path):
    counts = np.zeros((4, 4))
    for i, alice in enumerate(ALICE_ANGLES):
        for j, bob in enumerate(BOB_ANGLES):
            counts[i, j] = 1e6 * (1 + math.cos(math.radians(2 * (alice + bob)))) / 4
    table = CountTable16(counts=counts, accidentals=np.zeros((4, 4)))
    path = tmp_path / "tsirelson.csv"
    write_table_csv(table, path)
    assert main(["analyze", str(path)]) == 0
    assert "S = 2.8284" in capsys.readouterr().out


def test_analyze_two_file_variant(capsys, tmp_path):
    header = "bob_angle,0,45,90,135\n"
    rows = ["22.5", "67.5", "112.5", "157.5"]
    counts = header + "".join(f"{b},10,10,10,10\n" for b in rows)
    accidentals = header + "".join(f"{b},1,1,1,1\n" for b in rows)
    counts_path = tmp_path / "counts.csv"
    acc_path = tmp_path / "acc.csv"
    counts_path.write_text(counts)
    acc_path.write_text(accidentals)
    assert main(["analyze", str(counts_path), "--accidentals", str(acc_path)]) == 0
    assert "S = 0.0000" in capsys.readouterr().out


def test_analyze_malformed_table(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("bob_angle,0,45\n22.5,1-0,2-0\n")
    assert main(["analyze", str(path)]) == 1


def test_analyze_wrong_grid(capsys, tmp_path):
    text = "bob_angle,10,55,100,145\n" + "".join(
        f"{b},5-0,5-0,5-0,5-0\n" for b in ("22.5", "67.5", "112.5", "157.5")
    )
    path = tmp_path / "grid.csv"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 1
    assert "angle grid" in capsys.readouterr().err


def test_analyze_missing_table(capsys):
    assert main(["analyze", "/no/such/table.csv"]) == 2


def test_analyze_all_zero_counts_is_numerical_failure(capsys, tmp_path):
    table = CountTable16(counts=np.zeros((4, 4)), accidentals=np.zeros((4, 4)))
    path = tmp_path / "zero.csv"
    write_table_csv(table, path)
    assert main(["analyze", str(path)]) == 3


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_reports(capsys, tmp_path):
    config = write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out_dir)]) == 0
    results = json.loads((out_dir / "results.json").read_text())
    assert results["seed"] == 5
    assert results["chsh"]["S"] > 2.0  # visibility 0.9 quantum model
    assert results["geometry"]["duty_cycle"] == pytest.approx(0.015915, abs=1e-6)
    assert set(results["degradation"]["records"]) == {"dark", "no_rotation", "with_rotation"}
    assert (out_dir / "chsh_counts.csv").is_file()
    assert (out_dir / "degradation.csv").is_file()
    # the counts CSV round-trips through the analyze command
    capsys.readouterr()
    assert main(["analyze", str(out_dir / "chsh_counts.csv")]) == 0
    assert "S = " in capsys.readouterr().out


def test_simulate_same_seed_is_byte_identical(tmp_path):
    config = write_config(tmp_path)
    dirs = (tmp_path / "a", tmp_path / "b")
    for out_dir in dirs:
        assert main(["simulate", "--config", str(config), "--out", str(out_dir)]) == 0
    for name in ("results.json", "chsh_counts.csv", "degradation.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_simulate_seed_flag_changes_counts(tmp_path):
    config = write_config(tmp_path)
    dirs = (tmp_path / "a", tmp_path / "b")
    assert main(["simulate", "--config", str(config), "--out", str(dirs[0])]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(dirs[1]), "--seed", "6"]) == 0
    assert (dirs[0] / "chsh_counts.csv").read_bytes() != (dirs[1] / "chsh_counts.csv").read_bytes()


def test_simulate_lhv_model(tmp_path):
    body = dict(TINY_CONFIG, model={"name": "malus"})
    config = write_config(tmp_path, body)
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out_dir)]) == 0
    results = json.loads((out_dir / "results.json").read_text())
    assert results["chsh"]["S"] <= 2.0 + 4 * results["chsh"]["S_sigma"]


def test_simulate_traveling_model_roundtrips(tmp_path):
    body = dict(
        TINY_CONFIG,
        model={
            "name": "traveling",
            "influence_speed": "instant",
            "base": {"name": "quantum", "visibility": 1.0},
            "uninformed": {"name": "threshold"},
        },
    )
    body["run"] = dict(body["run"], rotation=True, pair_rate=50000.0, integration_time=1.0)
    config = write_config(tmp_path, body)
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out_dir)]) == 0
    results = json.loads((out_dir / "results.json").read_text())
    # isolation holds: surviving photons carry the uninformed statistics
    assert results["chsh"]["S"] <= 2.0 + 4 * results["chsh"]["S_sigma"]


def test_simulate_rotation_flag_override(tmp_path):
    config = write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert main(
        ["simulate", "--config", str(config), "--out", str(out_dir), "--rotation", "on"]
    ) == 0
    results = json.loads((out_dir / "results.json").read_text())
    assert results["rotation"] is True


def test_simulate_bad_config_schema(tmp_path, capsys):
    config = write_config(tmp_path, {"apparatus": {"bogus": 1.0}})
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1


def test_simulate_rejects_infinite_integration_time(tmp_path, capsys):
    body = dict(TINY_CONFIG)
    body["detector"] = dict(body["detector"], dark_rate_alice=0.0, dark_rate_bob=0.0)
    config = write_config(tmp_path, body)
    args = ["simulate", "--config", str(config), "--out", str(tmp_path / "o")]
    assert main([*args, "--set", "run.integration_time=Infinity"]) == 1
    assert "run.integration_time must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value",
    [("run", "pair_rate", math.inf), ("run", "gate_phase", math.nan),
     ("model", "visibility", math.nan)],
)
def test_build_plan_rejects_non_finite_numbers(section, key, value):
    # checked without simulating: an infinite pair rate must never reach the runner
    cfg = json.loads(json.dumps(TINY_CONFIG))
    cfg[section][key] = value
    with pytest.raises(ConfigError, match=f"{section}.{key} must be finite"):
        build_plan(cfg)


def test_simulate_config_not_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "not valid JSON" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# causality


def test_causality_instant_is_isolated(capsys):
    assert main(["causality", "--speed", "instant"]) == 0
    out = capsys.readouterr().out
    assert "pass_fraction" in out
    assert "0.000000" in out
    assert "1.990086e-07" in out  # isolation margin


def test_causality_json_output(capsys):
    assert main(["causality", "--speed", "instant", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass_fraction"] == 0.0
    assert report["earliest_open_window"] is None
    assert report["influence_speed_m_per_s"] == "instant"


def test_causality_light_speed_isolated(capsys):
    assert main(["causality", "--speed", "2.998e8", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass_fraction"] == 0.0


def test_causality_sweep_finds_first_resonance(capsys):
    assert main(["causality", "--sweep", "--max-windows", "3"]) == 0
    out = capsys.readouterr().out
    assert "6.9578e+06" in out


def test_causality_resonant_speed_passes(capsys):
    assert main(["causality", "--speed", "6957815.699658703", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass_fraction"] > 0.0
    assert report["earliest_open_window"] == 1


def test_causality_invalid_speed(capsys):
    assert main(["causality", "--speed", "warp9"]) == 1
    assert "invalid speed" in capsys.readouterr().err
    assert main(["causality", "--speed", "-4"]) == 1
