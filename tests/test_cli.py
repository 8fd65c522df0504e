import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bellgate.analysis import (
    ALICE_ANGLES,
    BOB_ANGLES,
    CountTable16,
    chsh_S,
    read_table_csv,
    write_table_csv,
)
from bellgate.apparatus import ApparatusConfig, DetectorConfig
from bellgate.causality import MAX_SWEEP_WINDOWS, resonant_influence_speeds
from bellgate.cli import CAUSALITY_FIELDS, SWEEP_FIELDS, main
from bellgate.config import ConfigError, RunPlan, build_plan, validate_schema
from bellgate.fixtures import fixture_path
from bellgate.record import fields
from bellgate.sources import MalusLHV, QuantumState, ThresholdLHV, TravelingInfluence

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


def test_geometry_rejects_fractional_facet_count(capsys):
    # once truncated to 34 facets, printing that timing with exit 0
    assert main(["geometry", "--set", "apparatus.facet_count=34.7"]) == 1
    assert capsys.readouterr().err == "error: facet count must be a positive integer\n"
    assert main(["geometry", "--set", "apparatus.facet_count=34.0"]) == 0
    assert "2.941176e-05" in capsys.readouterr().out


# A slit one float step narrower than a facet sweep: validate_config passes
# it, but its aperture time rounds to the gate period, so the gate never closes.
NEVER_CLOSES = [
    "--set", "apparatus.mirror_radius=0.1", "--set", "apparatus.facet_count=100",
    "--set", "apparatus.rotation_rate=333",
    "--set", "apparatus.aperture_width=0.006283185307179586",
]


@pytest.mark.parametrize(
    "command", [["geometry"], ["causality", "--speed", "instant"], ["simulate"]], ids=lambda c: c[0]
)
def test_every_command_refuses_a_gate_that_never_closes(tmp_path, capsys, command):
    # geometry once printed duty_cycle 1.000000 and causality a pass
    # fraction of 1, both with exit 0, where simulate exited 1
    out = tmp_path / "o"
    args = ["--config", str(fixture_path("demo.json")), *NEVER_CLOSES]
    if command == ["simulate"]:
        args += ["--out", str(out)]
    assert main([*command, *args]) == 1
    assert capsys.readouterr().err == "error: aperture time must be shorter than the gate period\n"
    assert not out.exists()


def test_config_file_refuses_a_repeated_key(tmp_path, capsys):
    # json keeps the last of two equal keys: this printed the 2e-3 timing, exit 0
    path = tmp_path / "config.json"
    path.write_text('{"apparatus": {"aperture_width": 1e-3, "aperture_width": 2e-3}}')
    assert main(["geometry", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "error: config repeats key 'aperture_width'\n"
    path.write_text('{"apparatus": {}, "apparatus": {}}')
    assert main(["geometry", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "error: config repeats key 'apparatus'\n"
    # Repeated overrides apply in order: the last one wins.
    overrides = ["--set", "apparatus.aperture_width=1e-3", "--set", "apparatus.aperture_width=2e-3"]
    assert main(["geometry", *overrides]) == 0
    assert "9.362055e-07" in capsys.readouterr().out


def test_override_refuses_a_repeated_key_in_an_object_value(tmp_path, capsys):
    # json keeps the last of two equal keys: this simulated a malus base, exit 0
    model = {"name": "traveling", "base": {"name": "quantum"}, "uninformed": {"name": "malus"}}
    config = write_config(tmp_path, dict(TINY_CONFIG, model=model))
    out = tmp_path / "o"
    override = 'model.base={"name": "quantum", "name": "malus"}'
    assert main(["simulate", "--config", str(config), "--set", override, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: config repeats key 'name'\n"
    assert not out.exists()


def test_unknown_config_key_rejected(capsys):
    assert main(["geometry", "--set", "apparatus.slit_count=2"]) == 1
    assert "unknown key" in capsys.readouterr().err


def _without(section, key=None):
    """TINY_CONFIG less one section, or less one key of a section."""
    if key is None:
        return {name: body for name, body in TINY_CONFIG.items() if name != section}
    body = {k: v for k, v in TINY_CONFIG[section].items() if k != key}
    return dict(TINY_CONFIG, **{section: body})


TRAVELING_MODEL = {"name": "traveling", "base": {"name": "quantum"}, "uninformed": {"name": "malus"}}

# name -> (command, config body or None for the bundled one, overrides, error)
CONFIG_REFUSALS = {
    "not_an_object": ("geometry", [1, 2], [], "config must be a JSON object"),
    "unknown_section": (
        "geometry", dict(TINY_CONFIG, laser={}), [], "unknown config section(s): ['laser']"
    ),
    "section_not_an_object": (
        "geometry", dict(TINY_CONFIG, apparatus=3), [], "section 'apparatus' must be an object"
    ),
    "model_not_an_object": (
        "geometry", dict(TINY_CONFIG, model="quantum"), [], "section 'model' must be an object"
    ),
    "unknown_model": (
        "geometry",
        dict(TINY_CONFIG, model={"name": "bohm"}),
        [],
        "model.name must be one of ['malus', 'quantum', 'threshold', 'traveling'], got 'bohm'",
    ),
    "traveling_without_uninformed": (
        "geometry",
        dict(TINY_CONFIG, model={"name": "traveling", "base": {"name": "quantum"}}),
        [],
        "model.uninformed is required for a traveling model",
    ),
    "override_without_equals": (
        "geometry",
        None,
        ["apparatus.aperture_width"],
        "override 'apparatus.aperture_width' must look like section.key=value",
    ),
    "override_of_a_section": ("geometry", None, ["run=5"], "override key 'run' must be section.key"),
    "override_below_a_value": (
        "geometry",
        None,
        ["run.seed.x=1"],
        "override key 'run.seed.x' does not address an object",
    ),
    "value_not_a_number": (
        "geometry",
        None,
        ["apparatus.aperture_width=wide"],
        "apparatus.aperture_width must be a number, got 'wide'",
    ),
    "speed_of_true": (
        "simulate",
        dict(TINY_CONFIG, model=TRAVELING_MODEL),
        ["model.influence_speed=true"],
        "invalid speed True",
    ),
    "simulate_without_a_model": (
        "simulate", _without("model"), [], "config needs a model section to simulate"
    ),
    "simulate_without_an_integration_time": (
        "simulate",
        _without("run", "integration_time"),
        [],
        "run.integration_time is required to simulate",
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIG_REFUSALS))
def test_config_refusals_exit_1_with_one_error_line(tmp_path, capsys, name):
    command, body, overrides, message = CONFIG_REFUSALS[name]
    args = [command]
    if body is not None:
        args += ["--config", str(write_config(tmp_path, body))]
    for override in overrides:
        args += ["--set", override]
    if command == "simulate":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


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


def test_analyze_malformed_table(capsys, tmp_path):
    rows = "".join(f"{b},226-5,85-4,42-4,184-4\n" for b in ("67.5", "112.5", "157.5"))
    texts = ["bob_angle,0,45\n22.5,1-0,2-0\n"] + [
        # a non-finite cell is refused, not carried into S or floored to 0
        f"bob_angle,0,45,90,135\n22.5,{cell},85-4,42-4,184-4\n{rows}"
        for cell in ("nan-5", "226-inf", "inf-5", "226-nan")
    ]
    for text in texts:
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_analyze_wrong_grid(capsys, tmp_path):
    canonical_bob = ("22.5", "67.5", "112.5", "157.5")
    grids = [
        ("10,55,100,145", canonical_bob),
        # a permuted grid was once read; the one layout is the canonical order
        ("0,90,45,135", canonical_bob),
        ("0,45,90,135", ("67.5", "22.5", "112.5", "157.5")),
        ("0,45,90,135", ("22.5000001", "67.5", "112.5", "157.5")),
    ]
    for alice, bob in grids:
        path = tmp_path / "grid.csv"
        path.write_text(f"bob_angle,{alice}\n" + "".join(f"{b},5-0,5-0,5-0,5-0\n" for b in bob))
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "angle grid" in err
        assert f"{ALICE_ANGLES}" in err and f"{BOB_ANGLES}" in err


@pytest.mark.parametrize(
    "header, cell, message",
    [
        ("bob_angle,0,45,90,135", "226", "malformed cell '226'; expected 'count-accidental'"),
        ("bob_angle,0,45,ninety,135", "226-5", "malformed angle label"),
    ],
    ids=["cell_without_a_dash", "angle_not_a_number"],
)
def test_analyze_refuses_a_malformed_cell_or_angle(capsys, tmp_path, header, cell, message):
    rows = "".join(f"{b},{cell},85-4,42-4,184-4\n" for b in ("22.5", "67.5", "112.5", "157.5"))
    path = tmp_path / "bad.csv"
    path.write_text(f"{header}\n{rows}")
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_analyze_takes_no_accidentals_file(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(fixture_path("table2.csv")), "--accidentals", "acc.csv"])
    assert exc.value.code == 2


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
    # the counts CSV round-trips through the analyze command, to the last bit
    assert chsh_S(read_table_csv(out_dir / "chsh_counts.csv")).S == results["chsh"]["S"]
    capsys.readouterr()
    report = tmp_path / "report"
    assert main(["analyze", str(out_dir / "chsh_counts.csv"), "--out", str(report)]) == 0
    assert "S = " in capsys.readouterr().out
    # and the S row of its report is repr of that S
    with open(report / "chsh_report.csv", newline="") as f:
        rows = [row for row in csv.reader(f) if row[0] == "S"]
    assert [row[3] for row in rows] == [repr(results["chsh"]["S"])]


def test_simulate_same_seed_is_byte_identical(tmp_path):
    config = write_config(tmp_path)
    dirs = (tmp_path / "a", tmp_path / "b")
    for out_dir in dirs:
        assert main(["simulate", "--config", str(config), "--out", str(out_dir)]) == 0
    for name in ("results.json", "chsh_counts.csv", "degradation.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_failed_simulate_leaves_out_as_it_was(tmp_path, capsys):
    # A 1 ms demo scan has an empty cell: its degradation runs succeed, and
    # their report must not land beside an earlier run's files.  Each
    # correlation quadruple expects 1e5 * 0.0159 * 0.25**2, about 100
    # coincidences a second: at 1 ms all four hold one with probability
    # about 8e-5; at 0.2 s each expects 20, and one is empty with
    # probability about 8e-9.
    def simulate(out, seconds):
        return main(["simulate", "--config", str(fixture_path("demo.json")), "--out", str(out),
                     "--set", f"run.integration_time={seconds}"])

    out = tmp_path / "d"
    assert simulate(out, 0.2) == 0
    names = ("results.json", "chsh_counts.csv", "degradation.csv")
    first = {name: (out / name).read_bytes() for name in names}
    capsys.readouterr()
    assert simulate(out, 0.001) == 3
    assert "needs at least one count" in capsys.readouterr().err
    assert {name: (out / name).read_bytes() for name in names} == first
    # Nor does a failed run create --out.
    assert simulate(tmp_path / "fresh", 0.001) == 3
    assert not (tmp_path / "fresh").exists()


def test_simulate_seed_flag_changes_counts(tmp_path):
    config = write_config(tmp_path)
    dirs = (tmp_path / "a", tmp_path / "b")
    assert main(["simulate", "--config", str(config), "--out", str(dirs[0])]) == 0
    assert main(
        ["simulate", "--config", str(config), "--out", str(dirs[1]), "--set", "run.seed=6"]
    ) == 0
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


@pytest.mark.filterwarnings("error")
def test_simulate_draws_edge_streams_without_a_warning(tmp_path):
    # One second of demo.json per run, warnings as errors: a division
    # warning in the sampler's zero-rate branch fails here.
    demo = json.loads(fixture_path("demo.json").read_text())

    def simulate(name, cfg=demo, overrides=()):
        out = tmp_path / name
        args = ["--config", str(write_config(tmp_path, cfg, f"{name}.json")), "--out", str(out)]
        for item in ("run.integration_time=1", *overrides):
            args += ["--set", item]
        assert main(["simulate", *args]) == 0, name
        return out

    # With no darks the stream's closed set draws nothing, gated or not.
    no_darks = ["detector.dark_rate_alice=0", "detector.dark_rate_bob=0"]
    for rotation in ("true", "false"):
        simulate(f"no-darks-{rotation}", overrides=[f"run.rotation={rotation}", *no_darks])
    # With the mirror stopped, runs are counted by their close pairs.
    # Darks of 1e-12/s leave about 2.5e19 windows between entries of the
    # dark run.
    sparse = ["detector.dark_rate_alice=1e-12", "detector.dark_rate_bob=1e-12"]
    simulate("sparse-darks", overrides=["run.rotation=false", *sparse])
    # A traveling model cuts the gate's open window where its informed
    # window starts or ends.  At the first resonance's centre speed the
    # informed window covers the open one, leaving an uninformed part of
    # zero or sliver aperture; at instant speed it misses it; halfway
    # between the resonance's low and centre speeds it covers part of it.
    # Without polarizers the model does not matter and the open pieces
    # merge, so each luminosity run matches the bundled quantum model's
    # byte for byte.
    luminosity = (simulate("demo") / "degradation.csv").read_bytes()
    plan = build_plan(demo)
    a = plan.apparatus
    photon_speed = a.vacuum_light_speed / a.fiber_group_index
    first = resonant_influence_speeds(plan.geometry, a.fiber_length, photon_speed, 1)[0]
    speeds = {"center": first.center, "instant": "instant", "partial": (first.low + first.center) / 2}
    for name, speed in speeds.items():
        model = {"name": "traveling", "base": {"name": "quantum"}, "uninformed": {"name": "malus"},
                 "influence_speed": speed}
        out = simulate(f"traveling-{name}", dict(demo, model=model))
        assert (out / "degradation.csv").read_bytes() == luminosity, name


def test_simulate_rotation_flag_override(tmp_path):
    config = write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert main(
        ["simulate", "--config", str(config), "--out", str(out_dir), "--set", "run.rotation=true"]
    ) == 0
    results = json.loads((out_dir / "results.json").read_text())
    assert results["rotation"] is True
    assert results["config"]["run"]["rotation"] is True


def test_simulate_config_echo_reproduces_the_run(tmp_path):
    # results.json echoes the config with its overrides applied, so
    # simulating the echo writes the same three artifacts.
    config = write_config(tmp_path)
    first, second = tmp_path / "a", tmp_path / "b"
    overrides = ["--set", "run.seed=6", "--set", "run.rotation=true"]
    assert main(["simulate", "--config", str(config), *overrides, "--out", str(first)]) == 0
    echo = json.loads((first / "results.json").read_text())["config"]
    assert echo["run"]["seed"] == 6 and echo["run"]["rotation"] is True
    echoed = write_config(tmp_path, echo, name="echo.json")
    assert main(["simulate", "--config", str(echoed), "--out", str(second)]) == 0
    for name in ("results.json", "chsh_counts.csv", "degradation.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.parametrize("flag", [["--seed", "3"], ["--rotation", "off"]])
def test_simulate_has_no_run_value_flags(tmp_path, capsys, flag):
    # run values are set in the config or by --set, which the echo records
    config = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(config), "--out", str(tmp_path / "o"), *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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
    [("run", "pair_rate", math.inf), ("run", "integration_time", math.nan),
     ("model", "visibility", math.nan),
     pytest.param("run", "pair_rate", 10**400, id="run-pair_rate-10**400"),
     pytest.param("apparatus", "fiber_length", 10**400, id="apparatus-fiber_length-10**400")],
)
def test_build_plan_rejects_non_finite_numbers(section, key, value):
    # checked without simulating: an infinite pair rate must never reach the runner
    cfg = json.loads(json.dumps(TINY_CONFIG))
    cfg[section][key] = value
    with pytest.raises(ConfigError, match=f"{section}.{key} must be finite"):
        build_plan(cfg)


def test_build_plan_reads_speed_beyond_float_range_as_json_reads_1e400():
    # once exit 3, "int too large to convert to float"
    cfg = json.loads(json.dumps(TINY_CONFIG))
    cfg["model"] = {"name": "traveling", "base": {"name": "quantum"},
                    "uninformed": {"name": "malus"}, "influence_speed": 10**400}
    assert build_plan(cfg).model.influence_speed == math.inf
    cfg["model"]["influence_speed"] = -(10**400)
    with pytest.raises(ConfigError, match="speed must be positive"):
        build_plan(cfg)


@pytest.mark.parametrize(
    "section, cls, name",
    [("apparatus", ApparatusConfig, None), ("detector", DetectorConfig, None),
     ("run", RunPlan, None), ("model", QuantumState, "quantum"),
     ("model", MalusLHV, "malus"), ("model", ThresholdLHV, "threshold"),
     ("model", TravelingInfluence, "traveling")],
)
def test_sections_accept_exactly_their_dataclass_fields(section, cls, name):
    keys = set(fields(cls))
    if cls is RunPlan:
        keys -= {"apparatus", "detector", "model"}  # sections of their own
    # The schema reads key names only, and nested models: any value will do.
    body = {key: {"name": "malus"} for key in keys}
    if name is not None:
        body["name"] = name
    validate_schema({section: body})
    with pytest.raises(ConfigError, match="unknown key"):
        validate_schema({section: {**body, "not_a_field": 0}})


def test_build_plan_defaults_are_the_dataclass_defaults():
    # config keeps no default of its own: an omitted key takes its record's
    cfg = {
        "detector": {"efficiency_alice": 0.5, "efficiency_bob": 0.25},
        "model": {"name": "traveling", "base": {"name": "quantum"},
                  "uninformed": {"name": "malus"}},
        "run": {"pair_rate": 1000.0, "integration_time": 2.0},
    }
    validate_schema(cfg)
    assert build_plan(cfg) == RunPlan(
        apparatus=ApparatusConfig(),
        detector=DetectorConfig(efficiency_alice=0.5, efficiency_bob=0.25),
        model=TravelingInfluence(base=QuantumState(), uninformed=MalusLHV()),
        pair_rate=1000.0,
        integration_time=2.0,
    )


def test_simulate_rejects_window_as_long_as_gate_period(tmp_path, capsys):
    # demo.json's gate period is 29.4 us; a 100 us window pairs detections
    # from different gate windows and once reported S above 2*sqrt(2).
    cfg = json.loads(fixture_path("demo.json").read_text())
    cfg["detector"]["coincidence_window"] = 1e-4
    cfg["run"]["integration_time"] = 0.5
    config = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "shorter than the gate period" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "override, message",
    [("run.accidental_convention=dobule", "unknown accidental convention 'dobule'"),
     ("run.gate_phase=0", "unknown key(s) in section 'run': ['gate_phase']"),
     # about 4e16 events; it once ran silently for what would have been years
     ("run.integration_time=1e12", "run too large: the ungated luminosity run expects 4.4e+16"),
     # past int()'s 4300-digit limit; once exited with Python's advice, naming no key
     pytest.param("run.pair_rate=1" + "0" * 5000, "run.pair_rate must be finite, got inf",
                  id="run.pair_rate=1e5000"),
     pytest.param("run.seed=1" + "0" * 5000, "seed must be an integer", id="run.seed=1e5000"),
     # finite inputs whose derived timing is not: the first two once passed
     # geometry with exit 0, the third exited 3 and the last two failed on a NaN
     ("apparatus.rotation_rate=1e-320", "aperture_time must be positive and finite, got inf"),
     ("apparatus.rotation_rate=1e308", "aperture_time must be positive and finite, got 0.0"),
     ("apparatus.mirror_radius=1e308", "aperture_time must be positive and finite, got 0.0"),
     ("apparatus.rotation_rate=1e-310", "gate_period must be positive and finite, got inf"),
     ("apparatus.vacuum_light_speed=1e-310", "fiber_delay must be positive and finite, got inf")],
)
def test_simulate_rejects_bad_plan_before_any_run(tmp_path, capsys, override, message):
    # the first two once failed only after the luminosity runs, one after
    # writing degradation.csv
    out = tmp_path / "o"
    args = ["simulate", "--config", str(fixture_path("demo.json")), "--out", str(out)]
    assert main([*args, "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_simulate_reads_oversized_integer_in_config_file_as_float(tmp_path, capsys):
    config = write_config(tmp_path, dict(TINY_CONFIG, run=dict(TINY_CONFIG["run"], pair_rate=0)))
    config.write_text(config.read_text().replace('"pair_rate": 0', '"pair_rate": 1' + "0" * 5000))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: run.pair_rate must be finite, got inf\n"
    assert not out.exists()


def test_simulate_needs_both_detector_efficiencies(tmp_path, capsys):
    # config reads the record constructor's TypeError for a missing field
    detector = {k: v for k, v in TINY_CONFIG["detector"].items() if k != "efficiency_bob"}
    config = write_config(tmp_path, dict(TINY_CONFIG, detector=detector))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: detector section needs efficiency_alice and efficiency_bob\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("slot", ["base", "uninformed"])
def test_simulate_rejects_nested_traveling_model(tmp_path, capsys, slot):
    # once passed validation, wrote degradation.csv and then failed in the runner
    inner = {"name": "traveling", "base": {"name": "quantum"}, "uninformed": {"name": "malus"}}
    model = {"name": "traveling", "base": {"name": "quantum"}, "uninformed": {"name": "malus"}}
    model[slot] = inner
    config = write_config(tmp_path, dict(TINY_CONFIG, model=model))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: a traveling model cannot nest another traveling model\n"
    assert not out.exists()


@pytest.mark.parametrize("override", ["run.kind=chsh", "run.settings=[[0, 22.5]]"])
def test_simulate_rejects_removed_run_keys(tmp_path, capsys, override):
    out = tmp_path / "o"
    args = ["simulate", "--config", str(fixture_path("demo.json")), "--out", str(out)]
    assert main([*args, "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown key(s) in section 'run'") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "exc, detail",
    [(MemoryError("Unable to allocate 1.42 PiB"), "Unable to allocate 1.42 PiB"),
     (MemoryError(), "allocation failed")],
)
def test_simulate_out_of_memory_is_a_one_line_error(tmp_path, capsys, monkeypatch, exc, detail):
    def exhausted(plan):
        raise exc

    monkeypatch.setattr("bellgate.runner.run_degradation", exhausted)
    config = write_config(tmp_path)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: out of memory: {detail}\n"


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


# Text label -> JSON key of the causality report, in output order.
REPORT_KEYS = {
    "influence_speed": "influence_speed_m_per_s",
    "arrival_at_source": "arrival_at_source_s",
    "informed_emissions": "informed_emission_window_s",
    "informed_slit_arrivals": "informed_arrival_window_s",
    "earliest_open_window": "earliest_open_window",
    "pass_fraction": "pass_fraction",
    "isolation_margin": "isolation_margin_s",
}


def _at_precision_of(token: str, value) -> str:
    """``value`` written with as many digits as the text ``token``."""
    mantissa, _, exponent = token.partition("e")
    digits = len(mantissa.partition(".")[2])
    if exponent:
        return f"{value:.{digits}e}"
    return f"{value:.{digits}f}" if digits else str(value)


@pytest.mark.parametrize("speed", ["instant", "2.998e8", "6957815.699658703", "1e5"])
def test_causality_text_and_json_carry_the_same_values(capsys, speed):
    assert main(["causality", "--speed", speed]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert main(["causality", "--speed", speed, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    text = dict(line.split(maxsplit=1) for line in lines)
    assert list(text) == list(REPORT_KEYS)
    assert list(report) == list(REPORT_KEYS.values())
    for label, key in REPORT_KEYS.items():
        value = report[key]
        if value in ("instant", None):
            assert text[label] == (value or "none")
            continue
        # The JSON key names the unit the text line ends with.
        unit = "m/s" if key.endswith("_m_per_s") else "s" if key.endswith("_s") else ""
        numbers = text[label].removesuffix(" " + unit) if unit else text[label]
        assert not unit or numbers != text[label]
        tokens = numbers.strip("[]").split(", ")
        values = value if isinstance(value, list) else [value]
        assert len(tokens) == len(values)
        assert tokens == [_at_precision_of(t, v) for t, v in zip(tokens, values)]


def test_readme_lists_every_causality_json_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for field in CAUSALITY_FIELDS:
        assert f"| `{field.label}` | `{field.key}` |" in readme
    keys = ", ".join(f"`{field.key}`" for field in SWEEP_FIELDS[:-1])
    assert f"{keys} and `{SWEEP_FIELDS[-1].key}`" in " ".join(readme.split())


def test_readme_config_example_is_the_reference_bench():
    # The README's one JSON block documents the config format; it must be
    # the bundled reference bench and build a plan, so no key lingers there.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    example = json.loads(block)
    assert example == json.loads(fixture_path("reference_bench.json").read_text())
    build_plan(example)


def test_readme_python_example_runs_on_the_demo_config(capsys):
    # The README's one Python block runs as written on the bundled demo
    # config, so its import paths cannot drift.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(block.replace("my_run.json", str(fixture_path("demo.json"))), {})
    assert capsys.readouterr().out.startswith("S = ")


def test_causality_sweep_finds_first_resonance(capsys):
    assert main(["causality", "--sweep", "--max-windows", "3"]) == 0
    out = capsys.readouterr().out
    assert "6.9578e+06" in out


def test_causality_sweep_spells_an_infinite_speed_instant(capsys):
    # 8900 m of fiber: window 1 opens to influences of every speed above its low end.
    args = ["causality", "--sweep", "--max-windows", "2", "--set", "apparatus.fiber_length=8900"]
    assert main(args) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows[0][0] == "1" and rows[0][2:] == ["instant", "instant"]
    assert main(args + ["--json"]) == 0
    first = json.loads(capsys.readouterr().out)[0]
    assert first["high_m_per_s"] == first["center_m_per_s"] == "instant"


def test_causality_sweep_says_when_it_finds_no_resonance(capsys):
    # 9000 m of fiber delay a photon 30.0 us, past the close of window 1
    # (one 29.4 us period plus a 0.47 us aperture): even an instant
    # influence returns too late, so a sweep of that one window is empty.
    args = ["causality", "--sweep", "--max-windows", "1", "--set", "apparatus.fiber_length=9000"]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["no resonant speeds within the requested windows"]


def test_causality_sweep_at_the_window_cap(capsys):
    cap = str(MAX_SWEEP_WINDOWS)
    assert main(["causality", "--sweep", "--max-windows", cap, "--json"]) == 0
    intervals = json.loads(capsys.readouterr().out)
    assert [iv["window_index"] for iv in intervals] == list(range(1, MAX_SWEEP_WINDOWS + 1))


@pytest.mark.parametrize("windows", [MAX_SWEEP_WINDOWS + 1, 10**8, 0])
def test_causality_sweep_rejects_windows_beyond_the_cap(capsys, windows):
    assert main(["causality", "--sweep", "--max-windows", str(windows)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: max_windows must lie in [1, 10000], got {windows}\n"


def test_causality_resonant_speed_passes(capsys):
    assert main(["causality", "--speed", "6957815.699658703", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass_fraction"] > 0.0
    assert report["earliest_open_window"] == 1


@pytest.mark.parametrize("speed, status", [("1e-8", 1), ("1e-320", 1), ("0.05", 0)])
def test_causality_refuses_speeds_too_slow_to_resolve(capsys, speed, status):
    # Past about 2**52 aperture times of influence transit plus fiber
    # delay, float spacing swamps the informed arrival window; on the
    # reference bench that boundary lies between 0.05 and 0.01 m/s.
    assert main(["causality", "--speed", speed]) == status
    captured = capsys.readouterr()
    if status:
        assert captured.out == ""
        assert captured.err.startswith(f"error: influence speed {float(speed)!r} m/s")
        assert captured.err.count("\n") == 1
    else:
        assert "pass_fraction" in captured.out


@pytest.mark.parametrize("speed, status", [(1e-8, 1), (1e-320, 1), (0.05, 0)])
def test_simulate_refuses_influence_speeds_too_slow_to_resolve(tmp_path, capsys, speed, status):
    # At 1e-320 m/s the transit overflows to inf and the informed phase
    # was NaN; at 1e-8 m/s it was rounding noise of a 2e10 s transit.
    # Both once ran as pure uninformed statistics and exited 0.
    model = {
        "name": "traveling",
        "influence_speed": speed,
        "base": {"name": "quantum"},
        "uninformed": {"name": "malus"},
    }
    body = dict(TINY_CONFIG, model=model, run=dict(TINY_CONFIG["run"], rotation=True))
    config, out = write_config(tmp_path, body), tmp_path / "o"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == status
    captured = capsys.readouterr()
    if status:
        assert captured.err == (
            f"error: influence speed {speed!r} m/s: the informed-to-detected"
            " offset (influence transit plus fiber delay) is too long for float precision"
            " to resolve its informed window; a slow influence or a long fiber causes this\n"
        )
        assert not out.exists()
    else:
        assert (out / "results.json").is_file()


@pytest.mark.parametrize("fiber_length, status", [(2e12, 1), (1e12, 0)])
def test_an_instant_influence_is_refused_past_a_fiber_too_long_to_resolve(
    tmp_path, capsys, fiber_length, status
):
    # The informed-to-detected offset is the influence transit plus the
    # fiber delay, so at instant speed the fiber alone can make it too
    # long; the error once blamed the speed as too slow.
    fiber = f"apparatus.fiber_length={fiber_length}"
    assert main(["causality", "--speed", "instant", "--set", fiber]) == status
    model = {"name": "traveling", "influence_speed": "instant",
             "base": {"name": "quantum"}, "uninformed": {"name": "malus"}}
    body = dict(TINY_CONFIG, model=model, run=dict(TINY_CONFIG["run"], rotation=True))
    config, out = write_config(tmp_path, body), tmp_path / "o"
    assert main(["simulate", "--config", str(config), "--set", fiber, "--out", str(out)]) == status
    err = capsys.readouterr().err
    if status:
        assert err == 2 * (
            "error: influence speed inf m/s: the informed-to-detected offset (influence transit"
            " plus fiber delay) is too long for float precision to resolve its informed window;"
            " a slow influence or a long fiber causes this\n"
        )
        assert not out.exists()
    else:
        assert err == "" and (out / "results.json").is_file()


def test_simulate_leaves_numpy_ma_unloaded(tmp_path):
    # numpy.ma (and the inspect module it pulls in) once cost 10-15 ms of
    # every simulate: np.union1d in the matcher imports it on first use.
    code = (
        "import sys\n"
        "from bellgate.cli import main\n"
        f"assert main(['simulate', '--config', {str(write_config(tmp_path))!r},"
        f" '--out', {str(tmp_path / 'o')!r}]) == 0\n"
        "sys.exit('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/trace_child.py rebinds module globals of bellgate.cli and
    # bellgate.runner by name, so it is installed in a fresh interpreter;
    # -B keeps that interpreter from writing bytecode beside the script.
    root = Path(__file__).resolve().parents[1]
    code = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('trace_child', sys.argv[1])\n"
        "trace_child = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(trace_child)\n"
        "trace_child.install(trace_child.Tracer())\n"
    )
    script, src = str(root / "perfbench" / "trace_child.py"), str(root / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, "-B", "-c", code, script], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_simulate_runs_what_the_cli_names_hold(tmp_path, capsys, monkeypatch):
    # The tracer rebinds cli.run_degradation and cli.run_chsh; until
    # rebound, each resolves to the runner's function of that name.
    import bellgate.cli as cli
    import bellgate.runner as runner

    assert (cli.run_degradation, cli.run_chsh) == (runner.run_degradation, runner.run_chsh)
    with pytest.raises(AttributeError, match="no attribute 'run_setting'"):
        cli.run_setting
    calls = []
    for name in ("run_degradation", "run_chsh"):
        def wrapped(plan, func=getattr(runner, name), name=name):
            calls.append(name)
            return func(plan)

        # setitem, so that undoing it leaves the name unbound again
        monkeypatch.setitem(vars(cli), name, wrapped)
    config = write_config(tmp_path)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    assert calls == ["run_degradation", "run_chsh"]


def test_entry_point_freezes_the_import_heap_and_keeps_main_s_exit_codes(tmp_path, capsys):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    # run() freezes the heap before main(); main() itself does not.
    freeze = (
        "import gc, bellgate.cli as c\n"
        "c.main = lambda: 0 if gc.get_freeze_count() else 4\n"
        "c.run()\n"
    )
    demo = str(fixture_path("demo.json"))
    simulate = ["-m", "bellgate.cli", "simulate", "--out", "o"]
    runs = {
        0: ["-c", freeze],
        2: [*simulate, "--config", "does-not-exist.json"],
        1: [*simulate, "--set", "run.no_such_key=1"],
        3: [*simulate, "--config", demo, "--set", "run.integration_time=0.001"],
        "geometry": ["-m", "bellgate.cli", "geometry"],
    }
    # The children run side by side.
    children = {
        key: subprocess.Popen(
            [sys.executable, *args], env=env, cwd=tmp_path,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for key, args in runs.items()
    }
    outputs = {key: child.communicate() for key, child in children.items()}
    for status in (0, 2, 1, 3):
        assert children[status].returncode == status, outputs[status][1]
        if status:
            err = outputs[status][1]
            assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "o").exists()
    # Piped stdout is the bytes main() prints.
    assert children["geometry"].returncode == 0, outputs["geometry"][1]
    capsys.readouterr()
    assert main(["geometry"]) == 0
    assert outputs["geometry"][0] == capsys.readouterr().out


def test_causality_invalid_speed(capsys):
    assert main(["causality", "--speed", "warp9"]) == 1
    assert "invalid speed" in capsys.readouterr().err
    assert main(["causality", "--speed", "-4"]) == 1
