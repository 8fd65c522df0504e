"""Refactor guard: the bundled runs write exactly the bytes pinned here.

``simulate`` on the bundled ``demo.json`` (seed from the file), on the
same file with the mirror stopped (the ungated polarized path) and with
a ``traveling`` model at a partially resonant influence speed (both
model groups drawn through the gate), and ``analyze`` on the bundled
``table2.csv`` are hashed file by file.  A pure refactor leaves every
digest unchanged.  A change that alters the
random stream or the arithmetic on purpose updates the digests below and
says so in CHANGES.md, with the reason.
"""

import hashlib
import json

from bellgate.apparatus import ApparatusConfig, gate_geometry
from bellgate.causality import influence_window_analysis, resonant_influence_speeds
from bellgate.cli import main
from bellgate.fixtures import fixture_path

SIMULATE_DIGESTS = {
    "results.json": "c097aa3d845f7b3f60735e029a5bf59b7845031e3576464eed427475d07e31b5",
    "chsh_counts.csv": "e2047e8c5c65697750f1904cb528c71caa420ad6d529fc52be8040d257f77d17",
    "degradation.csv": "42b6a7dcd6c659f7d49ff31c0dae2f510f04993823567479b7a347e28be6aa8e",
}

ROTATION_OFF_DIGESTS = {
    "results.json": "da508261968b4d2e97aa69b62abc051a798ad543cf8c3307867dc4c360d3316b",
    "chsh_counts.csv": "87cb9c9f5994330a08bb5835ec85b84b365097ed8eb4a5f979a5ddf23ca30057",
    "degradation.csv": "42b6a7dcd6c659f7d49ff31c0dae2f510f04993823567479b7a347e28be6aa8e",
}

TRAVELING_DIGESTS = {
    "results.json": "7a66eaf2060d1e548b2578c7cbf75cc21a57661d15305ffe6ab1e47216612a37",
    "chsh_counts.csv": "653fa1ef69a153c407493b9e0fc78294c2e372588a6077f7c329366b3b651b01",
    "degradation.csv": "42b6a7dcd6c659f7d49ff31c0dae2f510f04993823567479b7a347e28be6aa8e",
}

ANALYZE_DIGESTS = {
    "chsh_report.txt": "c87c7915124ccac94ff5ba8e6f611a4a0e0774c0a752cfc2b3132cacde126f8b",
    "chsh_report.csv": "0165c1e2fefd01e1fd7ef28b777723d60be99d4c7144c43e4ab448abe1711a85",
}


def _digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


def test_simulate_demo_is_byte_identical(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(fixture_path("demo.json")), "--out", str(out)]) == 0
    assert _digests(out, SIMULATE_DIGESTS) == SIMULATE_DIGESTS


def test_simulate_demo_without_rotation_is_byte_identical(tmp_path):
    out = tmp_path / "sim"
    config = str(fixture_path("demo.json"))
    assert main(["simulate", "--config", config, "--rotation", "off", "--out", str(out)]) == 0
    assert _digests(out, ROTATION_OFF_DIGESTS) == ROTATION_OFF_DIGESTS


def test_simulate_partially_informed_traveling_is_byte_identical(tmp_path):
    # demo.json is the reference bench; halfway between the low and the
    # centre speed of the first resonance, about half of the informed
    # arrivals pass the gate, so both model groups are drawn.
    apparatus = ApparatusConfig()
    geometry = gate_geometry(apparatus)
    first = resonant_influence_speeds(
        geometry, apparatus.fiber_length, apparatus.vacuum_light_speed, 1
    )[0]
    speed = (first.low + first.center) / 2
    report = influence_window_analysis(
        geometry, apparatus.fiber_length, speed, apparatus.vacuum_light_speed
    )
    assert 0.2 < report.pass_fraction < 0.8
    cfg = json.loads(fixture_path("demo.json").read_text())
    assert ApparatusConfig(**cfg["apparatus"]) == apparatus
    cfg["model"] = {
        "name": "traveling",
        "base": {"name": "quantum", "sign_convention": "mirrored", "visibility": 1.0},
        "uninformed": {"name": "malus"},
        "influence_speed": speed,
    }
    config = tmp_path / "traveling.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert _digests(out, TRAVELING_DIGESTS) == TRAVELING_DIGESTS


def test_analyze_table2_is_byte_identical(tmp_path):
    out = tmp_path / "report"
    assert main(["analyze", str(fixture_path("table2.csv")), "--out", str(out)]) == 0
    assert _digests(out, ANALYZE_DIGESTS) == ANALYZE_DIGESTS
