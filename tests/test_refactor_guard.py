"""Refactor guard: the bundled runs write exactly the bytes pinned here.

``simulate`` on the bundled ``demo.json`` (seed from the file), on the
same file with the mirror stopped (the ungated polarized path) and with
a ``traveling`` model at a partially resonant influence speed (both
model groups drawn through the gate), and ``analyze`` on the bundled
``table2.csv`` are hashed file by file; the stdout of ``geometry`` and
of three ``causality`` reports is hashed whole.  A pure refactor leaves every
digest unchanged.  A change that alters the random stream, the
arithmetic or the written digits on purpose updates the digests below
and says so in CHANGES.md, with the reason.
"""

import hashlib
import json

import pytest

from bellgate.apparatus import ApparatusConfig, gate_geometry
from bellgate.causality import influence_window_analysis, resonant_influence_speeds
from bellgate.cli import main
from bellgate.fixtures import fixture_path

SIMULATE_DIGESTS = {
    "results.json": "b3b1cd584f83e4af6dc5e4318461dbf0117906a3873b8d3cd17c129c9245a20e",
    "chsh_counts.csv": "ac37c6032515e593d85d51562e8a97f9928bfe292d2dbbfbde29aceb67540983",
    "degradation.csv": "983bba1f8f51b202458da5c1b50be912045a54fd95c6e0d16b9e5c06126d318f",
}

ROTATION_OFF_DIGESTS = {
    "results.json": "1c3f9609182e5c8513c0ae5f645709c6f881a93caa49bfba4a4f88b3cc6e8ee8",
    "chsh_counts.csv": "058e3f5843f39cd5f1d61148dfcc90bc50d8b18d94e5093974945e428c748d72",
    "degradation.csv": "983bba1f8f51b202458da5c1b50be912045a54fd95c6e0d16b9e5c06126d318f",
}

TRAVELING_DIGESTS = {
    "results.json": "86c86d2316a30a61bf3f9af8b7fa3e998a305388dd3f255672cb267d3712c360",
    "chsh_counts.csv": "9f1c91bcc2dd039fac4cc227b947c17635ad55600393a1784b090dfb5a824fea",
    "degradation.csv": "983bba1f8f51b202458da5c1b50be912045a54fd95c6e0d16b9e5c06126d318f",
}

ANALYZE_DIGESTS = {
    "chsh_report.txt": "c87c7915124ccac94ff5ba8e6f611a4a0e0774c0a752cfc2b3132cacde126f8b",
    "chsh_report.csv": "0165c1e2fefd01e1fd7ef28b777723d60be99d4c7144c43e4ab448abe1711a85",
}

STDOUT_DIGESTS = {
    "geometry": "1e8016006c269df1531ad6f90e21d2bfefdb9f9f6011b759c6ed1342f09051d1",
    "causality --speed instant": (
        "8ccd864de43729ec7ae2b4986573e5a57d568476cb2621b4c710687807e7cb30"
    ),
    "causality --speed 2.998e8 --json": (
        "9dcfa21de16f3e462e28268f365ed2793d6ee65a952b6adfa6742ba3b03c480f"
    ),
    "causality --sweep --max-windows 5 --json": (
        "d34eab75fda3d3849c72799c3d4a22fb19aaec5f5b397dedac161d893bd964d4"
    ),
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
    args = ["--config", config, "--set", "run.rotation=false", "--out", str(out)]
    assert main(["simulate", *args]) == 0
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


@pytest.mark.parametrize("command", STDOUT_DIGESTS)
def test_report_stdout_is_byte_identical(capsys, command):
    assert main(command.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == STDOUT_DIGESTS[command]
