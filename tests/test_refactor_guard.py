"""Refactor guard: the bundled runs write exactly the bytes pinned here.

``simulate`` on the bundled ``demo.json`` (seed from the file), on the
same file with the mirror stopped (the ungated polarized path) and with
a ``traveling`` model at a partially resonant influence speed (both
model groups drawn through the gate), and ``analyze`` on the bundled
``table2.csv`` are hashed file by file; the stdout of ``geometry`` and
of four ``causality`` outputs (a report and the resonance sweep, each as
text and as JSON) is hashed whole.  A pure refactor leaves every digest
unchanged.  A change that alters the random stream, the arithmetic or
the written digits on purpose updates the digests below and says so in
CHANGES.md, with the reason.
"""

import hashlib
import json

import pytest

from bellgate.apparatus import ApparatusConfig, gate_geometry
from bellgate.causality import influence_window_analysis, resonant_influence_speeds
from bellgate.cli import main
from bellgate.fixtures import fixture_path

SIMULATE_DIGESTS = {
    "results.json": "a5306715e6982d597f7282e323779383d739fc0e10153f673da27be8837a2856",
    "chsh_counts.csv": "07dc7b8f4cf3bd84a6e2b07e073f6f69aee448bc5cf1a51390ccbc03f8399fac",
    "degradation.csv": "9bc0e3ce8329740aa9e0a70f2222303ec9d4d771ce560091b8b0fd8137979330",
}

ROTATION_OFF_DIGESTS = {
    "results.json": "f91231bcfa3d88b945fd8453d27efceff4ee500a2963575d2b3aee4b7097c6cc",
    "chsh_counts.csv": "3c958f8c0bb88724e5823d91379b5722de2491a9aa6e7eca47a9d270285238d8",
    "degradation.csv": "9bc0e3ce8329740aa9e0a70f2222303ec9d4d771ce560091b8b0fd8137979330",
}

TRAVELING_DIGESTS = {
    "results.json": "eb00ee9032c8193354c8d7c62e286e9addaf2dab8c085daec5d53f160ef7d3cf",
    "chsh_counts.csv": "13db948c3abe0a75e94a16df2a79588ccd38ab0e10e8823611b18a3434fd36b7",
    "degradation.csv": "9bc0e3ce8329740aa9e0a70f2222303ec9d4d771ce560091b8b0fd8137979330",
}

ANALYZE_DIGESTS = {
    "chsh_report.txt": "c87c7915124ccac94ff5ba8e6f611a4a0e0774c0a752cfc2b3132cacde126f8b",
    "chsh_report.csv": "0165c1e2fefd01e1fd7ef28b777723d60be99d4c7144c43e4ab448abe1711a85",
}

STDOUT_DIGESTS = {
    "geometry": "1e8016006c269df1531ad6f90e21d2bfefdb9f9f6011b759c6ed1342f09051d1",
    "causality --speed instant": (
        "7edea1a5e3acf34fc22a34f7115dcb8d138fc1fa229b8595970dea90d1b632fe"
    ),
    "causality --speed 2.998e8 --json": (
        "9dcfa21de16f3e462e28268f365ed2793d6ee65a952b6adfa6742ba3b03c480f"
    ),
    "causality --sweep --max-windows 5 --json": (
        "d34eab75fda3d3849c72799c3d4a22fb19aaec5f5b397dedac161d893bd964d4"
    ),
    "causality --sweep --max-windows 5": (
        "4959270325c0908b70f0850e8b84343f182a40220e782ad5b5267b3f9c75b4b8"
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


def test_traveling_luminosity_runs_are_the_bundled_models():
    # The luminosity runs have no polarizers, so which model informs a pair
    # changes nothing: the traveling run's open pieces merge into one.
    assert TRAVELING_DIGESTS["degradation.csv"] == SIMULATE_DIGESTS["degradation.csv"]


def test_analyze_table2_is_byte_identical(tmp_path):
    out = tmp_path / "report"
    assert main(["analyze", str(fixture_path("table2.csv")), "--out", str(out)]) == 0
    assert _digests(out, ANALYZE_DIGESTS) == ANALYZE_DIGESTS


@pytest.mark.parametrize("command", STDOUT_DIGESTS)
def test_report_stdout_is_byte_identical(capsys, command):
    assert main(command.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == STDOUT_DIGESTS[command]
