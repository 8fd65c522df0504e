"""Refactor guard: the bundled runs write exactly the bytes pinned here.

``simulate`` on the bundled ``demo.json`` (seed from the file), on the
same file with the mirror stopped (the ungated polarized path) and with
a ``traveling`` model at a partially resonant influence speed (both
model groups drawn through the gate), and ``analyze`` on the bundled
``table2.csv`` are hashed file by file; the stdout of ``geometry`` and
of four ``causality`` outputs (a report and the resonance sweep, each as
text and as JSON) is hashed whole.  One gated sub-run long enough to
span several chunks of draws is pinned by its counts.  A pure refactor
leaves every pin unchanged.  A change that alters the random stream, the
arithmetic or the written digits on purpose updates the pins below and
says so in CHANGES.md, with the reason.
"""

import hashlib
import json

import numpy as np
import pytest

from bellgate.apparatus import ApparatusConfig, gate_geometry
from bellgate.causality import influence_window_analysis, resonant_influence_speeds
from bellgate.cli import main
from bellgate.analysis import CountRecord
from bellgate.config import build_plan
from bellgate.fixtures import fixture_path
from bellgate.gating import _CHUNK_EVENTS
from bellgate.record import replace
from bellgate.runner import derive_seed, run_setting

SIMULATE_DIGESTS = {
    "results.json": "601645e2ee8061abbfa1511fb7e22e4173240d631b6d76d4108ff18ccfb559d0",
    "chsh_counts.csv": "7840dc750770641456fc19abc829d72ee147f4893025589cc0e1eb2bbdcadc67",
    "degradation.csv": "10d684a88fb9505ac86cb4121f198571ac5e43a4f10056b592a6f9e766806b2f",
}

ROTATION_OFF_DIGESTS = {
    "results.json": "ca2b3cca40c6e474265880d8c967bc4be8dd8b8b4ce664143a80388026c71041",
    "chsh_counts.csv": "3c958f8c0bb88724e5823d91379b5722de2491a9aa6e7eca47a9d270285238d8",
    "degradation.csv": "10d684a88fb9505ac86cb4121f198571ac5e43a4f10056b592a6f9e766806b2f",
}

TRAVELING_DIGESTS = {
    "results.json": "4468a2ec8e8c950970d56d2391da6d064baf96053e2ee95fe6ab3d665ff9350c",
    "chsh_counts.csv": "3f58786a8e07dd7fe0cc7afae73f3ab8307e0da943d350d0ba027b1054122768",
    "degradation.csv": "10d684a88fb9505ac86cb4121f198571ac5e43a4f10056b592a6f9e766806b2f",
}

# The (0, 22.5) cell of demo.json's scan at 2e6 pairs/s: a gated run of
# about 2.2e5 draws, so four chunks (the bundled runs draw one each).
LONG_GATED_RECORD = CountRecord(125108, 122282, 24379, 30.0)

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


def test_gated_run_over_several_chunks_is_pinned():
    plan = replace(build_plan(json.loads(fixture_path("demo.json").read_text())), pair_rate=2e6)
    per_period = sum(law[0] * gate.aperture_time for gate, law in plan.stream(0.0, 22.5))
    assert per_period * plan.integration_time / plan.gate.gate_period > 3 * _CHUNK_EVENTS
    rng = np.random.default_rng(derive_seed(plan.seed, "chsh", 0.0, 22.5))
    assert run_setting(plan, 0.0, 22.5, rng) == LONG_GATED_RECORD


def test_analyze_table2_is_byte_identical(tmp_path):
    out = tmp_path / "report"
    assert main(["analyze", str(fixture_path("table2.csv")), "--out", str(out)]) == 0
    assert _digests(out, ANALYZE_DIGESTS) == ANALYZE_DIGESTS


@pytest.mark.parametrize("command", STDOUT_DIGESTS)
def test_report_stdout_is_byte_identical(capsys, command):
    assert main(command.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == STDOUT_DIGESTS[command]
