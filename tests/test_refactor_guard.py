"""Refactor guard: the bundled runs write exactly the bytes pinned here.

``simulate`` on the bundled ``demo.json`` (seed from the file) and
``analyze`` on the bundled ``table2.csv`` are hashed file by file.  A
pure refactor leaves every digest unchanged.  A change that alters the
random stream or the arithmetic on purpose updates the digests below and
says so in CHANGES.md, with the reason.
"""

import hashlib

from bellgate.cli import main
from bellgate.fixtures import fixture_path

SIMULATE_DIGESTS = {
    "results.json": "c097aa3d845f7b3f60735e029a5bf59b7845031e3576464eed427475d07e31b5",
    "chsh_counts.csv": "e2047e8c5c65697750f1904cb528c71caa420ad6d529fc52be8040d257f77d17",
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


def test_analyze_table2_is_byte_identical(tmp_path):
    out = tmp_path / "report"
    assert main(["analyze", str(fixture_path("table2.csv")), "--out", str(out)]) == 0
    assert _digests(out, ANALYZE_DIGESTS) == ANALYZE_DIGESTS
