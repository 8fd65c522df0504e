"""The traced benchmark runs on this checkout.

``perfbench/trace_child.py`` wraps functions that ``bellgate.cli`` and
``bellgate.runner`` look up by name.  If one of those names goes, every
traced child fails, and ``perfbench/run.py --trace 1`` reports no metrics
while it still exits 0.  These tests run the child on each of the
benchmark's workloads and read its spans as the benchmark does.  They
only read ``perfbench/``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bellgate
from bellgate.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_runner():
    # Loaded without writing bytecode, so nothing lands in perfbench/.
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


RUN = _load_runner()


@pytest.mark.parametrize("workload", sorted(RUN.WORKLOADS))
def test_traced_child_runs_each_workload(workload, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(RUN.workload_config(workload, 1)))
    traced, untraced, spans = tmp_path / "traced", tmp_path / "untraced", tmp_path / "spans.json"
    src = str(Path(bellgate.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    cli = ["simulate", "--config", str(config)]
    child = subprocess.run(
        [sys.executable, "-B", str(PERFBENCH / "trace_child.py"), str(spans), "run0",
         *cli, "--out", str(traced)],
        env=env, capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stderr
    assert all((traced / name).is_file() for name in RUN.ARTIFACTS)
    # Tracing only times the calls: the outputs are an untraced run's.
    assert main([*cli, "--out", str(untraced)]) == 0
    assert (traced / "results.json").read_bytes() == (untraced / "results.json").read_bytes()
    metrics = RUN.span_metrics(json.loads(spans.read_text()))
    for key in ("gating.gate_open.events", "funnel.emitted", "detection.match_coincidences.events"):
        assert metrics[key] > 0, key
