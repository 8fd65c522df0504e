"""Closed-loop benchmark of ``bellgate simulate``.

Run from the repository root::

    python3 perfbench/run.py --workload reference_gated --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload demo_ungated --seed 1 --seconds 35 --trace 1
    python3 perfbench/run.py --full demo.json

One client starts one ``simulate`` run at a time, back to back, each in
a fresh single-threaded child process, until ``--seconds`` have passed.
The program comes from ``src/`` of this checkout and receives only a
config file: the bundled JSON named by the workload, its overrides and
``run.seed = --seed``.  Every run's outputs are checked (exit code,
artifacts, byte-identical ``results.json`` at one seed, degradation
ratios against the duty cycle, ``S`` against its closed form); a run
that fails any check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics.  Their times are scaled
to a reference host's speed by a fixed kernel that the ``calibrate.py``
helper times between runs, which cancels most of a shared host's
drift.  ``--trace 1`` alternates
untraced runs with runs under ``trace_child.py``, which records a span
around every call ``bellgate.cli`` and ``bellgate.runner`` make into the
other modules, and reports per-layer times and counts.  The counts must
repeat exactly between traced runs.  ``--full`` runs a bundled config
unchanged, once, for the full-length figures in README.md.

Every metric is printed by name with its unit; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "bellgate" / "data"

# Sub-runs that draw pairs in one simulate call: 16 CHSH settings plus the
# gate-off and gate-on luminosity runs (the dark run draws no pairs).
SUB_RUNS = 18
SETUP_PER_RUN = 2
# Median time of the calibrate.py kernel on the reference host, a 2-vCPU Intel Xeon
# VM; timed metrics are scaled to that host's speed (see README.md).
CAL_REF_S = 0.36
MIN_RUNS = 3
MIN_TRACE_RUNS = 2
DEADLINE_S = 170.0  # a benchmark invocation must end within 180 s
FULL_DEADLINE_S = 1800.0
N_SIGMA = 5.0
ARTIFACTS = ("results.json", "chsh_counts.csv", "degradation.csv")
RATIO_COLUMNS = ("singles_alice", "singles_bob", "coincidences")
# chsh_S's default analysis settings (a, b), (a, b'), (a', b), (a', b').
CHSH_SETTINGS = ((0.0, 22.5), (0.0, 67.5), (45.0, 22.5), (45.0, 67.5))

TRAVELING_MODEL = {
    "name": "traveling",
    "influence_speed": "instant",
    "base": {"name": "quantum", "sign_convention": "mirrored", "visibility": 0.82},
    "uninformed": {"name": "malus"},
}

# name -> (bundled config, run overrides, model override or None).
# Why each workload exists and which layer it loads: see BENCHMARK.json
# and README.md.
WORKLOADS = {
    "reference_gated": ("reference_bench.json", {"integration_time": 2.0}, None),
    "demo_ungated": ("demo.json", {"integration_time": 10.0, "rotation": False}, None),
    "traveling_gated": ("demo.json", {"integration_time": 10.0}, TRAVELING_MODEL),
}

END_TO_END = {
    "simulate_s": "s",
    "pairs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

COUNT_KEYS = (
    "runner.run_setting.calls",
    "gating.gate_open.calls",
    "gating.gate_open.events",
    "gating.gate_open.open",
    "sources.joint_outcomes.pairs",
    "detection.match_coincidences.events",
    "detection.match_coincidences.matched",
    "detection.thin_times.events",
    "detection.thin_times.kept",
    "detection.dark_times.events",
    "apparatus.calls",
    "funnel.emitted",
    "funnel.gated",
    "funnel.detected",
    "funnel.coincidences",
)
FRAC_KEYS = ("gating.pass_frac", "detection.match_frac", "funnel.useful_frac")
TIME_KEYS = (
    "runner.self_s",
    "runner.run_setting.s",
    "gating.gate_open.s",
    "sources.joint_outcomes.s",
    "detection.match_coincidences.s",
    "detection.thin_times.s",
    "detection.dark_times.s",
    "analysis.s",
    "apparatus.s",
    "config.s",
    "cli.self_s",
    "import.s",
)
# Shares of the traced cli.main span, printed to show which layer leads.
SHARE_KEYS = tuple(k for k in TIME_KEYS if k not in ("runner.run_setting.s", "import.s"))


class Bench:
    """One benchmark invocation: its work directory, children and results."""

    def __init__(self, work: Path, cfg: dict, deadline: float = DEADLINE_S):
        self.start = time.perf_counter()
        self.deadline = deadline
        self.work = work
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(cfg, indent=2, sort_keys=True))
        self.env = {
            "PATH": os.environ.get("PATH", ""),
            "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": "0",
            "PYTHONPYCACHEPREFIX": str(work / "pycache"),
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "NUMEXPR_NUM_THREADS": "1",
            "VECLIB_MAXIMUM_THREADS": "1",
        }
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference_digest = None
        self.first_counts = None

    def remaining(self) -> float:
        return self.deadline - (time.perf_counter() - self.start)

    def spawn(self, args, log_name: str):
        """Run one child to completion: (exit code, wall s, peak RSS MB)."""
        cmd = [sys.executable, *args]
        with open(self.work / log_name, "wb") as log:
            began = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT
            )
            # Kill by pid, never proc.kill(): that polls and would reap the
            # child before wait4 can read its resource usage.
            timer = threading.Timer(
                max(self.remaining(), 5.0), os.kill, (proc.pid, signal.SIGKILL)
            )
            timer.start()
            try:
                # Wait without reaping, so the timer can only hit a zombie.
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                wall = time.perf_counter() - began
            except BaseException:
                os.kill(proc.pid, signal.SIGKILL)
                raise
            finally:
                timer.cancel()
                timer.join()
                _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def simulate(self, expect, traced: bool):
        """One checked simulate run: (wall s, peak RSS MB, span metrics or None)."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        cli = ["simulate", "--config", str(self.config_path), "--out", str(out)]
        spans_path = self.work / "spans.json"
        if traced:
            spans_path.unlink(missing_ok=True)
            args = [str(HERE / "trace_child.py"), str(spans_path), f"run{self.attempted}", *cli]
        else:
            args = ["-m", "bellgate.cli", *cli]
        code, wall, rss = self.spawn(args, "simulate.log")
        problems = [f"exit code {code}"] if code != 0 else []
        problems += [f"missing {name}" for name in ARTIFACTS if not (out / name).is_file()]
        if not problems:
            try:
                problems += self.check_results(out, expect)
            except (ValueError, KeyError, TypeError, AttributeError, ArithmeticError) as exc:
                problems.append(f"outputs are malformed: {exc!r}")
        metrics = None
        if traced and not problems:
            metrics = span_metrics(json.loads(spans_path.read_text()))
            if self.first_counts is None:
                self.first_counts = {k: metrics[k] for k in COUNT_KEYS}
            problems += [
                f"count {k} {metrics[k]} differs from the first traced run's {v}"
                for k, v in self.first_counts.items()
                if metrics[k] != v
            ]
        self.record(problems, f"{'traced' if traced else 'untraced'} simulate run")
        return wall, rss, metrics

    def record(self, problems, what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what} {self.attempted}: {p}" for p in problems]

    def check_results(self, out: Path, expect) -> list[str]:
        """Compare one run's outputs with the closed forms.

        Each deviation is judged against the larger of the program's own
        sigma and the sigma the expected value implies.  The program's
        sigma comes from the observed counts, which understates it for a
        low fluctuation of a small count.
        """
        from bellgate.analysis import read_table_csv

        problems = []
        raw = (out / "results.json").read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        if self.reference_digest is None:
            self.reference_digest = digest
        elif digest != self.reference_digest:
            problems.append("results.json differs from the first run at this seed")
        results = json.loads(raw)

        duty = expect["duty_cycle"]
        deg = results["degradation"]
        if sorted(deg["ratios"]) != sorted(RATIO_COLUMNS):
            problems.append(f"degradation ratios cover {sorted(deg['ratios'])}")
        records = deg["records"]
        dark, off, on = (records[k] for k in ("dark", "no_rotation", "with_rotation"))
        for column, ratio in deg["ratios"].items():
            key = f"{column}_per_s"
            k, y_raw = dark[key], off[key]
            y = y_raw - k
            var_x = (duty * y + k) / on["duration_s"] + k / dark["duration_s"]
            var_y = y_raw / off["duration_s"] + k / dark["duration_s"]
            sigma = max(deg["sigmas"][column], math.sqrt(var_x + duty**2 * var_y) / y)
            if not abs(ratio - duty) <= N_SIGMA * sigma:
                problems.append(
                    f"degradation ratio {column} {ratio:.5f} is not within "
                    f"{N_SIGMA:g} x {sigma:.5f} of duty cycle {duty:.5f}"
                )

        # A correlation over t corrected counts has variance (1 - E^2)/t.
        table = read_table_csv(out / "chsh_counts.csv")
        corrected = table.corrected()

        def cell(a, b):
            return corrected[
                table.alice_angles.index(a % 180.0), table.bob_angles.index(b % 180.0)
            ]

        totals = [
            cell(a, b) + cell(a + 90, b + 90) + cell(a, b + 90) + cell(a + 90, b)
            for a, b in CHSH_SETTINGS
        ]
        chsh = results["chsh"]
        sigma = max(
            chsh["S_sigma"],
            math.sqrt(sum((1 - e * e) / t for e, t in zip(expect["E"], totals))),
        )
        if not abs(chsh["S"] - expect["S"]) <= N_SIGMA * sigma:
            problems.append(
                f"S {chsh['S']:.4f} is not within {N_SIGMA:g} x {sigma:.4f} "
                f"of the closed form {expect['S']:.4f}"
            )
        return problems

    def setup_probe(self) -> float:
        """Wall time of one fresh set-up process."""
        code, wall, _ = self.spawn(
            [str(HERE / "setup_child.py"), str(self.config_path)], "setup.log"
        )
        self.record([f"exit code {code}"] if code else [], "set-up probe")
        return wall


class Calibrator:
    """The ``calibrate.py`` helper process: one kernel timing per call."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py")],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibrate.py ended with code {self.proc.wait()}")
        return float(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def workload_config(name: str, seed: int) -> dict:
    bundled, run, model = WORKLOADS[name]
    cfg = json.loads((DATA / bundled).read_text())
    cfg["run"].update(run, seed=seed)
    if model is not None:
        cfg["model"] = model
    return cfg


def expectations(cfg: dict) -> dict:
    """Closed-form duty cycle and S for a config, from the package itself."""
    from bellgate.apparatus import gate_geometry, validate_config
    from bellgate.causality import influence_window_analysis
    from bellgate.config import build_plan
    from bellgate.sources import TravelingInfluence, correlation_theory

    plan = build_plan(cfg)
    apparatus = validate_config(plan.apparatus)
    geometry = gate_geometry(apparatus)
    model = plan.model
    if isinstance(model, TravelingInfluence):
        # Detected pairs are informed in the share of informed arrivals the
        # gate passes; with the mirror stopped every emission is informed.
        informed = 1.0
        if plan.rotation:
            photon_speed = apparatus.vacuum_light_speed / apparatus.fiber_group_index
            informed = influence_window_analysis(
                geometry, apparatus.fiber_length, model.influence_speed, photon_speed
            ).pass_fraction
        e = [
            informed * correlation_theory(model.base, a, b)
            + (1.0 - informed) * correlation_theory(model.uninformed, a, b)
            for a, b in CHSH_SETTINGS
        ]
    else:
        e = [correlation_theory(model, a, b) for a, b in CHSH_SETTINGS]
    return {
        "duty_cycle": geometry.duty_cycle,
        "E": e,
        "S": abs(e[0] - e[1]) + abs(e[2] + e[3]),
        "pairs": plan.pair_rate * plan.integration_time * SUB_RUNS,
    }


def span_metrics(doc: dict) -> dict:
    """Per-layer times and counts of one traced simulate run."""
    spans = doc["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = defaultdict(float)
    self_by_layer = defaultdict(float)
    count = defaultdict(int)
    in_run_setting = defaultdict(float)  # run_setting self time and direct children
    for i, (name, start, end, parent, counts) in enumerate(spans):
        layer = name.split(".")[0]
        total[name] += end - start
        self_by_layer[layer] += end - start - child_time[i]
        count[f"{name}.calls"] += 1
        count[f"{layer}.calls"] += 1
        for key, value in counts.items():
            count[f"{name}.{key}"] += value
        if name == "runner.run_setting":
            in_run_setting["self"] += end - start - child_time[i]
        elif parent >= 0 and spans[parent][0] == "runner.run_setting":
            in_run_setting[name] += end - start

    m = {
        "runner.self_s": self_by_layer["runner"],
        "analysis.s": self_by_layer["analysis"],
        "apparatus.s": self_by_layer["apparatus"],
        "config.s": self_by_layer["config"],
        "cli.self_s": self_by_layer["cli"],
        "import.s": doc["import"][1] - doc["import"][0],
        "funnel.emitted": doc["emitted"],
        "funnel.gated": count["detection.thin_times.events"],
        "funnel.detected": count["detection.thin_times.kept"],
        "funnel.coincidences": count["detection.match_coincidences.matched"],
        "cli.main.s": total["cli.main"],
        "in_run_setting": dict(in_run_setting),
    }
    for name in (
        "runner.run_setting",
        "gating.gate_open",
        "sources.joint_outcomes",
        "detection.match_coincidences",
        "detection.thin_times",
        "detection.dark_times",
    ):
        m[f"{name}.s"] = total[name]
    for key in COUNT_KEYS:
        m.setdefault(key, count[key])
    m["gating.pass_frac"] = m["gating.gate_open.open"] / m["gating.gate_open.events"]
    m["detection.match_frac"] = (
        2 * m["detection.match_coincidences.matched"] / m["detection.match_coincidences.events"]
    )
    m["funnel.useful_frac"] = m["funnel.detected"] / m["funnel.emitted"]
    return m


def upper_percentile(values):
    """The highest of p99/p95/p90/p75/p50 with at least ten samples above it."""
    for q in (99, 95, 90, 75, 50):
        if len(values) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return None


def run_end_to_end(bench: Bench, expect: dict, seconds: float):
    bench.setup_probe()  # untimed: fills the bytecode cache
    walls, setups, rss = [], [], []
    with Calibrator(bench.env) as calibrate:
        cal = [calibrate()]
        loop_start = time.perf_counter()
        while (
            time.perf_counter() - loop_start < seconds or len(walls) < MIN_RUNS
        ) and bench.remaining() > 0:
            setups.append([bench.setup_probe() for _ in range(SETUP_PER_RUN)])
            wall, peak, _ = bench.simulate(expect, traced=False)
            walls.append(wall)
            rss.append(peak)
            cal.append(calibrate())
    # How much slower than the reference host this host ran around each
    # run: the mean of the calibrations either side of it.
    slow = [(a + b) / (2 * CAL_REF_S) for a, b in zip(cal, cal[1:])]
    runs = [w / f for w, f in zip(walls, slow)]
    setup = [t / f for probes, f in zip(setups, slow) for t in probes]
    metrics = {
        "simulate_s": statistics.median(runs),
        "pairs_per_s": expect["pairs"] / statistics.median(runs),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
    }
    print(f"simulate runs: {len(walls)}  set-up probes: {len(setup)}")
    print(
        f"host slowness (calibration / {CAL_REF_S} s): median {statistics.median(slow):.3f}, "
        f"range {min(slow):.3f}-{max(slow):.3f}"
    )
    print(
        f"unnormalised medians: simulate {statistics.median(walls):.4f} s, "
        f"set-up {statistics.median(t for probes in setups for t in probes):.4f} s"
    )
    upper = upper_percentile(runs)
    if upper is None:
        print(
            f"simulate_s upper percentile: none has ten samples above it at n={len(runs)}; "
            f"max {max(runs):.4f} s"
        )
    else:
        print(f"simulate_s p{upper[0]}: {upper[1]:.4f} s (n={len(runs)})")
    print(f"nominal pairs per simulate run: {expect['pairs']:.6g}")
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def run_traced(bench: Bench, expect: dict, seconds: float):
    walls = {False: [], True: []}
    per_run = []
    loop_start = time.perf_counter()
    traced = False
    while (
        time.perf_counter() - loop_start < seconds
        or min(len(walls[False]), len(walls[True])) < MIN_TRACE_RUNS
    ) and bench.remaining() > 0:
        wall, _, m = bench.simulate(expect, traced=traced)
        walls[traced].append(wall)
        if m is not None:
            per_run.append(m)
        traced = not traced
    if not per_run:
        return {}

    def median(key):
        return statistics.median(m[key] for m in per_run)

    metrics = {key: (median(key), "s") for key in TIME_KEYS}
    metrics.update({key: (per_run[0][key], "count") for key in COUNT_KEYS})
    metrics.update({key: (per_run[0][key], "frac") for key in FRAC_KEYS})
    traced_s = statistics.median(walls[True])
    metrics["trace.simulate_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - statistics.median(walls[False]), "s")

    print(
        f"traced runs: {len(walls[True])}  untraced runs: {len(walls[False])}  "
        f"untraced simulate_s median {statistics.median(walls[False]):.4f} s"
    )
    parts = per_run[0]["in_run_setting"]
    print(
        f"runner.run_setting total {per_run[0]['runner.run_setting.s']:.4f} s = "
        + " + ".join(f"{name} {t:.4f}" for name, t in parts.items())
        + f" = {sum(parts.values()):.4f} s (first traced run); "
        f"runner.self_s {per_run[0]['runner.self_s']:.4f} s"
    )
    main_s = median("cli.main.s")
    print(f"share of the traced cli.main span ({main_s:.4f} s):")
    for key in sorted(SHARE_KEYS, key=median, reverse=True):
        print(f"  {key:<34}{100 * median(key) / main_s:6.1f} %")
    return metrics


def run_full(bench: Bench, expect: dict):
    wall, rss, _ = bench.simulate(expect, traced=False)
    print(f"wall {wall:.2f} s  peak RSS {rss:.1f} MB")
    if not bench.failed:
        chsh = json.loads((bench.work / "out" / "results.json").read_text())["chsh"]
        print(f"S {chsh['S']:.4f} +/- {chsh['S_sigma']:.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", choices=("demo.json", "reference_bench.json"))
    args = parser.parse_args(argv)
    if (args.workload is None) == (args.full is None):
        parser.error("give exactly one of --workload and --full")
    if not (SRC / "bellgate" / "cli.py").is_file():
        print(f"error: no bellgate sources under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_out" / f"{args.workload or args.full}-{os.getpid()}"
    work.mkdir(parents=True)
    sys.pycache_prefix = str(work / "pycache")
    sys.path.insert(0, str(SRC))
    try:
        if args.full:
            cfg = json.loads((DATA / args.full).read_text())
            bench = Bench(work, cfg, deadline=FULL_DEADLINE_S)
            run_full(bench, expectations(cfg))
            for p in bench.problems:
                print(f"FAILED {p}")
            return 1 if bench.failed else 0
        cfg = workload_config(args.workload, args.seed)
        bench = Bench(work, cfg)
        expect = expectations(cfg)
        if args.trace:
            metrics = run_traced(bench, expect, args.seconds)
        else:
            metrics = run_end_to_end(bench, expect, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for problem in bench.problems:
        print(f"FAILED {problem}")
    print(
        f"workload {args.workload}  seed {args.seed}  failed_frac "
        f"{bench.failed / bench.attempted:.4f} ({bench.failed} of {bench.attempted} runs)"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:<40}{value:>16.6g} {unit}")
    result = {
        "correct": bench.failed == 0 and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
