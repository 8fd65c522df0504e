"""Command-line front end.

Subcommands: ``geometry`` (derived gate timing), ``analyze`` (CHSH from a
measured count table), ``simulate`` (full experiment, writes CSV/JSON
reports), ``causality`` (influence timing report or resonance sweep).
Every run value comes from the config, with ``--set section.key=value``
overrides (``--set run.seed=3``); ``simulate`` echoes that config in
``results.json``, so simulating the echo reproduces the run byte for byte.

Exit codes are stable for scripting: 0 success, 1 configuration or
validation error (a run too large for memory, or expecting more events
than :data:`~bellgate.runner.MAX_RUN_EVENTS`, and a sweep over more
than :data:`~bellgate.causality.MAX_SWEEP_WINDOWS` windows included),
2 I/O error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .analysis import (
    CHSH_SETTINGS,
    DEGRADATION_COLUMNS,
    chsh_S,
    format_chsh_text,
    read_table_csv,
    write_chsh_csv,
    write_table_csv,
)
from .apparatus import gate_geometry, validate_config
from .causality import (
    MAX_SWEEP_WINDOWS,
    influence_window_analysis,
    resonant_influence_speeds,
)
from .config import (
    apply_overrides,
    build_apparatus,
    build_plan,
    load_config,
    parse_speed,
)
from .detection import COUNT_RECORD_HEADER, write_count_records
from .fixtures import fixture_path
from .runner import DEGRADATION_LABELS, run_degradation, run_chsh

DEFAULT_CONFIG = "reference_bench.json"


def _load(args) -> dict:
    if args.config is None:
        path = fixture_path(DEFAULT_CONFIG)
    else:
        path = Path(args.config)
        if not path.is_file():
            raise FileNotFoundError(f"config not found: {path}")
    cfg = load_config(path)
    return apply_overrides(cfg, args.set or [])


def _speed_json(speed: float):
    return "instant" if math.isinf(speed) else speed


def cmd_geometry(args) -> int:
    cfg = _load(args)
    geometry = gate_geometry(validate_config(build_apparatus(cfg)))
    print(f"{'aperture_time':<22}{geometry.aperture_time:.6e} s")
    print(f"{'duty_cycle':<22}{geometry.duty_cycle:.6f}")
    print(f"{'gate_period':<22}{geometry.gate_period:.6e} s")
    print(f"{'fiber_delay':<22}{geometry.fiber_delay:.6e} s")
    print(f"{'flight_distance':<22}{geometry.flight_distance_during_gate:.4f} m")
    return 0


def cmd_analyze(args) -> int:
    table = read_table_csv(args.table)
    result = chsh_S(table)
    text = format_chsh_text(result)
    print(text, end="")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "chsh_report.txt").write_text(text)
        write_chsh_csv(result, out / "chsh_report.csv")
    return 0


def _record_json(record) -> dict:
    return dict(zip(COUNT_RECORD_HEADER[1:], record.rates), duration_s=record.duration)


def cmd_simulate(args) -> int:
    cfg = _load(args)
    plan = build_plan(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    records, ratios = run_degradation(plan)
    write_count_records(zip(DEGRADATION_LABELS, records), out / "degradation.csv")

    table, result = run_chsh(plan)
    write_table_csv(table, out / "chsh_counts.csv")

    geometry = plan.geometry
    report = {
        "config": cfg,
        "seed": plan.seed,
        "rotation": plan.rotation,
        "geometry": {
            "aperture_time_s": geometry.aperture_time,
            "duty_cycle": geometry.duty_cycle,
            "gate_period_s": geometry.gate_period,
            "fiber_delay_s": geometry.fiber_delay,
            "flight_distance_m": geometry.flight_distance_during_gate,
        },
        "degradation": {
            "records": {
                label: _record_json(rec)
                for label, rec in zip(DEGRADATION_LABELS, records)
            },
            "ratios": dict(zip(DEGRADATION_COLUMNS, ratios.ratios)),
            "sigmas": dict(zip(DEGRADATION_COLUMNS, ratios.sigmas)),
        },
        "chsh": {
            "settings": [list(s) for s in CHSH_SETTINGS],
            "E": list(result.E_values),
            "E_sigma": list(result.E_sigmas),
            "S": result.S,
            "S_sigma": result.S_sigma,
        },
    }
    (out / "results.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(format_chsh_text(result), end="")
    print(
        "degradation ratios: "
        + "  ".join(f"{r:.4f}+/-{s:.4f}" for r, s in zip(ratios.ratios, ratios.sigmas))
    )
    print(f"wrote {out / 'chsh_counts.csv'}, {out / 'degradation.csv'}, {out / 'results.json'}")
    return 0


def _report_lines(report) -> list[str]:
    speed = (
        "instantaneous"
        if math.isinf(report.influence_speed)
        else f"{report.influence_speed:.6e} m/s"
    )
    win = report.informed_arrival_window_at_slit
    emi = report.informed_emission_window
    overlap = (
        "none" if report.earliest_open_overlap is None else str(report.earliest_open_overlap)
    )
    return [
        f"{'influence_speed':<28}{speed}",
        f"{'arrival_at_source':<28}{report.influence_arrival_at_source:.6e} s",
        f"{'informed_emissions':<28}[{emi[0]:.6e}, {emi[1]:.6e}] s",
        f"{'informed_slit_arrivals':<28}[{win[0]:.6e}, {win[1]:.6e}] s",
        f"{'earliest_open_window':<28}{overlap}",
        f"{'pass_fraction':<28}{report.pass_fraction:.6f}",
        f"{'isolation_margin':<28}{report.isolation_margin:.6e} s",
    ]


def cmd_causality(args) -> int:
    cfg = _load(args)
    apparatus = validate_config(build_apparatus(cfg))
    geometry = gate_geometry(apparatus)
    photon_speed = apparatus.vacuum_light_speed / apparatus.fiber_group_index

    if args.sweep:
        intervals = resonant_influence_speeds(
            geometry, apparatus.fiber_length, photon_speed, args.max_windows
        )
        if args.json:
            print(
                json.dumps(
                    [
                        {
                            "window_index": iv.window_index,
                            "low_m_per_s": iv.low,
                            "high_m_per_s": _speed_json(iv.high),
                            "center_m_per_s": _speed_json(iv.center),
                        }
                        for iv in intervals
                    ],
                    indent=2,
                )
            )
        else:
            print(f"{'window':<8}{'low (m/s)':>14}{'high (m/s)':>14}{'center (m/s)':>14}")
            for iv in intervals:
                print(
                    f"{iv.window_index:<8}{iv.low:>14.4e}{iv.high:>14.4e}{iv.center:>14.4e}"
                )
            if not intervals:
                print("no resonant speeds within the requested windows")
        return 0

    speed = parse_speed(args.speed if args.speed is not None else "instant")
    report = influence_window_analysis(
        geometry, apparatus.fiber_length, speed, photon_speed
    )
    if args.json:
        print(
            json.dumps(
                {
                    "influence_speed_m_per_s": _speed_json(report.influence_speed),
                    "arrival_at_source_s": report.influence_arrival_at_source,
                    "informed_emission_window_s": list(report.informed_emission_window),
                    "informed_arrival_window_s": list(report.informed_arrival_window_at_slit),
                    "earliest_open_window": report.earliest_open_overlap,
                    "pass_fraction": report.pass_fraction,
                    "isolation_margin_s": report.isolation_margin,
                },
                indent=2,
            )
        )
    else:
        print("\n".join(_report_lines(report)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellgate",
        description="Simulator and statistics toolkit for time-gated two-channel "
        "polarization-correlation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument(
            "--config",
            help=f"JSON run configuration (default: bundled {DEFAULT_CONFIG})",
        )
        p.add_argument(
            "--set",
            action="append",
            metavar="SECTION.KEY=VALUE",
            help="override a config value (repeatable)",
        )

    p = sub.add_parser("geometry", help="print derived gate timing quantities")
    add_config_args(p)
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("analyze", help="CHSH statistic from a measured count table")
    p.add_argument(
        "table", help="counts CSV as simulate writes it ('count-accidental' cells, CHSH grid)"
    )
    p.add_argument("--out", help="directory for the CSV/text reports")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="run the full simulated experiment")
    add_config_args(p)
    p.add_argument("--out", default="bellgate-out", help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("causality", help="influence timing report or resonance sweep")
    add_config_args(p)
    p.add_argument(
        "--speed",
        help="influence speed in m/s, or 'instant' (default: instant)",
    )
    p.add_argument(
        "--sweep",
        action="store_true",
        help="list influence speeds resonant with later gate windows",
    )
    p.add_argument(
        "--max-windows",
        type=int,
        default=5,
        help=f"how many later windows the sweep examines (default 5, at most {MAX_SWEEP_WINDOWS})",
    )
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=cmd_causality)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # A run too large for this host is a configuration error.
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
