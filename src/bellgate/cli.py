"""Command-line front end.

Subcommands: ``geometry`` (derived gate timing), ``analyze`` (CHSH from a
measured count table), ``simulate`` (full experiment, writes CSV/JSON
reports), ``causality`` (influence timing report or resonance sweep).
Every run value comes from the config, with ``--set section.key=value``
overrides (``--set run.seed=3``); ``simulate`` echoes that config in
``results.json``, so simulating the echo reproduces the run byte for byte.

Exit codes are stable for scripting: 0 success, 1 configuration or
validation error (a run too large for memory, or expecting more events
than :data:`~bellgate.config.MAX_RUN_EVENTS`, and a sweep over more
than :data:`~bellgate.causality.MAX_SWEEP_WINDOWS` windows included),
2 I/O error, 3 numerical failure.

Only ``analyze`` and ``simulate`` import the run layer
(:mod:`bellgate.analysis`, :mod:`bellgate.runner`), and ``simulate``
only once its plan is built: ``geometry``, ``causality`` and a config
that fails its checks never import numpy.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from pathlib import Path
from typing import Callable

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
from .fixtures import fixture_path
from .record import Record

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


class _Field(Record):
    """One reported quantity: text label, JSON key, record attribute, text form."""

    label: str
    key: str
    attr: str
    text: Callable[..., str]


_SECONDS = "{:.6e} s".format
_INTERVAL = "[{0[0]:.6e}, {0[1]:.6e}] s".format

GEOMETRY_FIELDS = (
    _Field("aperture_time", "aperture_time_s", "aperture_time", _SECONDS),
    _Field("duty_cycle", "duty_cycle", "duty_cycle", "{:.6f}".format),
    _Field("gate_period", "gate_period_s", "gate_period", _SECONDS),
    _Field("fiber_delay", "fiber_delay_s", "fiber_delay", _SECONDS),
    _Field("flight_distance", "flight_distance_m", "flight_distance_during_gate",
           "{:.4f} m".format),
)

CAUSALITY_FIELDS = (
    _Field("influence_speed", "influence_speed_m_per_s", "influence_speed", "{:.6e} m/s".format),
    _Field("arrival_at_source", "arrival_at_source_s", "influence_arrival_at_source", _SECONDS),
    _Field("informed_emissions", "informed_emission_window_s", "informed_emission_window",
           _INTERVAL),
    _Field("informed_slit_arrivals", "informed_arrival_window_s",
           "informed_arrival_window_at_slit", _INTERVAL),
    _Field("earliest_open_window", "earliest_open_window", "earliest_open_overlap",
           lambda k: "none" if k is None else str(k)),
    _Field("pass_fraction", "pass_fraction", "pass_fraction", "{:.6f}".format),
    _Field("isolation_margin", "isolation_margin_s", "isolation_margin", _SECONDS),
)

SWEEP_FIELDS = (
    _Field("window", "window_index", "window_index", str),
    _Field("low (m/s)", "low_m_per_s", "low", "{:.4e}".format),
    _Field("high (m/s)", "high_m_per_s", "high", "{:.4e}".format),
    _Field("center (m/s)", "center_m_per_s", "center", "{:.4e}".format),
)


def _json(fields, record) -> dict:
    """The record as JSON values; an infinite speed reads "instant", as ``--speed`` does."""
    values = (getattr(record, f.attr) for f in fields)
    return {f.key: "instant" if v == math.inf else v for f, v in zip(fields, values)}


def _text(field, record) -> str:
    """The field's text form; an infinite speed reads "instant", as in :func:`_json`."""
    value = getattr(record, field.attr)
    return "instant" if value == math.inf else field.text(value)


def _lines(fields, record, width: int) -> list[str]:
    return [f"{f.label:<{width}}{_text(f, record)}" for f in fields]


def _table(fields, records) -> list[str]:
    """Header and rows: the first column left-aligned in 8 characters, the rest right in 14."""
    rows = [[f.label for f in fields]]
    rows += [[_text(f, r) for f in fields] for r in records]
    return [f"{first:<8}" + "".join(f"{cell:>14}" for cell in rest) for first, *rest in rows]


def _apparatus(args):
    """Validated apparatus from the config, and its gate geometry."""
    apparatus = validate_config(build_apparatus(_load(args)))
    return apparatus, gate_geometry(apparatus)


def cmd_geometry(args) -> int:
    _, geometry = _apparatus(args)
    print("\n".join(_lines(GEOMETRY_FIELDS, geometry, 22)))
    return 0


def cmd_analyze(args) -> int:
    from .analysis import chsh_S, format_chsh_text, read_table_csv, write_chsh_csv

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
    from .analysis import COUNT_RECORD_HEADER

    return dict(zip(COUNT_RECORD_HEADER[1:], record.rates), duration_s=record.duration)


def __getattr__(name: str):
    # simulate calls run_degradation and run_chsh as this module's
    # attributes, which perfbench/trace_child.py wraps; they import the
    # run layer on first lookup, so importing cli imports no numpy.
    if name in ("run_degradation", "run_chsh"):
        from . import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cmd_simulate(args) -> int:
    cfg = _load(args)
    plan = build_plan(cfg)
    # The run layer imports numpy: only a plan that passed its checks waits for it.
    from .analysis import (
        CHSH_SETTINGS,
        DEGRADATION_COLUMNS,
        format_chsh_text,
        write_count_records,
        write_table_csv,
    )
    from .runner import DEGRADATION_LABELS

    # Both measurements run before --out is touched, so a failed run
    # leaves no report from it beside those of an earlier run.
    cli = sys.modules[__name__]
    records, ratios = cli.run_degradation(plan)
    table, result = cli.run_chsh(plan)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_count_records(zip(DEGRADATION_LABELS, records), out / "degradation.csv")
    write_table_csv(table, out / "chsh_counts.csv")
    report = {
        "config": cfg,
        "seed": plan.seed,
        "rotation": plan.rotation,
        "geometry": _json(GEOMETRY_FIELDS, plan.geometry),
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


def cmd_causality(args) -> int:
    apparatus, geometry = _apparatus(args)
    photon_speed = apparatus.vacuum_light_speed / apparatus.fiber_group_index

    if args.sweep:
        intervals = resonant_influence_speeds(
            geometry, apparatus.fiber_length, photon_speed, args.max_windows
        )
        if args.json:
            print(json.dumps([_json(SWEEP_FIELDS, iv) for iv in intervals], indent=2))
        else:
            print("\n".join(_table(SWEEP_FIELDS, intervals)))
            if not intervals:
                print("no resonant speeds within the requested windows")
        return 0

    speed = parse_speed(args.speed if args.speed is not None else "instant")
    report = influence_window_analysis(geometry, apparatus.fiber_length, speed, photon_speed)
    if args.json:
        print(json.dumps(_json(CAUSALITY_FIELDS, report), indent=2))
    else:
        print("\n".join(_lines(CAUSALITY_FIELDS, report, 28)))
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
    # What the imports built, and what main() leaves (numpy and the run
    # layer, which simulate imports inside it, included), lives until exit:
    # frozen, neither later collections nor those at shutdown walk it.
    gc.freeze()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
