"""Run one ``bellgate`` command with a span recorded around every layer call.

Usage: python3 trace_child.py SPANS_JSON RUN_ID ARG...

``ARG...`` is passed to ``bellgate.cli.main`` unchanged.  Before that,
the functions ``bellgate.cli`` and ``bellgate.runner`` look up by module
global name are replaced by wrappers that only time the call and count
its events, so the command's outputs stay byte-identical to an
untraced run.  Spans are kept in memory and written to SPANS_JSON as
one JSON document when the command returns.  ``import`` spans the
imports of numpy and the package.

A span is ``[name, start, end, parent, counts]``; ``parent`` is the index
of the enclosing span or -1, and every span of this process shares
RUN_ID.  ``runner.run_setting`` also hands the runner a generator that
shares the original bit generator (so the random stream is unchanged)
and reports each Poisson draw, which gives the number of emitted pairs.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.emitted = 0

    def wrap(self, module, attr, name, count=None):
        func = getattr(module, attr)

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, {}]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        setattr(module, attr, traced)

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None


def _counting_generator(tracer):
    class CountingGenerator(np.random.Generator):
        def poisson(self, *args, **kwargs):
            draw = super().poisson(*args, **kwargs)
            if tracer.innermost() == "runner.run_setting":
                tracer.emitted += int(np.sum(draw))
            return draw

    return CountingGenerator


def install(tracer) -> None:
    import bellgate.cli as cli
    import bellgate.runner as runner

    for module, attr, name in (
        (cli, "load_config", "config.load_config"),
        (cli, "apply_overrides", "config.apply_overrides"),
        (cli, "build_plan", "config.build_plan"),
        (cli, "run_degradation", "runner.run_degradation"),
        (cli, "run_chsh", "runner.run_chsh"),
        (cli, "gate_geometry", "apparatus.gate_geometry"),
        (cli, "validate_config", "apparatus.validate_config"),
        (runner, "gate_geometry", "apparatus.gate_geometry"),
        (runner, "validate_config", "apparatus.validate_config"),
        (runner, "accidental_rate", "analysis.accidental_rate"),
        (runner, "chsh_S", "analysis.chsh_S"),
        (runner, "degradation_ratio", "analysis.degradation_ratio"),
    ):
        tracer.wrap(module, attr, name)

    tracer.wrap(
        runner, "gate_open", "gating.gate_open",
        lambda a, k, r: {"events": int(np.size(a[0])), "open": int(np.count_nonzero(r))},
    )
    tracer.wrap(
        runner, "joint_outcomes", "sources.joint_outcomes",
        lambda a, k, r: {"pairs": int(a[3])},
    )
    tracer.wrap(
        runner, "thin_times", "detection.thin_times",
        lambda a, k, r: {"events": int(np.size(a[0])), "kept": int(np.size(r))},
    )
    tracer.wrap(
        runner, "dark_times", "detection.dark_times",
        lambda a, k, r: {"events": int(np.size(r))},
    )
    tracer.wrap(
        runner, "match_coincidences", "detection.match_coincidences",
        lambda a, k, r: {"events": int(np.size(a[0]) + np.size(a[1])), "matched": int(r)},
    )

    generator_cls = _counting_generator(tracer)
    run_setting = runner.run_setting

    def run_setting_counting(plan, alice_angle, bob_angle, rng, *args, **kwargs):
        return run_setting(
            plan, alice_angle, bob_angle, generator_cls(rng.bit_generator), *args, **kwargs
        )

    runner.run_setting = run_setting_counting
    tracer.wrap(runner, "run_setting", "runner.run_setting")


def main(argv) -> int:
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    import bellgate.cli

    imported = time.perf_counter()
    install(tracer)
    tracer.wrap(bellgate.cli, "main", "cli.main")
    code = 1
    try:
        code = bellgate.cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(
                {
                    "run_id": run_id,
                    "import": [START, imported],
                    "emitted": tracer.emitted,
                    "spans": tracer.spans,
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
