"""Everything ``bellgate simulate`` does before the first pair is drawn.

Usage: python3 setup_child.py CONFIG_JSON

Imports the package, loads and validates the config, builds the
``RunPlan`` and derives the gate geometry, then exits.  The caller times
the whole process, interpreter start-up included.
"""

import sys

from bellgate.apparatus import gate_geometry, validate_config
from bellgate.cli import main  # noqa: F401  (the simulate entry point imports it too)
from bellgate.config import apply_overrides, build_plan, load_config

plan = build_plan(apply_overrides(load_config(sys.argv[1]), []))
gate_geometry(validate_config(plan.apparatus))
