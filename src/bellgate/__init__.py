"""Discrete-event simulator and counting-statistics toolkit for
time-gated two-channel polarization-correlation (CHSH) experiments.

The package namespace holds only ``__version__``: import every other
name from the module that defines it, e.g.
``from bellgate.runner import run_chsh``.
"""

__version__ = "0.1.0"
