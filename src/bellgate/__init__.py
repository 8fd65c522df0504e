"""Discrete-event simulator and counting-statistics toolkit for
time-gated two-channel polarization-correlation (CHSH) experiments."""

from .apparatus import (
    ApparatusConfig,
    GateGeometry,
    ValidationError,
    aperture_time,
    duty_cycle,
    gate_geometry,
    validate_config,
)
from .analysis import (
    ChshResult,
    CountTable16,
    DegradationResult,
    NumericalError,
    accidental_rate,
    chsh_S,
    correlation_E,
    dark_subtract,
    degradation_ratio,
    read_table_csv,
    write_table_csv,
)
from .causality import (
    CausalityReport,
    SpeedInterval,
    influence_window_analysis,
    resonant_influence_speeds,
)
from .config import ConfigError, build_plan, load_config
from .detection import (
    CountRecord,
    DetectorConfig,
    match_coincidences,
)
from .gating import GateState, gate_open
from .runner import (
    Calibration,
    RunPlan,
    calibrate_from_counts,
    run_degradation,
    run_chsh,
)
from .sources import (
    INSTANTANEOUS,
    CorrelationModel,
    MalusLHV,
    QuantumState,
    ThresholdLHV,
    TravelingInfluence,
    correlation_theory,
    joint_outcomes,
    joint_probabilities,
)

__version__ = "0.1.0"
