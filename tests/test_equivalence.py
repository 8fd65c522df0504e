"""The firing-pair sampler against the event-level path it replaced.

``oracle.event_level_counts`` is the earlier pair stage of
``runner.run_setting``, kept as the oracle: it emits every pair, sorts
the stream, draws polarizer outcomes for all of them, gates the slit
arrivals, thins each arm by its efficiency and matches the whole run at
once.  The runner now draws only the pairs that fire a detector
and counts them slice by slice, or with the mirror stopped places only
the entries within a window of a neighbour.  Both must give the same
distribution of coincidences and singles, which is tested over a seed
list fixed in advance: Welch's z on the means and an F-test on the
variances of each quantity.
"""

import math

import numpy as np
import pytest

from bellgate.apparatus import ApparatusConfig, DetectorConfig, gate_geometry
from bellgate.causality import resonant_influence_speeds
from bellgate.config import RunPlan
from bellgate.record import replace
from bellgate.runner import run_setting
from bellgate.sources import MalusLHV, QuantumState, ThresholdLHV, TravelingInfluence
from conftest import speed_at_pass_fraction
from oracle import event_level_counts


# Duty cycle 0.159, so the gate matters and counts stay cheap.
APPARATUS = ApparatusConfig(aperture_width=0.01)
DETECTOR = DetectorConfig(
    efficiency_alice=0.5,
    efficiency_bob=0.4,
    dark_rate_alice=300.0,
    dark_rate_bob=200.0,
    coincidence_window=20e-9,
)
RESONANT_SPEED = resonant_influence_speeds(
    gate_geometry(APPARATUS), APPARATUS.fiber_length, APPARATUS.vacuum_light_speed, 1
)[0].center
# A quarter of the informed arrivals pass late, covering the open window's
# end, or three quarters early, covering its start and wrapping round
# the period: each cuts the open window in two.
LATE_SPEED = speed_at_pass_fraction(APPARATUS, 0.25, early=False)
EARLY_SPEED = speed_at_pass_fraction(APPARATUS, 0.75, early=True)

# (0, 22.5) has correlation kernel cos 45 deg, so the polarizers matter;
# (None, None) takes them out.
POLARIZED, OUT = (0.0, 22.5), (None, None)
# name -> (model, rotation, polarizer angles)
CASES = {
    "gated_polarized": (QuantumState("mirrored", 0.82), True, POLARIZED),
    "ungated_polarized": (QuantumState("mirrored", 0.82), False, POLARIZED),
    "gated_luminosity": (QuantumState("mirrored", 0.82), True, OUT),
    "gated_threshold": (ThresholdLHV(), True, POLARIZED),
    "traveling_resonant": (
        TravelingInfluence(QuantumState("mirrored", 1.0), MalusLHV(), RESONANT_SPEED),
        True,
        POLARIZED,
    ),
    "traveling_late": (
        TravelingInfluence(QuantumState("mirrored", 1.0), MalusLHV(), LATE_SPEED),
        True,
        POLARIZED,
    ),
    "traveling_early": (
        TravelingInfluence(QuantumState("mirrored", 1.0), MalusLHV(), EARLY_SPEED),
        True,
        POLARIZED,
    ),
    "ungated_traveling": (
        TravelingInfluence(QuantumState("mirrored", 1.0), MalusLHV(), RESONANT_SPEED),
        False,
        POLARIZED,
    ),
    "ungated_clustered": (QuantumState("mirrored", 0.82), False, POLARIZED),
    "ungated_crowded": (QuantumState("mirrored", 0.82), False, OUT),
}
# name -> (pair rate, alice and bob dark rates, integration time) where
# not 2e4, DETECTOR's and 0.3.  The ungated cases above see about 2e-4
# entries per window (rate * window), so nearly every entry is isolated
# and they would pass with clusters misplaced; these see about 0.05 and
# 0.5, and a short run keeps the oracle's pair by pair draw cheap.
RATES = {
    "ungated_clustered": (5e6, (3e5, 2e5), 1e-3),
    "ungated_crowded": (3e7, (2.4e6, 1.6e6), 1e-4),
}
QUANTITIES = ("coincidences", "singles_alice", "singles_bob")
SEEDS = range(400)
# Total false-alarm rate 1e-3, split evenly over the two tests of every
# quantity of every case (Bonferroni).
ALPHA = 1e-3 / (2 * len(QUANTITIES) * len(CASES))


def _two_sided_p(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


@pytest.mark.parametrize("case", sorted(CASES))
def test_candidate_path_matches_event_level_oracle(case):
    model, rotation, angles = CASES[case]
    pair_rate, (dark_alice, dark_bob), duration = RATES.get(
        case, (2e4, (DETECTOR.dark_rate_alice, DETECTOR.dark_rate_bob), 0.3)
    )
    plan = RunPlan(
        apparatus=APPARATUS,
        detector=replace(DETECTOR, dark_rate_alice=dark_alice, dark_rate_bob=dark_bob),
        model=model,
        pair_rate=pair_rate,
        integration_time=duration,
        rotation=rotation,
    )
    # The runner draws on the slits' clock and the oracle gates emissions
    # one fiber delay later; the 200 m fiber's delay is well clear of a
    # gate period's multiple, so an informed window the runner placed
    # without it would show in the traveling rows.
    phase, period = plan.geometry.fiber_delay % plan.gate.gate_period, plan.gate.gate_period
    assert min(phase, period - phase) > 0.1 * plan.gate.aperture_time
    oracle = np.array(
        [event_level_counts(plan, *angles, np.random.default_rng([seed, 0])) for seed in SEEDS],
        dtype=float,
    )
    records = [run_setting(plan, *angles, np.random.default_rng([seed, 1])) for seed in SEEDS]
    candidate = np.array(
        [[getattr(record, name) for name in QUANTITIES] for record in records], dtype=float
    )
    n = len(SEEDS)
    for column, name in enumerate(QUANTITIES):
        x, y = oracle[:, column], candidate[:, column]
        var_x, var_y = x.var(ddof=1), y.var(ddof=1)
        z_mean = (y.mean() - x.mean()) / math.sqrt((var_x + var_y) / n)
        # F-test on the variance ratio through Fisher's z = ln(F)/2, which
        # is close to normal with variance (1/df1 + 1/df2)/2 at these sizes.
        z_var = 0.5 * math.log(var_y / var_x) / math.sqrt(1.0 / (n - 1))
        assert _two_sided_p(z_mean) > ALPHA, f"{case} {name}: mean z = {z_mean:.2f}"
        assert _two_sided_p(z_var) > ALPHA, f"{case} {name}: variance z = {z_var:.2f}"
