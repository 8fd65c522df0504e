import math

import numpy as np
import pytest

from bellgate.apparatus import (
    ApparatusConfig,
    ValidationError,
    gate_geometry,
    validate_config,
)
from bellgate.record import replace

# Reference bench: A=1e-3 m slit, R=0.34 m, w=1000 Hz, N=34 facets,
# L=200 m fiber per arm, vacuum-speed timing.
T_ON = 4.681027737996921e-07
DUTY = 0.015915494309189534
GATE_PERIOD = 2.9411764705882354e-05
FIBER_DELAY = 6.671114076050701e-07
FLIGHT = 140.33721158514768
SMF_GROUP_INDEX = 1.468  # single-mode fiber at 810 nm


def test_reference_bench_is_valid(bench):
    assert validate_config(bench) is bench


def test_zero_aperture_rejected():
    with pytest.raises(ValidationError, match="aperture must be positive"):
        validate_config(ApparatusConfig(aperture_width=0.0))


def test_oversized_aperture_rejected():
    # 0.1 m is wider than one facet sweep, 2*pi*0.34/34 = 0.0628 m.
    with pytest.raises(ValidationError, match="aperture exceeds facet sweep"):
        validate_config(ApparatusConfig(aperture_width=0.1))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"mirror_radius": -1.0}, "mirror radius must be positive"),
        ({"rotation_rate": 0.0}, "rotation rate must be positive"),
        ({"facet_count": 0}, "facet count must be a positive integer"),
        ({"fiber_length": 0.0}, "fiber length must be positive"),
        ({"fiber_group_index": 0.9}, "fiber group index must be at least 1"),
        ({"vacuum_light_speed": 0.0}, "light speed must be positive"),
        ({"rotation_rate": math.inf}, "rotation_rate must be finite"),
        ({"aperture_width": math.nan}, "aperture_width must be finite"),
    ],
)
def test_each_invariant_is_named(kwargs, message):
    with pytest.raises(ValidationError, match=message):
        validate_config(ApparatusConfig(**kwargs))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        # a speed that underflows to 0 once raised ZeroDivisionError, exit 3
        ({"aperture_width": 1e-250, "mirror_radius": 1e-200, "rotation_rate": 1e-200},
         "aperture_time must be positive and finite, got inf"),
        ({"vacuum_light_speed": 5e-324, "fiber_group_index": 3.0},
         "fiber_delay must be positive and finite, got inf"),
    ],
)
def test_gate_geometry_refuses_degenerate_timing(kwargs, message):
    # finite fields that validate_config accepts, whose derived timing is not
    cfg = validate_config(ApparatusConfig(**kwargs))
    with pytest.raises(ValidationError, match=message):
        gate_geometry(cfg)


def test_aperture_time_reference_bench(bench):
    t_on = gate_geometry(bench).aperture_time
    assert t_on == pytest.approx(1e-3 / (2 * math.pi * 0.34 * 1000.0), rel=1e-15)
    assert t_on == pytest.approx(T_ON, rel=1e-12)
    # quoted bench value, good to two significant figures
    assert t_on == pytest.approx(4.7e-7, rel=0.01)


def test_aperture_time_linear_in_width(bench):
    doubled = replace(bench, aperture_width=2 * bench.aperture_width)
    assert gate_geometry(doubled).aperture_time == pytest.approx(
        2 * gate_geometry(bench).aperture_time, rel=1e-12
    )


def test_aperture_time_unit_denominators():
    cfg = ApparatusConfig(aperture_width=1e-3, mirror_radius=1 / (2 * math.pi), rotation_rate=1.0)
    assert gate_geometry(cfg).aperture_time == pytest.approx(1e-3, rel=1e-12)


def test_duty_cycle_reference_bench(bench):
    d = gate_geometry(bench).duty_cycle
    assert d == pytest.approx(1e-3 * 34 / (2 * math.pi * 0.34), rel=1e-15)
    assert d == pytest.approx(DUTY, rel=1e-12)
    assert d == pytest.approx(0.016, rel=0.01)


def test_duty_cycle_full_duty_boundary():
    # An always-open gate, its aperture one facet sweep; deliberately skips
    # validate_config, which rejects apertures at or beyond one facet sweep.
    cfg = ApparatusConfig(aperture_width=2 * math.pi * 0.5, mirror_radius=0.5, facet_count=1)
    with pytest.raises(ValidationError, match="aperture time must be shorter than the gate period"):
        gate_geometry(cfg)


def test_gate_geometry_refuses_an_aperture_longer_than_the_period():
    # Two facet sweeps: each window would outlast the gate period.
    cfg = ApparatusConfig(aperture_width=4 * math.pi * 0.5, mirror_radius=0.5, facet_count=1)
    with pytest.raises(ValidationError, match="aperture time must be shorter than the gate period"):
        gate_geometry(cfg)


def test_duty_cycle_equals_aperture_time_times_sweep_rate(bench):
    # At the reference bench: 4.681e-7 * 1000 * 34 = 0.01592.
    assert gate_geometry(bench).duty_cycle == pytest.approx(
        gate_geometry(bench).aperture_time * bench.rotation_rate * bench.facet_count, rel=1e-12
    )


def test_gate_geometry_reference_bench(bench_geometry):
    geom = bench_geometry
    assert geom.aperture_time == pytest.approx(T_ON, rel=1e-12)
    assert geom.duty_cycle == pytest.approx(DUTY, rel=1e-12)
    assert geom.gate_period == pytest.approx(GATE_PERIOD, rel=1e-12)
    assert geom.fiber_delay == pytest.approx(FIBER_DELAY, rel=1e-12)
    assert geom.flight_distance_during_gate == pytest.approx(FLIGHT, rel=1e-12)
    # quoted bench value: photons cover roughly 140 m while the gate is open
    assert geom.flight_distance_during_gate == pytest.approx(140.0, rel=0.01)


def test_gate_geometry_with_fiber_group_index(bench):
    cfg = replace(bench, fiber_group_index=SMF_GROUP_INDEX)
    geom = gate_geometry(cfg)
    assert geom.fiber_delay == pytest.approx(FIBER_DELAY * SMF_GROUP_INDEX, rel=1e-12)
    assert geom.flight_distance_during_gate == pytest.approx(
        FLIGHT / SMF_GROUP_INDEX, rel=1e-12
    )
    # dimensionless quantities do not depend on the index
    assert geom.duty_cycle == pytest.approx(DUTY, rel=1e-12)
    assert geom.aperture_time == pytest.approx(T_ON, rel=1e-12)


def test_duty_identity_over_random_benches():
    rng = np.random.default_rng(8)
    for _ in range(200):
        facets = int(rng.integers(1, 80))
        radius = float(rng.uniform(0.05, 2.0))
        cfg = ApparatusConfig(
            aperture_width=float(rng.uniform(0.01, 0.99)) * 2 * math.pi * radius / facets,
            mirror_radius=radius,
            rotation_rate=float(rng.uniform(1.0, 1e5)),
            facet_count=facets,
            fiber_length=float(rng.uniform(1.0, 1e4)),
            fiber_group_index=float(rng.uniform(1.0, 2.0)),
        )
        validate_config(cfg)
        geom = gate_geometry(cfg)
        # algebraic identities, required to hold to 1e-12 relative
        assert geom.duty_cycle == pytest.approx(
            geom.aperture_time * cfg.rotation_rate * cfg.facet_count, rel=1e-12
        )
        assert geom.duty_cycle == pytest.approx(
            geom.aperture_time / geom.gate_period, rel=1e-12
        )


def test_scaling_aperture_and_radius_together_changes_nothing(bench):
    for factor in (0.5, 3.0, 17.0):
        scaled = replace(
            bench,
            aperture_width=factor * bench.aperture_width,
            mirror_radius=factor * bench.mirror_radius,
        )
        scaled_geometry, geometry = gate_geometry(scaled), gate_geometry(bench)
        assert scaled_geometry.duty_cycle == pytest.approx(geometry.duty_cycle, rel=1e-12)
        assert scaled_geometry.aperture_time == pytest.approx(geometry.aperture_time, rel=1e-12)


def test_fiber_delay_exceeds_aperture_time(bench_geometry):
    # The whole isolation argument rests on this inequality: the fiber
    # transit (667 ns) outlasts the open window (468 ns).
    assert bench_geometry.fiber_delay > bench_geometry.aperture_time
