import json
import math

import numpy as np
import pytest

from bellgate.apparatus import GateGeometry, GateState, LIGHT_SPEED_VACUUM
from bellgate.causality import influence_window_analysis, resonant_influence_speeds
from bellgate.config import build_plan
from bellgate.fixtures import fixture_path
from bellgate.gating import gate_open
from bellgate.record import replace
from bellgate.sources import (
    INSTANTANEOUS,
    NO_POLARIZERS,
    MalusLHV,
    QuantumState,
    TravelingInfluence,
    joint_probabilities,
)
from conftest import speed_at_pass_fraction

FIBER_LENGTH = 200.0
T_ON = 4.681027737996921e-07
GATE_PERIOD = 2.9411764705882354e-05
FIBER_TRANSIT = FIBER_LENGTH / LIGHT_SPEED_VACUUM  # 6.671e-7 s


def test_instantaneous_influence_cannot_pass(bench_geometry):
    report = influence_window_analysis(
        bench_geometry, FIBER_LENGTH, INSTANTANEOUS, LIGHT_SPEED_VACUUM
    )
    assert report.influence_arrival_at_source == 0.0
    assert report.informed_emission_window == pytest.approx((0.0, T_ON), rel=1e-12)
    # informed photons reach the slit only after the full fiber transit,
    # 199 ns after the emitting window has already closed
    assert report.informed_arrival_window_at_slit == pytest.approx(
        (FIBER_TRANSIT, FIBER_TRANSIT + T_ON), rel=1e-12
    )
    assert report.pass_fraction == 0.0
    assert report.earliest_open_overlap is None
    assert report.isolation_margin == pytest.approx(1.9900863380537798e-07, rel=1e-12)
    assert report.isolation_margin == pytest.approx(2.0e-7, rel=0.01)


def test_light_speed_influence_cannot_pass(bench_geometry):
    report = influence_window_analysis(
        bench_geometry, FIBER_LENGTH, LIGHT_SPEED_VACUUM, LIGHT_SPEED_VACUUM
    )
    assert report.informed_arrival_window_at_slit == pytest.approx(
        (2 * FIBER_TRANSIT, 2 * FIBER_TRANSIT + T_ON), rel=1e-12
    )
    assert report.informed_arrival_window_at_slit[0] == pytest.approx(1.33e-6, rel=0.01)
    assert report.pass_fraction == 0.0


def test_no_fiber_means_no_isolation(bench_geometry):
    report = influence_window_analysis(
        bench_geometry, 0.0, INSTANTANEOUS, LIGHT_SPEED_VACUUM
    )
    assert report.pass_fraction == 1.0
    assert report.earliest_open_overlap == 0
    assert report.isolation_margin == pytest.approx(-T_ON, rel=1e-12)


def test_speed_validation(bench_geometry):
    with pytest.raises(ValueError):
        influence_window_analysis(bench_geometry, FIBER_LENGTH, 0.0, LIGHT_SPEED_VACUUM)
    with pytest.raises(ValueError):
        influence_window_analysis(bench_geometry, FIBER_LENGTH, 1e6, 0.0)
    with pytest.raises(ValueError):
        influence_window_analysis(bench_geometry, -1.0, 1e6, LIGHT_SPEED_VACUUM)


def test_first_resonance_location(bench_geometry):
    intervals = resonant_influence_speeds(
        bench_geometry, FIBER_LENGTH, LIGHT_SPEED_VACUUM, max_windows=1
    )
    assert len(intervals) == 1
    first = intervals[0]
    assert first.window_index == 1
    # solve fiber/v + fiber/c = gate_period
    expected_center = FIBER_LENGTH / (GATE_PERIOD - FIBER_TRANSIT)
    assert first.center == pytest.approx(expected_center, rel=1e-12)
    assert first.center == pytest.approx(6.96e6, rel=0.01)
    assert first.low < first.center < first.high


def test_resonances_round_trip_to_positive_pass(bench_geometry):
    intervals = resonant_influence_speeds(
        bench_geometry, FIBER_LENGTH, LIGHT_SPEED_VACUUM, max_windows=40
    )
    assert len(intervals) == 40
    for interval in intervals:
        for speed in (
            interval.center,
            math.sqrt(interval.low * min(interval.high, 1e40)),
        ):
            report = influence_window_analysis(
                bench_geometry, FIBER_LENGTH, speed, LIGHT_SPEED_VACUUM
            )
            assert report.pass_fraction > 0.0
            assert report.earliest_open_overlap == interval.window_index


def test_gaps_between_resonances_stay_isolated(bench_geometry):
    intervals = resonant_influence_speeds(
        bench_geometry, FIBER_LENGTH, LIGHT_SPEED_VACUUM, max_windows=40
    )
    # midpoints (geometric) between adjacent intervals; intervals come out
    # ordered by window index, i.e. decreasing speed
    for upper, lower in zip(intervals[:-1], intervals[1:]):
        gap_speed = math.sqrt(lower.high * upper.low)
        report = influence_window_analysis(
            bench_geometry, FIBER_LENGTH, gap_speed, LIGHT_SPEED_VACUUM
        )
        assert report.pass_fraction == 0.0


def test_resonance_edges_only_touch_their_window(bench_geometry):
    # At an interval's low and high speeds the informed arrivals touch
    # window k at one instant, where rounding can leave an overlap of a few
    # 1e-14 apertures; 1e-9 inside either edge the overlap is real.
    intervals = resonant_influence_speeds(
        bench_geometry, FIBER_LENGTH, LIGHT_SPEED_VACUUM, max_windows=8
    )
    for interval in intervals:
        for edge, inward in ((interval.low, 1 + 1e-9), (interval.high, 1 - 1e-9)):
            for speed, window in ((edge, None), (edge * inward, interval.window_index)):
                report = influence_window_analysis(
                    bench_geometry, FIBER_LENGTH, speed, LIGHT_SPEED_VACUUM
                )
                assert report.earliest_open_overlap == window, speed
                if window is None:
                    assert report.pass_fraction == 0.0, speed
                else:
                    assert report.pass_fraction > 0.0, speed


def test_unreachable_windows_give_no_resonances(bench_geometry):
    # spin the mirror 1000x faster: the gate period (2.94e-8 s) is shorter
    # than the photon's own fiber transit, so the first several windows
    # close before even an instantaneous influence could be answered
    fast = GateGeometry(
        aperture_time=T_ON / 1000.0,
        duty_cycle=bench_geometry.duty_cycle,
        gate_period=GATE_PERIOD / 1000.0,
        fiber_delay=FIBER_TRANSIT,
        flight_distance_during_gate=bench_geometry.flight_distance_during_gate / 1000.0,
    )
    reachable = FIBER_TRANSIT / (GATE_PERIOD / 1000.0)  # ~22.7 windows needed
    intervals = resonant_influence_speeds(fast, FIBER_LENGTH, LIGHT_SPEED_VACUUM, 10)
    assert intervals == []
    intervals = resonant_influence_speeds(fast, FIBER_LENGTH, LIGHT_SPEED_VACUUM, 30)
    assert intervals and intervals[0].window_index == math.ceil(reachable)


def test_zero_fiber_has_no_resonances(bench_geometry):
    assert resonant_influence_speeds(bench_geometry, 0.0, LIGHT_SPEED_VACUUM, 10) == []


def test_resonant_speeds_scale_with_fiber_length(bench_geometry):
    # while the photon transit stays small next to the gate period,
    # doubling the fiber doubles every resonant speed
    short = resonant_influence_speeds(bench_geometry, 10.0, LIGHT_SPEED_VACUUM, 5)
    long = resonant_influence_speeds(bench_geometry, 20.0, LIGHT_SPEED_VACUUM, 5)
    for a, b in zip(short, long):
        assert b.center == pytest.approx(2 * a.center, rel=0.01)
        assert b.low == pytest.approx(2 * a.low, rel=0.01)


def test_log_sweep_isolated_except_at_resonances(bench_geometry):
    # every sampled speed from 1e3 to 1e12 m/s is isolated unless it falls
    # in an enumerated resonance interval
    speeds = np.logspace(3, 12, 2000)
    max_windows = (
        int(
            math.ceil(
                (FIBER_LENGTH / speeds[0] + FIBER_TRANSIT + T_ON) / GATE_PERIOD
            )
        )
        + 1
    )
    intervals = resonant_influence_speeds(
        bench_geometry, FIBER_LENGTH, LIGHT_SPEED_VACUUM, max_windows
    )
    lows = np.array([iv.low for iv in intervals])
    highs = np.array([iv.high for iv in intervals])
    guard = 1e-9
    for speed in speeds:
        inside = np.any((speed > lows * (1 + guard)) & (speed < highs * (1 - guard)))
        near_edge = np.any(
            (speed > lows * (1 - guard)) & (speed < lows * (1 + guard))
        ) or np.any((speed > highs * (1 - guard)) & (speed < highs * (1 + guard)))
        if near_edge:
            continue
        report = influence_window_analysis(
            bench_geometry, FIBER_LENGTH, float(speed), LIGHT_SPEED_VACUUM
        )
        assert (report.pass_fraction > 0.0) == bool(inside), f"speed {speed}"


def test_isolation_margin_monotonic_in_aperture_time(bench_geometry):
    margins = []
    for t_on in np.linspace(0.2 * T_ON, 3 * T_ON, 7):
        geom = GateGeometry(
            aperture_time=float(t_on),
            duty_cycle=float(t_on) / GATE_PERIOD,
            gate_period=GATE_PERIOD,
            fiber_delay=FIBER_TRANSIT,
            flight_distance_during_gate=LIGHT_SPEED_VACUUM * float(t_on),
        )
        report = influence_window_analysis(
            geom, FIBER_LENGTH, INSTANTANEOUS, LIGHT_SPEED_VACUUM
        )
        margins.append(report.isolation_margin)
    assert all(a > b for a, b in zip(margins, margins[1:]))


def test_isolation_margin_monotonic_in_fiber_length(bench_geometry):
    for speed in (INSTANTANEOUS, LIGHT_SPEED_VACUUM, 1e7):
        margins = [
            influence_window_analysis(
                bench_geometry, length, speed, LIGHT_SPEED_VACUUM
            ).isolation_margin
            for length in (0.0, 50.0, 200.0, 1000.0)
        ]
        assert all(a < b for a, b in zip(margins, margins[1:]))


# The first resonance's speeds, an instant influence, and the late and
# early speeds at which a quarter and three quarters of the informed
# arrivals pass: the informed window covers the open window's end, its
# start, all of it or none.  With the gate open 80% of the time, an
# informed window half a period late covers both ends, straddling
# windows 0 and 1, or windows 1 and 2 a period later.
PIECE_SPEEDS = (
    "low", "center", "high", "instant", "late_0.25", "early_0.75", "both_ends", "both_ends_k1"
)


@pytest.mark.parametrize("speed", PIECE_SPEEDS)
def test_plan_pieces_agree_with_the_causality_report(speed):
    cfg = json.loads(fixture_path("demo.json").read_text())
    if speed.startswith("both_ends"):
        cfg["apparatus"]["aperture_width"] = 0.05
    plan = build_plan(cfg)
    apparatus, gate, delay = plan.apparatus, plan.gate, plan.geometry.fiber_delay
    photon_speed = apparatus.vacuum_light_speed / apparatus.fiber_group_index
    first = resonant_influence_speeds(plan.geometry, apparatus.fiber_length, photon_speed, 1)[0]
    if speed == "late_0.25":
        value = speed_at_pass_fraction(apparatus, 0.25, early=False)
    elif speed == "early_0.75":
        value = speed_at_pass_fraction(apparatus, 0.75, early=True)
    elif speed.startswith("both_ends"):
        late = 1.5 if speed == "both_ends_k1" else 0.5
        value = apparatus.fiber_length / (late * gate.gate_period - delay)
    else:
        value = {"low": first.low, "center": first.center, "high": first.high}.get(
            speed, INSTANTANEOUS
        )
    model = TravelingInfluence(QuantumState(), MalusLHV(), value)
    quantum, plan = replace(plan, model=QuantumState()), replace(plan, model=model)
    assert plan.gate == GateState.from_geometry(plan.geometry)
    report = influence_window_analysis(plan.geometry, apparatus.fiber_length, value, photon_speed)
    period, width = gate.gate_period, gate.aperture_time
    # Informed pairs reach the slits one influence transit plus one fiber
    # delay after a window opens, for one aperture time.
    transit = 0.0 if value == INSTANTANEOUS else apparatus.fiber_length / value
    arrival = transit + delay
    assert report.informed_arrival_window_at_slit == (arrival, arrival + width)
    # The share of a midpoint grid on the arrival window that the slits'
    # gate passes, and the window its first open point lies in.
    grid = arrival + (np.arange(10_000) + 0.5) / 10_000 * width
    passed = gate_open(grid, gate)
    assert abs(passed.mean() - report.pass_fraction) <= 1e-4
    if passed.any():
        assert report.earliest_open_overlap == int(grid[passed][0] // period)
    else:
        assert report.pass_fraction < 1e-4
    assert all(piece.gate_period == period for piece, _ in plan.pieces)
    assert sum(piece.aperture_time for piece, _ in plan.pieces) == pytest.approx(period, rel=1e-12)
    informed_width = sum(piece.aperture_time for piece, m in plan.pieces if m is model.base)
    assert abs(informed_width / width - report.pass_fraction) <= 1e-9
    # Three periods on a grid, less every time within 1e-6 apertures of a
    # piece's edge, where rounding may put a time on either side.
    t = np.linspace(0.0, 3 * period, 30_001)
    for piece, _ in plan.pieces:
        offset = (t - piece.phase_offset) % period
        t = t[np.minimum(offset, period - offset) > 1e-6 * width]
    opens = np.array([gate_open(t, piece) for piece, _ in plan.pieces])
    assert np.all(opens.sum(axis=0) == 1)  # exactly one piece holds each time
    held = opens.argmax(axis=0)
    informed = gate_open(t, GateState(period, width, arrival % period))
    inside = gate_open(t, gate)
    for target, expected in (
        (model.base, inside & informed),
        (model.uninformed, inside & ~informed),
        (None, ~inside),
    ):
        pieces = [k for k, (_, m) in enumerate(plan.pieces) if m is target]
        assert np.array_equal(np.isin(held, pieces), expected), target
    # What each sub-run draws: pieces tiling the period, each with its law.
    det, rate = plan.detector, plan.pair_rate
    dark = det.stream_law(NO_POLARIZERS, 0.0)

    def law(m):
        return dark if m is None else det.stream_law(joint_probabilities(m, 0.0, 22.5)[:3], rate)

    stream = plan.stream(0.0, 22.5)
    assert all(piece.gate_period == period for piece, _ in stream)
    ends = [piece.phase_offset + piece.aperture_time for piece, _ in stream]
    assert [piece.phase_offset for piece, _ in stream] == pytest.approx([0.0, *ends[:-1]])
    assert ends[-1] == pytest.approx(period)
    laws = [law(m) for _, m in plan.pieces]
    assert [piece_law for _, piece_law in stream] == [
        x for k, x in enumerate(laws) if k == 0 or x != laws[k - 1]
    ]
    # With the mirror stopped every emission is informed: one piece.
    whole = GateState(period, period)
    assert plan.stream(0.0, 22.5, rotation=False) == ((whole, law(model.base)),)
    # Without polarizers the model does not matter: the open pieces merge.
    open_law = det.stream_law(NO_POLARIZERS, rate)
    assert plan.stream() == quantum.stream() == (
        (gate, open_law),
        (GateState(period, period - width, width), dark),
    )
    # With the source off only the darks are left, the same on every piece.
    assert plan.stream(0.0, 22.5, source=False) == ((whole, dark),)


def test_plan_draws_the_informed_share_the_report_gives():
    # Over the first eight resonance intervals, at both edges, the centre
    # and 49 interior speeds of each: a traveling plan draws its base model
    # on the share of the open window that the report passes, and on none
    # of it where the report passes none, as at an edge whose informed
    # arrivals touch the window only to within rounding.
    plan = build_plan(json.loads(fixture_path("reference_bench.json").read_text()))
    apparatus, width = plan.apparatus, plan.gate.aperture_time
    photon_speed = apparatus.vacuum_light_speed / apparatus.fiber_group_index
    intervals = resonant_influence_speeds(plan.geometry, apparatus.fiber_length, photon_speed, 8)
    speeds = [
        speed
        for iv in intervals
        for speed in (iv.low, iv.high, iv.center, *(iv.low + (iv.high - iv.low) * k / 50
                                                    for k in range(1, 50)))
    ]
    assert len(speeds) == 416
    for speed in speeds:
        model = TravelingInfluence(QuantumState(), MalusLHV(), speed)
        informed = [
            piece.aperture_time
            for piece, m in replace(plan, model=model).pieces
            if m is model.base
        ]
        report = influence_window_analysis(
            plan.geometry, apparatus.fiber_length, speed, photon_speed
        )
        if report.pass_fraction == 0.0:
            assert informed == [], speed
        else:
            assert abs(sum(informed) / width - report.pass_fraction) <= 1e-12, speed


def _refused(call, *args) -> bool:
    try:
        call(*args)
    except ValueError:
        return True
    return False


def test_simulate_and_causality_refuse_the_same_speeds():
    # Informed arrivals 0.1 us apart just short of 4096 s, where a float
    # step grows past 1e-6 reference apertures: the plan and the report
    # refuse the same speeds, some but not all of these.
    cfg = json.loads(fixture_path("demo.json").read_text())
    plan = build_plan(cfg)
    apparatus, geometry = plan.apparatus, plan.geometry
    photon_speed = apparatus.vacuum_light_speed / apparatus.fiber_group_index
    refused = []
    for k in range(1, 400):
        speed = apparatus.fiber_length / (4096.0 - geometry.fiber_delay - k * 1e-7)
        cfg["model"] = {"name": "traveling", "base": {"name": "quantum"},
                        "uninformed": {"name": "malus"}, "influence_speed": speed}
        planned = _refused(build_plan, cfg)  # a ConfigError is a ValueError
        reported = _refused(
            influence_window_analysis, geometry, apparatus.fiber_length, speed, photon_speed
        )
        assert planned == reported, k
        refused.append(planned)
    assert 0 < sum(refused) < len(refused)
