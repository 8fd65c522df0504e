import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bellgate.analysis import ALICE_ANGLES, BOB_ANGLES, chsh_S
from bellgate.apparatus import ApparatusConfig, DetectorConfig
from bellgate.config import RunPlan
from bellgate.gating import sample_times
from bellgate.sources import (
    MalusLHV,
    QuantumState,
    ThresholdLHV,
    TravelingInfluence,
    correlation_kernel,
    correlation_theory,
    joint_probabilities,
)

from conftest import ALWAYS_OPEN, sampled_table
from oracle import joint_outcomes

# Pair rate recovered from the reference bench luminosity run
# (32594 * 19729 / 388.92 dark-corrected rates).
BENCH_PAIR_RATE = 1.653e6


def quadrature_joint(alice_angle, bob_angle, m=2_000_000):
    """Independent oracle for the Malus model: midpoint quadrature of the
    four joint transmission products over the uniform hidden angle."""
    theta = (np.arange(m) + 0.5) * math.pi / m
    ca2 = np.cos(theta - math.radians(alice_angle)) ** 2
    cb2 = np.cos(theta - math.radians(bob_angle)) ** 2
    p_pp = float(np.mean(ca2 * cb2))
    p_pb = float(np.mean(ca2 * (1 - cb2)))
    p_bp = float(np.mean((1 - ca2) * cb2))
    p_bb = float(np.mean((1 - ca2) * (1 - cb2)))
    return p_pp, p_pb, p_bp, p_bb


def band_overlap_joint(alice_angle, bob_angle, m=2_000_000):
    """Independent oracle for the threshold model: fraction of hidden
    angles where both arms' sign outcomes are positive, etc."""
    theta = (np.arange(m) + 0.5) * math.pi / m
    a = np.cos(2 * (theta - math.radians(alice_angle))) > 0
    b = np.cos(2 * (theta - math.radians(bob_angle))) > 0
    return (
        float(np.mean(a & b)),
        float(np.mean(a & ~b)),
        float(np.mean(~a & b)),
        float(np.mean(~a & ~b)),
    )


# ---------------------------------------------------------------------------
# Emission sampling through a gate that never closes


def test_emission_count_matches_rate():
    # 1.65e6 draws in 1 s: 26 chunks, in time order across them.
    law = (BENCH_PAIR_RATE,) * 3
    times = np.concatenate(
        [t for t, _ in sample_times([(ALWAYS_OPEN, law)], 1.0, np.random.default_rng(101))]
    )
    expected = BENCH_PAIR_RATE
    assert abs(times.size - expected) < 5 * math.sqrt(expected)
    assert times.min() >= 0.0 and times.max() < 1.0 and np.all(times[1:] >= times[:-1])


def test_zero_duration_gives_empty_stream():
    law = (100.0,) * 3
    assert list(sample_times([(ALWAYS_OPEN, law)], 0.0, np.random.default_rng(0))) == []


@pytest.mark.parametrize("rate, duration", [(0.0, 1.0), (-5.0, 1.0), (100.0, -1.0)])
def test_bad_emission_arguments_rejected(rate, duration):
    # the plan holds the emission rate and duration and checks both
    with pytest.raises(ValueError):
        RunPlan(
            apparatus=ApparatusConfig(),
            detector=DetectorConfig(efficiency_alice=1.0, efficiency_bob=1.0),
            model=QuantumState(),
            pair_rate=rate,
            integration_time=duration,
        )


# ---------------------------------------------------------------------------
# Kernels and exact probabilities


def test_kernel_conventions():
    assert correlation_kernel("plus", 0.0, 45.0) == pytest.approx(0.0, abs=1e-12)
    assert correlation_kernel("plus", 10.0, 40.0) == pytest.approx(
        -correlation_kernel("minus", 10.0, 40.0), rel=1e-12
    )
    assert correlation_kernel("mirrored", 0.0, 22.5) == pytest.approx(
        math.cos(math.radians(45.0)), rel=1e-12
    )


def test_kernel_refuses_an_unknown_convention():
    with pytest.raises(ValueError, match="unknown sign convention 'sideways'"):
        correlation_kernel("sideways", 0.0, 22.5)


def test_quantum_joint_pass_probability():
    # V=1 mirrored at (0, 112.5): (1 + cos 225 deg)/4 = 0.0732
    p_pp = joint_probabilities(QuantumState("mirrored", 1.0), 0.0, 112.5)[0]
    assert p_pp == pytest.approx(0.07322330470336308, rel=1e-12)
    alice, bob = joint_outcomes(QuantumState("mirrored", 1.0), 0.0, 112.5, 1_000_000, seed=3)
    frequency = np.mean(alice & bob)
    sigma = math.sqrt(p_pp * (1 - p_pp) / 1_000_000)
    assert abs(frequency - p_pp) < 3 * sigma


def test_zero_visibility_is_independent():
    for convention in ("plus", "minus", "mirrored"):
        for alice_angle, bob_angle in ((0.0, 22.5), (13.0, 77.0), (45.0, 67.5)):
            probs = joint_probabilities(QuantumState(convention, 0.0), alice_angle, bob_angle)
            assert probs == pytest.approx((0.25, 0.25, 0.25, 0.25), rel=1e-12)


def test_quantum_marginals_are_half_exactly():
    for convention in ("plus", "minus", "mirrored"):
        for visibility in (0.0, 0.5, 1.0):
            p_pp, p_pb, p_bp, p_bb = joint_probabilities(
                QuantumState(convention, visibility), 31.0, 118.5
            )
            assert p_pp + p_pb == pytest.approx(0.5, rel=1e-12)
            assert p_pp + p_bp == pytest.approx(0.5, rel=1e-12)
            assert p_pp + p_pb + p_bp + p_bb == pytest.approx(1.0, rel=1e-12)


def test_quantum_marginals_empirically_half():
    alice, bob = joint_outcomes(QuantumState("mirrored", 1.0), 45.0, 67.5, 1_000_000, seed=11)
    sigma = math.sqrt(0.25 / 1_000_000)
    assert abs(np.mean(alice) - 0.5) < 4 * sigma
    assert abs(np.mean(bob) - 0.5) < 4 * sigma


def test_malus_joint_probabilities_match_quadrature():
    for alice_angle, bob_angle in ((0.0, 0.0), (0.0, 30.0), (10.0, 130.0)):
        oracle = quadrature_joint(alice_angle, bob_angle)
        probs = joint_probabilities(MalusLHV(), alice_angle, bob_angle)
        assert probs == pytest.approx(oracle, abs=1e-9)


def test_malus_equal_settings_pass_pass_is_three_eighths():
    # E[cos^4 theta] over the uniform hidden angle
    oracle = quadrature_joint(20.0, 20.0)[0]
    assert oracle == pytest.approx(3 / 8, abs=1e-9)
    assert joint_probabilities(MalusLHV(), 20.0, 20.0)[0] == pytest.approx(3 / 8, rel=1e-12)
    alice, bob = joint_outcomes(MalusLHV(), 20.0, 20.0, 1_000_000, seed=5)
    sigma = math.sqrt(3 / 8 * 5 / 8 / 1_000_000)
    assert abs(np.mean(alice & bob) - 3 / 8) < 4 * sigma


def test_threshold_joint_probabilities_match_band_overlap():
    for alice_angle, bob_angle in ((0.0, 22.5), (0.0, 67.5), (15.0, 140.0)):
        oracle = band_overlap_joint(alice_angle, bob_angle)
        probs = joint_probabilities(ThresholdLHV(), alice_angle, bob_angle)
        assert probs == pytest.approx(oracle, abs=1e-6)


# ---------------------------------------------------------------------------
# Closed-form correlations


def test_correlation_theory_quantum():
    assert correlation_theory(QuantumState("mirrored", 1.0), 0.0, 22.5) == pytest.approx(
        math.cos(math.radians(45.0)), rel=1e-12
    )
    assert correlation_theory(QuantumState("plus", 1.0), 0.0, 45.0) == pytest.approx(
        0.0, abs=1e-12
    )
    assert correlation_theory(QuantumState("mirrored", 0.6), 0.0, 22.5) == pytest.approx(
        0.6 * math.cos(math.radians(45.0)), rel=1e-12
    )


def test_correlation_theory_malus():
    p_pp, p_pb, p_bp, p_bb = quadrature_joint(0.0, 0.0)
    assert (p_pp + p_bb) - (p_pb + p_bp) == pytest.approx(0.5, abs=1e-9)
    assert correlation_theory(MalusLHV(), 0.0, 0.0) == pytest.approx(0.5, rel=1e-12)
    assert correlation_theory(MalusLHV(), 0.0, 30.0) == pytest.approx(
        0.5 * math.cos(math.radians(60.0)), rel=1e-12
    )


def test_correlation_theory_threshold_sawtooth():
    assert correlation_theory(ThresholdLHV(), 0.0, 22.5) == pytest.approx(0.5, rel=1e-12)
    assert correlation_theory(ThresholdLHV(), 0.0, 67.5) == pytest.approx(-0.5, rel=1e-12)
    assert correlation_theory(ThresholdLHV(), 0.0, 45.0) == pytest.approx(0.0, abs=1e-12)
    # angle differences fold with the polarizer's 180 degree period
    assert correlation_theory(ThresholdLHV(), 0.0, 157.5) == pytest.approx(0.5, rel=1e-12)


def test_correlation_theory_rejects_traveling():
    model = TravelingInfluence(base=QuantumState(), uninformed=MalusLHV())
    with pytest.raises(ValueError):
        correlation_theory(model, 0.0, 22.5)


def test_monte_carlo_correlation_converges():
    n = 1_000_000
    rng = np.random.default_rng(17)
    models = [QuantumState("mirrored", 0.7), MalusLHV(), ThresholdLHV()]
    pairs = [(rng.uniform(0, 180), rng.uniform(0, 180)) for _ in range(8)]
    for model in models:
        for alice_angle, bob_angle in pairs:
            alice, bob = joint_outcomes(model, alice_angle, bob_angle, n, rng)
            agree = np.mean(alice == bob)
            estimate = 2 * agree - 1
            expected = correlation_theory(model, alice_angle, bob_angle)
            sigma = math.sqrt(max(1 - expected**2, 1e-12) / n)
            assert abs(estimate - expected) < 4 * sigma + 1e-6


# ---------------------------------------------------------------------------
# Single pairs and hidden state


def test_joint_outcome_scalar_contract():
    alice, bob = joint_outcomes(QuantumState("mirrored", 1.0), 0.0, 22.5, 1, seed=9)
    assert alice.dtype == bob.dtype == bool
    assert alice.shape == bob.shape == (1,)
    again = joint_outcomes(QuantumState("mirrored", 1.0), 0.0, 22.5, 1, seed=9)
    assert (alice[0], bob[0]) == (again[0][0], again[1][0])


@pytest.mark.parametrize(
    "model",
    [QuantumState(), MalusLHV(), ThresholdLHV(), TravelingInfluence(QuantumState(), MalusLHV())],
    ids=lambda model: type(model).__name__,
)
def test_joint_outcomes_integer_seed_draws_as_default_rng(model):
    # An integer seed is the generator np.random.default_rng builds from it.
    n = 1000
    informed = np.arange(n) % 3 == 0 if isinstance(model, TravelingInfluence) else None
    by_seed = joint_outcomes(model, 0.0, 22.5, n, 41, hidden=informed)
    by_rng = joint_outcomes(model, 0.0, 22.5, n, np.random.default_rng(41), hidden=informed)
    assert all(np.array_equal(a, b) for a, b in zip(by_seed, by_rng))


def test_threshold_outcome_is_deterministic_given_hidden_angle():
    # hidden angle at the setting: cos(0) > 0 on alice, 45 deg away on bob
    theta = np.array([0.0])
    alice, bob = joint_outcomes(ThresholdLHV(), 0.0, 60.0, 1, seed=0, hidden=theta)
    assert (alice[0], bob[0]) == (True, False)
    alice, bob = joint_outcomes(ThresholdLHV(), 0.0, 10.0, 1, seed=1, hidden=theta)
    assert (alice[0], bob[0]) == (True, True)


def test_shared_hidden_angle_is_respected():
    theta = np.random.default_rng(23).random(200_000) * math.pi
    alice, bob = joint_outcomes(ThresholdLHV(), 0.0, 0.0, theta.size, seed=0, hidden=theta)
    assert np.array_equal(alice, bob)  # identical settings, shared hidden angle


def test_traveling_influence_uses_flag_per_pair():
    model = TravelingInfluence(base=QuantumState("mirrored", 1.0), uninformed=MalusLHV())
    n = 400_000
    rng = np.random.default_rng(31)
    informed = np.zeros(n, dtype=bool)
    informed[: n // 2] = True
    alice, bob = joint_outcomes(model, 0.0, 22.5, n, rng, hidden=informed)
    agree = (alice == bob).astype(float)
    for mask, submodel in ((informed, model.base), (~informed, model.uninformed)):
        expected = correlation_theory(submodel, 0.0, 22.5)
        estimate = 2 * np.mean(agree[mask]) - 1
        sigma = math.sqrt((1 - expected**2) / mask.sum())
        assert abs(estimate - expected) < 4 * sigma


def test_traveling_influence_requires_flags():
    model = TravelingInfluence(base=QuantumState(), uninformed=MalusLHV())
    with pytest.raises(ValueError):
        joint_outcomes(model, 0.0, 22.5, 10, seed=0)


# The plan layer and what each module must still do with numpy blocked.
PLAN_LAYER = {
    "record": "",
    "sources": "",
    "causality": "",
    "fixtures": "",
    "apparatus": "",
    # Each plan's stream laws and accidental estimate too, on both bundled
    # configs and on a demo.json plan informed on part of its open window,
    # whose luminosity streams are demo.json's: without polarizers the
    # model does not matter.
    "config": (
        "from bellgate.causality import resonant_influence_speeds\n"
        "from bellgate.fixtures import fixture_path\n"
        "traveling = {'name': 'traveling', 'base': {'name': 'quantum'},"
        " 'uninformed': {'name': 'malus'}}\n"
        "plans = {}\n"
        "for name in ('demo.json', 'reference_bench.json'):\n"
        "    cfg = m.load_config(fixture_path(name))\n"
        "    plans[name] = m.build_plan(cfg)\n"
        "    m.build_plan(dict(cfg, model=traveling))\n"
        "demo = plans['demo.json']\n"
        "a = demo.apparatus\n"
        "photon_speed = a.vacuum_light_speed / a.fiber_group_index\n"
        "first = resonant_influence_speeds(demo.geometry, a.fiber_length, photon_speed, 1)[0]\n"
        "partial = dict(traveling, influence_speed=(first.low + first.center) / 2)\n"
        "partial = m.build_plan(dict(m.load_config(fixture_path('demo.json')), model=partial))\n"
        "for plan in (*plans.values(), partial):\n"
        "    plan.stream(0.0, 22.5), plan.accidentals(2301.0, 1098.0)\n"
        "for rotation in (None, False):\n"
        "    assert partial.stream(rotation=rotation) == demo.stream(rotation=rotation)\n"
    ),
    "cli": (
        "assert m.main(['geometry']) == 0\n"
        "assert m.main(['causality', '--speed', 'instant']) == 0\n"
        "assert m.main(['causality', '--sweep']) == 0\n"
        "assert m.main(['simulate', '--set', 'run.no_such_key=1']) == 1\n"
    ),
}


@pytest.mark.parametrize("module", PLAN_LAYER)
def test_models_import_without_numpy(module, tmp_path):
    # The models, configs, plans and gate timing are plain math; only the
    # runner draws.  An import of numpy raises once sys.modules holds None.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        f"import bellgate.{module} as m\n" + PLAN_LAYER[module]
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_model_validation():
    with pytest.raises(ValueError):
        QuantumState("mirrored", 1.2)
    with pytest.raises(ValueError):
        QuantumState("sideways", 1.0)
    with pytest.raises(ValueError):
        TravelingInfluence(base=QuantumState(), uninformed=MalusLHV(), influence_speed=0.0)


# ---------------------------------------------------------------------------
# CHSH behaviour of the models at the standard settings


def test_lhv_models_respect_classical_bound():
    for model, seed in ((MalusLHV(), 211), (ThresholdLHV(), 212)):
        result = chsh_S(sampled_table(model, 200_000, seed))
        assert result.S <= 2.0 + 4 * result.S_sigma


def test_quantum_reaches_tsirelson():
    result = chsh_S(sampled_table(QuantumState("mirrored", 1.0), 500_000, 213))
    assert abs(result.S - 2 * math.sqrt(2)) < 4 * result.S_sigma


def test_grid_settings_are_the_standard_ones():
    assert ALICE_ANGLES == (0.0, 45.0, 90.0, 135.0)
    assert BOB_ANGLES == (22.5, 67.5, 112.5, 157.5)
