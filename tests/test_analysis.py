import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bellgate.analysis import (
    ALICE_ANGLES,
    BOB_ANGLES,
    CountRecord,
    CountTable16,
    NumericalError,
    accidental_rate,
    chsh_S,
    correlation_E,
    dark_subtract,
    degradation_ratio,
    format_chsh_text,
    read_count_records,
    read_table_csv,
    write_chsh_csv,
    write_table_csv,
)
from bellgate.fixtures import fixture_path
from bellgate.record import fields
from bellgate.sources import MalusLHV, ThresholdLHV

from conftest import sampled_table

# Reference bench 16-setting coincidence table, cells (count, accidental),
# indexed [alice][bob] with the standard angle grids.
BENCH_COUNTS = {
    (0.0, 22.5): (226, 5), (45.0, 22.5): (85, 4), (90.0, 22.5): (42, 4), (135.0, 22.5): (184, 4),
    (0.0, 67.5): (70, 5), (45.0, 67.5): (34, 4), (90.0, 67.5): (182, 4), (135.0, 67.5): (239, 5),
    (0.0, 112.5): (46, 5), (45.0, 112.5): (187, 5), (90.0, 112.5): (227, 4), (135.0, 112.5): (70, 4),
    (0.0, 157.5): (198, 5), (45.0, 157.5): (217, 5), (90.0, 157.5): (88, 4), (135.0, 157.5): (34, 4),
}

# Reference bench luminosity rows (rates per second).
DARK_ROW = (1300.0, 600.0, 0.08)
NO_ROTATION_ROW = (33894.0, 20329.0, 389.0)
WITH_ROTATION_ROW = (2301.0, 1098.0, 7.0)


def bench_table() -> CountTable16:
    counts = np.zeros((4, 4))
    accidentals = np.zeros((4, 4))
    for (alice, bob), (count, acc) in BENCH_COUNTS.items():
        counts[ALICE_ANGLES.index(alice), BOB_ANGLES.index(bob)] = count
        accidentals[ALICE_ANGLES.index(alice), BOB_ANGLES.index(bob)] = acc
    return CountTable16(counts=counts, accidentals=accidentals)


def oracle_chsh(cells):
    """Independent exact-rational evaluation of the four correlations and
    the CHSH combination from raw (count, accidental) cells."""

    def corrected(alice, bob):
        count, acc = cells[(alice % 180.0, bob % 180.0)]
        return Fraction(max(count - acc, 0))

    e_values = []
    variances = []
    for alice, bob in ((0.0, 22.5), (0.0, 67.5), (45.0, 22.5), (45.0, 67.5)):
        agree = corrected(alice, bob) + corrected(alice + 90, bob + 90)
        disagree = corrected(alice, bob + 90) + corrected(alice + 90, bob)
        total = agree + disagree
        e_values.append(Fraction(agree - disagree, total))
        variances.append(Fraction(4 * agree * disagree, total**3))
    s = abs(e_values[0] - e_values[1]) + abs(e_values[2] + e_values[3])
    return e_values, variances, s, math.sqrt(float(sum(variances)))


# ---------------------------------------------------------------------------
# Dark subtraction and degradation


def test_dark_subtract_reference_rows():
    corrected = dark_subtract(CountRecord(*NO_ROTATION_ROW), CountRecord(*DARK_ROW))
    assert corrected.rates == pytest.approx((32594.0, 19729.0, 388.92), rel=1e-12)
    corrected = dark_subtract(CountRecord(*WITH_ROTATION_ROW), CountRecord(*DARK_ROW))
    assert corrected.rates == pytest.approx((1001.0, 498.0, 6.92), rel=1e-12)


def test_dark_subtract_self_is_zero():
    record = CountRecord(*NO_ROTATION_ROW)
    assert dark_subtract(record, record).rates == (0.0, 0.0, 0.0)


def test_dark_subtract_floors_at_zero():
    low = CountRecord(100.0, 100.0, 1.0)
    high = CountRecord(500.0, 50.0, 2.0)
    corrected = dark_subtract(low, high)
    assert corrected.rates == (0.0, 50.0, 0.0)


def test_dark_subtract_normalizes_durations():
    raw = CountRecord(200.0, 100.0, 10.0, duration=2.0)  # 100/50/5 per second
    dark = CountRecord(40.0, 10.0, 1.0, duration=1.0)
    corrected = dark_subtract(raw, dark)
    assert corrected.duration == 2.0
    assert corrected.rates == pytest.approx((60.0, 40.0, 4.0), rel=1e-12)


def test_degradation_reference_ratios():
    result = degradation_ratio(
        CountRecord(*WITH_ROTATION_ROW), CountRecord(*NO_ROTATION_ROW), CountRecord(*DARK_ROW)
    )
    assert result.ratios[0] == pytest.approx(1001.0 / 32594.0, rel=1e-12)
    assert result.ratios[1] == pytest.approx(498.0 / 19729.0, rel=1e-12)
    assert result.ratios[2] == pytest.approx(6.92 / 388.92, rel=1e-12)
    # quoted bench values to three decimals
    assert tuple(round(r, 3) for r in result.ratios) == (0.031, 0.025, 0.018)
    assert all(s > 0 for s in result.sigmas)


def test_degradation_of_identical_records_is_one():
    record = CountRecord(*NO_ROTATION_ROW)
    dark = CountRecord(10.0, 10.0, 0.0)
    result = degradation_ratio(record, record, dark)
    assert result.ratios == pytest.approx((1.0, 1.0, 1.0), rel=1e-12)


def test_degradation_zero_denominator():
    dark = CountRecord(*DARK_ROW)
    with pytest.raises(ArithmeticError, match="denominator"):
        degradation_ratio(CountRecord(*WITH_ROTATION_ROW), dark, dark)


# ---------------------------------------------------------------------------
# Accidental estimates


def test_accidental_rate_conventions():
    assert accidental_rate(2301.0, 1098.0, 20e-9, "single") == pytest.approx(
        0.05052996, rel=1e-12
    )
    assert accidental_rate(2301.0, 1098.0, 20e-9, "double") == pytest.approx(
        0.10105992, rel=1e-12
    )
    # about 3 per minute (single) vs 6 per minute (double)
    assert accidental_rate(2301.0, 1098.0, 20e-9, "single") * 60 == pytest.approx(3.03, abs=0.01)


def test_accidental_rate_zero_and_errors():
    assert accidental_rate(0.0, 1098.0, 20e-9, "double") == 0.0
    assert accidental_rate(2301.0, 0.0, 20e-9, "single") == 0.0
    with pytest.raises(ValueError):
        accidental_rate(-1.0, 1.0, 20e-9, "double")
    with pytest.raises(ValueError):
        accidental_rate(1.0, 1.0, 20e-9, "triple")


# ---------------------------------------------------------------------------
# Correlation estimator


def test_correlation_from_bench_quadruple():
    # cells (0,22.5), (90,112.5), (0,112.5), (90,22.5) after accidental subtraction
    e, sigma = correlation_E(221, 223, 41, 38)
    assert e == pytest.approx(365 / 523, rel=1e-12)
    assert sigma == pytest.approx(math.sqrt(4 * 444 * 79 / 523**3), rel=1e-12)
    assert e == pytest.approx(0.6979, abs=5e-5)
    assert sigma == pytest.approx(0.0313, abs=5e-5)


def test_correlation_from_bench_quadruple_negative():
    # cells for the (45, 67.5) quadruple
    e, sigma = correlation_E(30, 30, 212, 234)
    assert e == pytest.approx(-386 / 506, rel=1e-12)
    assert sigma == pytest.approx(math.sqrt(4 * 60 * 446 / 506**3), rel=1e-12)
    assert e == pytest.approx(-0.7629, abs=1e-4)
    assert sigma == pytest.approx(0.0287, abs=1e-4)


def test_correlation_symmetric_counts_vanish():
    for n in (1, 7, 1000):
        e, sigma = correlation_E(n, n, n, n)
        assert e == 0.0
        assert sigma == pytest.approx(1 / math.sqrt(4 * n), rel=1e-12)


def test_correlation_bounds_and_errors():
    rng = np.random.default_rng(50)
    for _ in range(200):
        counts = rng.integers(0, 1000, size=4)
        if counts.sum() == 0:
            continue
        e, sigma = correlation_E(*counts)
        assert -1.0 <= e <= 1.0
        assert sigma >= 0.0
    with pytest.raises(NumericalError):
        correlation_E(0, 0, 0, 0)
    with pytest.raises(ValueError):
        correlation_E(-1, 2, 3, 4)


# ---------------------------------------------------------------------------
# CHSH statistic


def test_chsh_matches_exact_oracle():
    e_oracle, var_oracle, s_oracle, s_sigma_oracle = oracle_chsh(BENCH_COUNTS)
    result = chsh_S(bench_table())
    for e, e_expected in zip(result.E_values, e_oracle):
        assert e == pytest.approx(float(e_expected), rel=1e-12)
    for sig, var_expected in zip(result.E_sigmas, var_oracle):
        assert sig == pytest.approx(math.sqrt(float(var_expected)), rel=1e-12)
    assert result.S == pytest.approx(float(s_oracle), rel=1e-12)
    assert result.S_sigma == pytest.approx(s_sigma_oracle, rel=1e-12)
    # frozen oracle values
    assert result.S == pytest.approx(2.3100625328289692, rel=1e-12)
    assert result.S_sigma == pytest.approx(0.07066584229292687, rel=1e-12)


def test_chsh_pins_the_estimator_convention():
    result = chsh_S(bench_table())
    assert abs(result.S - 2.310) < 5e-4
    assert abs(result.S_sigma - 0.0707) < 5e-4
    # and agrees with the quoted bench statistic within its own sigma
    assert abs(result.S - 2.302) <= 0.02
    assert abs(result.S_sigma - 0.071) <= 0.002


def test_chsh_noise_free_table_reaches_tsirelson():
    scale = 1e8
    counts = np.zeros((4, 4))
    for i, alice in enumerate(ALICE_ANGLES):
        for j, bob in enumerate(BOB_ANGLES):
            counts[i, j] = scale * (1 + math.cos(math.radians(2 * (alice + bob)))) / 4
    table = CountTable16(counts=counts, accidentals=np.zeros((4, 4)))
    result = chsh_S(table)
    assert result.S == pytest.approx(2 * math.sqrt(2), rel=1e-12)


def test_chsh_uniform_table_is_zero():
    table = CountTable16(counts=np.full((4, 4), 100.0), accidentals=np.zeros((4, 4)))
    result = chsh_S(table)
    assert result.S == 0.0
    assert all(e == 0.0 for e in result.E_values)


def test_chsh_names_a_quadruple_the_accidentals_removed():
    # The (0, 22.5) quadruple, alice 0 and 90 by bob 22.5 and 112.5, holds
    # 4 x 30 raw counts under an accidental estimate of 40 a cell: every
    # cell floors to 0, and the refusal says so with both totals.
    accidentals = np.zeros((4, 4))
    accidentals[np.ix_([0, 2], [0, 2])] = 40.0
    table = CountTable16(counts=np.full((4, 4), 30.0), accidentals=accidentals)
    with pytest.raises(NumericalError) as excinfo:
        chsh_S(table)
    assert str(excinfo.value) == (
        "correlation estimator needs at least one count at (0.0, 22.5): raw total 120,"
        " corrected total 0; the accidental estimate removed them"
    )
    # With no raw counts there is nothing the estimate removed.
    empty = CountTable16(counts=np.zeros((4, 4)), accidentals=np.zeros((4, 4)))
    with pytest.raises(NumericalError) as excinfo:
        chsh_S(empty)
    assert str(excinfo.value) == "correlation estimator needs at least one count at (0.0, 22.5)"


def test_chsh_scale_invariance():
    table = bench_table()
    result = chsh_S(table)
    for factor in (4.0, 25.0):
        scaled = CountTable16(
            counts=factor * table.counts, accidentals=factor * table.accidentals
        )
        scaled_result = chsh_S(scaled)
        assert scaled_result.S == pytest.approx(result.S, rel=1e-12)
        assert scaled_result.S_sigma == pytest.approx(
            result.S_sigma / math.sqrt(factor), rel=1e-12
        )


def test_chsh_bounds_over_random_tables():
    rng = np.random.default_rng(51)
    for _ in range(200):
        counts = rng.integers(1, 500, size=(4, 4)).astype(float)
        result = chsh_S(CountTable16(counts=counts, accidentals=np.zeros((4, 4))))
        assert all(-1.0 <= e <= 1.0 for e in result.E_values)
        assert 0.0 <= result.S <= 4.0


def test_chsh_lhv_tables_respect_classical_bound():
    # the estimator itself never pushes hidden-variable counts past the
    # classical bound: 1000 sampled tables per model, >= 99% within 4 sigma
    for model, base_seed in ((MalusLHV(), 1000), (ThresholdLHV(), 5000)):
        violations = 0
        for k in range(1000):
            result = chsh_S(sampled_table(model, 4000, base_seed + k))
            if result.S > 2.0 + 4 * result.S_sigma:
                violations += 1
        assert violations <= 10


def test_count_table_validation():
    with pytest.raises(ValueError, match="4x4"):
        CountTable16(counts=np.zeros((3, 4)), accidentals=np.zeros((4, 4)))
    with pytest.raises(ValueError, match="non-negative"):
        CountTable16(counts=-np.ones((4, 4)), accidentals=np.zeros((4, 4)))
    for bad in (math.nan, math.inf, -math.inf):
        cells = np.full((4, 4), 5.0)
        cells[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            CountTable16(counts=cells, accidentals=np.zeros((4, 4)))
        with pytest.raises(ValueError, match="finite"):
            CountTable16(counts=np.full((4, 4), 5.0), accidentals=cells)
    table = CountTable16(counts=np.full((4, 4), 5.0), accidentals=np.full((4, 4), 8.0))
    assert np.all(table.corrected() == 0.0)


def test_count_table_grid_is_fixed():
    # the grid is a constant of the table, not data in it
    assert fields(CountTable16) == ("counts", "accidentals")
    table = bench_table()
    assert table.alice_angles == ALICE_ANGLES and table.bob_angles == BOB_ANGLES
    with pytest.raises(TypeError):
        CountTable16(counts=table.counts, accidentals=table.accidentals, alice_angles=ALICE_ANGLES)


# ---------------------------------------------------------------------------
# Table file formats


def test_bundled_table_parses_to_reference_counts():
    table = read_table_csv(fixture_path("table2.csv"))
    expected = bench_table()
    assert np.array_equal(table.counts, expected.counts)
    assert np.array_equal(table.accidentals, expected.accidentals)
    assert table.alice_angles == ALICE_ANGLES
    assert table.bob_angles == BOB_ANGLES


def test_table_roundtrip_single_file(tmp_path):
    table = bench_table()
    path = tmp_path / "table.csv"
    write_table_csv(table, path)
    back = read_table_csv(path)
    assert np.array_equal(back.counts, table.counts)
    assert np.array_equal(back.accidentals, table.accidentals)


def test_table_fractional_accidentals_roundtrip(tmp_path):
    counts = np.full((4, 4), 120.0)
    counts[0, 0] = 1e-05  # once written 1e-05, which split at the exponent's "-"
    counts[3, 3] = -0.0  # written 0: "-0" would split the cell too
    accidentals = np.full((4, 4), 4.73)
    accidentals[1, 2] = 1 / 3
    table = CountTable16(counts=counts, accidentals=accidentals)
    path = tmp_path / "frac.csv"
    write_table_csv(table, path)
    back = read_table_csv(path)
    assert np.array_equal(back.counts, counts)
    assert np.array_equal(back.accidentals, accidentals)


@pytest.mark.parametrize(
    "text",
    [
        "not,a,table\n",
        "bob_angle,0,45,90\n22.5,1-0,2-0,3-0\n",
        "bob_angle,0,45,90,135\n22.5,1-0,2-0,3-0,4-0\n",
        "bob_angle,0,45,90,135\n"
        + "22.5,x-0,2-0,3-0,4-0\n67.5,1-0,2-0,3-0,4-0\n"
        + "112.5,1-0,2-0,3-0,4-0\n157.5,1-0,2-0,3-0,4-0\n",
    ],
)
def test_malformed_tables_rejected(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        read_table_csv(path)


def test_count_records_refuse_a_repeated_label(tmp_path):
    # once the last row won and the first was dropped without a word
    path = tmp_path / "records.csv"
    path.write_text("label,singles_alice_per_s,singles_bob_per_s,coincidences_per_s\n"
                    "dark,1,1,0\ndark,5,5,0\n")
    with pytest.raises(ValueError, match="repeats label 'dark'"):
        read_count_records(path)


RECORD_HEADER = "label,singles_alice_per_s,singles_bob_per_s,coincidences_per_s\n"


@pytest.mark.parametrize(
    "row", ["dark,1300,600\n", "dark,1300,six hundred,0.08\n"], ids=["three_cells", "not_a_number"]
)
def test_count_records_refuse_a_malformed_row(tmp_path, row):
    path = tmp_path / "records.csv"
    path.write_text(RECORD_HEADER + row)
    with pytest.raises(ValueError, match="malformed count-record row"):
        read_count_records(path)


def test_count_records_skip_blank_rows(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(RECORD_HEADER + "\ndark,1300,600,0.08\n , ,\n\nno_rotation,3,2,1\n")
    records = read_count_records(path)
    assert list(records) == ["dark", "no_rotation"]
    assert records["no_rotation"].rates == (3.0, 2.0, 1.0)


def test_fixture_path_refuses_a_missing_name():
    with pytest.raises(FileNotFoundError, match="no bundled fixture named 'table3.csv'"):
        fixture_path("table3.csv")


def test_report_formats(tmp_path):
    result = chsh_S(bench_table())
    text = format_chsh_text(result)
    assert "S = 2.3101 +/- 0.0707" in text
    assert "(0, 22.5)" in text
    csv_path = tmp_path / "report.csv"
    write_chsh_csv(result, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "quantity,alice_angle,bob_angle,value,sigma"
    assert len(lines) == 6
    assert lines[-1].startswith("S,,,")


# ---------------------------------------------------------------------------
# Module boundary


def test_counts_import_apart_from_the_detectors():
    # analysis reads counts from any source, measured or simulated; the
    # detectors and the matcher that produce them are not its business.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    loaded = "print(sorted(m for m in sys.modules if m.startswith('bellgate')))"
    code = f"import sys, bellgate.analysis; {loaded}"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['bellgate', 'bellgate.analysis', 'bellgate.record']\n"
    code = f"import sys, bellgate.detection; {loaded}"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "'bellgate.analysis'" not in result.stdout
