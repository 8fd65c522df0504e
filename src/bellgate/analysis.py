"""Counts once counted: run totals and 4x4 tables, their CSV files (the
paper's Tables 1 and 2), and all arithmetic on them, from dark subtraction
and calibration to ``S``.  It imports no ``bellgate`` module but ``record``.

The correlation estimator over a quadruple of transmitted-port
coincidence counts is

    E = (c_ab + c_a'b' - c_ab' - c_a'b) / (c_ab + c_a'b' + c_ab' + c_a'b)

where primes denote the +90 degree partner settings, and the CHSH
combination used throughout is

    S = |E(a, b) - E(a, b')| + |E(a', b) + E(a', b')|.

Uncertainties are propagated by assigning each accidental-corrected
count a Poisson variance equal to the corrected count itself.
:func:`chsh_S` takes each correlation and its sigma from
:func:`correlation_E`, at the fixed settings :data:`CHSH_SETTINGS`.

Count tables have one grid, :data:`ALICE_ANGLES` by :data:`BOB_ANGLES`,
and one CSV layout, the one :func:`write_table_csv` writes and
:func:`read_table_csv` reads back exactly.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .record import ACCIDENTAL_FACTORS, Record

ALICE_ANGLES = (0.0, 45.0, 90.0, 135.0)
BOB_ANGLES = (22.5, 67.5, 112.5, 157.5)
#: (a, b), (a, b'), (a', b), (a', b') of the CHSH combination, in degrees.
CHSH_SETTINGS = ((0.0, 22.5), (0.0, 67.5), (45.0, 22.5), (45.0, 67.5))

#: Header of the count-record CSV (:func:`write_count_records`).
COUNT_RECORD_HEADER = ("label", "singles_alice_per_s", "singles_bob_per_s", "coincidences_per_s")


class NumericalError(ArithmeticError):
    """A count computation cannot proceed (zero denominator or the like)."""


class CountRecord(Record):
    """Singles and coincidence totals accumulated over ``duration`` seconds."""

    singles_alice: float
    singles_bob: float
    coincidences: float
    duration: float = 1.0

    def __post_init__(self):
        counts = (self.singles_alice, self.singles_bob, self.coincidences)
        if not all(0 <= n < math.inf for n in counts):
            raise ValueError("counts must be finite and non-negative")
        if not 0 < self.duration < math.inf:
            raise ValueError("duration must be positive and finite")
        if self.coincidences > min(self.singles_alice, self.singles_bob):
            raise ValueError("coincidences cannot exceed either singles count")

    @property
    def rates(self) -> tuple[float, float, float]:
        """(singles_alice, singles_bob, coincidences) per second."""
        return (
            self.singles_alice / self.duration,
            self.singles_bob / self.duration,
            self.coincidences / self.duration,
        )


class CountTable16(Record):
    """Coincidence counts over the 4x4 polarizer-setting grid.

    ``counts[i, j]`` belongs to ``ALICE_ANGLES[i]`` x ``BOB_ANGLES[j]``;
    the grid is fixed, not data, and ``alice_angles``/``bob_angles``
    read it.  ``accidentals`` holds the per-cell accidental-coincidence
    estimates subtracted before any correlation is formed.  Cells are
    finite and non-negative floats, which :func:`write_table_csv` writes
    in their shortest exact digits, so every table round-trips through
    its CSV exactly; no duration is kept, as ``S`` depends on the counts
    alone.
    """

    counts: np.ndarray
    accidentals: np.ndarray
    alice_angles = ALICE_ANGLES
    bob_angles = BOB_ANGLES

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=float)
        accidentals = np.asarray(self.accidentals, dtype=float)
        if counts.shape != (4, 4) or accidentals.shape != (4, 4):
            raise ValueError("count and accidental tables must be 4x4")
        cells = np.stack([counts, accidentals])
        if not np.all((0 <= cells) & (cells < np.inf)):
            raise ValueError("counts and accidentals must be finite and non-negative")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "accidentals", accidentals)

    def corrected(self) -> np.ndarray:
        """Accidental-subtracted counts, floored at zero cell-wise."""
        return np.clip(self.counts - self.accidentals, 0.0, None)


class ChshResult(Record):
    """Correlations at :data:`CHSH_SETTINGS`, their sigmas, and the CHSH combination."""

    E_values: tuple[float, float, float, float]
    E_sigmas: tuple[float, float, float, float]
    S: float
    S_sigma: float


DEGRADATION_COLUMNS = ("singles_alice", "singles_bob", "coincidences")


class DegradationResult(Record):
    """With-rotation / without-rotation rate ratios, one per count column."""

    ratios: tuple[float, float, float]
    sigmas: tuple[float, float, float]


class Calibration(Record):
    pair_rate: float
    efficiency_alice: float
    efficiency_bob: float


def dark_subtract(raw: CountRecord, dark: CountRecord) -> CountRecord:
    """Subtract dark rates column-wise, flooring at zero.

    Rates are normalized per second first, so the records may carry
    different durations; the result keeps ``raw``'s duration.  The
    coincidence column is additionally capped at the singles columns so
    the record invariant survives pathological inputs.
    """
    raw_rates = raw.rates
    dark_rates = dark.rates
    sa, sb, c = (
        max(r - d, 0.0) * raw.duration for r, d in zip(raw_rates, dark_rates)
    )
    return CountRecord(sa, sb, min(c, sa, sb), raw.duration)


def degradation_ratio(
    with_rotation: CountRecord, without: CountRecord, dark: CountRecord
) -> DegradationResult:
    """Per-column ratio of dark-subtracted rates, with Poisson sigmas.

    The variance of each dark-subtracted rate is (raw + dark)/duration
    using each record's own duration, propagated through the quotient.
    """
    num = dark_subtract(with_rotation, dark)
    den = dark_subtract(without, dark)
    ratios = []
    sigmas = []
    for col in range(3):
        x = num.rates[col]
        y = den.rates[col]
        if y == 0:
            raise NumericalError(
                f"degradation denominator ({DEGRADATION_COLUMNS[col]})"
                " is zero after dark subtraction"
            )
        var_x = with_rotation.rates[col] / with_rotation.duration + dark.rates[col] / dark.duration
        var_y = without.rates[col] / without.duration + dark.rates[col] / dark.duration
        ratio = x / y
        sigma = math.sqrt(var_x / y**2 + x**2 * var_y / y**4)
        ratios.append(ratio)
        sigmas.append(sigma)
    return DegradationResult(ratios=tuple(ratios), sigmas=tuple(sigmas))


def calibrate_from_counts(record: CountRecord, dark: CountRecord) -> Calibration:
    """Infer pair rate and efficiencies from one polarizer-free run.

    With corrected rates S_a, S_b, C and independent per-arm losses,
    C/S_b recovers alice's efficiency, C/S_a bob's, and S_a*S_b/C the
    source pair rate.
    """
    corrected = dark_subtract(record, dark)
    s_a, s_b, c = corrected.rates
    if c <= 0:
        raise NumericalError("coincidence rate is zero after dark subtraction")
    return Calibration(
        pair_rate=s_a * s_b / c,
        efficiency_alice=c / s_b,
        efficiency_bob=c / s_a,
    )


def accidental_rate(r1: float, r2: float, window: float, convention: str) -> float:
    """Expected accidental-coincidence rate from two singles rates.

    ``single`` gives r1*r2*window, ``double`` gives r1*r2*2*window (a
    detection on either side may open the window).
    """
    if r1 < 0 or r2 < 0:
        raise ValueError("singles rates must be non-negative")
    factor = ACCIDENTAL_FACTORS.get(convention)
    if factor is None:
        raise ValueError(f"unknown accidental convention {convention!r}")
    return r1 * r2 * factor * window


def correlation_E(c_ab, c_aperp_bperp, c_a_bperp, c_aperp_b) -> tuple[float, float]:
    """Correlation and Poisson sigma from one quadruple of corrected counts.

    With agree = c_ab + c_a'b' and disagree = c_ab' + c_a'b, the
    estimator is (agree - disagree)/total.  Each count carries variance
    equal to itself, and d E/d c is +2*disagree/total^2 for an agreeing
    count and -2*agree/total^2 for a disagreeing one, so the variance is
    (2*disagree/total^2)^2 * agree + (2*agree/total^2)^2 * disagree,
    which equals 4 * agree * disagree / total^3.
    """
    counts = (c_ab, c_aperp_bperp, c_a_bperp, c_aperp_b)
    if min(counts) < 0:
        raise ValueError("corrected counts must be non-negative")
    agree = c_ab + c_aperp_bperp
    disagree = c_a_bperp + c_aperp_b
    total = agree + disagree
    if total <= 0:
        raise NumericalError("correlation estimator needs at least one count")
    e = (agree - disagree) / total
    # Kept in this derivative form: 4*agree*disagree/total**3 rounds
    # differently in the last bit for many quadruples, which would change
    # the written sigmas.
    var = (2.0 * disagree / total**2) ** 2 * agree + (2.0 * agree / total**2) ** 2 * disagree
    return e, math.sqrt(var)


def chsh_S(table: CountTable16) -> ChshResult:
    """CHSH statistic from a 16-setting count table.

    Accidentals are subtracted cell-wise (floored at zero), each of the
    four correlations at :data:`CHSH_SETTINGS` is estimated by
    :func:`correlation_E` from its quadruple of cells using the +90
    degree partner settings, and the four Poisson sigmas combine in
    quadrature.  A quadruple whose counts the accidental estimate removes
    entirely is refused with its raw and corrected totals.
    """
    corrected = table.corrected()

    def quadruple(counts, alice: float, bob: float) -> list[float]:
        # The +90 partners of CHSH_SETTINGS are exact floats on the grid.
        pairs = ((alice, bob), (alice + 90.0, bob + 90.0), (alice, bob + 90.0), (alice + 90.0, bob))
        return [float(counts[ALICE_ANGLES.index(a % 180.0), BOB_ANGLES.index(b % 180.0)])
                for a, b in pairs]

    e_values = []
    e_sigmas = []
    for alice, bob in CHSH_SETTINGS:
        cells = quadruple(corrected, alice, bob)
        try:
            e, sigma = correlation_E(*cells)
        except NumericalError as exc:
            raw, why = sum(quadruple(table.counts, alice, bob)), ""
            if raw > 0:
                why = (f": raw total {format_number(raw)}, corrected total "
                       f"{format_number(sum(cells))}; the accidental estimate removed them")
            raise NumericalError(f"{exc} at ({alice}, {bob}){why}") from exc
        e_values.append(e)
        e_sigmas.append(sigma)
    s = abs(e_values[0] - e_values[1]) + abs(e_values[2] + e_values[3])
    s_sigma = math.sqrt(sum(sig**2 for sig in e_sigmas))
    return ChshResult(
        E_values=tuple(e_values),
        E_sigmas=tuple(e_sigmas),
        S=s,
        S_sigma=s_sigma,
    )


# ---------------------------------------------------------------------------
# File formats


def format_number(x: float) -> str:
    """The shortest digits that read back as exactly ``x``, with no exponent
    (whose ``-`` would split a ``count-accidental`` cell) and -0.0 as 0."""
    return np.format_float_positional(float(x) + 0.0, trim="-")


def write_count_records(rows, path) -> None:
    """Write labeled CountRecords as CSV rows of per-second rates, which
    :func:`read_count_records` reads back exactly.

    ``rows`` is an iterable of (label, CountRecord).
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COUNT_RECORD_HEADER)
        for label, record in rows:
            writer.writerow([label, *(format_number(r) for r in record.rates)])


def read_count_records(path) -> dict[str, CountRecord]:
    """Read the CSV written by :func:`write_count_records`; rates become
    counts over a 1 s duration.  A repeated label is refused."""
    records: dict[str, CountRecord] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != COUNT_RECORD_HEADER:
            raise ValueError(f"count-record CSV must start with header {COUNT_RECORD_HEADER}")
        for row in reader:
            if not row or not any(cell.strip() for cell in row):
                continue
            if len(row) != 4:
                raise ValueError(f"malformed count-record row: {row!r}")
            label = row[0].strip()
            if label in records:
                raise ValueError(f"count-record CSV repeats label {label!r}")
            try:
                sa, sb, c = (float(cell) for cell in row[1:])
            except ValueError as exc:
                raise ValueError(f"malformed count-record row: {row!r}") from exc
            records[label] = CountRecord(sa, sb, c, duration=1.0)
    return records


def _parse_combined_cell(text: str) -> tuple[float, float]:
    # "226-5" -> count 226, accidental 5; counts are non-negative so the
    # first "-" is always the separator.
    parts = text.strip().split("-", 1)
    if len(parts) != 2:
        raise ValueError(f"malformed cell {text!r}; expected 'count-accidental'")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ValueError(f"malformed cell {text!r}") from exc


def read_table_csv(path) -> CountTable16:
    """Parse the one table layout, the one :func:`write_table_csv` writes.

    The header is ``bob_angle`` and the alice angles, and each of the
    four rows is a bob angle and its ``count-accidental`` cells (e.g.
    ``226-5``).  The angles must be :data:`ALICE_ANGLES` and
    :data:`BOB_ANGLES` in that order; any other grid, a permuted one
    included, is refused.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    if not rows or rows[0][0].strip() != "bob_angle" or len(rows[0]) != 5:
        raise ValueError(f"{path}: table CSV must start with 'bob_angle,<four alice angles>'")
    if len(rows) != 5 or any(len(row) != 5 for row in rows):
        raise ValueError(f"{path}: expected 4 data rows of 5 columns after the header")
    try:
        alice = tuple(float(c) for c in rows[0][1:])
        bob = tuple(float(row[0]) for row in rows[1:])
    except ValueError as exc:
        raise ValueError(f"{path}: malformed angle label: {exc}") from exc
    if alice != ALICE_ANGLES or bob != BOB_ANGLES:
        raise ValueError(
            f"{path}: angle grid must be alice {ALICE_ANGLES} by bob {BOB_ANGLES}"
            f" in that order, got alice {alice} by bob {bob}"
        )
    cells = np.array([[_parse_combined_cell(row[1 + i]) for row in rows[1:]] for i in range(4)])
    return CountTable16(counts=cells[..., 0], accidentals=cells[..., 1])


def write_table_csv(table: CountTable16, path) -> None:
    """Write the single-file ``count-accidental`` layout, which
    :func:`read_table_csv` reads back exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bob_angle"] + [format_number(a) for a in ALICE_ANGLES])
        for j, bob in enumerate(BOB_ANGLES):
            row = [format_number(bob)]
            for i in range(4):
                row.append(
                    f"{format_number(table.counts[i, j])}-"
                    f"{format_number(table.accidentals[i, j])}"
                )
            writer.writerow(row)


# ---------------------------------------------------------------------------
# Reports


def format_chsh_text(result: ChshResult) -> str:
    """Human-readable correlation/CHSH report."""
    lines = [f"{'setting (alice, bob)':<24}{'E':>10}{'sigma':>10}"]
    for (alice, bob), e, sig in zip(CHSH_SETTINGS, result.E_values, result.E_sigmas):
        label = f"({format_number(alice)}, {format_number(bob)})"
        lines.append(f"{label:<24}{e:>+10.4f}{sig:>10.4f}")
    lines.append(f"S = {result.S:.4f} +/- {result.S_sigma:.4f}")
    return "\n".join(lines) + "\n"


def write_chsh_csv(result: ChshResult, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quantity", "alice_angle", "bob_angle", "value", "sigma"])
        for (alice, bob), e, sig in zip(CHSH_SETTINGS, result.E_values, result.E_sigmas):
            writer.writerow(
                ["E", format_number(alice), format_number(bob), repr(e), repr(sig)]
            )
        writer.writerow(["S", "", "", repr(result.S), repr(result.S_sigma)])
