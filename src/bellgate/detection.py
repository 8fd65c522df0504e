"""Avalanche-photodiode detection and hardware coincidence matching.

Each arm's detector keeps a photon with its quantum-efficiency
probability and adds an independent Poisson dark-count background.  The
coincidence matcher reproduces a counting card: two detections closer
than the window form one coincidence, each detection used at most once,
matched greedily in time order.  Dark and accidental coincidences are
not injected anywhere; they emerge from the matcher like they do in
hardware.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .sources import _as_rng


@dataclass(frozen=True)
class DetectorConfig:
    """Per-arm APD characteristics plus the shared coincidence window."""

    efficiency_alice: float
    efficiency_bob: float
    dark_rate_alice: float = 0.0
    dark_rate_bob: float = 0.0
    coincidence_window: float = 20e-9

    def __post_init__(self):
        if not 0.0 < self.efficiency_alice <= 1.0:
            raise ValueError("alice efficiency must lie in (0, 1]")
        if not 0.0 < self.efficiency_bob <= 1.0:
            raise ValueError("bob efficiency must lie in (0, 1]")
        if self.dark_rate_alice < 0 or self.dark_rate_bob < 0:
            raise ValueError("dark rates must be non-negative")
        if not self.coincidence_window > 0:
            raise ValueError("coincidence window must be positive")

    @property
    def pair_keep_probability(self) -> float:
        """Probability that at least one detector keeps a pair reaching both slits."""
        return 1.0 - (1.0 - self.efficiency_alice) * (1.0 - self.efficiency_bob)


@dataclass(frozen=True)
class CountRecord:
    """Singles and coincidence totals accumulated over ``duration`` seconds."""

    singles_alice: float
    singles_bob: float
    coincidences: float
    duration: float = 1.0

    def __post_init__(self):
        if min(self.singles_alice, self.singles_bob, self.coincidences) < 0:
            raise ValueError("counts must be non-negative")
        if not self.duration > 0:
            raise ValueError("duration must be positive")
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


def detection_pattern(n: int, det: DetectorConfig, rng):
    """Which detectors fire, for ``n`` pairs that at least one detector keeps.

    The arms keep photons independently, so given at least one detection
    the pattern is alice only, both or bob only with probabilities
    e_a(1-e_b)/k, e_a*e_b/k and (1-e_a)e_b/k, where k is
    :attr:`DetectorConfig.pair_keep_probability`.  Returns the boolean
    arrays (alice_kept, bob_kept).
    """
    u = rng.random(n) * det.pair_keep_probability
    return u < det.efficiency_alice, u >= det.efficiency_alice * (1.0 - det.efficiency_bob)


def thin_times(times, efficiency: float, rng) -> np.ndarray:
    """Keep each timestamp independently with the given probability."""
    times = np.asarray(times, dtype=float)
    if efficiency >= 1.0:
        return times
    return times[rng.random(times.size) < efficiency]


def dark_times(rate: float, duration: float, rng) -> np.ndarray:
    """Sorted dark-count timestamps: a Poisson process on [0, duration)."""
    if rate <= 0 or duration <= 0:
        return np.empty(0, dtype=float)
    n = int(rng.poisson(rate * duration))
    return np.sort(rng.random(n) * duration)


def detect(alice_arrivals, bob_arrivals, det: DetectorConfig, duration: float, seed):
    """Run both arms' detectors over ``[0, duration)``.

    Each arriving photon is kept with its arm's efficiency; dark events
    are added as an independent Poisson background per arm.  Returns the
    two time-sorted detection streams (alice, bob).
    """
    rng = _as_rng(seed)
    alice = thin_times(alice_arrivals, det.efficiency_alice, rng)
    bob = thin_times(bob_arrivals, det.efficiency_bob, rng)
    alice = np.sort(np.concatenate([alice, dark_times(det.dark_rate_alice, duration, rng)]))
    bob = np.sort(np.concatenate([bob, dark_times(det.dark_rate_bob, duration, rng)]))
    return alice, bob


def match_coincidences(alice_times, bob_times, window: float) -> int:
    """Count one-to-one coincidences with |t_alice - t_bob| < window.

    Greedy earliest-first sweep over the two sorted streams; each
    detection participates in at most one coincidence.  Raises on
    unsorted input.
    """
    a = np.asarray(alice_times, dtype=float)
    b = np.asarray(bob_times, dtype=float)
    if a.size > 1 and np.any(np.diff(a) < 0):
        raise ValueError("alice timestamps are not sorted")
    if b.size > 1 and np.any(np.diff(b) < 0):
        raise ValueError("bob timestamps are not sorted")
    # Plain-list two-pointer sweep; much faster than ndarray scalar indexing.
    a_list = a.tolist()
    b_list = b.tolist()
    n_a, n_b = len(a_list), len(b_list)
    i = j = matched = 0
    while i < n_a and j < n_b:
        dt = a_list[i] - b_list[j]
        if dt <= -window:
            i += 1
        elif dt >= window:
            j += 1
        else:
            matched += 1
            i += 1
            j += 1
    return matched


def count_run(alice_times, bob_times, det: DetectorConfig, duration: float, seed) -> CountRecord:
    """Detect both arms and match, returning the summary CountRecord."""
    alice, bob = detect(alice_times, bob_times, det, duration, seed)
    coinc = match_coincidences(alice, bob, det.coincidence_window)
    return CountRecord(alice.size, bob.size, coinc, duration)


def write_count_records(rows, path) -> None:
    """Write labeled CountRecords as CSV rows of per-second rates.

    ``rows`` is an iterable of (label, CountRecord).
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["label", "singles_alice_per_s", "singles_bob_per_s", "coincidences_per_s"]
        )
        for label, record in rows:
            writer.writerow([label, *(f"{r:g}" for r in record.rates)])


def read_count_records(path) -> dict[str, CountRecord]:
    """Read the CSV written by :func:`write_count_records`; rates become
    counts over a 1 s duration."""
    expected = ["label", "singles_alice_per_s", "singles_bob_per_s", "coincidences_per_s"]
    records: dict[str, CountRecord] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != expected:
            raise ValueError(f"count-record CSV must start with header {expected}")
        for row in reader:
            if not row or not any(cell.strip() for cell in row):
                continue
            if len(row) != 4:
                raise ValueError(f"malformed count-record row: {row!r}")
            label = row[0].strip()
            try:
                sa, sb, c = (float(cell) for cell in row[1:])
            except ValueError as exc:
                raise ValueError(f"malformed count-record row: {row!r}") from exc
            records[label] = CountRecord(sa, sb, c, duration=1.0)
    return records
