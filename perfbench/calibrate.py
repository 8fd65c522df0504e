"""Time a fixed kernel that stands for the host's speed, once per input line.

Usage: python3 calibrate.py  (then write one line per timing wanted)

For every line read from standard input, runs the kernel and prints its
time in seconds; ends at end of input.  The kernel does, on fixed inputs,
the kinds of work ``bellgate simulate`` does: numpy draws, cumulative
sums, masks, concatenation, sorting and searching over a few million
floats, then a pure-Python two-pointer walk like the coincidence
matcher's.  It uses nothing from ``bellgate``, so no change to the
program moves it.  One untimed call first warms the process's heap, so
that the timings do not include first-touch page faults.  The helper is
a process of its own so that its arrays never enlarge the benchmark
client, whose resident set a forked ``simulate`` child would report as
its own peak.
"""

import sys
import time

import numpy as np


def kernel() -> float:
    rng = np.random.default_rng(12345)
    began = time.perf_counter()
    for _ in range(3):
        t = np.cumsum(rng.exponential(1.0, 2_000_000))
        kept = np.sort(np.concatenate([t[(t % 7.0) < 1.0], rng.random(500_000) * t[-1]]))
        np.searchsorted(kept, t[::4])
    a, b = t[:150_000:2].tolist(), t[1:150_000:2].tolist()
    i = j = 0
    while i < len(a) and j < len(b):
        if abs(a[i] - b[j]) < 0.5:
            i += 1
            j += 1
        elif a[i] < b[j]:
            i += 1
        else:
            j += 1
    return time.perf_counter() - began


kernel()
for _ in sys.stdin:
    print(kernel(), flush=True)
