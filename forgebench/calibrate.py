"""Machine-speed reference for the benchmark's timings.

On a shared 2-core virtual machine, identical code ran up to a third slower
in some minutes than in others: ten 20-second runs of `stage-chain` gave
work_per_s between 2815/s and 4118/s, a quartile spread of up to 0.33 of the
median.  To keep such phases out of the metrics, every timing is
bracketed by short slices of a fixed pure-Python computation that does not
touch the library, and scaled by NOMINAL_S / (mean time of the bracketing
slices).  Reported times are therefore seconds at the speed at which one
reference slice takes NOMINAL_S; a change to the library moves them, a
change in machine speed mostly does not.
"""

from __future__ import annotations

import time

NOMINAL_S = 0.0008  # one slice on a quiet core of a shared 2-core virtual machine
WINDOW_S = 0.02     # operations are timed in windows of at least this long

_CARRIER = tuple(f"r{i}" for i in range(48))
_TABLE = tuple(tuple((i * j + i + j) % 48 for j in range(48)) for i in range(48))


def reference_slice() -> int:
    """Carrier lookups and table reads, as the library's hot paths do.

    It creates one list and no other container, so it neither triggers the
    garbage collector nor moves the program's next collection."""
    acc = 0
    counts = [0] * (48 * 48)
    for k in range(700):
        i = _CARRIER.index(_CARRIER[(k * 7) % 48])
        row = _TABLE[i]
        base = i * 48
        for j in range(0, 48, 6):
            counts[base + row[j]] += 1
        acc += counts[base] + row[k % 48]
    return acc


def slice_seconds() -> float:
    t0 = time.perf_counter()
    reference_slice()
    return time.perf_counter() - t0
