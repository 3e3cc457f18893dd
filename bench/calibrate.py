"""Host speed, measured with a fixed kernel that does not touch the program.

The benchmark's host is shared, and its speed moves by up to a factor of
two for minutes at a time (the same pure-Python loop takes 1.4 s or 2.0 s
depending on what else the machine runs).  A run therefore times this
kernel next to the program and reports every time scaled to a reference
speed:

    reported = measured * REFERENCE_S / (median kernel time in the same round)

The kernel mixes the kinds of work the program does (a small-int loop,
big-int multiply and divide, tuples in a dict, int-to-str and join), so a
slower host slows both alike and the ratio stays put.  REFERENCE_S is the
kernel's time on the 2-vCPU host the benchmark was written on (Python
3.11.7) when that host was quiet; it only sets the scale, so scaled times
read as seconds on that quiet host.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.0100


def sample() -> float:
    """Seconds the kernel takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += (i * i) % 7
    x = 3**3000
    for _ in range(600):
        x = x * 1234567 // 7
    table = {}
    for i in range(10000):
        table[(i, i + 1)] = str(i * i)
    ",".join(table.values())
    return time.perf_counter() - start
