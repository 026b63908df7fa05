"""Host speed probe: a fixed piece of pure-Python work, timed between cases.

On a host shared with other tenants the same pass can run 30% slower for
a minute and then recover, so raw pass times of the same code spread
widely between runs.  The probe below does a fixed amount of work of the
kinds favard does (rational matrix products with growing integers, dict
and integer arithmetic) and never touches favard, so its time moves with
the host and not with the program.  The benchmark probes before every
set-up and case and after it, and scales each by ``REFERENCE_S`` over the
mean of its two probes, which gives it at the reference host speed.  A
probe catches the host's speed level of one moment, so a scaled case is
still off when the level changed during it; medians over repeated
samples drop those.

REFERENCE_S is the mean probe time, over 300 probes, on the 2-core x86 VM
(Python 3.11) the benchmark was defined on; it only sets the scale of the
reported seconds, not their ratios.
"""

import time
from fractions import Fraction

REFERENCE_S = 0.059
_N = 10
_MATRIX = [[Fraction(i * j + 1, i + j + 1) for j in range(_N)] for i in range(_N)]


def _work():
    a = _MATRIX
    for _ in range(8):
        [[sum(a[i][k] * a[k][j] for k in range(_N)) for j in range(_N)] for i in range(_N)]
    table = {}
    for i in range(80000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i * i
    return table


def probe():
    """Seconds the fixed work takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def scale(seconds, before, after):
    """seconds at the reference host speed, from the probes that bracket them."""
    return seconds * 2 * REFERENCE_S / (before + after)
