"""A fixed reference loop that measures how fast the machine runs right now.

The benchmark is meant for small shared machines, whose speed drifts:
on the 2-vCPU VM it was defined on, a fixed pure-Python loop switched
between two speeds about 1.35 times apart several times a second, and
the share of time at the slower one changed in phases of seconds to
tens of seconds.  A round's time divided by the time of this loop in
and around it, times ``REFERENCE_S``, is the round's time at the
reference speed: a change in the program moves it, a change in the
machine's speed mostly does not.  ``run.py`` runs the loop in its own
process, while the measured worker is paused.

The loop is pure Python of the kinds the program's hot paths are made
of (small-int arithmetic, Fraction arithmetic, building tuples, strings
and dicts, and a product of sparse polynomials held as dicts of exponent
tuples) but shares no code with it, so no change to the program can
move it.  One sample runs long enough (about 80 ms) to average over the
fast switches, and keeps the collector off.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# Time of one pass of the loop at the reference speed: about its median on
# the 2-vCPU VM the benchmark was defined on (CPython 3.11).
REFERENCE_S = 0.020
# passes of the loop in one ``sample()``, and the sizes of its parts
PASSES = 4
INT_LOOPS, FRACTION_LOOPS, ALLOC_LOOPS, PRODUCT_LOOPS = 60_000, 500, 40, 3


def _polynomial(seed, terms):
    """A sparse 7-variable polynomial with small Fraction coefficients."""
    out = {}
    x = seed
    for _ in range(terms):
        x = (x * 1103515245 + 12345) % 2**31
        exponents = tuple((x >> (3 * k)) % 3 for k in range(7))
        coeff = Fraction(x % 7 - 3, 1 + (x >> 21) % 3)
        out[exponents] = out.get(exponents, Fraction(0)) + coeff
    return out


_LEFT = _polynomial(1, 16)
_RIGHT = _polynomial(2, 16)


def _loop():
    total = 0
    for i in range(INT_LOOPS):
        total += i * i % 7
    x, acc = Fraction(1, 3), Fraction(0)
    for i in range(FRACTION_LOOPS):
        acc += x * i / (i + 1)
    for _ in range(ALLOC_LOOPS):
        table = dict((i, str(i)) for i in range(400))
    for _ in range(PRODUCT_LOOPS):
        product = {}
        for ea, ca in _LEFT.items():
            for eb, cb in _RIGHT.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                value = product.get(key, Fraction(0)) + ca * cb
                if value:
                    product[key] = value
                else:
                    product.pop(key, None)
    return total, acc, table, product


def sample() -> float:
    """Seconds one pass of the reference loop takes now: the mean of the
    fastest ``PASSES - 1`` of ``PASSES`` passes, so that one pass caught
    by a momentary stall does not read as a slow phase."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(PASSES):
            start = perf_counter()
            _loop()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return sum(sorted(times)[:-1]) / (PASSES - 1)
