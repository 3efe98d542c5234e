"""Scalar microbenchmarks: the cost of one field operation, in microseconds.

`_const` operands are rational constants, the case of 8 of the 9 catalog
algebras; `_sym` operands are rational functions of the parameter a, the
case of N4alpha.  GaussRat and Fraction products are reference floors that
no change to Scalar moves.  Each figure is the median of REPEATS timed
loops, each sized to last about LOOP_S seconds, rescaled to the nominal
machine speed by reference loops (perfbench/speed.py) timed between them.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

import speed
from confsalg.scalars import GaussRat, Scalar, parse

REPEATS = 7
LOOP_S = 0.02

# literals as they appear in the product tables of the golden files and
# of N4alpha
LITERALS = ("-1/2", "3/2", "i", "-2*i", "(1-a)/2", "a^2-1", "(1+2*i)*a",
            "(1-a^2)/(1+a)")


def _loop_s(fn, args, n: int) -> float:
    t0 = time.perf_counter()
    for _ in range(n):
        fn(*args)
    return time.perf_counter() - t0


def _time_us(fn, *args) -> float:
    n = max(1, int(LOOP_S * 10 / _loop_s(fn, args, 10)))
    times, samples = [], [speed.sample()]
    for _ in range(REPEATS):
        times.append(_loop_s(fn, args, n) / n * 1e6)
        samples.append(speed.sample())
    return speed.scale(statistics.median(times), samples)


def _parse_all():
    for text in LITERALS:
        parse(text)


def run() -> dict:
    x = Scalar.from_fraction(Fraction(3, 7))
    y = Scalar.from_fraction(Fraction(-5, 11))
    u = parse("(1+2*a)/(3-a)")
    v = parse("(2-a^2)/5")
    g, h = GaussRat(3, 1, 7), GaussRat(-5, 2, 11)
    f, e = Fraction(3, 7), Fraction(-5, 11)
    q = Fraction(-22, 7)
    return {
        "scalars.mul_const_us": _time_us(x.__mul__, y),
        "scalars.add_const_us": _time_us(x.__add__, y),
        "scalars.from_fraction_us": _time_us(Scalar.from_fraction, q),
        "scalars.mul_sym_us": _time_us(u.__mul__, v),
        "scalars.add_sym_us": _time_us(u.__add__, v),
        "scalars.div_sym_us": _time_us(u.__truediv__, v),
        "scalars.parse_us": _time_us(_parse_all) / len(LITERALS),
        "scalars.gaussrat_mul_us": _time_us(g.__mul__, h),
        "scalars.fraction_mul_us": _time_us(f.__mul__, e),
    }
