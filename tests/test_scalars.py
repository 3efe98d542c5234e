"""Field laws and grammar round trips for the exact scalar type."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confsalg.scalars import (Scalar, GaussRat, ZERO, ONE, IMAG, ALPHA,
                              parse, ScalarParseError, _padd, _pmul)


def test_constants():
    assert ZERO + ONE == ONE
    assert IMAG * IMAG == -ONE
    assert ALPHA != IMAG
    assert not ZERO
    assert ONE


def test_parse_basic():
    assert parse("3") == Scalar.from_int(3)
    assert parse("-1/2") == Scalar.from_fraction(Fraction(-1, 2))
    assert parse("i") == IMAG
    assert parse("a") == ALPHA
    assert parse("i*i") == -ONE
    assert parse("(1+a)^2") == (ONE + ALPHA) * (ONE + ALPHA)
    assert parse("1/(1-a)") == (ONE - ALPHA).inv()


def test_parse_rejects_garbage():
    for bad in ("", "1+", "b", "2**3", "((1)"):
        with pytest.raises(ScalarParseError):
            parse(bad)


@pytest.mark.parametrize("text", [
    "(" * 2000 + "1" + ")" * 2000,      # nesting
    "-" * 2000 + "1",
    "((1+a)^9)^9",                      # compounded powers
    "(1+a)^400",
    "((2^64)^64)^64",                   # constant height
    "2^" + "9" * 30,
    "9" * 1001,
    "a^9*a^9",                          # degree past the cap by products
    "1/0", "0^-1",
])
def test_parse_bounds(text):
    with pytest.raises(ScalarParseError):
        parse(text)


def test_parse_within_bounds():
    assert parse("((1+a)^2)^3") == (ONE + ALPHA) ** 6
    assert parse("a^16") == ALPHA ** 16
    assert parse("2^64") == Scalar.from_int(2 ** 64)
    assert parse("(" * 50 + "1" + ")" * 50) == ONE


def test_str_round_trip_samples():
    samples = [ZERO, ONE, -ONE, IMAG, ALPHA, ONE + IMAG,
               (ONE + ALPHA).inv(), ALPHA * ALPHA - ONE,
               (IMAG * ALPHA + ONE) / (ALPHA - IMAG)]
    for s in samples:
        assert parse(str(s)) == s


small = st.integers(min_value=-6, max_value=6)


@st.composite
def scalars(draw):
    re = draw(small)
    im = draw(small)
    d = draw(st.integers(min_value=1, max_value=4))
    base = Scalar.from_gauss(GaussRat(re, im, d))
    deg = draw(st.integers(min_value=0, max_value=2))
    out = base
    for _ in range(deg):
        out = out * ALPHA + Scalar.from_int(draw(small))
    return out


@given(scalars(), scalars(), scalars())
@settings(max_examples=80, deadline=None)
def test_ring_laws(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x - x == ZERO


gauss_constants = st.one_of(st.just(ONE), st.builds(
    lambda p, q, d: Scalar.from_gauss(GaussRat(p, q, d)),
    small, small, st.integers(min_value=1, max_value=4)))


@given(gauss_constants, gauss_constants)
@settings(max_examples=100, deadline=None)
def test_constant_fast_path_matches_general_path(x, y):
    prod = Scalar(_pmul(x.num, y.num), _pmul(x.den, y.den), _canon=True)
    total = Scalar(_padd(_pmul(x.num, y.den), _pmul(y.num, x.den)),
                   _pmul(x.den, y.den), _canon=True)
    assert x * y == prod and hash(x * y) == hash(prod)
    assert x + y == total and hash(x + y) == hash(total)
    assert x + (-x) is ZERO
    assert hash(x + (-x)) == hash(ZERO)


@given(scalars())
@settings(max_examples=60, deadline=None)
def test_inverse_and_round_trip(x):
    if x:
        assert x * x.inv() == ONE
    assert parse(str(x)) == x


@given(scalars(), st.integers(min_value=-5, max_value=5))
@settings(max_examples=60, deadline=None)
def test_substitution_is_a_homomorphism(x, n):
    v = Scalar.from_int(n)
    y = x * ALPHA + ONE
    assert (x + y).subs(v) == x.subs(v) + y.subs(v)
    assert (x * y).subs(v) == x.subs(v) * y.subs(v)
    assert ALPHA.subs(v) == v


def test_division_matches_fraction_arithmetic():
    a = Scalar.from_fraction(Fraction(3, 7))
    b = Scalar.from_fraction(Fraction(-2, 5))
    q = a / b
    assert q == Scalar.from_fraction(Fraction(3, 7) / Fraction(-2, 5))


def test_pow():
    x = ONE + ALPHA
    assert x ** 0 == ONE
    assert x ** 3 == x * x * x
    assert (x ** -2) * x * x == ONE
