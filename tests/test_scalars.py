"""Field laws and grammar round trips for the exact scalar type."""
import os
import pickle
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import confsalg
from confsalg import scalars as scalars_mod
from confsalg.scalars import (Scalar, GaussRat, ZERO, ONE, MINUS_ONE, IMAG,
                              ALPHA, parse, ScalarParseError, _padd, _pmul)


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
    if y:
        quot = Scalar(_pmul(x.num, y.den), _pmul(x.den, y.num), _canon=True)
        assert x / y == quot and hash(x / y) == hash(quot)
    with pytest.raises(ZeroDivisionError):
        x / ZERO


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


# -- value keys and the operation tables -----------------------------------


@st.composite
def quotients(draw):
    """Constants, polynomials and rational functions of a."""
    den = draw(scalars())
    return draw(scalars()) / (den if den else ONE)


def _same(x, y):
    """x and y are the same canonical value, compared without keys."""
    return x.num == y.num and x.den == y.den and hash(x) == hash(y)


@contextmanager
def _room(n=64):
    """n more keys and n more entries in each operation table, for values
    made inside the block; earlier tests may have filled the tables.  Keys
    are still assigned in order, so none is reused."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scalars_mod, "KEY_CAP", len(scalars_mod._KEYED) + n)
        mp.setattr(scalars_mod, "OP_CAP", n + max(len(scalars_mod._ADD),
                                                  len(scalars_mod._MUL)))
        yield


def _copy(x):
    """A new Scalar of x's value, keyed if the value has room."""
    return Scalar(x.num, x.den)


@given(quotients(), quotients())
@settings(max_examples=150, deadline=None)
def test_tables_match_the_reference_path(x, y):
    with _room():
        x, y = _copy(x), _copy(y)
        for _ in range(2):          # the second round reads the tables
            assert _same(x * y, x._mul(y)) and x * y == x._mul(y)
            assert _same(x + y, x._add(y)) and x + y == x._add(y)
            assert _same(x - y, x._add(y._mul(MINUS_ONE)))
            assert _same(-x, x._mul(MINUS_ONE)) and -x == x._mul(MINUS_ONE)


@given(quotients(), quotients())
@settings(max_examples=60, deadline=None)
def test_keyed_and_unkeyed_copies_agree(x, y):
    with _room():
        x = _copy(x)
        assume(x.key is not None)
        u = _copy(x)
        u.key = None
        assert u == x and x == u and hash(u) == hash(x)
        assert (u == y) == (x == y)
        assert _same(u * y, x * y) and _same(y + u, y + x)


def _fresh(n=1):
    """A constant whose value has no key yet."""
    while (n, 0, 4091) in scalars_mod._KEYS:
        n += 1
    return Scalar.from_gauss(GaussRat(n, 0, 4091))


@given(quotients())
@settings(max_examples=30, deadline=None)
def test_full_key_table_leaves_new_values_unkeyed(x):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scalars_mod, "KEY_CAP", len(scalars_mod._KEYED))
        z = _fresh()
        assert z.key is None
        w = z * z + IMAG
        assert w.key is None
        for y in (x, ONE, z, w):
            assert _same(z * y, z._mul(y)) and _same(y * z, y._mul(z))
            assert _same(z + y, z._add(y)) and _same(y + z, y._add(z))
            assert (z == y) == _same(z, y)


def test_high_values_get_no_key():
    with _room():
        big = Scalar.from_int(2 ** 40)
        assert big.key is None
        assert (big * ALPHA + ONE).key is None
        assert Scalar.from_int(scalars_mod.KEY_HEIGHT).key is None
        assert Scalar.from_int(scalars_mod.KEY_HEIGHT - 1).key is not None
        for y in (ONE, IMAG, ALPHA, big):
            assert _same(big * y, big._mul(y))
            assert _same(big + y, big._add(y))
        assert big * Scalar.from_fraction(Fraction(1, 2 ** 40)) == ONE
        assert big - big == ZERO


def _python(script):
    src = os.path.dirname(os.path.dirname(confsalg.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, check=True).stdout


def test_keys_do_not_leave_the_process():
    """A Scalar pickled with a large key is re-keyed by the interpreter
    that unpickles it."""
    data = _python(
        "import pickle, sys\n"
        "from confsalg.scalars import Scalar, parse\n"
        "for n in range(300):\n"
        "    Scalar.from_int(1000 + n)\n"
        "x = parse('(7*a+3)/(a-5)')\n"
        "assert x.key >= 300, x.key\n"
        "sys.stdout.buffer.write(pickle.dumps((str(x), x)))\n")
    out = _python(
        "import pickle\n"
        "from confsalg.scalars import parse, ONE, IMAG, ALPHA\n"
        "text, x = pickle.loads(bytes.fromhex(%r))\n"
        "y = parse(text)\n"
        "assert x == y and y == x and hash(x) == hash(y)\n"
        "assert x.key == y.key\n"
        "assert x + ONE == parse('(%%s)+1' %% text)\n"
        "assert x * IMAG == parse('(%%s)*i' %% text)\n"
        "assert ALPHA * x - x * ALPHA == parse('0')\n"
        "print('ok')\n" % data.hex())
    assert out == b"ok\n"


def test_full_tables_stay_within_the_memory_bound():
    """Fill the key table with the longest and highest values it admits and
    both operation tables to their caps; the growth traced by tracemalloc
    stays within the 2 MiB that the module docstring states."""
    out = _python(
        "import gc, tracemalloc\n"
        "tracemalloc.start()\n"
        "from confsalg import scalars as s\n"
        "from confsalg.scalars import Scalar, GaussRat, ZERO, ONE\n"
        "gc.collect()\n"
        "base = tracemalloc.get_traced_memory()[0]\n"
        "h = s.KEY_HEIGHT - 1\n"
        "terms = s.KEY_INTS // 3\n"
        "values = []\n"
        "n = 0\n"
        "while len(s._KEYED) < s.KEY_CAP:\n"
        "    n += 1\n"
        "    v = Scalar(tuple(GaussRat(h - n, k - h) for k in range(terms)))\n"
        "    assert v.key is not None and len(v.num) == terms\n"
        "    values += [v, -v]\n"
        "for v in values:\n"
        "    v + ZERO, ZERO + v, v + (-v), v * ONE, ONE * v, v * ZERO\n"
        "assert len(s._ADD) == len(s._MUL) == s.OP_CAP\n"
        "del values, v\n"
        "gc.collect()\n"
        "print(tracemalloc.get_traced_memory()[0] - base)\n")
    assert int(out) <= 2 * 2 ** 20
