"""Field laws and grammar round trips for the exact scalar type."""
import copy
import gc
import os
import pickle
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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


# -- interned values and the operation tables -------------------------------


@st.composite
def quotients(draw):
    """Constants, polynomials and rational functions of a."""
    den = draw(scalars())
    return draw(scalars()) / (den if den else ONE)


def _same(x, y):
    """x and y are the same canonical value, compared structurally."""
    return x.num == y.num and x.den == y.den


@contextmanager
def _room(n=64):
    """n more entries in each operation table, and room for their Scalars,
    before the tables are emptied, so that a value stored inside the block
    is still there on a second look."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scalars_mod, "OP_CAP", n + max(len(scalars_mod._ADD),
                                                  len(scalars_mod._MUL)))
        mp.setattr(scalars_mod, "HOLD_CAP", 3 * n + len(scalars_mod._HELD))
        yield


@given(quotients(), quotients())
@settings(max_examples=150, deadline=None)
def test_tables_match_the_reference_path(x, y):
    with _room():
        for _ in range(2):          # the second round reads the tables
            assert _same(x * y, x._mul(y)) and x * y == x._mul(y)
            assert _same(x + y, x._add(y)) and x + y == x._add(y)
            assert _same(x - y, x._add(y._mul(MINUS_ONE)))
            assert _same(-x, x._mul(MINUS_ONE)) and -x == x._mul(MINUS_ONE)


@given(quotients(), quotients())
@settings(max_examples=100, deadline=None)
def test_one_scalar_per_value(x, y):
    assert Scalar(x.num, x.den) is x
    assert Scalar(x.num, x.den, _canon=False) is x
    assert pickle.loads(pickle.dumps(x)) is x
    assert copy.copy(x) is x and copy.deepcopy(x) is x
    assert (x == y) == _same(x, y) and (x != y) != _same(x, y)
    assert (x + y) - y is x and (x * IMAG) * -IMAG is x


def _python(script):
    src = os.path.dirname(os.path.dirname(confsalg.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, check=True).stdout


def test_values_pickled_elsewhere_unpickle_to_the_live_scalar():
    """Values pickled by another interpreter, after it made other values
    and filled its tables, are this interpreter's Scalars of those values."""
    data = _python(
        "import pickle, sys\n"
        "from confsalg.scalars import Scalar, parse, ALPHA\n"
        "for n in range(3000):\n"
        "    Scalar.from_int(1000 + n) * ALPHA\n"
        "xs = [parse(t) for t in ('(7*a+3)/(a-5)', '2/3-i', 'a^2+a')]\n"
        "sys.stdout.buffer.write(pickle.dumps([(str(x), x) for x in xs]))\n")
    for text, x in pickle.loads(data):
        assert x is parse(text)
        assert x + ONE is parse("(%s)+1" % text)
        assert x * IMAG is parse("(%s)*i" % text)
        assert ALPHA * x - x * ALPHA is ZERO
        assert -x is parse("-(%s)" % text)


def _fresh(d=4091, n=1):
    """A constant n/d whose value has no live Scalar yet."""
    while (n, 0, d) in scalars_mod._LIVE:
        n += 1
    return Scalar.from_gauss(GaussRat(n, 0, d))


def test_dropped_values_leave_the_intern_table():
    x = _fresh()
    value = (x.num[0].p, 0, 4091)
    ref = scalars_mod._LIVE[value]
    assert ref() is x
    del x
    gc.collect()
    assert value not in scalars_mod._LIVE and ref() is None
    y = Scalar.from_gauss(GaussRat(value[0], 0, 4091))
    assert scalars_mod._LIVE[value]() is y
    scalars_mod._drop(ref)          # a late callback of the dead Scalar
    assert scalars_mod._LIVE[value]() is y


def test_high_and_long_values_enter_no_table(monkeypatch):
    big = Scalar.from_int(scalars_mod.KEY_HEIGHT)
    long = ALPHA ** (scalars_mod.KEY_INTS // 3)
    assert not big.small and not long.small and not (big * ALPHA).small
    assert Scalar.from_int(scalars_mod.KEY_HEIGHT - 1).small
    assert (ALPHA ** (scalars_mod.KEY_INTS // 3 - 1)).small
    for x in (big, long):
        for y in (ONE, IMAG, ALPHA, big):
            assert _same(x * y, x._mul(y)) and _same(x + y, x._add(y))
            assert (x, y) not in scalars_mod._MUL
            assert (x, y) not in scalars_mod._ADD
    assert big * Scalar.from_fraction(Fraction(1, scalars_mod.KEY_HEIGHT)) \
        is ONE
    assert big - big is ZERO
    # the negative of a quotient takes no gcd
    q = (big * ALPHA + ONE) / (ALPHA - big)
    monkeypatch.setattr(scalars_mod, "_pgcd", None)
    assert _same(-q, Scalar(tuple(-c for c in q.num), q.den, _canon=False))
    assert -(-q) is q


def test_full_tables_are_emptied_not_frozen():
    """Once a table is full, or its entries keep HOLD_CAP Scalars alive, a
    new small result still goes in, and the tables keep no more."""
    keep = [Scalar.from_fraction(Fraction(k, 4093)) for k in range(2000)]
    assert len(keep) == len(set(keep)) == 2000
    x = _fresh()
    y = _fresh(n=x.num[0].p + 1)
    total = x + y
    assert scalars_mod._ADD[x, y] is total
    for m in range(1, scalars_mod.OP_CAP + 2):
        z = _fresh(4079, m)
        product = z * IMAG
        assert len(scalars_mod._HELD) <= scalars_mod.HOLD_CAP
    assert scalars_mod._MUL[z, IMAG] is product
    for u in keep[:64]:             # 4,096 sums of under 200 values
        for w in keep[:64]:
            total = u + w
    assert scalars_mod._ADD[u, w] is total
    held = {v for table in (scalars_mod._ADD, scalars_mod._MUL)
            for pair, out in table.items() for v in (*pair, out)}
    assert held <= scalars_mod._HELD
    assert len(scalars_mod._ADD) <= scalars_mod.OP_CAP
    assert len(scalars_mod._MUL) <= scalars_mod.OP_CAP


def test_full_tables_stay_within_the_memory_bound():
    """Fill both operation tables with the longest and highest values they
    admit, up to HOLD_CAP Scalars and OP_CAP entries each; the growth traced
    by tracemalloc stays within the 2 MiB that the module docstring states."""
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
        "while len(s._HELD) < s.HOLD_CAP - 8:\n"
        "    n += 1\n"
        "    v = Scalar(tuple(GaussRat(h - n, k - h) for k in range(terms)))\n"
        "    assert v.small and len(v.num) == terms and -(-v) is v\n"
        "    values += [v, -v]\n"
        "for v in values:\n"
        "    if len(s._ADD) < s.OP_CAP - 2:\n"
        "        v + ZERO, ZERO + v, v + (-v)\n"
        "    if len(s._MUL) < s.OP_CAP - 2:\n"
        "        v * ONE, ONE * v, v * ZERO\n"
        "assert min(len(s._ADD), len(s._MUL)) > s.OP_CAP - 3\n"
        "assert len(s._HELD) > s.HOLD_CAP - 8\n"
        "del values, v\n"
        "gc.collect()\n"
        "print(tracemalloc.get_traced_memory()[0] - base)\n")
    assert int(out) <= 2 * 2 ** 20
