"""Exact arithmetic in Q(i)(a): rational functions in one parameter over the
Gaussian rationals.

Every scalar is kept in canonical form at all times: numerator and denominator
are coprime polynomials over Q(i) and the denominator is monic.  Equality and
hashing are therefore plain structural comparisons.  No floating point is used
anywhere.

The textual grammar accepted by `parse` (and emitted by `Scalar.__str__`)
consists of integer literals, the literals `i` (imaginary unit) and `a` (the
parameter), the operators `+ - * / ^` and parentheses.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
import re


class GaussRat:
    """A Gaussian rational (p + q*i)/d with integer p, q and positive d."""

    __slots__ = ("p", "q", "d")

    def __init__(self, p, q=0, d=1, _reduce=True):
        if _reduce:
            if d == 0:
                raise ZeroDivisionError("GaussRat with zero denominator")
            if d < 0:
                p, q, d = -p, -q, -d
            g = gcd(gcd(abs(p), abs(q)), d)
            if g > 1:
                p //= g
                q //= g
                d //= g
        self.p = p
        self.q = q
        self.d = d

    @staticmethod
    def from_fraction(f: Fraction) -> "GaussRat":
        return GaussRat(f.numerator, 0, f.denominator, _reduce=False)

    def __bool__(self):
        return self.p != 0 or self.q != 0

    def __eq__(self, other):
        if not isinstance(other, GaussRat):
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.d == other.d

    def __hash__(self):
        return hash((self.p, self.q, self.d))

    def __add__(self, other):
        return GaussRat(self.p * other.d + other.p * self.d,
                        self.q * other.d + other.q * self.d,
                        self.d * other.d)

    def __sub__(self, other):
        return GaussRat(self.p * other.d - other.p * self.d,
                        self.q * other.d - other.q * self.d,
                        self.d * other.d)

    def __neg__(self):
        return GaussRat(-self.p, -self.q, self.d, _reduce=False)

    def __mul__(self, other):
        return GaussRat(self.p * other.p - self.q * other.q,
                        self.p * other.q + self.q * other.p,
                        self.d * other.d)

    def inv(self) -> "GaussRat":
        n = self.p * self.p + self.q * self.q
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return GaussRat(self.p * self.d, -self.q * self.d, n)

    def __truediv__(self, other):
        return self * other.inv()

    def __repr__(self):
        return "GaussRat(%r, %r, %r)" % (self.p, self.q, self.d)


GR_ZERO = GaussRat(0)
GR_ONE = GaussRat(1)

# ---------------------------------------------------------------------------
# dense polynomials over GaussRat, coefficients stored low degree first
# ---------------------------------------------------------------------------


def _pnorm(c):
    n = len(c)
    while n > 0 and not c[n - 1]:
        n -= 1
    return tuple(c[:n])


def _padd(x, y):
    if len(x) < len(y):
        x, y = y, x
    out = list(x)
    for k, c in enumerate(y):
        out[k] = out[k] + c
    return _pnorm(out)


def _pneg(x):
    return tuple(-c for c in x)


def _pmul(x, y):
    if not x or not y:
        return ()
    out = [GR_ZERO] * (len(x) + len(y) - 1)
    for j, cx in enumerate(x):
        if not cx:
            continue
        for k, cy in enumerate(y):
            if cy:
                out[j + k] = out[j + k] + cx * cy
    return _pnorm(out)


def _pscale(x, c):
    if not c:
        return ()
    return tuple(cc * c for cc in x)


def _pdivmod(x, y):
    if not y:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(x)
    q = [GR_ZERO] * max(0, len(x) - len(y) + 1)
    inv_lead = y[-1].inv()
    for k in range(len(x) - len(y), -1, -1):
        c = r[k + len(y) - 1] * inv_lead
        if c:
            q[k] = c
            for j, cy in enumerate(y):
                r[k + j] = r[k + j] - c * cy
    return _pnorm(q), _pnorm(r)


def _pgcd(x, y):
    while y:
        x, y = y, _pdivmod(x, y)[1]
    if x:
        x = _pscale(x, x[-1].inv())
    return x


class Scalar:
    """An element of Q(i)(a), canonical at all times."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(GR_ONE,), _canon=True):
        if _canon:
            num = _pnorm(num)
            den = _pnorm(den)
            if not den:
                raise ZeroDivisionError("scalar with zero denominator")
            if not num:
                den = (GR_ONE,)
            elif len(den) == 1:
                if den[0] != GR_ONE:
                    num = _pscale(num, den[0].inv())
                    den = (GR_ONE,)
            else:
                g = _pgcd(num, den)
                if len(g) > 1:
                    num = _pdivmod(num, g)[0]
                    den = _pdivmod(den, g)[0]
                lead = den[-1]
                if lead != GR_ONE:
                    inv = lead.inv()
                    num = _pscale(num, inv)
                    den = _pscale(den, inv)
                if len(den) == 1:
                    den = (GR_ONE,)
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "Scalar":
        if n == 0:
            return ZERO
        if n == 1:
            return ONE
        return Scalar((GaussRat(n),), _canon=False)

    @staticmethod
    def from_fraction(f) -> "Scalar":
        f = Fraction(f)
        if f == 0:
            return ZERO
        return Scalar((GaussRat.from_fraction(f),), _canon=False)

    @staticmethod
    def from_gauss(g: GaussRat) -> "Scalar":
        if not g:
            return ZERO
        return Scalar((g,), _canon=False)

    # -- predicates ---------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        x, y = self.num, other.num
        if not y:
            return self
        if not x:
            return other
        if len(self.den) == 1 and len(other.den) == 1:
            if len(x) == 1 and len(y) == 1:
                # two constants: a canonical denominator of length 1 is 1
                s = x[0] + y[0]
                return Scalar((s,), _canon=False) if s else ZERO
            return Scalar(_padd(x, y), (GR_ONE,), _canon=False)
        return Scalar(_padd(_pmul(x, other.den), _pmul(y, self.den)),
                      _pmul(self.den, other.den))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Scalar(_pneg(self.num), self.den, _canon=False)

    def __mul__(self, other):
        if other is ONE:
            return self
        if self is ONE:
            return other
        x, y = self.num, other.num
        if not x or not y:
            return ZERO
        if len(self.den) == 1 and len(other.den) == 1:
            if len(x) == 1 and len(y) == 1:
                return Scalar((x[0] * y[0],), _canon=False)
            return Scalar(_pmul(x, y))
        return Scalar(_pmul(x, y), _pmul(self.den, other.den))

    def inv(self) -> "Scalar":
        if not self.num:
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar(self.den, self.num)

    def __truediv__(self, other):
        if not other.num:
            raise ZeroDivisionError("division by zero scalar")
        if not self.num:
            return ZERO
        return Scalar(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- substitution -------------------------------------------------------

    def subs(self, value: "Scalar") -> "Scalar":
        """Substitute the parameter `a` by `value`."""
        def ev(poly):
            acc = ZERO
            for c in reversed(poly):
                acc = acc * value + Scalar.from_gauss(c)
            return acc
        den = ev(self.den)
        if not den:
            raise ZeroDivisionError("substitution hits a pole")
        return ev(self.num) / den

    # -- printing -----------------------------------------------------------

    def __str__(self):
        if len(self.den) == 1:
            return _poly_str(self.num)
        return "(%s)/(%s)" % (_poly_str(self.num), _poly_str(self.den))

    def __repr__(self):
        return "Scalar(%s)" % self


ZERO = Scalar((), _canon=False)
ONE = Scalar((GR_ONE,), _canon=False)
IMAG = Scalar((GaussRat(0, 1),), _canon=False)
ALPHA = Scalar((GR_ZERO, GR_ONE), _canon=False)
TWO = Scalar.from_int(2)
HALF = Scalar.from_fraction(Fraction(1, 2))


def _gauss_term_str(c: GaussRat) -> str:
    """Render a Gaussian rational as a multiplicative factor."""
    if c.q == 0:
        s = str(c.p)
        return s if c.d == 1 else "%s/%d" % (s, c.d)
    if c.p == 0:
        if c.q == 1:
            s = "i"
        elif c.q == -1:
            s = "-i"
        else:
            s = "%d*i" % c.q
        return s if c.d == 1 else "%s/%d" % (s, c.d)
    body = "(%d%+d*i)" % (c.p, c.q)
    return body if c.d == 1 else "%s/%d" % (body, c.d)


def _poly_str(poly) -> str:
    if not poly:
        return "0"
    parts = []
    for k in range(len(poly) - 1, -1, -1):
        c = poly[k]
        if not c:
            continue
        if k == 0:
            parts.append(_gauss_term_str(c))
            continue
        var = "a" if k == 1 else "a^%d" % k
        if c == GR_ONE:
            parts.append(var)
        elif c == GaussRat(-1):
            parts.append("-" + var)
        else:
            parts.append("%s*%s" % (_gauss_term_str(c), var))
    out = parts[0]
    for t in parts[1:]:
        out += t if t.startswith("-") else "+" + t
    return out


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[ia()+\-*/^])")

# Bounds that keep one literal from stalling a run or printing past the
# interpreter's integer string limit.  Catalog coefficients have degree at
# most 6 in a and small integer coefficients.
MAX_NESTING = 100
MAX_DIGITS = 1000
MAX_DEGREE = 16
MAX_BITS = 4096


class ScalarParseError(ValueError):
    pass


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ScalarParseError("bad character at %r" % text[pos:])
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def _bounded(value: Scalar, k: int = 1, bits: bool = True) -> Scalar:
    """value, or ScalarParseError when value ** k would exceed MAX_DEGREE
    or, with bits, MAX_BITS.  The degree is checked after each operation,
    because sums of quotients raise it; coefficients grow fast only under
    powers, so their size is checked there and on the result."""
    too_big = (max(len(value.num), len(value.den)) - 1) * k > MAX_DEGREE
    if bits and not too_big:
        height = max(max(abs(c.p).bit_length(), abs(c.q).bit_length(),
                         c.d.bit_length()) for c in value.num + value.den)
        too_big = height * k > MAX_BITS
    if too_big:
        raise ScalarParseError("literal exceeds degree %d or %d-bit "
                               "coefficients" % (MAX_DEGREE, MAX_BITS))
    return value


def _int(tok: str) -> int:
    if len(tok) > MAX_DIGITS:
        raise ScalarParseError("integer longer than %d digits" % MAX_DIGITS)
    return int(tok)


def parse(text: str) -> Scalar:
    """Parse the scalar grammar, e.g. ``(1+2*i - a^2)/(1-a)``."""
    tokens = _tokenize(text)
    pos = 0
    depth = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def expr():
        if peek() == "-":
            take()
            value = -term()
        else:
            if peek() == "+":
                take()
            value = term()
        while peek() in ("+", "-"):
            op = take()
            rhs = term()
            value = _bounded(value + rhs if op == "+" else value - rhs,
                             bits=False)
        return value

    def term():
        value = factor()
        while peek() in ("*", "/"):
            op = take()
            rhs = factor()
            value = _bounded(value * rhs if op == "*" else value / rhs,
                             bits=False)
        return value

    def factor():
        value = atom()
        if peek() == "^":
            take()
            sign = 1
            if peek() == "-":
                take()
                sign = -1
            tok = peek()
            if tok is None or not tok.isdigit():
                raise ScalarParseError("expected integer exponent")
            k = _int(take())
            value = _bounded(value, k) ** (sign * k)
        return value

    def atom():
        nonlocal depth
        tok = peek()
        if tok is None:
            raise ScalarParseError("unexpected end of input")
        if tok in ("(", "-"):
            take()
            depth += 1
            if depth > MAX_NESTING:
                raise ScalarParseError("nesting deeper than %d" % MAX_NESTING)
            if tok == "-":
                value = -atom()
            else:
                value = expr()
                if peek() != ")":
                    raise ScalarParseError("expected closing parenthesis")
                take()
            depth -= 1
            return value
        if tok == "i":
            take()
            return IMAG
        if tok == "a":
            take()
            return ALPHA
        if tok.isdigit():
            return Scalar.from_int(_int(take()))
        raise ScalarParseError("unexpected token %r" % tok)

    try:
        value = expr()
    except ZeroDivisionError:
        raise ScalarParseError("division by zero in %r" % text) from None
    if pos != len(tokens):
        raise ScalarParseError("trailing tokens %r" % tokens[pos:])
    return _bounded(value)
