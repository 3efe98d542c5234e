"""Known answers that every pass is checked against.

The answers come from the paper's classification and dimension table, not
from running the code under test: weight-space dimensions of the nine
algebras, the simplicity of N4alpha(alpha) iff alpha^2 != 1, the invariant
form's characteristic polynomial ((t+1)^2 - a^2)((t-1)^2 - a^2)^2, the
triple-pairing condition +-(1 - a^2), the solution sets of the finite case
sweeps, and the number of single sign flips of N4alpha(0).  The golden
files are pinned by their SHA-256 so that a changed golden file shows too.
"""
from __future__ import annotations

from fractions import Fraction

H = Fraction(1, 2)
TH = Fraction(3, 2)

# weight -> dimension of the reduced subspace
WEIGHT_DIMS = {
    "Vir": {2: 1},
    "K1": {2: 1, TH: 1},
    "K2": {2: 1, TH: 2, 1: 1},
    "K3": {2: 1, TH: 3, 1: 3, H: 1},
    "S2": {2: 1, TH: 4, 1: 3},
    "W2": {2: 1, TH: 4, 1: 5, H: 2},
    "N4": {2: 1, TH: 4, 1: 7, H: 4},
    "N4alpha": {2: 1, TH: 4, 1: 7, H: 4},
    "CK6": {2: 1, TH: 6, 1: 15, H: 10},
}

GOLDEN_SHA256 = {
    "W2": "4aeb93096e8ed40e48190855fb88c3cc"
          "14770211d56f5642010f336752397562",
    "CK6": "595e926401e94c7afc852f40511c32c2"
           "d9196d8bbf15c1ebdf3930dd19ff5ff2",
}

# the CK6 input: three pairs of generators, all pair invariants zero, and
# the four kernel words of the quotient
CK6_KERNEL_WORDS = [(1, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)]

# exclusion sweeps: dimension of V -> sorted solution tuples (None = UNSAT)
SWEEP_SOLUTIONS = {
    5: None,
    6: sorted([(0, 0, 0), (-1, -1, -1), (-1, 1, 1), (1, -1, 1),
               (1, 1, -1)]),
    7: None,
    8: sorted([(0, 0, 0, 0, 0, 0),
               (1, 1, 1, -1, -1, -1), (1, 1, -1, -1, 1, 1),
               (1, -1, 1, 1, -1, 1), (1, -1, -1, 1, 1, -1),
               (-1, 1, -1, 1, -1, 1), (-1, 1, 1, 1, 1, -1),
               (-1, -1, 1, -1, 1, 1), (-1, -1, -1, -1, -1, -1)]),
}


def sweep_verdict_word(dimv: int, solution: tuple) -> str:
    """The phrase the verdict of one sweep solution must contain."""
    if dimv == 6 and not any(solution):
        return "simple algebra"
    return "zero algebra"


# every sign flip of a structure constant of N4alpha(0) breaks an axiom,
# and both oracles, H and P, must reject each one
N4ALPHA0_MUTANTS = 199

CLI_EXIT = {"build": 0, "verify": 0, "simplicity": 0, "exclude": 0}


def n4alpha_simple(alpha: Fraction) -> bool:
    return alpha * alpha != 1


def weight_dims(name: str) -> dict:
    return {Fraction(w): n for w, n in WEIGHT_DIMS[name].items()}


def _poly_mul(x, y):
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] += a * b
    return out


def charpoly_at(a: int) -> list:
    """Low-first coefficients in t of ((t+1)^2 - a^2)((t-1)^2 - a^2)^2."""
    plus = [1 - a * a, 2, 1]
    minus = [1 - a * a, -2, 1]
    return _poly_mul(plus, _poly_mul(minus, minus))


# integer points at which symbolic answers are compared; the coefficients
# are polynomials in a of degree at most 6, so seven points decide them
SAMPLE_POINTS = range(-3, 4)


def triple_condition_at(a: int, sign: int) -> int:
    """The triple-pairing condition, which is defined up to sign."""
    return sign * (1 - a * a)
