"""Clifford normal ordering, the regular module decomposition and the
quotients by regular submodules."""
from hypothesis import given, settings, strategies as st

from confsalg.scalars import Scalar, ZERO, ONE
from confsalg.clifford import Clifford
import pytest


def test_defining_relations():
    cl = Clifford(2)
    for g in range(4):
        for h in range(4):
            x = cl.mul(cl.gen(g), cl.gen(h))
            y = cl.mul(cl.gen(h), cl.gen(g))
            anti = dict(x)
            for w, c in y.items():
                anti[w] = anti.get(w, ZERO) + c
            anti = {w: c for w, c in anti.items() if c}
            pairing = cl.gen_pairing(g, h)
            if pairing:
                assert anti == {0: Scalar.from_int(2 * pairing)}
            else:
                assert anti == {}


def test_odd_generator_squares_to_one():
    cl = Clifford(1, odd=True)
    e = cl.gen(2)
    assert cl.mul(e, e) == cl.one() == {0: ONE}


def test_dimension():
    assert Clifford(2).dim == 16
    assert Clifford(2, odd=True).dim == 32
    assert Clifford(3).dim == 64


words = st.lists(st.integers(min_value=0, max_value=3), min_size=0,
                 max_size=4)


@given(words, words, words)
@settings(max_examples=60, deadline=None)
def test_associativity(w1, w2, w3):
    cl = Clifford(2)

    def as_el(w):
        out = cl.one()
        for g in w:
            out = cl.mul(out, cl.gen(g))
        return out

    x, y, z = as_el(w1), as_el(w2), as_el(w3)
    assert cl.mul(cl.mul(x, y), z) == cl.mul(x, cl.mul(y, z))


@pytest.mark.parametrize("npairs,odd", [(1, False), (2, False), (3, False),
                                       (1, True), (2, True)],
                         ids=["1", "2", "3", "1-odd", "2-odd"])
def test_regular_module_decomposition(npairs, odd):
    # in odd dimension each D^w splits by the sign of e_N: Cl(1, odd) is
    # the sum of 4 modules of dim 2
    cl = Clifford(npairs, odd)
    mods = cl.module_decompose()
    assert len(mods) == 2 ** (npairs + odd)
    total = 0
    for label, gen, sub in mods:
        assert sub.dim == 2 ** npairs
        total += sub.dim
        assert cl.is_irreducible(sub)
    assert total == cl.dim
    # pairwise independence: the direct sum fills the algebra
    from confsalg.linalg import Subspace
    alldims = Subspace(cl.dim)
    for _, _, sub in mods:
        for row in sub.rows:
            assert alldims.add(row)
    assert alldims.dim == cl.dim
    # the whole algebra is a reducible submodule
    assert not cl.is_irreducible(alldims)


def test_quotient_by_two_modules():
    cl = Clifford(2)
    gens = [cl.module_generator((0, 0)), cl.module_generator((1, 1))]
    ideal = cl.left_ideal(gens)
    assert cl.dim - ideal.dim == 8
    x = ideal.reduce(cl.one())
    assert x
    # left multiplication stays inside the quotient coordinates
    y = ideal.reduce(cl.mul(cl.gen(0), x))
    for k in y:
        assert k not in ideal.by_pivot
