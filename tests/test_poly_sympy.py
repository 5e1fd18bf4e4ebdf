"""Differential test of the polynomial kernel against sympy's expansion.

sympy is an oracle for the tests only; ``daffine`` itself depends on nothing.
Every comparison is exact: coefficients are sympy ``Rational`` on one side and
``Fraction`` on the other, and the two term dicts must be equal.
"""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from daffine.exact import BaseMap, Mat, Poly, Vec

sympy = pytest.importorskip("sympy")

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
SYMBOLS = sympy.symbols("x1:4")


def rational(c: F):
    return sympy.Rational(c.numerator, c.denominator)


def to_sympy(p: Poly):
    return sympy.Add(
        *(rational(c) * sympy.Mul(*(x**e for x, e in zip(SYMBOLS, exp))) for exp, c in p.terms.items())
    )


def expanded_terms(expr, nvars):
    """The nonzero terms of ``expr`` expanded in x1..x<nvars>, as Fractions."""
    terms = sympy.Poly(expr, *SYMBOLS[:nvars], domain="QQ").as_dict()
    return {exp: F(int(c.p), int(c.q)) for exp, c in terms.items() if c}


def poly(nvars, max_exp=2):
    exps = st.tuples(*[st.integers(0, max_exp)] * nvars)
    return st.dictionaries(exps, rationals, max_size=4).map(lambda t: Poly(nvars, t))


@st.composite
def poly_pairs(draw):
    nvars = draw(st.integers(1, 3))
    return nvars, draw(poly(nvars)), draw(poly(nvars))


@settings(deadline=None, max_examples=40)
@given(poly_pairs(), st.integers(0, 5))
def test_ring_operations_match_sympy(pair, k):
    nvars, p, q = pair
    sp, sq = to_sympy(p), to_sympy(q)
    assert p.terms == expanded_terms(sp, nvars)
    assert (p + q).terms == expanded_terms(sp + sq, nvars)
    assert (p - q).terms == expanded_terms(sp - sq, nvars)
    assert (p * q).terms == expanded_terms(sp * sq, nvars)
    assert (p**k).terms == expanded_terms(sp**k, nvars)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_substitution_matches_sympy(data):
    nvars = data.draw(st.integers(1, 3))
    target = data.draw(st.integers(1, 3))
    f = data.draw(poly(nvars))
    table = [data.draw(poly(target, max_exp=1)) for _ in range(nvars)]
    # xreplace substitutes all variables at once, as ``subst`` does
    want = expanded_terms(to_sympy(f).xreplace(dict(zip(SYMBOLS, map(to_sympy, table)))), target)
    assert f.subst(table).terms == want
    assert f.subst(dict(enumerate(table))).terms == want


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_pullback_matches_sympy(data):
    m = data.draw(st.integers(1, 3))
    P = Mat(data.draw(st.lists(st.lists(rationals, min_size=m, max_size=m), min_size=m, max_size=m)))
    assume(P.det() != 0)
    q = Vec(data.draw(st.lists(rationals, min_size=m, max_size=m)))
    bm = BaseMap(P, q)
    image = {x: sum((rational(P[i, j]) * y for j, y in enumerate(SYMBOLS[:m])), rational(q[i])) for i, x in enumerate(SYMBOLS[:m])}
    for _ in range(2):  # the second pullback through the map reuses its monomial cache
        f = data.draw(poly(m))
        assert bm.pullback(f).terms == expanded_terms(to_sympy(f).xreplace(image), m)
