"""Differential test of the rational matrix kernel against sympy.

sympy is an oracle for the tests only; ``daffine`` itself depends on nothing.
``Mat.det`` and ``Mat.inverse`` on Fraction matrices, singular ones included,
must equal ``sympy.Matrix.det()`` and ``.inv()`` exactly; so must ``Mat.det``
on matrices of ints, or of ints mixed with Fractions, which take the same
integer path and never the cofactor expansion.  Row reduction is held to
``sympy.Matrix.rref()`` on rectangular matrices, empty and rank-deficient
ones included: ``rref`` and its pivots exactly, ``rank``, and what ``kernel``
and ``solve`` build on them.
"""

from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from daffine.errors import SingularMatrix
from daffine.exact import Mat, Vec, linalg

sympy = pytest.importorskip("sympy")

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def square(draw):
    """A Fraction matrix of size 1..5; about half copy a combination of two
    rows into another, so they are singular."""
    n = draw(st.integers(1, 5))
    rows = [draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        c = draw(rationals)
        rows[draw(st.integers(0, n - 1))] = [a + c * b for a, b in zip(rows[0], rows[1])]
    return rows


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in r] for r in rows])


def from_sympy(e):
    return F(int(e.p), int(e.q))


@settings(deadline=None, max_examples=60)
@given(square())
def test_det_and_inverse_match_sympy(rows):
    a, s = Mat(rows), to_sympy(rows)
    det = s.det()
    assert a.det() == from_sympy(det)
    if det == 0:
        with pytest.raises(SingularMatrix):
            a.inverse()
    else:
        inv = s.inv()
        assert a.inverse().rows == tuple(tuple(from_sympy(inv[i, j]) for j in range(s.cols)) for i in range(s.rows))


@st.composite
def int_square(draw):
    """A matrix of size 1..8 of ints, or of ints and Fractions mixed; about
    half are singular, as in ``square``."""
    n = draw(st.integers(1, 8))
    ints = st.integers(-9, 9)
    entry = ints if draw(st.booleans()) else st.one_of(ints, rationals)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        c = draw(st.integers(-3, 3))
        rows[draw(st.integers(0, n - 1))] = [a + c * b for a, b in zip(rows[0], rows[1])]
    return rows


@settings(deadline=None, max_examples=60)
@given(int_square())
def test_det_of_int_and_mixed_matrices_matches_sympy(rows):
    with mock.patch.object(linalg, "_det_cofactor", side_effect=AssertionError("cofactor expansion")):
        det = Mat(rows).det()
    assert det == from_sympy(to_sympy(rows).det())


@st.composite
def rectangular(draw):
    """A Fraction matrix of 0..5 rows and 0..6 columns and a right-hand side;
    about half the matrices replace a row by a combination of two others, so
    they are rank-deficient (as are all with more rows than columns)."""
    nr, nc = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    rows = [draw(st.lists(rationals, min_size=nc, max_size=nc)) for _ in range(nr)]
    if nr >= 3 and draw(st.booleans()):
        c = draw(rationals)
        rows[draw(st.integers(2, nr - 1))] = [a + c * b for a, b in zip(rows[0], rows[1])]
    b = draw(st.lists(rationals, min_size=nr, max_size=nr))
    if rows and draw(st.booleans()):  # a consistent right-hand side
        x = draw(st.lists(rationals, min_size=nc, max_size=nc))
        b = [sum((e * xi for e, xi in zip(r, x)), F(0)) for r in rows]
    return rows, b


def mat_to_sympy(a):
    return sympy.Matrix(a.nrows, a.ncols, [sympy.Rational(e.numerator, e.denominator) for r in a.rows for e in r])


@settings(deadline=None, max_examples=150)
@given(rectangular())
def test_row_reduction_matches_sympy(case):
    rows, b = case
    a = Mat(rows)
    s = mat_to_sympy(a)
    red, pivots = a.rref()
    s_red, s_pivots = s.rref()
    assert pivots == list(s_pivots)
    assert red.rows == tuple(tuple(from_sympy(s_red[i, j]) for j in range(s.cols)) for i in range(s.rows))
    assert all(type(e) is F for r in red.rows for e in r)
    rank = s.rank()
    assert a.rank() == rank
    kernel = a.kernel()
    assert len(kernel) == a.ncols - rank
    assert all((a @ v).is_zero() for v in kernel)
    x = a.solve(Vec(b))
    try:
        s.gauss_jordan_solve(sympy.Matrix(len(b), 1, [sympy.Rational(e.numerator, e.denominator) for e in b]))
    except ValueError:
        assert x is None
    else:
        assert x is not None and a @ x == Vec(b)
