import random
import re
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from daffine import dsl
from daffine.atlas import identity_transition, induce_hull, restrict_hull
from daffine.double import DecomposedDouble, DoubleAffine, aff1, aff2, classify_level_set
from daffine.errors import DimMismatch, MissingSubstitute, SingularMatrix
from daffine.exact import (
    BaseMap,
    Bilinear,
    Mat,
    Poly,
    Vec,
    as_scalar,
    format_scalar,
)
from daffine.exact import linalg, tensor
from daffine.phase import TrivialBispecial, chi, iota
from daffine.randgen import rand_cotangent

rationals = st.fractions(min_value=-60, max_value=60, max_denominator=12)


# ---------------------------------------------------------------- scalars

def test_scalar_roundtrip():
    assert format_scalar(F(-4, 6)) == "-2/3"
    assert format_scalar(F(5)) == "5"
    assert as_scalar("7/2") == F(7, 2)
    assert as_scalar(3) == F(3)


@given(rationals, rationals)
def test_scalar_arithmetic_is_exact(a, b):
    assert (a + b) - b == a


# ---------------------------------------------------------------- matrices

def _det_cofactor_oracle(m: Mat):
    # Independent cofactor-expansion determinant used as the oracle.
    n = m.nrows
    if n == 0:
        return F(1)
    if n == 1:
        return m[0, 0]
    total = F(0)
    for j in range(n):
        minor = Mat(
            [
                [m[r, c] for c in range(n) if c != j]
                for r in range(1, n)
            ]
        )
        total += (-1) ** j * m[0, j] * _det_cofactor_oracle(minor)
    return total


M4 = Mat(
    [
        [F(2), F(1), F(0), F(3)],
        [F(1, 2), F(-1), F(4), F(0)],
        [F(0), F(5), F(1), F(-2)],
        [F(3), F(0), F(0), F(1, 3)],
    ]
)


def test_mat_inverse_identity():
    assert Mat.identity(3).inverse() == Mat.identity(3)


def test_mat_inverse_random_4x4_roundtrip():
    inv = M4.inverse()
    assert M4 @ inv == Mat.identity(4)
    assert inv @ M4 == Mat.identity(4)


def test_mat_inverse_matches_adjugate_over_det():
    det = _det_cofactor_oracle(M4)
    assert det == M4.det()
    adj = M4.adjugate()
    assert adj.scale(1 / det) == M4.inverse()


def test_mat_inverse_singular_raises():
    with pytest.raises(SingularMatrix):
        Mat([[F(1), F(2)], [F(2), F(4)]]).inverse()


def test_kernel_and_solve():
    m = Mat([[F(1), F(2), F(3)], [F(2), F(4), F(6)]])
    ker = m.kernel()
    assert len(ker) == 2
    for v in ker:
        assert (m @ v).is_zero()
    b = Vec.of(6, 12)
    x = m.solve(b)
    assert m @ x == b
    assert m.solve(Vec.of(1, 0)) is None


def test_vec_of_makes_exact_entries():
    assert Vec.of(3, "7/2", F(1, 3)) == Vec([F(3), F(7, 2), F(1, 3)])
    p = Poly.zero(3)
    assert Vec.of(p).entries == (p,)


@pytest.mark.parametrize("entries", [(0.5,), (1, 2.0), (F(1, 2), 1e-3)])
def test_vec_of_rejects_floats(entries):
    with pytest.raises(TypeError):
        Vec.of(*entries)


def test_vec_dim_mismatch():
    with pytest.raises(DimMismatch):
        Vec.of(1, 2) + Vec.of(1, 2, 3)


@given(st.lists(rationals, min_size=3, max_size=3), st.lists(rationals, min_size=3, max_size=3))
def test_vec_addition_cancels(a, b):
    va, vb = Vec(a), Vec(b)
    assert (va + vb) - vb == va


@pytest.mark.parametrize(
    "build",
    [
        lambda: Vec([0.5]),
        lambda: Vec([F(1), 2.0]),
        lambda: Mat([[0.5]]),
        lambda: Mat([[1, 2], [F(1, 3), 1e-3]]),
        lambda: DoubleAffine(DecomposedDouble(1, 1, 1), Vec([0.5]), Vec([1]), None),
        lambda: Bilinear([[[0.5]]]),
        lambda: Bilinear([[[F(1), 2], [3, 1e-3]]]),
    ],
)
def test_constructors_reject_floats(build):
    with pytest.raises(TypeError):
        build()


def test_constructors_keep_exact_entries():
    p = Poly.variable(2, 0)
    assert Vec([1, F(1, 2), p]).entries == (1, F(1, 2), p)
    assert Mat([[1, F(1, 2)], [p, 0]]).rows == ((1, F(1, 2)), (p, 0))
    assert Bilinear([[[1, F(1, 2)], [p, 0]]]).entries == (((1, F(1, 2)), (p, 0)),)


@pytest.mark.parametrize(
    "build",
    [
        lambda p: Vec([0.5]),
        lambda p: Mat([[p, 0.5]]),
        lambda p: Bilinear([[[complex(1)]]]),
        lambda p: Vec([Decimal("1")]),
        lambda p: Bilinear([[[p, Decimal("1")]]]),
    ],
)
def test_inexact_entries_are_rejected_after_polynomials(build):
    p = Poly.variable(2, 0)
    Mat([[p, F(1)], [1, p]])
    assert Poly in linalg._EXACT_TYPES  # added by poly.py at import
    with pytest.raises(TypeError, match=r"^cannot interpret .* as an exact scalar$"):
        build(p)


# ---------------------------------------------------------------- exactness at the boundary
# The public constructors and a scalar from outside are checked; the results
# the kernel computes from checked entries of int, Fraction and Poly type are
# built without a second check.


@pytest.mark.parametrize(
    "build, shown",
    [
        (lambda: Vec([0.5]), "0.5"),
        (lambda: Mat([[0.5]]), "0.5"),
        (lambda: Vec([F(1, 2), 1]).scale(0.5), "0.25"),
        (lambda: 0.5 * Vec([F(1, 2), 1]), "0.25"),
        (lambda: Mat([[1, F(1, 2)]]).scale(0.5), "0.5"),
        (lambda: Vec([1, 2]).replaced({1: 0.5}), "0.5"),
    ],
)
def test_floats_are_rejected_naming_the_first_inexact_entry(build, shown):
    with pytest.raises(TypeError, match=rf"^cannot interpret {re.escape(shown)} as an exact scalar$"):
        build()


def test_kernel_results_skip_the_second_check(monkeypatch):
    p = Poly.variable(2, 0)
    v, m = Vec([F(1, 2), 3]), Mat([[1, F(2, 3)], [F(-1), 4]])
    pv, pm = Vec([p, F(1, 2)]), Mat([[p, 1], [F(1, 3), p * p]])
    g = Bilinear([[[1, F(1, 2)], [F(-2, 3), 0]], [[p, 2], [F(1, 5), p * p]]])
    singular = Mat([[1, 2], [2, 4]])
    checked = []
    real = linalg._exact
    monkeypatch.setattr(linalg, "_exact", lambda entries: checked.append(entries) or real(entries))
    monkeypatch.setattr(tensor, "_exact", linalg._exact)
    results = [
        v + v, v - v, -v, v.scale(F(3)), 2 * v, v.concat(v), m @ v, m @ m, m.vec_mul(v),
        m + m, m - m, -m, m.scale(2), m.transpose(), m.inverse(), m.row(1), m.col(0),
        pv + pv, -pv, pv.scale(p), pm @ pv, pm @ pm, pm.vec_mul(pv), pm.scale(F(1, 2)),
        m.adjugate(), pm.adjugate(), m.solve(v), singular.kernel()[0],
        Vec.zero(3), Vec.unit(3, 1), Mat.zero(2, 3), Mat.identity(3),
        g + g, -g, g.scale(F(3, 2)), g.scale(p), g.left_mat(pm), g.right_mat(m), g.post(pm),
    ]
    assert checked == []
    for r in results:  # each equals, hashes and prints like its public construction
        if isinstance(r, Bilinear):
            public = Bilinear(r.entries)
        else:
            public = Vec(r.entries) if isinstance(r, Vec) else Mat(r.rows)
        assert r == public and hash(r) == hash(public) and repr(r) == repr(public)


class _FloatyRing:
    """An entry that is not a number, whose ring operations return a float."""

    def __add__(self, other):
        return 0.5

    __sub__ = __rmul__ = __mul__ = __add__

    def __neg__(self):
        return 0.5


def test_a_non_number_entry_type_is_refused_at_the_constructor():
    for build in (lambda: Vec([_FloatyRing()]), lambda: Mat([[1, _FloatyRing()]]), lambda: Bilinear([[[_FloatyRing()]]])):
        with pytest.raises(TypeError, match=r"^cannot interpret <.*_FloatyRing object at .*> as an exact scalar$"):
            build()
    assert linalg._EXACT_TYPES == {int, F, Poly}  # the admitted set does not grow


# ---------------------------------------------------------------- the exactness contract
# Every entry point refuses a value of another type than int, Fraction or
# Poly with one TypeError.  Entries are stored as given; scalars from outside
# go through as_scalar, which also reads a "p/q" string; a factor of scale is
# named through its first product that is not exact.

try:
    import sympy
except ImportError:  # pragma: no cover - sympy is a test extra
    sympy = None

# (id, value); every entry point gets the first three
_INEXACT = [
    ("float", 0.5),
    ("complex", complex(1)),
    ("Decimal", Decimal("1")),
    ("str", "1/2"),
    ("bool", True),
    ("sympy", sympy.Rational(1, 2) if sympy else None),
    ("FloatyRing", _FloatyRing()),
]
_D = DecomposedDouble(1, 1, 1)
_BUNDLE = TrivialBispecial(1, 1)
_COTANGENT = rand_cotangent(random.Random(0), _BUNDLE)
_P, _Q = _D.point([1], [2], [3]), _D.point([1], [2], [5])

# (name, build from one value x, what it takes besides an int or a Fraction):
# a Poly entry, or a "p/q" string, which as_scalar reads exactly
_ENTRY_POINTS = [
    ("Vec", lambda x: Vec([1, x]), ("Poly",)),
    ("Mat", lambda x: Mat([[1, 2], [F(1, 3), x]]), ("Poly",)),
    ("Bilinear", lambda x: Bilinear([[[1, x]]]), ("Poly",)),
    ("replaced", lambda x: Vec([1, 2]).replaced({1: x}), ("Poly",)),
    ("scale", lambda x: Vec([F(1, 2), 1]).scale(x), ("Poly",)),
    ("Mat.scale", lambda x: Mat([[1, F(1, 2)]]).scale(x), ("Poly",)),
    ("__rmul__", lambda x: Vec([F(1, 2), 1]).__rmul__(x), ("Poly",)),
    ("Vec.of", lambda x: Vec.of(1, x), ("Poly", "str")),
    ("Poly", lambda x: Poly(1, {(1,): x}), ("str",)),
    ("Poly.const", lambda x: Poly.const(1, x), ("str",)),
    ("Poly.eval", lambda x: Poly.variable(1, 0).eval([x]), ("str",)),
    ("aff1", lambda x: aff1(_P, _Q, x), ("str",)),
    ("aff2", lambda x: aff2(_P, _D.point([4], [2], [5]), x), ("str",)),
    ("restrict_hull", lambda x: restrict_hull(induce_hull(identity_transition(1, 1, 1, 1)), x, 1), ("str",)),
    ("classify_level_set", lambda x: classify_level_set(_D, [[x, 0, 0, 0, 1, 0]]), ("str",)),
    ("block_from_double", lambda x: dsl.block_from_double("A", _D, constraints=[[x, 0, 0, 0, 1, 0]]), ("str",)),
    ("chi", lambda x: chi(x, 0, _COTANGENT), ("str",)),
    # model data that reached a vector unchecked
    ("iota", lambda x: iota(_BUNDLE, Vec.of(1), Vec._trusted((x,)), Vec.of(1), Vec.of(2)), ("str",)),
]


@pytest.mark.parametrize(
    "build, x",
    [
        pytest.param(build, x, id=f"{name}-{kind}", marks=pytest.mark.skipif(x is None, reason="needs sympy"))
        for name, build, takes in _ENTRY_POINTS
        for kind, x in _INEXACT
        if kind not in takes
    ],
)
def test_every_entry_point_refuses_a_value_that_is_not_exact(build, x):
    with pytest.raises(TypeError, match=r"^cannot interpret .* as an exact scalar$"):
        build(x)


@pytest.mark.parametrize("build, takes", [pytest.param(b, t, id=n) for n, b, t in _ENTRY_POINTS])
def test_every_entry_point_takes_exact_values(build, takes):
    extra = {"Poly": Poly.variable(1, 0), "str": "1/2"}
    for x in [2, F(1, 2)] + [extra[kind] for kind in takes]:
        build(x)


@pytest.mark.parametrize("n", range(5))
def test_constant_constructors_equal_the_per_entry_construction(n):
    assert repr(Vec.zero(n)) == repr(Vec([F(0)] * n)) and Vec.zero(n) == Vec([F(0)] * n)
    for i in range(n):
        unit = Vec(F(1) if j == i else F(0) for j in range(n))
        assert Vec.unit(n, i) == unit and repr(Vec.unit(n, i)) == repr(unit)
    identity = Mat([[F(1) if i == j else F(0) for j in range(n)] for i in range(n)])
    assert Mat.identity(n) == identity and repr(Mat.identity(n)) == repr(identity)
    zero = Mat([[F(0)] * (n + 1) for _ in range(n)])
    assert Mat.zero(n, n + 1) == zero and repr(Mat.zero(n, n + 1)) == repr(zero)


def test_replaced_checks_only_the_new_entries(monkeypatch):
    v = Vec([1, F(1, 2), 3])
    checked = []
    real = linalg._exact
    monkeypatch.setattr(linalg, "_exact", lambda entries: checked.append(tuple(entries)) or real(entries))
    assert v.replaced({0: F(5), 2: 0}).entries == (F(5), F(1, 2), 0)
    assert checked == [(F(5), 0)]
    assert v.replaced({}) == v
    for i in (3, -1):
        with pytest.raises(DimMismatch):
            v.replaced({i: F(1)})


# ---------------------------------------------------------------- rational kernel
# dot, @, vec_mul, det and inverse on int/Fraction entries against naive
# Fraction loops; other entries (polynomials) against the generic ring loop.

scalars = st.one_of(st.integers(-20, 20), rationals, st.just(0), st.just(F(0)))


def _naive_dot(xs, ys):
    total = F(0)
    for a, b in zip(xs, ys):
        total += F(a) * F(b)
    return total


def _naive_inverse(rows):
    """Gauss-Jordan on Fractions; None when the matrix is singular."""
    n = len(rows)
    a = [[F(e) for e in r] + [F(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return None
        a[k], a[pivot] = a[pivot], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(n):
            if i != k:
                a[i] = [x - a[i][k] * y for x, y in zip(a[i], a[k])]
    return [r[n:] for r in a]


def _all_fractions(rows):
    return all(type(e) is F for r in rows for e in r)


@st.composite
def square(draw, entries=scalars, max_n=5):
    """A square matrix of size 0..max_n; some copy a combination of two rows
    into a third, so singular matrices are common."""
    n = draw(st.integers(0, max_n))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        c = draw(rationals)
        rows[draw(st.integers(0, n - 1))] = [F(a) + c * b for a, b in zip(rows[0], rows[1])]
    return rows


@given(st.integers(0, 6).flatmap(lambda n: st.tuples(*[st.lists(scalars, min_size=n, max_size=n)] * 2)))
def test_dot_matches_naive_fractions(pair):
    xs, ys = pair
    got = Vec(xs).dot(Vec(ys))
    assert got == _naive_dot(xs, ys)
    assert type(got) is F


@given(square(), st.integers(0, 5), st.data())
def test_products_match_naive_fractions(rows, m, data):
    n = len(rows)
    m = m if n else 0  # a matrix with no rows has no columns either
    other = data.draw(st.lists(st.lists(scalars, min_size=m, max_size=m), min_size=n, max_size=n))
    v = data.draw(st.lists(scalars, min_size=n, max_size=n))
    a = Mat(rows)
    cols = [[r[j] for r in other] for j in range(m)]
    prod = a @ Mat(other)
    assert prod.rows == tuple(tuple(_naive_dot(r, c) for c in cols) for r in rows)
    assert _all_fractions(prod.rows)
    mv = a @ Vec(v)
    assert mv.entries == tuple(_naive_dot(r, v) for r in rows)
    vm = Mat(other).vec_mul(Vec(v))
    assert vm.entries == tuple(_naive_dot(v, c) for c in cols)
    assert _all_fractions([mv.entries, vm.entries])


@given(square(entries=rationals, max_n=6))
def test_det_and_inverse_match_naive_fractions(rows):
    a = Mat(rows)
    det = a.det()
    assert det == _det_cofactor_oracle(a)
    assert type(det) is F
    expected = _naive_inverse(rows)
    if expected is None:
        assert det == 0
        with pytest.raises(SingularMatrix):
            a.inverse()
    else:
        inv = a.inverse()
        assert [list(r) for r in inv.rows] == expected
        assert _all_fractions(inv.rows)


@given(square())
def test_det_and_inverse_accept_int_entries(rows):
    a = Mat(rows)
    assert a.det() == _det_cofactor_oracle(Mat([[F(e) for e in r] for r in rows]))
    expected = _naive_inverse(rows)
    if expected is None:
        with pytest.raises(SingularMatrix):
            a.inverse()
    else:
        assert [list(r) for r in a.inverse().rows] == expected


def test_kernel_edge_cases():
    empty = Mat([])
    assert Vec([]).dot(Vec([])) == 0 and type(Vec([]).dot(Vec([]))) is F
    assert empty.det() == 1 and empty.inverse() == empty
    assert empty @ Vec([]) == Vec([]) and empty @ empty == empty
    assert Mat([[F(3, 4)]]).inverse() == Mat([[F(4, 3)]])
    assert Mat([[F(-2, 3)]]).det() == F(-2, 3)
    for singular in ([[F(0)]], [[F(0), F(0)], [F(0), F(0)]], [[F(1, 2), F(1)], [F(-1), F(-2)]]):
        assert Mat(singular).det() == 0
        with pytest.raises(SingularMatrix):
            Mat(singular).inverse()
    assert Mat([[F(0), F(1)], [F(1), F(0)]]).det() == -1


def _generic_dot(xs, ys):
    total = F(0)
    for a, b in zip(xs, ys):
        total = total + a * b
    return total


polys = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), rationals, max_size=3).map(
    lambda t: Poly(2, t)
)


@given(
    st.integers(0, 4).flatmap(
        lambda n: st.tuples(
            st.lists(polys, min_size=n, max_size=n),
            st.lists(st.one_of(rationals, polys), min_size=n, max_size=n),
        )
    )
)
def test_generic_dot_starts_from_the_first_product(pair):
    xs, ys = pair
    got = linalg._dot(xs, ys)
    assert got == _generic_dot(xs, ys)
    assert type(got) is (Poly if xs else F)


def test_empty_generic_dot_is_fraction_zero():
    got = linalg._dot([], [Poly.variable(2, 0)])
    assert got == 0 and type(got) is F


weights = st.one_of(
    st.sampled_from([0, 1, F(0), F(1)]), st.integers(-9, -1), st.fractions(-20, -1, max_denominator=12), rationals
)


@given(
    weights,
    st.integers(0, 6).flatmap(lambda n: st.tuples(*[st.lists(scalars, min_size=n, max_size=n)] * 2)),
)
def test_affine_combination_makes_one_fraction_per_entry(lam, pair):
    xs, ys = pair
    got = linalg._combine(lam, xs, ys)
    assert got == tuple(lam * x + (1 - lam) * y for x, y in zip(xs, ys))
    assert all(type(e) is F for e in got)


@given(
    weights,
    st.integers(0, 4).flatmap(
        lambda n: st.tuples(
            st.lists(polys, min_size=n, max_size=n),
            st.lists(st.one_of(scalars, polys), min_size=n, max_size=n),
        )
    ),
)
def test_affine_combination_of_polynomials_takes_the_generic_loop(lam, pair):
    xs, ys = pair
    for a, b in (xs, ys), (ys, xs):
        got = linalg._combine(lam, a, b)
        assert got == tuple(lam * x + (1 - lam) * y for x, y in zip(a, b))
        assert [type(e) for e in got] == [type(lam * x + (1 - lam) * y) for x, y in zip(a, b)]


def test_an_inverse_is_computed_once_and_a_singular_matrix_raises_every_time(monkeypatch):
    m = Mat([[1, F(2, 3)], [F(-1), 4]])
    inv = m.inverse()
    eliminations = []
    real = linalg._bareiss
    monkeypatch.setattr(linalg, "_bareiss", lambda a, n: eliminations.append(n) or real(a, n))
    assert m.inverse() is inv and eliminations == []
    public = Mat(m.rows)  # the kept inverse is not part of the matrix's value
    assert m == public and hash(m) == hash(public) and repr(m) == repr(public)
    singular = Mat([[1, 2], [2, 4]])
    for _ in range(2):
        with pytest.raises(SingularMatrix):
            singular.inverse()
    assert eliminations == [2, 2]


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(st.one_of(rationals, polys), min_size=n, max_size=n), min_size=n + 1, max_size=n + 1)
    )
)
def test_polynomial_entries_take_the_generic_loop(rows):
    *rows, v = rows
    a = Mat(rows)
    cols = list(zip(*rows))
    assert Vec(rows[0]).dot(Vec(v)) == _generic_dot(rows[0], v)
    assert (a @ Vec(v)).entries == tuple(_generic_dot(r, v) for r in rows)
    assert (a @ a).rows == tuple(tuple(_generic_dot(r, c) for c in cols) for r in rows)
    assert a.vec_mul(Vec(v)).entries == tuple(_generic_dot(v, c) for c in cols)


# ---------------------------------------------------------------- bilinear

def test_bilinear_apply_1x1x1():
    g = Bilinear([[[F(7)]]])
    assert g.apply(Vec.of(2), Vec.of(3)) == Vec.of(42)


def test_bilinear_apply_matches_loop_oracle():
    g = Bilinear(
        [
            [[F(1), F(2)], [F(0), F(-1)]],
            [[F(1, 2), F(0)], [F(3), F(5)]],
        ]
    )
    u = Vec.of(2, -3)
    w = Vec.of(F(1, 2), 4)
    # oracle: fully unrolled triple loop in the opposite iteration order
    expect = [F(0), F(0)]
    for b in range(2):
        for i in range(2):
            for t in range(2):
                expect[t] += g[t, i, b] * u[i] * w[b]
    assert g.apply(u, w) == Vec(expect)


def test_bilinear_contractions_consistent():
    g = Bilinear(
        [
            [[F(1), F(2), F(0)], [F(3), F(0), F(1)]],
        ]
    )
    u, w = Vec.of(5, -2), Vec.of(1, 2, 3)
    assert g.left_vec(u) @ w == g.apply(u, w)
    assert g.right_vec(w) @ u == g.apply(u, w)
    A = Mat([[F(1), F(1)], [F(0), F(2)]])
    B = Mat([[F(1), F(0)], [F(2), F(1)], [F(0), F(3)]])
    up, wp = Vec.of(1, -1), Vec.of(2, 5)
    assert g.left_mat(A).apply(up, w) == g.apply(A @ up, w)
    assert g.right_mat(B).apply(u, wp) == g.apply(u, B @ wp)
    S = Mat([[F(4)], [F(-1)]]).transpose()
    assert g.post(Mat([[F(2)]])).apply(u, w) == g.apply(u, w).scale(2)
    assert S.shape == (1, 2)


def test_bilinear_zero_annihilates():
    g = Bilinear.zero(2, 2, 2)
    assert g.apply(Vec.of(1, 2), Vec.of(3, 4)) == Vec.zero(2)


class _LoopBilinear:
    """The index loops ``Bilinear`` contracted with before it contracted
    through ``Mat``: an oracle for its operations, their results' entry types
    and their ``DimMismatch`` texts."""

    def __init__(self, g):
        self.entries, self.shape = g.entries, g.shape

    def add(self, other):
        if self.shape != other.shape:
            raise DimMismatch(f"bilinear shapes {self.shape} vs {other.shape}")
        return Bilinear(
            tuple(tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(l1, l2))
                  for l1, l2 in zip(self.entries, other.entries))
        )

    def neg(self):
        return Bilinear(tuple(tuple(tuple(-a for a in row) for row in layer) for layer in self.entries))

    def scale(self, c):
        return Bilinear(tuple(tuple(tuple(c * a for a in row) for row in layer) for layer in self.entries))

    def apply(self, u, w):
        k, r, s = self.shape
        if u.dim != r or w.dim != s:
            raise DimMismatch(f"bilinear {self.shape} applied to dims ({u.dim}, {w.dim})")
        out = []
        for t in range(k):
            total = F(0)
            for i in range(r):
                for b in range(s):
                    total = total + self.entries[t][i][b] * u[i] * w[b]
            out.append(total)
        return Vec(out)

    def left_vec(self, u):
        k, r, s = self.shape
        if u.dim != r:
            raise DimMismatch("left contraction dimension")
        return Mat([[_generic_dot([self.entries[t][i][b] for i in range(r)], u) for b in range(s)] for t in range(k)])

    def right_vec(self, w):
        k, r, s = self.shape
        if w.dim != s:
            raise DimMismatch("right contraction dimension")
        return Mat([[_generic_dot(self.entries[t][i], w) for i in range(r)] for t in range(k)])

    def left_mat(self, A):
        k, r, s = self.shape
        if A.nrows != r:
            raise DimMismatch("left matrix contraction dimension")
        return Bilinear(
            [[[_generic_dot([self.entries[t][i][b] for i in range(r)], A.col(ip)) for b in range(s)]
              for ip in range(A.ncols)] for t in range(k)]
        )

    def right_mat(self, B):
        k, r, s = self.shape
        if B.nrows != s:
            raise DimMismatch("right matrix contraction dimension")
        return Bilinear(
            [[[_generic_dot(self.entries[t][i], B.col(bp)) for bp in range(B.ncols)] for i in range(r)]
             for t in range(k)]
        )

    def post(self, S):
        k, r, s = self.shape
        if S.ncols != k:
            raise DimMismatch("output contraction dimension")
        return Bilinear(
            [[[_generic_dot([self.entries[t][i][b] for t in range(k)], S.rows[tp]) for b in range(s)]
              for i in range(r)] for tp in range(S.nrows)]
        )


def _typed(x):
    """A result as nested tuples of (entry, entry type), with its own type."""
    if isinstance(x, Vec):
        return Vec, tuple((e, type(e)) for e in x)
    if isinstance(x, Mat):
        return Mat, tuple(tuple((e, type(e)) for e in r) for r in x.rows)
    return Bilinear, tuple(tuple(tuple((e, type(e)) for e in r) for r in layer) for layer in x.entries)


def _outcome(op):
    try:
        return _typed(op())
    except DimMismatch as e:
        return "DimMismatch", str(e)


def _draw_operands(rng, shape, entry):
    """Operands for every ``Bilinear`` operation on ``shape``: mostly of the
    matching dims, now and then one off, so the ``DimMismatch`` paths run."""
    k, r, s = shape

    def dim(n):
        return n + 1 if rng.random() < 0.2 else n

    def vec(n):
        return Vec([entry() for _ in range(dim(n))])

    def mat(n):
        m = rng.randint(0, 3)
        return Mat([[entry() for _ in range(m)] for _ in range(dim(n))])

    other = shape if rng.random() < 0.8 else (k, r + 1, s)
    cols = dim(k)
    S = Mat([[entry() for _ in range(cols)] for _ in range(rng.randint(0, 3))])
    return dict(
        other=Bilinear([[[entry() for _ in range(other[2])] for _ in range(other[1])] for _ in range(other[0])]),
        c=entry(), u=vec(r), w=vec(s), A=mat(r), B=mat(s), S=S,
    )


@pytest.mark.parametrize("kind", ["fraction", "poly"])
@pytest.mark.parametrize("shape", [(k, r, s) for k in range(4) for r in range(4) for s in range(4)])
def test_bilinear_operations_match_the_index_loops(shape, kind):
    rng = random.Random(f"{shape}{kind}")

    def fraction():
        return F(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < 0.8 else F(0)

    def poly():
        return Poly(2, {(rng.randint(0, 2), rng.randint(0, 2)): fraction() for _ in range(rng.randint(0, 3))})

    entry = fraction if kind == "fraction" else lambda: poly() if rng.random() < 0.7 else fraction()
    k, r, s = shape
    for _ in range(6):
        g = Bilinear([[[entry() for _ in range(s)] for _ in range(r)] for _ in range(k)])
        loops, ops = _LoopBilinear(g), _draw_operands(rng, shape, entry)
        u, w, A, B, S, c, other = (ops[n] for n in ("u", "w", "A", "B", "S", "c", "other"))
        pairs = [
            (lambda: g + other, lambda: loops.add(other)),
            (lambda: -g, loops.neg),
            (lambda: g.scale(c), lambda: loops.scale(c)),
            (lambda: g.apply(u, w), lambda: loops.apply(u, w)),
            (lambda: g.left_vec(u), lambda: loops.left_vec(u)),
            (lambda: g.right_vec(w), lambda: loops.right_vec(w)),
            (lambda: g.left_mat(A), lambda: loops.left_mat(A)),
            (lambda: g.right_mat(B), lambda: loops.right_mat(B)),
            (lambda: g.post(S), lambda: loops.post(S)),
        ]
        for new, old in pairs:
            assert _outcome(new) == _outcome(old)


# ---------------------------------------------------------------- polynomials

def test_poly_identity_substitution():
    p = Poly(2, {(1, 0): F(2), (0, 1): F(-1), (1, 1): F(3), (0, 0): F(5)})
    ident = [Poly.variable(2, 0), Poly.variable(2, 1)]
    assert p.subst(ident) == p


def test_poly_binomial_compose():
    # (x+1)^2 composed with x -> x-1 gives x^2
    p = (Poly.variable(1, 0) + 1) ** 2
    q = Poly.variable(1, 0) - 1
    assert p.subst([q]) == Poly.variable(1, 0) ** 2


def test_poly_compose_matches_evaluation_oracle():
    x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
    cubic = 3 * x1**3 - x1 * x2 + F(1, 2) * x2**2 + 7
    aff1 = 2 * x1 - x2 + 1
    aff2 = x1 + F(1, 3)
    composed = cubic.subst([aff1, aff2])
    pts = [
        (F(0), F(0)),
        (F(1), F(2)),
        (F(-1), F(1, 2)),
        (F(3, 4), F(-2)),
        (F(5), F(5)),
        (F(-1, 3), F(7, 2)),
        (F(2), F(-3)),
        (F(1, 7), F(1, 7)),
        (F(-4), F(9)),
        (F(10), F(-1, 5)),
    ]
    for pt in pts:
        inner = (aff1.eval(pt), aff2.eval(pt))
        assert composed.eval(pt) == cubic.eval(inner)


def test_poly_missing_substitute():
    p = Poly(2, {(1, 1): F(1)})
    with pytest.raises(MissingSubstitute):
        p.subst({0: Poly.variable(1, 0)})


def test_poly_str_canonical():
    p = Poly(2, {(1, 1): F(3), (0, 0): F(-1, 2)})
    assert str(p) == "3*x1*x2 - 1/2"
    assert str(Poly.zero(3)) == "0"


@given(st.lists(rationals, min_size=4, max_size=4), st.lists(rationals, min_size=4, max_size=4))
def test_poly_ring_axioms(cs, ds):
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    p = cs[0] + cs[1] * x + cs[2] * y + cs[3] * x * y
    q = ds[0] + ds[1] * x + ds[2] * y + ds[3] * x * x
    assert p * q == q * p
    assert (p + q) - q == p
    pt = (F(2, 3), F(-5))
    assert (p * q).eval(pt) == p.eval(pt) * q.eval(pt)


# ---------------------------------------------------------------- base maps

def test_basemap_roundtrip_and_pullback():
    bm = BaseMap(Mat([[F(1), F(2)], [F(0), F(1)]]), Vec.of(3, -1))
    x = Vec.of(F(1, 2), F(5))
    assert bm.inverse().apply(bm.apply(x)) == x
    assert bm.then(bm.inverse()).apply(x) == x
    f = Poly(2, {(2, 0): F(1), (0, 1): F(4)})
    # pullback oracle: evaluate at the image point
    assert bm.pullback(f).eval(tuple(x)) == f.eval(tuple(bm.apply(x)))


def test_basemap_rejects_singular():
    with pytest.raises(SingularMatrix):
        BaseMap(Mat([[F(0)]]), Vec.of(1))
