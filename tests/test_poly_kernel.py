"""Property tests of the polynomial kernel against a naive reference.

The reference below works on plain ``{exponent: Fraction}`` dicts with the
schoolbook loops, so it shares no code with ``daffine.exact.poly``.
"""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from daffine import dsl
from daffine.errors import DimMismatch
from daffine.exact import BaseMap, Mat, Poly, Vec

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


# ---------------------------------------------------------------- reference

def ref_clean(terms):
    return {e: c for e, c in terms.items() if c != 0}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, F(0)) + c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, F(0)) + c1 * c2
    return ref_clean(out)


def ref_pow(a, k, nvars):
    out = {(0,) * nvars: F(1)}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_subst(terms, table, target):
    out = {}
    for exp, coeff in terms.items():
        term = {(0,) * target: coeff}
        for i, e in enumerate(exp):
            term = ref_mul(term, ref_pow(table[i].terms, e, target))
        out = ref_add(out, term)
    return out


def ref_eval(terms, point):
    total = F(0)
    for exp, coeff in terms.items():
        for x, e in zip(point, exp):
            coeff *= x**e
        total += coeff
    return total


# ---------------------------------------------------------------- strategies

def poly_terms(nvars, max_exp=2):
    exps = st.tuples(*[st.integers(0, max_exp)] * nvars)
    return st.dictionaries(exps, rationals, max_size=4)


@st.composite
def poly_pairs(draw):
    nvars = draw(st.integers(1, 3))
    return nvars, draw(poly_terms(nvars)), draw(poly_terms(nvars))


@st.composite
def base_maps(draw, m=2):
    rows = draw(st.lists(st.lists(rationals, min_size=m, max_size=m), min_size=m, max_size=m))
    P = Mat(rows)
    assume(P.det() != 0)
    q = Vec(draw(st.lists(rationals, min_size=m, max_size=m)))
    return rows, tuple(q)


def assert_invariant(p, nvars):
    assert p.nvars == nvars
    for exp, c in p.terms.items():
        assert isinstance(c, F) and c != 0
        assert len(exp) == nvars and all(isinstance(e, int) and e >= 0 for e in exp)


# ---------------------------------------------------------------- arithmetic

@settings(deadline=None)
@given(poly_pairs())
def test_ring_operations_match_the_reference(pair):
    nvars, a, b = pair
    p, q = Poly(nvars, a), Poly(nvars, b)
    ra, rb = ref_clean(a), ref_clean(b)
    assert p.terms == ra
    results = {
        "add": (p + q, ref_add(ra, rb)),
        "sub": (p - q, ref_add(ra, {e: -c for e, c in rb.items()})),
        "neg": (-p, {e: -c for e, c in ra.items()}),
        "mul": (p * q, ref_mul(ra, rb)),
        "scale": (p * F(0), {}),
    }
    for name, (got, want) in results.items():
        assert got.terms == want, name
        assert_invariant(got, nvars)


@settings(deadline=None)
@given(poly_pairs(), st.integers(0, 6))
def test_powers_match_repeated_multiplication(pair, k):
    nvars, a, _ = pair
    got = Poly(nvars, a) ** k
    assert got.terms == ref_pow(ref_clean(a), k, nvars)
    assert_invariant(got, nvars)


@settings(deadline=None)
@given(st.data())
def test_substitution_matches_the_reference(data):
    nvars = data.draw(st.integers(1, 3))
    target = data.draw(st.integers(1, 3))
    f = Poly(nvars, data.draw(poly_terms(nvars)))
    table = [Poly(target, data.draw(poly_terms(target, max_exp=1))) for _ in range(nvars)]
    want = ref_subst(f.terms, table, target)
    for got in (f.subst(table), f.subst(dict(enumerate(table)))):
        assert got.terms == want
        assert_invariant(got, target)


# ---------------------------------------------------------------- pullback

@settings(deadline=None)
@given(base_maps(), poly_terms(2, max_exp=3), poly_terms(2, max_exp=3), st.tuples(rationals, rationals))
def test_pullback_is_substitution_and_evaluates_at_the_image(bm_data, a, b, x):
    rows, q = bm_data
    bm = BaseMap(Mat(rows), Vec(q))
    f = Poly(2, a)
    pulled = bm.pullback(f)
    assert pulled == f.subst(bm.as_polys())
    assert pulled.terms == ref_subst(f.terms, bm.as_polys(), 2)
    assert_invariant(pulled, 2)
    assert pulled.eval(x) == ref_eval(f.terms, tuple(bm.apply(Vec(x))))

    # ``bm`` now holds the monomials of f; a fresh, equal map starts empty.
    g = Poly(2, b)
    fresh = BaseMap(Mat(rows), Vec(q))
    assert fresh == bm
    assert bm.pullback(g) == fresh.pullback(g)
    assert bm.pullback(f) == pulled


# ---------------------------------------------------------------- validation

def test_public_constructor_still_validates():
    with pytest.raises(TypeError):
        Poly(1, {(0,): 0.5})
    with pytest.raises(ValueError):
        Poly(1, {(-1,): 1})


def test_eval_rejects_floats():
    x = Poly.variable(1, 0)
    assert x.eval([F(1, 2)]) == F(1, 2)
    assert x.eval([3]) == F(3)
    with pytest.raises(TypeError):
        x.eval([0.5])


# ---------------------------------------------------------------- canonical form

def assert_canonical(p):
    """``p`` is one integer polynomial over one denominator in lowest terms,
    its ``terms`` view agrees, and it equals and hashes like the same
    polynomial built through the public constructor."""
    assert isinstance(p.den, int) and p.den > 0
    assert all(isinstance(c, int) and c != 0 for c in p.num.values())
    assert gcd(p.den, *p.num.values()) == 1
    assert list(p.terms) == list(p.num)
    assert p.terms == {e: F(c, p.den) for e, c in p.num.items()}
    rebuilt = Poly(p.nvars, p.terms)
    assert p == rebuilt and hash(p) == hash(rebuilt)


def assert_kernel_result(got, want, nvars):
    """``got`` is canonical and is the reference term dict ``want``."""
    assert_canonical(got)
    expected = Poly(nvars, want)
    assert got.terms == want
    assert got == expected and hash(got) == hash(expected)


scalars = st.one_of(rationals, st.integers(-4, 4))


@st.composite
def constant_factors(draw, nvars):
    """A constant polynomial, zero included, with its reference terms."""
    c = draw(rationals)
    return Poly.const(nvars, c), ref_clean({(0,) * nvars: c})


@settings(deadline=None)
@given(poly_pairs(), st.integers(0, 4), scalars)
def test_ring_operations_are_canonical(pair, k, s):
    nvars, a, b = pair
    p, q = Poly(nvars, a), Poly(nvars, b)
    ra, rb = ref_clean(a), ref_clean(b)
    assert_canonical(p)
    results = {
        "add": (p + q, ref_add(ra, rb)),
        "sub": (p - q, ref_add(ra, {e: -c for e, c in rb.items()})),
        "neg": (-p, {e: -c for e, c in ra.items()}),
        "mul": (p * q, ref_mul(ra, rb)),
        "pow": (p**k, ref_pow(ra, k, nvars)),
        "scale": (p * s, ref_clean({e: c * s for e, c in ra.items()})),
        "rscale": (s * p, ref_clean({e: c * s for e, c in ra.items()})),
        "radd": (s + p, ref_add(ra, ref_clean({(0,) * nvars: F(s)}))),
    }
    for got, want in results.values():
        assert_kernel_result(got, want, nvars)


@settings(deadline=None)
@given(st.data())
def test_products_with_a_constant_factor_are_canonical(data):
    nvars, a, _ = data.draw(poly_pairs())
    p, ra = Poly(nvars, a), ref_clean(a)
    c, rc = data.draw(constant_factors(nvars))
    assert_kernel_result(p * c, ref_mul(ra, rc), nvars)
    assert_kernel_result(c * p, ref_mul(rc, ra), nvars)
    assert_kernel_result(c * c, ref_mul(rc, rc), nvars)
    zero = Poly.zero(nvars)
    assert_kernel_result(p * zero, {}, nvars)
    assert_kernel_result(zero * p, {}, nvars)


def test_products_cancel_to_lowest_terms():
    half_x, two_y = Poly(2, {(1, 0): F(1, 2)}), Poly(2, {(0, 1): 2})
    prod = half_x * two_y
    assert (prod.num, prod.den) == ({(1, 1): 1}, 1)
    third = Poly.const(2, F(1, 3))
    scaled = Poly(2, {(1, 0): 3, (0, 1): F(3, 2)}) * third
    assert (scaled.num, scaled.den) == ({(1, 0): 2, (0, 1): 1}, 2)
    total = Poly(1, {(1,): F(1, 2)}) + Poly(1, {(1,): F(1, 2), (0,): F(1, 6)})
    assert (total.num, total.den) == ({(1,): 6, (0,): 1}, 6)
    assert_canonical(Poly(2, {(1, 0): F(2, 4), (0, 0): 0}))


@settings(deadline=None)
@given(st.data())
def test_substitution_results_are_canonical(data):
    nvars = data.draw(st.integers(1, 3))
    target = data.draw(st.integers(1, 3))
    f = Poly(nvars, data.draw(poly_terms(nvars)))
    table = [Poly(target, data.draw(poly_terms(target, max_exp=1))) for _ in range(nvars)]
    want = ref_subst(f.terms, table, target)
    for got in (f.subst(table), f.subst(dict(enumerate(table)))):
        assert_kernel_result(got, want, target)


@settings(deadline=None)
@given(base_maps(), poly_terms(2, max_exp=3), poly_terms(2, max_exp=3))
def test_pullbacks_through_a_cold_and_a_warm_cache_are_canonical(bm_data, a, b):
    rows, q = bm_data
    bm = BaseMap(Mat(rows), Vec(q))
    table = bm.as_polys()
    for terms in (a, b, a):  # a cold cache, then one that holds some or all monomials
        f = Poly(2, terms)
        assert_kernel_result(bm.pullback(f), ref_subst(f.terms, table, 2), 2)


@settings(deadline=None)
@given(poly_pairs(), st.integers(0, 2))
def test_literals_convert_to_canonical_polynomials(pair, extra):
    nvars, a, _ = pair
    p = Poly(nvars, a)
    value = dsl.value_of_poly(p)
    assume(isinstance(value, dsl.PolyValue))
    got = value.to_poly(nvars + extra)
    want = {e + (0,) * extra: c for e, c in ref_clean(a).items()}
    assert_kernel_result(got, want, nvars + extra)


def test_literal_conversion_still_checks_the_variable_count():
    value = dsl.value_of_poly(Poly(2, {(0, 1): F(1, 2)}))
    with pytest.raises(DimMismatch):
        value.to_poly(1)
