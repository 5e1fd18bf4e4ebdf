"""Double affine spaces: combinations, duals, the canonical pairing, triple duals."""

import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from daffine import double
from daffine.double import (
    DecomposedDouble,
    DoubleAffine,
    DoubleMorphism,
    DoublePoint,
    adjoint,
    aff1,
    aff2,
    classify_level_set,
    contains,
    flip,
    hd_eval,
    horizontal_dual,
    hull,
    hvh_chain,
    hvh_iso,
    interchange_sides,
    model_vv,
    pairing,
    special_dual_horizontal,
    special_dual_vertical,
    vd_eval,
    vertical_dual,
)
from daffine.errors import (
    BaseMismatch,
    ConstraintViolated,
    DimMismatch,
    FiberMismatch,
    NotSpecial,
    ZeroFunctional,
)
from daffine.exact import Bilinear, Mat, Poly, Vec
from daffine.naffine import GradedSpace, _as_degree
from daffine.phase import TrivialBispecial

D111 = DecomposedDouble(1, 1, 1)
A111 = DoubleAffine(D111, Vec.of(1), Vec.of(1), Vec.of(1))

D232 = DecomposedDouble(2, 3, 2)
A232 = DoubleAffine(
    D232, Vec.of(1, 2), Vec.of(3, 1, -1), Vec.of(1, F(1, 2))
)

small = st.fractions(min_value=-20, max_value=20, max_denominator=8)


def rand_frac(rng):
    return F(rng.randint(-9, 9), rng.randint(1, 5))


def rand_vec(rng, n):
    return Vec(rand_frac(rng) for _ in range(n))


def rand_nonzero_vec(rng, n):
    while True:
        v = rand_vec(rng, n)
        if not v.is_zero():
            return v


def point_on(l: Vec, rng) -> Vec:
    """A random vector with l(v) = 1."""
    i = next(j for j, x in enumerate(l) if x != 0)
    free = Vec(rand_frac(rng) if j != i else F(0) for j in range(l.dim))
    missing = 1 - l.dot(free)
    return free + Vec.unit(l.dim, i).scale(missing / l[i])


def rand_double_affine(rng, n1, n2, n3, special=True) -> DoubleAffine:
    sigma = rand_nonzero_vec(rng, n3) if special else None
    return DoubleAffine(
        DecomposedDouble(n1, n2, n3),
        rand_nonzero_vec(rng, n1),
        rand_nonzero_vec(rng, n2),
        sigma,
    )


# ---------------------------------------------------------------------------
# membership, combinations, interchange
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build, shown",
    [
        (lambda: DecomposedDouble(F(3, 2), 1, 1), "dimension Fraction(3, 2)"),
        (lambda: DecomposedDouble(1, 1, 1.5), "dimension 1.5"),
        (lambda: DecomposedDouble(True, 1, 1), "dimension True"),
        (lambda: TrivialBispecial(1.5, 1), "dimension 1.5"),
        (lambda: GradedSpace(2, {(1, 0): 1.5, (0, 1): 1}), "dimension 1.5"),
        (lambda: _as_degree(2, (0.5, 1)), "degree bit 0.5"),
    ],
)
def test_a_dimension_or_degree_bit_that_is_not_an_int_is_refused(build, shown):
    with pytest.raises(DimMismatch, match=rf"^{re.escape(shown)} is not an int$"):
        build()


def test_contains_normalized_and_violating_points():
    assert contains(A111, D111.point((1,), (1,), (7,)))
    assert not contains(A111, D111.point((0,), (1,), (0,)))


def test_contains_matches_direct_evaluation():
    rng = random.Random(11)
    for _ in range(20):
        p = D232.point(rand_vec(rng, 2), rand_vec(rng, 3), rand_vec(rng, 2))
        direct = A232.l1.dot(p.y) == 1 and A232.l2.dot(p.z) == 1
        assert contains(A232, p) == direct


def test_aff1_idempotent_and_midpoint():
    p = D111.point((1,), (1,), (0,))
    q = D111.point((1,), (3,), (2,))
    assert aff1(p, p, F(2, 3)) == p
    assert aff1(p, q, F(1, 2)) == D111.point((1,), (2,), (1,))


def test_aff_fiber_mismatch():
    p = D111.point((1,), (1,), (0,))
    q = D111.point((2,), (1,), (0,))
    with pytest.raises(FiberMismatch):
        aff1(p, q, F(1, 2))
    with pytest.raises(FiberMismatch):
        aff2(D111.point((1,), (1,), (0,)), D111.point((1,), (2,), (0,)), F(1, 2))


def _same_point(got, want):
    assert got == want and repr(got) == repr(want) and hash(got) == hash(want)


entries = st.one_of(
    small, st.integers(-9, 9), st.builds(lambda c, e: Poly(1, {(e,): c}), small, st.integers(0, 2))
)


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), small, st.data())
def test_aff_combinations_equal_the_public_scale_and_add(n1, n2, n3, lam, data):
    """aff1/aff2 build each mixed slot with one Fraction per entry (or the
    generic loop for polynomial entries) and the point unchecked; each result
    equals the point the checking constructor builds from scale and +."""
    d = DecomposedDouble(n1, n2, n3)
    vec = lambda n: Vec(data.draw(st.lists(entries, min_size=n, max_size=n)))
    y, z = vec(n1), vec(n2)
    p = DoublePoint(d, y, z, vec(n3))
    q1, q2 = DoublePoint(d, y, vec(n2), vec(n3)), DoublePoint(d, vec(n1), z, vec(n3))
    mix = lambda a, b: a.scale(lam) + b.scale(1 - lam)
    _same_point(aff1(p, q1, lam), DoublePoint(d, y, mix(p.z, q1.z), mix(p.c, q1.c)))
    _same_point(aff2(p, q2, lam), DoublePoint(d, mix(p.y, q2.y), z, mix(p.c, q2.c)))


def test_a_point_that_does_not_fit_its_space_is_refused():
    with pytest.raises(DimMismatch, match="^point slots do not match the owning space$"):
        DoublePoint(D111, Vec.of(1, 2), Vec.of(1), Vec.of(1))
    with pytest.raises(DimMismatch, match="^point slots do not match the owning space$"):
        D232.point((1, 0), (1, 0, 0), (1,))


def test_aff_preserves_membership():
    rng = random.Random(5)
    for _ in range(25):
        y = point_on(A232.l1, rng)
        z1, z2 = point_on(A232.l2, rng), point_on(A232.l2, rng)
        p = D232.point(y, z1, rand_vec(rng, 2))
        q = D232.point(y, z2, rand_vec(rng, 2))
        assert contains(A232, aff1(p, q, rand_frac(rng)))


def _interchange_square(rng, d: DecomposedDouble):
    """Four points forming an aff1/aff2-compatible square."""
    y1, y2 = rand_vec(rng, d.n1), rand_vec(rng, d.n1)
    z1, z2 = rand_vec(rng, d.n2), rand_vec(rng, d.n2)
    mk = lambda y, z: DoublePoint(d, y, z, rand_vec(rng, d.n3))
    return mk(y1, z1), mk(y1, z2), mk(y2, z1), mk(y2, z2)


def test_interchange_law_randomized():
    rng = random.Random(23)
    for _ in range(50):
        d = DecomposedDouble(rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
        x11, x12, x21, x22 = _interchange_square(rng, d)
        lhs, rhs = interchange_sides(x11, x12, x21, x22, rand_frac(rng), rand_frac(rng))
        assert lhs == rhs


def test_restricted_fiber_combinations_agree():
    # Over a fixed (y, z) both structures reduce to combinations in the core
    # and coincide pointwise.
    rng = random.Random(31)
    for _ in range(50):
        d = DecomposedDouble(rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
        y, z = rand_vec(rng, d.n1), rand_vec(rng, d.n2)
        p = DoublePoint(d, y, z, rand_vec(rng, d.n3))
        q = DoublePoint(d, y, z, rand_vec(rng, d.n3))
        lam = rand_frac(rng)
        assert aff1(p, q, lam) == aff2(p, q, lam)


@given(small, small, small, small, small, small)
def test_interchange_law_dim111(za, zb, ca, cb, lam, mu):
    d = D111
    x11 = d.point((0,), (za,), (ca,))
    x12 = d.point((0,), (zb,), (cb,))
    x21 = d.point((1,), (za,), (ca + cb,))
    x22 = d.point((1,), (zb,), (ca - cb,))
    lhs, rhs = interchange_sides(x11, x12, x21, x22, lam, mu)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# models and hulls
# ---------------------------------------------------------------------------


def test_model_dims_drop_by_one_on_sides():
    m = model_vv(A232)
    assert m.dims == (1, 2, 2)
    assert len(m.side1_basis) == 1 and len(m.side2_basis) == 2


def test_model_membership_matches_nullspace_oracle():
    rng = random.Random(43)
    # the basis vectors as the columns of a matrix
    span1 = Mat([tuple(v) for v in model_vv(A232).side1_basis]).transpose()
    span2 = Mat([tuple(v) for v in model_vv(A232).side2_basis]).transpose()
    for _ in range(25):
        p = D232.point(rand_vec(rng, 2), rand_vec(rng, 3), rand_vec(rng, 2))
        in_span = span1.solve(p.y) is not None and span2.solve(p.z) is not None
        assert model_vv(A232).contains(p) == in_span


def test_coordinate_functional_kernel():
    a = DoubleAffine(DecomposedDouble(2, 2, 1), Vec.of(1, 0), Vec.of(1, 1))
    (k,) = model_vv(a).side1_basis
    assert k == Vec.of(0, 1)


def test_hull_is_the_ambient_space():
    h = hull(A232)
    assert h.space == D232 and h.l1 == A232.l1 and h.l2 == A232.l2
    m = model_vv(A232)
    for v in m.side1_basis:
        assert h.l1.dot(v) == 0
    # core of the hull and of the model are both V3 itself
    assert m.dims[2] == h.space.n3


# ---------------------------------------------------------------------------
# duals and evaluations
# ---------------------------------------------------------------------------


def test_dual_dimension_bookkeeping():
    d = DecomposedDouble(2, 3, 5)
    assert vertical_dual(d).dims == (2, 5, 3)
    assert horizontal_dual(d).dims == (5, 3, 2)


def test_dual_basis_pairs_to_kronecker_delta():
    d = DecomposedDouble(2, 3, 2)
    dv = vertical_dual(d)
    y = Vec.zero(2)
    for b in range(3):
        for b2 in range(3):
            phi = DoublePoint(dv, y, Vec.zero(2), Vec.unit(3, b))
            x = DoublePoint(d, y, Vec.unit(3, b2), Vec.zero(2))
            assert vd_eval(phi, x) == (1 if b == b2 else 0)
    for t in range(2):
        for t2 in range(2):
            phi = DoublePoint(dv, y, Vec.unit(2, t), Vec.zero(3))
            x = DoublePoint(d, y, Vec.zero(3), Vec.unit(2, t2))
            assert vd_eval(phi, x) == (1 if t == t2 else 0)


def test_vertical_eval_requires_shared_base():
    d = DecomposedDouble(1, 1, 1)
    phi = DoublePoint(vertical_dual(d), Vec.of(1), Vec.of(2), Vec.of(3))
    x = DoublePoint(d, Vec.of(0), Vec.of(1), Vec.of(1))
    with pytest.raises(BaseMismatch):
        vd_eval(phi, x)


def test_double_dual_over_same_leg_evaluates_back():
    """(D^V)^V points act on D^V exactly as the matching D points do."""
    d = DecomposedDouble(2, 3, 2)
    dv = vertical_dual(d)
    dvv = vertical_dual(dv)
    assert dvv.dims == d.dims
    rng = random.Random(3)
    for _ in range(20):
        y = rand_vec(rng, 2)
        xi = DoublePoint(dvv, y, rand_vec(rng, 3), rand_vec(rng, 2))
        phi = DoublePoint(dv, y, rand_vec(rng, 2), rand_vec(rng, 3))
        x = DoublePoint(d, y, xi.z, xi.c)  # identity dictionary
        assert vd_eval(xi, phi) == vd_eval(phi, x)
    dh = horizontal_dual(d)
    dhh = horizontal_dual(dh)
    assert dhh.dims == d.dims
    for _ in range(20):
        z = rand_vec(rng, 3)
        xi = DoublePoint(dhh, rand_vec(rng, 2), z, rand_vec(rng, 2))
        psi = DoublePoint(dh, rand_vec(rng, 2), z, rand_vec(rng, 2))
        x = DoublePoint(d, xi.y, z, xi.c)
        assert hd_eval(xi, psi) == hd_eval(psi, x)


def test_special_dual_vertical_rank_one():
    dual = special_dual_vertical(A111)
    assert dual.space.dims == (1, 1, 1)
    assert dual.l1 == Vec.of(1) and dual.l2 == Vec.of(1) and dual.sigma == Vec.of(1)


def test_special_dual_data_cycle():
    ah = special_dual_horizontal(A232)
    assert ah.space.dims == (2, 3, 2)
    assert ah.l1 == A232.sigma and ah.l2 == A232.l2 and ah.sigma == A232.l1
    ahv = special_dual_vertical(ah)
    assert ahv.l1 == A232.sigma and ahv.l2 == A232.l1 and ahv.sigma == A232.l2
    ahvh = special_dual_horizontal(ahv)
    assert ahvh.l1 == A232.l2 and ahvh.l2 == A232.l1 and ahvh.sigma == A232.sigma


def test_special_dual_requires_marked_vector():
    plain = DoubleAffine(D111, Vec.of(1), Vec.of(1))
    with pytest.raises(NotSpecial):
        special_dual_vertical(plain)
    with pytest.raises(NotSpecial):
        special_dual_horizontal(plain)
    with pytest.raises(NotSpecial):
        adjoint(plain)


# ---------------------------------------------------------------------------
# the canonical pairing
# ---------------------------------------------------------------------------


def test_pairing_rank_one_example():
    phi = DoublePoint(vertical_dual(D111), Vec.of(1), Vec.of(1), Vec.of(2))
    psi = DoublePoint(horizontal_dual(D111), Vec.of(1), Vec.of(1), Vec.of(3))
    assert pairing(phi, psi, A111) == -1
    # the same value falls out of the direct difference at two core points
    for t in (0, 5):
        x = DoublePoint(D111, Vec.of(1), Vec.of(1), Vec.of(t))
        assert vd_eval(phi, x) - hd_eval(psi, x) == -1


@given(st.data())
def test_pairing_is_the_difference_at_every_interpolating_point(data):
    n1, n2, n3 = data.draw(st.tuples(*[st.integers(1, 4)] * 3))
    vec = lambda n: Vec(data.draw(st.lists(small, min_size=n, max_size=n)))
    d = DecomposedDouble(n1, n2, n3)
    a = DoubleAffine(d, Vec.unit(n1, 0), Vec.unit(n2, 0))
    cov = vec(n3)
    phi = DoublePoint(vertical_dual(d), vec(n1), cov, vec(n2))
    psi = DoublePoint(horizontal_dual(d), cov, vec(n2), vec(n1))
    x = DoublePoint(d, phi.y, psi.z, vec(n3))
    assert pairing(phi, psi, a) == vd_eval(phi, x) - hd_eval(psi, x)


def test_pairing_of_dual_basis_with_zero_section():
    rng = random.Random(17)
    for _ in range(10):
        d1 = point_on(A232.l1, rng)
        d2 = point_on(A232.l2, rng)
        gamma = rand_vec(rng, 2)
        zeta = rand_vec(rng, 3)
        phi = DoublePoint(vertical_dual(D232), d1, gamma, zeta)
        psi = DoublePoint(horizontal_dual(D232), gamma, d2, Vec.zero(2))
        assert pairing(phi, psi, A232) == zeta.dot(d2)


def test_pairing_requires_common_core_covector():
    phi = DoublePoint(vertical_dual(D111), Vec.of(1), Vec.of(1), Vec.of(2))
    psi = DoublePoint(horizontal_dual(D111), Vec.of(2), Vec.of(1), Vec.of(3))
    with pytest.raises(BaseMismatch):
        pairing(phi, psi, A111)


def test_wrong_owner_arguments_raise_their_texts():
    d = DecomposedDouble(1, 2, 3)
    a = DoubleAffine(d, Vec.of(1), Vec.of(1, 0))
    x = d.zero_point()
    phi = vertical_dual(d).zero_point()
    psi = horizontal_dual(d).zero_point()
    for wrong in (x, psi):
        with pytest.raises(DimMismatch, match="^first argument is not a vertical-dual point$"):
            vd_eval(wrong, x)
    for wrong in (x, phi):
        with pytest.raises(DimMismatch, match="^first argument is not a horizontal-dual point$"):
            hd_eval(wrong, x)
    for args in ((psi, phi), (phi, phi), (psi, psi), (x, psi)):
        with pytest.raises(DimMismatch, match="^pairing arguments do not match the dual spaces$"):
            pairing(*args, a)


def _special_dual_points(rng, a: DoubleAffine):
    """Random points of the special vertical and horizontal duals, over one core covector."""
    phi_cov = point_on(a.sigma, rng)  # gamma with gamma(sigma) = 1
    d1 = point_on(a.l1, rng)
    d2 = point_on(a.l2, rng)
    zeta = rand_vec(rng, a.space.n2)
    eta = rand_vec(rng, a.space.n1)
    phi = DoublePoint(vertical_dual(a.space), d1, phi_cov, zeta)
    psi = DoublePoint(horizontal_dual(a.space), phi_cov, d2, eta)
    return phi, psi


def test_pairing_shifts_by_one_along_marked_sections():
    rng = random.Random(101)
    for _ in range(30):
        a = rand_double_affine(rng, rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
        phi, psi = _special_dual_points(rng, a)
        base = pairing(phi, psi, a)
        assert pairing(phi.shift_core(a.l2), psi, a) == base + 1
        assert pairing(phi, psi.shift_core(-a.l1), a) == base + 1


def test_pairing_gram_matrix_nondegenerate():
    # Pairing the c-slot basis of the vertical dual against the z-slot basis
    # of the horizontal dual gives an identity Gram block, hence nondegenerate.
    n1, n2, n3 = D232.dims
    dv, dh = vertical_dual(D232), horizontal_dual(D232)
    gamma = Vec.zero(n3)
    gram = Mat(
        [
            [
                pairing(
                    DoublePoint(dv, Vec.unit(n1, 0), gamma, Vec.unit(n2, i)),
                    DoublePoint(dh, gamma, Vec.unit(n2, j), Vec.zero(n1)),
                    A232,
                )
                for j in range(n2)
            ]
            for i in range(n2)
        ]
    )
    assert gram.is_invertible()


# ---------------------------------------------------------------------------
# flips, adjoints, morphisms
# ---------------------------------------------------------------------------


def test_flip_and_adjoint_are_involutions():
    assert flip(flip(A232)) == A232
    assert adjoint(adjoint(A232)) == A232
    assert adjoint(A232).sigma == -A232.sigma


def rand_morphism(rng, src: DecomposedDouble, dst: DecomposedDouble) -> DoubleMorphism:
    mat = lambda r, c: Mat([[rand_frac(rng) for _ in range(c)] for _ in range(r)])
    bil = Bilinear(
        [
            [[rand_frac(rng) for _ in range(src.n2)] for _ in range(src.n1)]
            for _ in range(dst.n3)
        ]
    )
    return DoubleMorphism(
        src,
        dst,
        alpha=mat(dst.n1, src.n1),
        beta=mat(dst.n2, src.n2),
        sigma=mat(dst.n3, src.n3),
        gamma_yz=bil,
        alpha0=rand_vec(rng, dst.n1),
        beta0=rand_vec(rng, dst.n2),
        gamma00=rand_vec(rng, dst.n3),
        gamma_y=mat(dst.n3, src.n1),
        gamma_z=mat(dst.n3, src.n2),
    )


def test_morphism_composition_matches_pointwise_oracle():
    rng = random.Random(71)
    d1 = DecomposedDouble(2, 3, 2)
    d2 = DecomposedDouble(3, 2, 2)
    d3 = DecomposedDouble(2, 2, 3)
    for _ in range(15):
        f = rand_morphism(rng, d1, d2)
        g = rand_morphism(rng, d2, d3)
        fg = f.then(g)
        for _ in range(5):
            p = d1.point(rand_vec(rng, 2), rand_vec(rng, 3), rand_vec(rng, 2))
            assert fg.apply(p) == g.apply(f.apply(p))


def test_morphism_composition_associative():
    rng = random.Random(73)
    d = DecomposedDouble(2, 2, 2)
    f, g, h = (rand_morphism(rng, d, d) for _ in range(3))
    assert f.then(g).then(h) == f.then(g.then(h))


def test_identity_morphism_is_neutral():
    rng = random.Random(79)
    d = DecomposedDouble(2, 3, 2)
    f = rand_morphism(rng, d, d)
    e = DoubleMorphism.identity(d)
    assert e.then(f) == f and f.then(e) == f


def test_morphisms_preserve_combinations():
    rng = random.Random(83)
    d = DecomposedDouble(2, 2, 2)
    f = rand_morphism(rng, d, d)
    for _ in range(10):
        y = rand_vec(rng, 2)
        p = DoublePoint(d, y, rand_vec(rng, 2), rand_vec(rng, 2))
        q = DoublePoint(d, y, rand_vec(rng, 2), rand_vec(rng, 2))
        lam = rand_frac(rng)
        assert f.apply(aff1(p, q, lam)) == aff1(f.apply(p), f.apply(q), lam)


# ---------------------------------------------------------------------------
# the triple dual
# ---------------------------------------------------------------------------


def test_hvh_data_cycle_names():
    ah, ahv, ahvh = hvh_chain(A232)
    assert ah.space.dims == (2, 3, 2)
    assert ahv.space.dims == (2, 2, 3)
    assert ahvh.space.dims == (3, 2, 2)
    assert (ahvh.l1, ahvh.l2, ahvh.sigma) == (A232.l2, A232.l1, A232.sigma)


def test_hvh_iso_shape_and_sign():
    iso = hvh_iso(A232)
    n1, n2, n3 = D232.dims
    ahvh = hvh_chain(A232)[2]
    target = adjoint(flip(A232))
    assert iso == DoubleMorphism.linear(
        ahvh.space, target.space, Mat.identity(n2), Mat.identity(n1), -Mat.identity(n3)
    )
    assert iso.sigma @ A232.sigma == target.sigma


def test_hvh_iso_exhaustive_small_dims():
    rng = random.Random(97)
    for n1 in (1, 2, 3):
        for n2 in (1, 2, 3):
            for n3 in (1, 2, 3):
                a = rand_double_affine(rng, n1, n2, n3)
                iso = hvh_iso(a)
                assert iso.sigma == -Mat.identity(n3)


def test_hvh_sign_is_forced():
    """With the core negation removed, tautological evaluation disagrees."""
    d = D111
    a = A111
    ah, ahv, ahvh = hvh_chain(a)
    xi = DoublePoint(ahvh.space, Vec.of(0), Vec.of(0), Vec.of(1))
    theta = DoublePoint(ahv.space, Vec.of(1), Vec.of(0), Vec.of(0))
    lhs = hd_eval(xi, theta)
    good = DoublePoint(d, xi.z, xi.y, -xi.c)
    bad = DoublePoint(d, xi.z, xi.y, xi.c)
    assert lhs == pairing(theta, good, ah)
    assert lhs != pairing(theta, bad, ah)


def test_the_hvh_sign_check_runs_once_per_space(monkeypatch):
    rng = random.Random(5)
    double._hvh_sign_holds.cache_clear()
    calls = []
    pair = double._pair
    monkeypatch.setattr(double, "_pair", lambda *args: calls.append(args) or pair(*args))
    hvh_iso(rand_double_affine(rng, 2, 1, 3))
    assert calls
    calls.clear()
    hvh_iso(rand_double_affine(rng, 2, 1, 3))
    assert calls == []
    hvh_iso(rand_double_affine(rng, 1, 2, 3))
    assert calls


def test_a_failed_sign_check_is_reported(monkeypatch):
    monkeypatch.setattr(double, "_hvh_sign_holds", lambda d: False)
    with pytest.raises(ConstraintViolated, match="^triple-dual sign check failed$"):
        hvh_iso(A232)


def test_hvh_requires_special():
    with pytest.raises(NotSpecial):
        hvh_iso(DoubleAffine(D111, Vec.of(1), Vec.of(1)))


# ---------------------------------------------------------------------------
# level-set classification
# ---------------------------------------------------------------------------


def row111(g00=0, gy=0, gz=0, gyz=0, sc=0, val=0):
    return [g00, gy, gz, gyz, sc, val]


def test_hyperbola_is_not_a_subbundle():
    out = classify_level_set(D111, [row111(gyz=1, val=1)])  # y * z = 1
    assert not out.is_subbundle
    assert out.witness is not None and out.witness.y == (F(0),)


def test_plane_with_core_direction_is_a_subbundle():
    out = classify_level_set(D111, [row111(gy=1, gz=1, sc=1, val=1)])  # y + z + c = 1
    assert out.is_subbundle


def test_core_translate_is_a_subbundle():
    out = classify_level_set(D111, [row111(sc=1, val=1)])  # c = 1
    assert out.is_subbundle


def test_pure_side_constraint_is_a_subbundle():
    out = classify_level_set(D111, [row111(gy=1, val=1)])  # y = 1
    assert out.is_subbundle


def test_linear_side_coupling_yields_pair_witness():
    out = classify_level_set(D111, [row111(gy=1, gz=1, val=1)])  # y + z = 1, no core
    assert not out.is_subbundle
    assert out.witness is not None
    assert out.witness.y is not None and out.witness.z is not None
    y0, z0 = out.witness.y[0], out.witness.z[0]
    assert y0 + z0 != 1


def test_inconsistent_rows_mean_empty_level_set():
    out = classify_level_set(D111, [row111(gy=1, val=0), row111(gy=1, val=1)])
    assert not out.is_subbundle
    assert "inconsistent" in out.reason or "empty" in out.reason


def test_coupling_that_dies_on_the_side_flat():
    # y = 1 together with (y - 1) * z = 0: the bilinear row vanishes on the flat.
    d = DecomposedDouble(1, 1, 0)
    rows = [
        [0, 1, 0, 0, 1],  # y = 1          (g00, gy, gz, gyz, val)
        [0, 0, -1, 1, 0],  # y*z - z = 0
    ]
    out = classify_level_set(d, rows)
    assert out.is_subbundle


def test_classification_survives_extra_core_rows():
    # Same hyperbola, but with a solvable core row mixed in: still rejected.
    rows = [
        row111(gyz=1, val=1),
        row111(gy=2, sc=1, val=3),
    ]
    out = classify_level_set(D111, rows)
    assert not out.is_subbundle and out.witness.y == (F(0),)


def test_malformed_rows_rejected():
    from daffine.errors import MalformedConstraint

    with pytest.raises(MalformedConstraint):
        classify_level_set(D111, [[1, 2, 3]])


# ---------------------------------------------------------------------------
# the defining conditions, executably
# ---------------------------------------------------------------------------


def test_projections_are_affine_and_jointly_surjective():
    rng = random.Random(131)
    for _ in range(20):
        a = rand_double_affine(rng, rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
        d = a.space
        # (i) the z-projection of an aff1 combination combines affinely; the
        # y-slot is constant along aff1 (and symmetrically for aff2)
        y = point_on(a.l1, rng)
        p = DoublePoint(d, y, point_on(a.l2, rng), rand_vec(rng, d.n3))
        q = DoublePoint(d, y, point_on(a.l2, rng), rand_vec(rng, d.n3))
        lam = rand_frac(rng)
        combo = aff1(p, q, lam)
        assert combo.y == y
        assert combo.z == p.z.scale(lam) + q.z.scale(1 - lam)
        # (ii) any pair of side points is hit by a point of A
        y0, z0 = point_on(a.l1, rng), point_on(a.l2, rng)
        assert contains(a, DoublePoint(d, y0, z0, Vec.zero(d.n3)))
        # (iii) interchange on points of A stays in A
        z1 = point_on(a.l2, rng)
        x11 = DoublePoint(d, y0, z0, rand_vec(rng, d.n3))
        x12 = DoublePoint(d, y0, z1, rand_vec(rng, d.n3))
        x21 = DoublePoint(d, y, z0, rand_vec(rng, d.n3))
        x22 = DoublePoint(d, y, z1, rand_vec(rng, d.n3))
        lhs, rhs = interchange_sides(x11, x12, x21, x22, rand_frac(rng), rand_frac(rng))
        assert lhs == rhs and contains(a, lhs)


def test_zero_functionals_rejected():
    with pytest.raises(ZeroFunctional):
        DoubleAffine(D111, Vec.of(0), Vec.of(1))
    with pytest.raises(NotSpecial):
        DoubleAffine(D111, Vec.of(1), Vec.of(1), Vec.of(0))
