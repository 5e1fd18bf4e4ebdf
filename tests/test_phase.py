"""Cotangent tower: reductions, duality maps, and the tangent-side pairing."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daffine.double import contains as double_contains
from daffine.errors import (
    BaseMismatch,
    ConstraintViolated,
    DimMismatch,
    SpaceMismatch,
    ZeroForm,
)
from daffine.exact import Mat, Poly, Vec
from daffine.phase import (
    AFFCTG,
    BBL,
    CONTACT,
    PHASEP,
    CotangentPoint,
    OneForm,
    PhaseSet,
    ReducedCovector,
    TangentClass,
    TrivialBispecial,
    afftg_and_duals,
    affctg_double,
    apply_adapted,
    bbl_double_affine,
    beta,
    build,
    chi,
    contact_double_affine,
    contact_tangent_pairing,
    from_double_point,
    iota,
    iota_inverse,
    is_adapted,
    kappa,
    lifts,
    phase_kappa,
    phasep_double_affine,
    side_functionals,
    tau,
    to_double_point,
    x_section,
)

E11 = TrivialBispecial(1, 1)
E22 = TrivialBispecial(2, 2)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=8)


def rand_frac(rng, span=6):
    return Fraction(rng.randint(-span, span), rng.choice((1, 1, 2, 3)))


def rand_vec(rng, k):
    return Vec(rand_frac(rng) for _ in range(k))


def rand_cotangent(rng, bundle):
    return CotangentPoint(
        bundle,
        rand_vec(rng, bundle.base_dim),
        rand_vec(rng, bundle.hull_dim),
        rand_vec(rng, bundle.base_dim),
        rand_vec(rng, bundle.hull_dim),
    )


def rand_member(rng, ps):
    """A random point of the given phase set (constraints imposed by hand)."""
    pt = rand_cotangent(rng, ps.bundle)
    for s, v in ps.constraints:
        pt = pt.with_slot(s, v)
    return ps.reduce(pt)


def rand_adapted(rng, bundle):
    h = bundle.hull_dim
    va, al = bundle.v_index, bundle.alpha_index
    m = Mat.identity(h)
    for _ in range(5):
        i = rng.randrange(h)
        j = rng.randrange(h)
        if i == j or i == va or j == al:
            continue
        bump = Mat(
            tuple(
                tuple(
                    (1 if r == c else 0) + (rand_frac(rng) if (r, c) == (i, j) else 0)
                    for c in range(h)
                )
                for r in range(h)
            )
        )
        m = m @ bump
    return m


# ---------------------------------------------------------------------------
# normal form and chi
# ---------------------------------------------------------------------------


def test_normal_form_marks_the_right_slots():
    f = E22.fiber()
    assert f.functionals == (Vec.unit(4, 3),) and f.sigma == Vec.unit(4, 0)
    assert [f.sigma[i] for i in range(4)] == [1, 0, 0, 0]
    dual = E22.dual_bundle()
    assert dual.alpha_index == 0 and dual.v_index == 3
    assert dual.dual_bundle() == E22


def test_chi_translates_the_two_slots():
    pt = CotangentPoint(E11, Vec.of(0), Vec.of(1, 4, 7), Vec.of(2), Vec.of(3, 5, 2))
    moved = chi(3, -2, pt)
    assert moved.y == Vec.of(4, 4, 7)
    assert moved.pi == Vec.of(3, 5, 0)
    assert chi(0, 0, pt) == pt


@given(s1=rationals, t1=rationals, s2=rationals, t2=rationals)
@settings(max_examples=40, deadline=None)
def test_chi_group_law(s1, t1, s2, t2):
    pt = CotangentPoint(E11, Vec.of(1), Vec.of(2, -1, 3), Vec.of(0), Vec.of(1, 1, 1))
    assert chi(s1, t1, chi(s2, t2, pt)) == chi(s1 + s2, t1 + t2, pt)


def test_lifts_values_and_invariance():
    rng = random.Random(1)
    zero = CotangentPoint(E11, Vec.of(0), Vec.of(5, 1, 0), Vec.of(0), Vec.zero(3))
    assert lifts(zero) == (0, 0)
    b = rand_member(rng, build(BBL, E11))
    assert lifts(b) == (1, 1)
    w = rand_cotangent(rng, E22)
    for _ in range(5):
        assert lifts(chi(rand_frac(rng), rand_frac(rng), w)) == lifts(w)


# ---------------------------------------------------------------------------
# the four standard sets
# ---------------------------------------------------------------------------


def test_masks_and_constraints_per_kind():
    assert build(AFFCTG, E11).mask == {("y", 0), ("pi", 2)}
    assert build(CONTACT, E11).mask == {("pi", 2)}
    assert build(BBL, E11).mask == frozenset()
    assert build(AFFCTG, E11).constraints == ()
    assert dict(build(BBL, E11).constraints) == {("y", 2): 1, ("pi", 0): 1}
    dual = build(CONTACT, E11.dual_bundle())
    assert dual.mask == {("pi", 0)}
    assert dict(dual.constraints) == {("y", 0): 1, ("pi", 2): 1}


def test_mask_and_constraints_are_computed_once_and_are_not_fields():
    ps = build(CONTACT, E11)
    assert ps.mask is ps.mask and ps.constraints is ps.constraints
    assert all(type(v) is Fraction for _, v in ps.constraints)
    assert ps == PhaseSet(E11, CONTACT) and hash(ps) == hash(PhaseSet(E11, CONTACT))
    assert ps != PhaseSet(E11, BBL)
    assert repr(ps) == "PhaseSet(bundle=TrivialBispecial(base_dim=1, n=1, dual_form=False), kind='contact')"
    with pytest.raises(ValueError):
        PhaseSet(E11, "nope")


def test_with_slot_rejects_a_float():
    pt = rand_cotangent(random.Random(4), E11)
    for slot in (("y", 0), ("pi", 1)):
        with pytest.raises(TypeError, match=r"^cannot interpret 0.5 as an exact scalar$"):
            pt.with_slot(slot, 0.5)


def test_reduce_enforces_constraints_and_masks():
    rng = random.Random(2)
    pt = rand_cotangent(rng, E11).with_slot(("y", 2), Fraction(2))
    with pytest.raises(ConstraintViolated):
        build(BBL, E11).reduce(pt)
    w = build(AFFCTG, E11).reduce(rand_cotangent(rng, E11))
    with pytest.raises(ConstraintViolated):
        build(BBL, E11).reduce(w)  # cannot unmask
    with pytest.raises(SpaceMismatch):
        build(AFFCTG, E22).reduce(rand_cotangent(rng, E11))


def test_masked_sets_are_chi_invariant():
    rng = random.Random(3)
    w = rand_member(rng, build(AFFCTG, E22))
    assert chi(rand_frac(rng), rand_frac(rng), w) == w
    c = rand_member(rng, build(CONTACT, E22))
    assert chi(0, rand_frac(rng), c) == c
    assert chi(1, 0, c) != c  # the v-translation is genuine data here


def test_bbl_orbit_collapses_in_the_phase_set():
    rng = random.Random(4)
    phasep = build(PHASEP, E22)
    b = rand_member(rng, build(BBL, E22))
    moved = chi(rand_frac(rng), rand_frac(rng), b)
    assert phasep.reduce(b.point) == phasep.reduce(moved.point)


# ---------------------------------------------------------------------------
# double structure bridges
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", [AFFCTG, PHASEP, BBL, CONTACT])
def test_double_point_round_trip(kind):
    rng = random.Random(hash(kind) % 1000)
    for bundle in (E11, E22, E22.dual_bundle()):
        ps = build(kind, bundle)
        w = rand_member(rng, ps)
        q = to_double_point(ps, w)
        assert from_double_point(ps, q, x=w.point.x) == w


def test_bbl_points_lie_in_the_double_affine_set():
    rng = random.Random(5)
    ps = build(BBL, E22)
    a = bbl_double_affine(E22)
    for _ in range(5):
        assert double_contains(a, to_double_point(ps, rand_member(rng, ps)))


def test_phasep_points_lie_in_the_double_affine_set():
    rng = random.Random(6)
    ps = build(PHASEP, E22)
    a = phasep_double_affine(E22)
    for _ in range(5):
        assert double_contains(a, to_double_point(ps, rand_member(rng, ps)))


def test_contact_core_is_special_with_final_direction():
    a = contact_double_affine(E22)
    assert a.space.dims == (3, 3, 3)  # two reduced blocks and core T*M + R
    assert a.sigma == Vec.unit(3, 2)
    assert a.is_special
    rng = random.Random(7)
    ps = build(CONTACT, E22)
    w = rand_member(rng, ps)
    assert double_contains(a, to_double_point(ps, w))


def test_side_functional_positions_track_the_form():
    l1, l2 = side_functionals(E11)
    assert l1 == Vec.of(0, 1) and l2 == Vec.of(1, 0)
    l1d, l2d = side_functionals(E11.dual_bundle())
    assert l1d == Vec.of(1, 0) and l2d == Vec.of(0, 1)


# ---------------------------------------------------------------------------
# the model injection
# ---------------------------------------------------------------------------


def test_iota_lands_on_the_zero_level_and_inverts():
    rng = random.Random(8)
    data = (rand_vec(rng, 2), rand_vec(rng, 2), rand_vec(rng, 2), rand_vec(rng, 2))
    w = iota(E22, *data)
    assert lifts(w) == (0, 0)
    assert w.mask == build(AFFCTG, E22).mask
    assert iota_inverse(w) == data


def test_iota_is_linear_and_injective():
    rng = random.Random(9)
    x = rand_vec(rng, 2)
    u1, p1, m1 = rand_vec(rng, 2), rand_vec(rng, 2), rand_vec(rng, 2)
    u2, p2, m2 = rand_vec(rng, 2), rand_vec(rng, 2), rand_vec(rng, 2)
    a = iota(E22, x, u1 + u2, p1 + p2, m1 + m2)
    b1, b2 = iota(E22, x, u1, p1, m1), iota(E22, x, u2, p2, m2)
    assert a.point.y == b1.point.y + b2.point.y
    assert a.point.pi == b1.point.pi + b2.point.pi
    assert a.point.p == b1.point.p + b2.point.p
    if (u1, p1, m1) != (u2, p2, m2):
        assert b1 != b2


def test_every_zero_level_point_is_hit():
    rng = random.Random(10)
    w = rand_member(rng, build(AFFCTG, E22))
    pt = w.point.with_slot(("y", 3), Fraction(0)).with_slot(("pi", 0), Fraction(0))
    w0 = ReducedCovector(pt, w.mask)
    assert iota(E22, *iota_inverse(w0)) == w0


def test_iota_inverse_rejects_nonzero_levels():
    rng = random.Random(11)
    w = rand_member(rng, build(PHASEP, E22))
    with pytest.raises(ConstraintViolated):
        iota_inverse(w)


# ---------------------------------------------------------------------------
# tau
# ---------------------------------------------------------------------------


def contact_point(bundle, x, y, p, pi):
    return build(CONTACT, bundle).reduce(CotangentPoint(bundle, x, y, p, pi))


def test_tau_frozen_instance():
    c = contact_point(E11, Vec.of(0), Vec.of(2, 3, 1), Vec.of(0), Vec.of(1, 5, 0))
    out = tau(c)
    assert out.point.pi == Vec.of(1, 5, -17)
    assert out.point.y == Vec.of(0, 3, 1)
    assert out.mask == {("y", 0)}


def test_tau_with_empty_middle_sum():
    e = TrivialBispecial(1, 0)
    a = Fraction(7, 2)
    c = contact_point(e, Vec.of(1), Vec.of(a, 1), Vec.of(2), Vec.of(1, 0))
    out = tau(c)
    assert out.point.pi == Vec.of(1, -a)
    assert out.point.y == Vec.of(0, 1)


def test_tau_requires_contact_membership():
    pt = CotangentPoint(E11, Vec.of(0), Vec.of(2, 3, 2), Vec.of(0), Vec.of(1, 5, 0))
    with pytest.raises(ConstraintViolated):
        tau(ReducedCovector(pt, frozenset({("pi", 2)})))
    good = contact_point(E11, Vec.of(0), Vec.of(2, 3, 1), Vec.of(0), Vec.of(1, 5, 0))
    with pytest.raises(ConstraintViolated):
        tau(ReducedCovector(good.point, frozenset()))  # wrong mask


def test_tau_is_well_defined_under_adapted_changes():
    rng = random.Random(12)
    for _ in range(10):
        c = rand_member(rng, build(CONTACT, E22))
        m = rand_adapted(rng, E22)
        direct = apply_adapted(tau(c), m)
        recomputed = tau(apply_adapted(c, m))
        assert direct == recomputed


def test_tau_identity_holds_symbolically():
    # coordinates as polynomial indeterminates: y0, y1, y2, pi1, pi2
    nv = 5
    var = lambda i: Poly(nv, {tuple(1 if k == i else 0 for k in range(nv)): Fraction(1)})
    one, zero = Poly.const(nv, 1), Poly.zero(nv)
    e = TrivialBispecial(1, 2)
    pt = CotangentPoint(
        e,
        Vec.of(zero),
        Vec.of(var(0), var(1), var(2), one),
        Vec.of(zero),
        Vec.of(one, var(3), var(4), zero),
    )
    c = ReducedCovector(pt, frozenset({("pi", 3)}))
    m = rand_adapted(random.Random(13), e)
    direct = apply_adapted(tau(c), m)
    recomputed = tau(apply_adapted(c, m))
    assert direct == recomputed
    expected = -var(0) - var(1) * var(3) - var(2) * var(4)
    assert tau(c).point.pi[3] == expected


# ---------------------------------------------------------------------------
# beta and kappa
# ---------------------------------------------------------------------------


def test_beta_is_an_involution_fixing_the_base():
    rng = random.Random(14)
    w = rand_cotangent(rng, E22)
    img = beta(w)
    assert img.bundle == E22.dual_bundle()
    assert img.x == w.x and img.y == w.pi and img.pi == w.y and img.p == -w.p
    assert beta(img) == w


def test_beta_pushes_the_constraint_pair_to_the_dual_pair():
    rng = random.Random(15)
    b = rand_member(rng, build(BBL, E22))
    img = beta(b)
    assert build(BBL, E22.dual_bundle()).contains(img)


def test_beta_exchanges_the_two_translation_flows():
    rng = random.Random(16)
    w = rand_cotangent(rng, E22)
    s, t = rand_frac(rng), rand_frac(rng)
    assert beta(chi(s, t, w)) == chi(t, s, beta(w))


def test_kappa_lands_in_the_dual_contact_set():
    c = contact_point(E11, Vec.of(0), Vec.of(2, 3, 1), Vec.of(4), Vec.of(1, 5, 0))
    k = kappa(c)
    dual = E11.dual_bundle()
    assert build(CONTACT, dual).contains(k)
    assert k.point.y == Vec.of(1, 5, -17)
    assert k.point.pi == Vec.of(0, 3, 1)
    assert k.point.p == Vec.of(-4)


def test_kappa_flips_the_special_core_direction():
    rng = random.Random(17)
    ps = build(CONTACT, E22)
    c = rand_member(rng, ps)
    r = Fraction(5, 3)
    shifted = ps.reduce(c.point.with_slot(("y", 0), c.point.y[0] + r))
    dual_ps = build(CONTACT, E22.dual_bundle())
    q1 = to_double_point(dual_ps, kappa(c))
    q2 = to_double_point(dual_ps, kappa(shifted))
    assert q2.y == q1.y and q2.z == q1.z
    assert q2.c - q1.c == Vec.of(0, 0, -r)
    base = to_double_point(ps, c)
    moved = to_double_point(ps, shifted)
    assert moved.c - base.c == Vec.of(0, 0, r)


def test_kappa_commutes_with_the_phase_projections():
    rng = random.Random(18)
    c = rand_member(rng, build(CONTACT, E22))
    phasep = build(PHASEP, E22)
    below = phase_kappa(phasep.reduce(c))
    above = build(PHASEP, E22.dual_bundle()).reduce(kappa(c))
    assert below == above


# ---------------------------------------------------------------------------
# adapted basis changes
# ---------------------------------------------------------------------------


def test_adapted_pattern_is_enforced():
    m = Mat.identity(4)
    assert is_adapted(E22, m)
    rng = random.Random(21)
    g = rand_adapted(rng, E22)
    assert is_adapted(E22, g)
    bad = Mat(
        ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    )  # moves the v-row
    assert not is_adapted(E22, bad)
    pt = rand_cotangent(rng, E22)
    with pytest.raises(ConstraintViolated):
        apply_adapted(pt, bad)


def test_singular_change_that_fixes_the_normal_form_is_refused():
    h = E22.hull_dim
    zeroed = next(i for i in range(h) if i not in (E22.v_index, E22.alpha_index))
    singular = Mat(tuple(int(i == j != zeroed) for j in range(h)) for i in range(h))
    assert not is_adapted(E22, singular)
    pt = rand_cotangent(random.Random(24), E22)
    for _ in range(2):  # no inverse is kept, so the second call is refused too
        with pytest.raises(ConstraintViolated, match="^basis change does not preserve the normal form$"):
            apply_adapted(pt, singular)


def test_adapted_changes_preserve_the_fiber_pairing():
    rng = random.Random(22)
    pt = rand_cotangent(rng, E22)
    g = rand_adapted(rng, E22)
    out = apply_adapted(pt, g)
    assert out.pi.dot(out.y) == pt.pi.dot(pt.y)
    assert out.x == pt.x and out.p == pt.p


def test_adapted_matrices_form_a_group():
    rng = random.Random(23)
    g1, g2 = rand_adapted(rng, E22), rand_adapted(rng, E22)
    assert is_adapted(E22, g1 @ g2)
    assert is_adapted(E22, g1.inverse())


# ---------------------------------------------------------------------------
# reduced tangent classes
# ---------------------------------------------------------------------------


def test_tangent_class_orbit_equality():
    y = Vec.of(2, 5, 1)
    t = Fraction(9, 2)
    a = TangentClass(E11, Vec.of(1), y, Vec.of(3), Vec.of(4, 7, 0))
    b = TangentClass(
        E11, Vec.of(1), Vec.of(2 + t, 5, 1), Vec.of(3), Vec.of(4 - t, 7, 0)
    )
    assert a == b
    assert a.y[0] == 0 and a.ydot[0] == 6  # canonical representative


def test_tangent_class_requires_level_tangency():
    with pytest.raises(ConstraintViolated):
        TangentClass(E11, Vec.of(0), Vec.of(0, 0, 2), Vec.of(0), Vec.zero(3))
    with pytest.raises(ConstraintViolated):
        TangentClass(E11, Vec.of(0), Vec.of(0, 0, 1), Vec.of(0), Vec.of(0, 0, 1))


def test_translation_generator_family_is_orbit_constant():
    # sections with velocity c - y[v] along the v-slot give one class per c
    c = Fraction(4)
    ref = None
    for w in (Fraction(0), Fraction(3), Fraction(-7, 2)):
        tc = TangentClass(
            E11, Vec.of(0), Vec.of(w, 2, 1), Vec.zero(1), Vec.of(c - w, 0, 0)
        )
        ref = tc if ref is None else ref
        assert tc == ref


def test_pairing_with_the_distinguished_section_is_one():
    rng = random.Random(24)
    for _ in range(5):
        c = rand_member(rng, build(CONTACT, E22))
        tc = x_section(E22, c.point.x, c.point.y)
        assert contact_tangent_pairing(c, tc) == 1


def test_pairing_is_representative_independent():
    rng = random.Random(25)
    c = rand_member(rng, build(CONTACT, E11))
    y = c.point.y
    t = Fraction(3)
    tc1 = TangentClass(E11, c.point.x, y, Vec.of(2), Vec.of(5, -1, 0))
    tc2 = TangentClass(
        E11,
        c.point.x,
        Vec.of(y[0] + t, y[1], y[2]),
        Vec.of(2),
        Vec.of(5 - t, -1, 0),
    )
    assert contact_tangent_pairing(c, tc1) == contact_tangent_pairing(c, tc2)


def test_pairing_separates_both_fibers():
    """Over a fixed side pair, evaluation against the other fiber is injective
    (the pairing is bi-affine, so this is rank-fullness of first differences)."""
    rng = random.Random(26)
    m, n = 2, 2
    ps = build(CONTACT, E22)
    c = rand_member(rng, ps)

    def c_shift(da, dr, di):
        pt = c.point
        pt = pt.with_slot(("y", 0), pt.y[0] + dr)
        for k, i in enumerate(E22.middle):
            pt = pt.with_slot(("pi", i), pt.pi[i] + di[k])
        return ps.reduce(CotangentPoint(pt.bundle, pt.x, pt.y, pt.p + da, pt.pi))

    def t_class(db, ds, dy):
        ydot = [Fraction(0)] * 4
        ydot[0] = ds
        for k, i in enumerate(E22.middle):
            ydot[i] = dy[k]
        return TangentClass(E22, c.point.x, c.point.y, db, Vec(ydot))

    zero_m, zero_n = Vec.zero(m), Vec.zero(n)
    c_dirs = (
        [(Vec.unit(m, a), Fraction(0), zero_n) for a in range(m)]
        + [(zero_m, Fraction(1), zero_n)]
        + [(zero_m, Fraction(0), Vec.unit(n, i)) for i in range(n)]
    )
    t_dirs = (
        [(Vec.unit(m, a), Fraction(0), zero_n) for a in range(m)]
        + [(zero_m, Fraction(1), zero_n)]
        + [(zero_m, Fraction(0), Vec.unit(n, i)) for i in range(n)]
    )
    classes = [t_class(zero_m, Fraction(0), zero_n)] + [t_class(*d) for d in t_dirs]
    points = [c] + [c_shift(*d) for d in c_dirs]

    sep_c = Mat(
        tuple(
            tuple(
                contact_tangent_pairing(c_shift(*d), tc) - contact_tangent_pairing(c, tc)
                for tc in classes
            )
            for d in c_dirs
        )
    )
    assert sep_c.rank() == m + n + 1

    base_class = classes[0]
    sep_t = Mat(
        tuple(
            tuple(
                contact_tangent_pairing(pt, t_class(*d))
                - contact_tangent_pairing(pt, base_class)
                for pt in points
            )
            for d in t_dirs
        )
    )
    assert sep_t.rank() == m + n + 1


def test_pairing_rejects_mismatched_points():
    rng = random.Random(27)
    c = rand_member(rng, build(CONTACT, E11))
    other = TangentClass(E11, c.point.x + Vec.of(1), c.point.y, Vec.of(0), Vec.zero(3))
    with pytest.raises(BaseMismatch):
        contact_tangent_pairing(c, other)


# ---------------------------------------------------------------------------
# the dual tower
# ---------------------------------------------------------------------------


def test_dual_tower_shapes_and_report():
    omega = OneForm(Vec.of(1, -2))
    sdual, pdual, report = afftg_and_duals(E22, omega)
    assert (sdual.n1, sdual.n2, sdual.n3) == (3, 2, 3)
    assert pdual.l2 == Vec.of(1, -2)
    assert pdual.sigma == side_functionals(E22)[1]
    assert report.passed, report.to_text()


def test_the_dual_core_record_names_both_dimensions_when_they_differ(monkeypatch):
    wide = TrivialBispecial(E22.base_dim, E22.n + 1).fiber()
    monkeypatch.setattr(TrivialBispecial, "fiber", lambda self: wide)
    _, _, report = afftg_and_duals(E22, OneForm(Vec.of(1, -2)))
    failed = [(r.name, r.witness) for r in report.records if r.status == "fail"]
    assert failed == [("dual core is the model fiber", "dual core dim 3, model fiber dim 4")]


def test_a_phase_set_is_built_once_per_kind_and_bundle():
    for kind in (AFFCTG, PHASEP, BBL, CONTACT):
        assert build(kind, E22) is build(kind, TrivialBispecial(2, 2))
        assert build(kind, E22) == PhaseSet(E22, kind)
        assert build(kind, E22) is not build(kind, E22.dual_bundle())


def _same_point(got, want):
    assert got == want and repr(got) == repr(want) and hash(got) == hash(want)


@pytest.mark.parametrize("bundle", [E11, E22, TrivialBispecial(0, 0), TrivialBispecial(2, 1, dual_form=True)])
def test_computed_points_equal_their_public_construction(bundle):
    """with_slot, beta and apply_adapted build their points unchecked; each
    equals the point the checking constructor builds from the formula."""
    rng = random.Random(f"trusted {bundle}")
    m, h = bundle.base_dim, bundle.hull_dim
    dual = TrivialBispecial(m, bundle.n, not bundle.dual_form)
    assert bundle.dual_bundle() == dual and bundle.dual_bundle() is bundle.dual_bundle()
    for _ in range(10):
        pt = rand_cotangent(rng, bundle)
        g = rand_adapted(rng, bundle)
        i, v = rng.randrange(h), rand_frac(rng)
        put = lambda w: Vec(v if j == i else e for j, e in enumerate(w))
        _same_point(pt.with_slot(("y", i), v), CotangentPoint(bundle, pt.x, put(pt.y), pt.p, pt.pi))
        _same_point(pt.with_slot(("pi", i), v), CotangentPoint(bundle, pt.x, pt.y, pt.p, put(pt.pi)))
        _same_point(beta(pt), CotangentPoint(dual, pt.x, pt.pi, Vec(-e for e in pt.p), pt.y))
        moved = CotangentPoint(bundle, pt.x, g.transpose() @ pt.y, pt.p, Mat(g.rows).inverse() @ pt.pi)
        _same_point(apply_adapted(pt, g), moved)
        _same_point(apply_adapted(pt, g), moved)  # the second call reads the kept inverse


def test_a_cotangent_point_that_does_not_fit_its_bundle_is_refused():
    x, y = Vec.of(1), Vec.of(1, 0, 0)
    for slots in ((x, y, x, Vec.of(1, 0)), (y, y, x, y), (x, y, Vec.zero(2), y)):
        with pytest.raises(DimMismatch, match="^cotangent point does not fit the bundle$"):
            CotangentPoint(E11, *slots)


def test_one_form_must_not_vanish():
    with pytest.raises(ZeroForm):
        OneForm(Vec.zero(2))
    with pytest.raises(DimMismatch):
        afftg_and_duals(E22, OneForm(Vec.of(1)))


def test_affctg_double_is_the_hull_of_the_phase_set():
    d = affctg_double(E22)
    a = phasep_double_affine(E22)
    assert (d.n1, d.n2, d.n3) == (3, 3, 2)
    assert a.space == d and a.sigma is None
    assert a.l1 == Vec.of(0, 0, 1) and a.l2 == Vec.of(1, 0, 0)
