import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from daffine.double import (
    DecomposedDouble,
    DoubleAffine,
    contains as double_contains,
    flip,
    pairing,
    special_dual_horizontal,
    special_dual_vertical,
)
from daffine.errors import (
    ConstraintViolated,
    DaffineError,
    DimMismatch,
    NotSpecial,
    SpaceMismatch,
    ZeroFunctional,
)
from daffine.exact import Vec
from daffine.naffine import (
    GradedSpace,
    NAffine,
    bbl_n,
    core_translate,
    cotangent_space,
    drop_direction,
    momentum_degree,
    restrict_double,
    side_base_duality_report,
    side_bases,
    unit_degree,
)
from daffine.phase import TrivialBispecial, bbl_double_affine
from daffine.randgen import rand_dual_pair, rand_graded_member


def rand_frac(rng):
    return F(rng.randint(-6, 6), rng.randint(1, 4))


def rand_vec(rng, d):
    return Vec(rand_frac(rng) for _ in range(d))


def nonzero_vec(rng, d):
    while True:
        v = rand_vec(rng, d)
        if not v.is_zero():
            return v


def all_degrees(n):
    out = []
    for mask in range(1, 1 << n):
        out.append(tuple((mask >> k) & 1 for k in range(n)))
    return sorted(out)


def rand_naffine(rng, n, maxdim=2, special=True):
    """A random marked bundle with every component present."""
    dims = {deg: rng.randint(1, maxdim) for deg in all_degrees(n)}
    if n == 1:
        dims[(1,)] += 1  # room for a model direction
    space = GradedSpace(n, dims)
    funcs = tuple(nonzero_vec(rng, dims[unit_degree(n, i)]) for i in range(n))
    sigma = None
    if special:
        while sigma is None:
            v = nonzero_vec(rng, dims[(1,) * n])
            if n > 1:
                sigma = v
            elif funcs[0].dot(v) == 0:
                sigma = v
            else:
                i = next(k for k, x in enumerate(funcs[0]) if x != 0)
                w = v - Vec.unit(v.dim, i).scale(funcs[0].dot(v) / funcs[0][i])
                sigma = None if w.is_zero() else w
    return NAffine(space, funcs, sigma)


# ---------------------------------------------------------------------------
# Graded spaces and points


def test_space_components_sorted_and_pruned():
    space = GradedSpace(2, [((1, 1), 2), ((1, 0), 0), ((0, 1), 3)])
    assert space.components == (((0, 1), 3), ((1, 1), 2))
    assert space.total_dim == 5
    assert space.dim_of((1, 0)) == 0 and not space.has((1, 0))
    assert space.degrees() == ((0, 1), (1, 1))
    assert space.core_dim == 2


def test_space_rejects_bad_degrees():
    with pytest.raises(DimMismatch):
        GradedSpace(2, {(1, 0, 1): 1})
    with pytest.raises(DaffineError):
        GradedSpace(2, {(2, 0): 1})
    with pytest.raises(DaffineError):
        GradedSpace(2, {(0, 0): 1})
    with pytest.raises(DaffineError):
        GradedSpace(2, [((1, 0), 1), ((1, 0), 2)])


def test_a_degree_bit_that_is_not_an_int_is_refused_not_truncated():
    space = GradedSpace(2, {(1, 0): 2, (0, 1): 1})
    pt = space.point({(1, 0): (1, 2)})
    for read in (
        lambda: space.dim_of((1.9, 0)),
        lambda: space.has((1, F(0))),
        lambda: pt.block((1.5, 0)),
        lambda: pt.with_block((True, 0), (3, 4)),
    ):
        with pytest.raises(DimMismatch, match="degree bit .* is not an int"):
            read()
    assert space.dim_of((1, 0)) == 2 and pt.block([1, 0]) == Vec((1, 2))


def test_point_blocks_and_flattening():
    space = GradedSpace(2, {(1, 0): 2, (0, 1): 1, (1, 1): 2})
    pt = space.point({(1, 0): (1, 2), (1, 1): (3, 4)})
    assert pt.block((0, 1)) == Vec.zero(1)
    assert pt.block((1, 0)) == Vec((1, 2))
    assert pt.blocks == (Vec((0,)), Vec((1, 2)), Vec((3, 4)))
    moved = pt.with_block((0, 1), (7,))
    assert moved.block((0, 1)) == Vec((7,))
    with pytest.raises(DimMismatch):
        space.point({(1, 0): (1, 2, 3)})
    with pytest.raises(DimMismatch):
        pt.block((1, 1, 0))


def test_project_drops_one_direction():
    space = GradedSpace(2, {(1, 0): 2, (0, 1): 1, (1, 1): 2})
    pt = space.point({(1, 0): (1, 2), (0, 1): (5,), (1, 1): (3, 4)})
    sub = drop_direction(space, 0)
    assert sub == GradedSpace(1, {(1,): 1})
    assert sub.point({(1,): pt.block((0, 1))}).block((1,)) == Vec((5,))
    assert drop_direction(space, 1) == GradedSpace(1, {(1,): 2})
    with pytest.raises(DimMismatch):
        drop_direction(GradedSpace(1, {(1,): 2}), 0)


# ---------------------------------------------------------------------------
# n-fold level sets


def test_naffine_validation_errors():
    space = GradedSpace(2, {(1, 0): 2, (0, 1): 1, (1, 1): 2})
    good = (Vec((1, 0)), Vec((2,)))
    NAffine(space, good, Vec((0, 1)))
    with pytest.raises(ZeroFunctional):
        NAffine(space, (Vec((0, 0)), Vec((2,))))
    with pytest.raises(NotSpecial):
        NAffine(space, good, Vec((0, 0)))
    with pytest.raises(DimMismatch):
        NAffine(space, (Vec((1, 0, 0)), Vec((2,))))
    with pytest.raises(DimMismatch):
        NAffine(space, good, Vec((1, 2, 3)))
    with pytest.raises(DimMismatch):
        NAffine(space, (Vec((1, 0)),))


def test_membership_and_levels():
    rng = random.Random(4)
    for n in (1, 2, 3):
        a = rand_naffine(rng, n)
        for _ in range(10):
            pt = rand_graded_member(rng, a)
            assert a.contains(pt)
            assert a.level_values(pt) == (1,) * n
        with pytest.raises(ConstraintViolated):
            a.point()
        with pytest.raises(SpaceMismatch):
            a.contains(GradedSpace(n, {(1,) * n: 9}).zero_point())


def test_core_translate_preserves_levels_in_higher_order():
    rng = random.Random(5)
    for n in (2, 3):
        a = rand_naffine(rng, n)
        for _ in range(8):
            pt = rand_graded_member(rng, a)
            delta = rand_vec(rng, a.space.core_dim)
            moved = core_translate(pt, delta)
            assert a.contains(moved)
            for k in range(n):
                for deg in a.space.degrees():
                    if deg[k] == 0:
                        assert moved.block(deg) == pt.block(deg)


def test_core_translate_order_one_needs_model_direction():
    rng = random.Random(6)
    a = NAffine(GradedSpace(1, {(1,): 3}), (Vec((1, 2, 3)),), Vec((2, -1, 0)))
    pt = rand_graded_member(rng, a)
    assert a.contains(core_translate(pt, Vec((2, -1, 0))))
    assert not a.contains(core_translate(pt, Vec((1, 0, 0))))
    with pytest.raises(NotSpecial):
        NAffine(a.space, a.functionals, Vec.unit(3, 0))


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
def test_core_translations_compose(u1, u2, w1, w2):
    a = rand_naffine(random.Random(7), 2)
    pt = rand_graded_member(random.Random(8), a)
    d = a.space.core_dim
    u = Vec([u1, u2][:d] + [0] * max(0, d - 2))
    w = Vec([w1, w2][:d] + [0] * max(0, d - 2))
    assert core_translate(core_translate(pt, u), w) == core_translate(pt, u + w)


# ---------------------------------------------------------------------------
# The cotangent lift


def test_cotangent_components_and_momentum_degrees():
    space = GradedSpace(3, {(1, 0, 0): 2, (0, 1, 1): 1, (1, 1, 1): 2})
    big = cotangent_space(space)
    expect = GradedSpace(
        4,
        {
            (1, 0, 0, 0): 2,
            (0, 1, 1, 0): 1,
            (1, 1, 1, 0): 2,
            (0, 1, 1, 1): 2,
            (1, 0, 0, 1): 1,
            (0, 0, 0, 1): 2,
        },
    )
    assert big == expect
    for deg, d in space.components:
        mdeg = momentum_degree(deg)
        assert mdeg[-1] == 1
        assert all(s + t == 1 for s, t in zip(deg, mdeg))
        assert big.dim_of(mdeg) == d
    assert big.total_dim == 2 * space.total_dim
    assert big.core_dim == 0


def test_bbl_functionals_and_marking():
    rng = random.Random(9)
    a = rand_naffine(rng, 2)
    b = bbl_n(a)
    assert b.order == 3
    assert b.functionals == a.functionals + (a.sigma,)
    assert not b.is_special
    with pytest.raises(NotSpecial):
        bbl_n(NAffine(a.space, a.functionals, None))


def test_side_bases_recover_the_original():
    rng = random.Random(10)
    for n in (1, 2, 3):
        a = rand_naffine(rng, n)
        sides = side_bases(bbl_n(a))
        assert len(sides) == n + 1
        assert sides[-1] == a


def test_side_bases_carry_the_marked_duals():
    rng = random.Random(11)
    a = rand_naffine(rng, 3)
    sides = side_bases(bbl_n(a))
    for i in range(3):
        assert sides[i].sigma == a.functionals[i]
        assert sides[i].functionals == tuple(
            a.functionals[j] for j in range(3) if j != i
        ) + (a.sigma,)
        assert sides[i].space.core_dim == a.functionals[i].dim


def test_side_bases_need_two_directions():
    a1 = NAffine(GradedSpace(1, {(1,): 2}), (Vec((1, 0)),), Vec((0, 1)))
    with pytest.raises(DimMismatch):
        side_bases(a1)


# ---------------------------------------------------------------------------
# Two-direction restrictions and cross-module agreement


def test_restrict_double_identity_at_order_two():
    rng = random.Random(12)
    a = rand_naffine(rng, 2)
    r = restrict_double(a, 0, 1)
    dims = (a.space.dim_of((1, 0)), a.space.dim_of((0, 1)), a.space.core_dim)
    assert r.double == DoubleAffine(
        DecomposedDouble(*dims), a.functionals[0], a.functionals[1], a.sigma
    )


def test_restrict_double_rejects_bad_directions():
    a = rand_naffine(random.Random(13), 2)
    with pytest.raises(DimMismatch):
        restrict_double(a, 0, 0)
    with pytest.raises(DimMismatch):
        restrict_double(a, 0, 5)


def test_restriction_membership_and_core_shift():
    rng = random.Random(14)
    a = rand_naffine(rng, 3)
    for i, j in ((0, 1), (0, 2), (1, 2), (2, 0)):
        r = restrict_double(a, i, j)
        for _ in range(5):
            pt = rand_graded_member(rng, a)
            dp = r.embed(pt)
            assert double_contains(r.double, dp)
            delta = rand_vec(rng, a.space.core_dim)
            moved = r.embed(core_translate(pt, delta))
            assert moved == dp.shift_core(r.place_core(delta))


def test_order_two_side_bases_match_the_double_duals():
    rng = random.Random(15)
    for _ in range(5):
        a = rand_naffine(rng, 2)
        dd = restrict_double(a, 0, 1).double
        sides = side_bases(bbl_n(a))
        assert restrict_double(sides[1], 0, 1).double == special_dual_vertical(dd)
        assert restrict_double(sides[0], 0, 1).double == flip(
            special_dual_horizontal(dd)
        )


def test_order_one_matches_the_affine_special_dual():
    # The special dual of {alpha = 1} marked by v: the functionals f with
    # f(v) = 1 on the same hull, marked by alpha.
    rng = random.Random(16)
    a1 = rand_naffine(rng, 1, maxdim=3)
    sides = side_bases(bbl_n(a1))
    assert sides[0] == NAffine(a1.space, (a1.sigma,), a1.functionals[0])
    assert sides[1] == a1


# A special affine space is an order-one bundle: {alpha = 1} in its hull,
# marked by a model vector v.  Its special dual is the marked side base of the
# cotangent lift (the other side base gives the space back).
@st.composite
def special_spaces(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return rand_naffine(rng, 1, maxdim=draw(st.integers(1, 4)))


def special_dual(a: NAffine) -> NAffine:
    return side_bases(bbl_n(a))[0]


small_fractions = st.fractions(min_value=-60, max_value=60, max_denominator=12)


@given(special_spaces())
def test_the_special_dual_taken_twice_is_the_identity(a):
    assert special_dual(special_dual(a)) == a


@given(special_spaces(), st.integers(0, 2**32 - 1), small_fractions)
def test_dual_points_step_by_one_along_the_marked_vector(a, seed, t):
    rng = random.Random(seed)
    dual = special_dual(a)
    f = rand_graded_member(rng, dual).block((1,))  # f(v) = 1
    x = rand_graded_member(rng, a).block((1,))
    assert f.dot(a.sigma) == 1
    assert f.dot(x + a.sigma.scale(t)) == f.dot(x) + t


@given(special_spaces(), st.integers(0, 2**32 - 1))
def test_the_dual_marked_vector_is_constant_one_on_the_space(a, seed):
    x = rand_graded_member(random.Random(seed), a).block((1,))
    assert special_dual(a).sigma == a.functionals[0]
    assert special_dual(a).sigma.dot(x) == 1


_LINE_HULL = GradedSpace(1, {(1,): 2})


@pytest.mark.parametrize(
    "alpha, v, error",
    [
        pytest.param((0, 0), (1, 0), ZeroFunctional, id="alpha-zero"),
        pytest.param((0, 1), (0, 0), NotSpecial, id="v-zero"),
        pytest.param((0, 1), (1, 1), NotSpecial, id="alpha-of-v-nonzero"),
        pytest.param((0, 0, 1), (1, 0), DimMismatch, id="alpha-too-long"),
        pytest.param((1,), (1, 0), DimMismatch, id="alpha-too-short"),
        pytest.param((0, 1), (1, 0, 0), DimMismatch, id="v-too-long"),
        pytest.param((0, 1), (1,), DimMismatch, id="v-too-short"),
    ],
)
def test_an_invalid_special_affine_space_is_refused(alpha, v, error):
    with pytest.raises(error):
        NAffine(_LINE_HULL, (Vec(alpha),), Vec(v))


def test_the_special_dual_needs_a_marked_vector():
    with pytest.raises(NotSpecial):
        bbl_n(NAffine(_LINE_HULL, (Vec((0, 1)),)))


def test_order_one_lift_matches_the_phase_double():
    for n in (1, 2, 3):
        bundle = TrivialBispecial(0, n)
        h = bundle.hull_dim
        a1 = NAffine(
            GradedSpace(1, {(1,): h}),
            (Vec.unit(h, bundle.alpha_index),),
            Vec.unit(h, bundle.v_index),
        )
        lifted = restrict_double(bbl_n(a1), 0, 1).double
        assert lifted == bbl_double_affine(bundle)


def test_restricted_pairing_shift_laws():
    rng = random.Random(17)
    for n, pair in ((2, (0, 1)), (3, (1, 2))):
        a = rand_naffine(rng, n)
        dd = restrict_double(a, *pair).double
        for _ in range(8):
            phi, psi = rand_dual_pair(rng, dd)
            base = pairing(phi, psi, dd)
            assert pairing(phi.shift_core(dd.l2), psi, dd) == base + 1
            assert pairing(phi, psi.shift_core(-dd.l1), dd) == base + 1


# ---------------------------------------------------------------------------
# The verification report


def test_side_base_duality_report_passes():
    rng = random.Random(18)
    for n in (2, 3):
        a = rand_naffine(rng, n)
        rep = side_base_duality_report(a, seed=3)
        assert rep.passed
        names = {r.name for r in rep.sorted_records()}
        assert "final side base recovers the bundle" in names
        assert f"side base {n} is the marked dual" in names
        assert f"side base {n + 1} is the marked dual" not in names
        assert "directions (1,2) adjoint duality" in names
        assert "directions (1,2) restriction embeds the level set" in names
        assert len(rep.sorted_records()) == 1 + n + n * (n - 1)


def test_duality_report_is_deterministic():
    a = rand_naffine(random.Random(19), 3)
    assert (
        side_base_duality_report(a, seed=9).to_json()
        == side_base_duality_report(a, seed=9).to_json()
    )
