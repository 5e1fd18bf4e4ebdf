"""Transition data, symbolic composition, and atlas cocycle reports.

The composition and inversion formulas are block-level shortcuts; the oracle
here embeds a transition as a flat polynomial map in all base and fiber
variables and composes by brute substitution, then compares coefficientwise.
"""

import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, reject, settings, strategies as st

import daffine.atlas as atlas_module
from daffine import cli, dsl, randgen
from daffine.double import DecomposedDouble, DoubleMorphism
from daffine.atlas import (
    Atlas,
    TransitionData,
    apply_transition,
    as_double_morphism,
    check_atlas_model_hull,
    cocycle_check,
    compose,
    first_difference,
    identity_transition,
    induce_hull,
    induce_model,
    inverse,
    linearize,
    restrict_hull,
)
from daffine.errors import (
    ConstraintViolated,
    DaffineError,
    DimMismatch,
    NotInvertible,
    SingularMatrix,
)
from daffine.exact import BaseMap, Bilinear, Mat, Poly, Vec
from daffine.report import FAIL, PASS, CheckRecord, Report


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def rand_frac(rng, span=4):
    return Fraction(rng.randint(-span, span), rng.choice((1, 1, 2, 3)))


def rand_poly(rng, m, deg=1):
    """A sparse polynomial of total degree <= deg in m variables."""
    p = Poly.const(m, rand_frac(rng))
    for _ in range(rng.randint(1, 3)):
        exp = [0] * m
        for _ in range(rng.randint(1, deg)) if m else ():
            exp[rng.randrange(m)] += 1
        p = p + Poly(m, {tuple(exp): rand_frac(rng)})
    return p


def unit_det_mat(rng, m, n):
    """A polynomial matrix whose determinant is a nonzero constant."""
    lower = [[Poly.const(m, 1 if i == j else 0) for j in range(n)] for i in range(n)]
    upper = [[Poly.const(m, 1 if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            lower[i][j] = rand_poly(rng, m)
            upper[j][i] = rand_poly(rng, m)
    diag = Mat(
        tuple(
            tuple(
                Poly.const(m, rng.choice((1, -1, 2, Fraction(1, 2))) if i == j else 0)
                for j in range(n)
            )
            for i in range(n)
        )
    )
    return Mat(lower) @ diag @ Mat(upper)


def rand_base_map(rng, m):
    p = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(i):
            p[i][j] = rand_frac(rng)
    return BaseMap(Mat(p), Vec(rand_frac(rng) for _ in range(m)))


def rand_transition(rng, m, n1, n2, n3, samples=1):
    pts = tuple(Vec(rand_frac(rng) for _ in range(m)) for _ in range(samples))
    return TransitionData(
        base_map=rand_base_map(rng, m),
        alpha0=Vec(rand_poly(rng, m) for _ in range(n1)),
        alpha=unit_det_mat(rng, m, n1),
        beta0=Vec(rand_poly(rng, m) for _ in range(n2)),
        beta=unit_det_mat(rng, m, n2),
        gamma00=Vec(rand_poly(rng, m) for _ in range(n3)),
        gamma_y=Mat(tuple(tuple(rand_poly(rng, m) for _ in range(n1)) for _ in range(n3))),
        gamma_z=Mat(tuple(tuple(rand_poly(rng, m) for _ in range(n2)) for _ in range(n3))),
        gamma_yz=Bilinear(
            tuple(
                tuple(tuple(rand_poly(rng, m) for _ in range(n2)) for _ in range(n1))
                for _ in range(n3)
            )
        ),
        sigma=unit_det_mat(rng, m, n3),
        samples=pts,
    )


# ---------------------------------------------------------------------------
# the flat-substitution oracle
# ---------------------------------------------------------------------------


def _extend(p: Poly, total: int) -> Poly:
    return Poly(total, {e + (0,) * (total - len(e)): c for e, c in p.terms.items()})


def _var(total: int, i: int) -> Poly:
    return Poly(total, {tuple(1 if k == i else 0 for k in range(total)): Fraction(1)})


def as_poly_map(t: TransitionData):
    """The transition as one polynomial map in all base and fiber variables."""
    m = t.base_dim
    n1, n2, n3 = t.fiber_dims
    total = m + n1 + n2 + n3
    ys = [_var(total, m + i) for i in range(n1)]
    zs = [_var(total, m + n1 + b) for b in range(n2)]
    cs = [_var(total, m + n1 + n2 + u) for u in range(n3)]
    ext = lambda p: _extend(p, total)

    out = [ext(p) for p in t.base_map.as_polys()]
    for i in range(n1):
        acc = ext(t.alpha0[i])
        for j in range(n1):
            acc = acc + ext(t.alpha[i, j]) * ys[j]
        out.append(acc)
    for b in range(n2):
        acc = ext(t.beta0[b])
        for a in range(n2):
            acc = acc + ext(t.beta[b, a]) * zs[a]
        out.append(acc)
    for u in range(n3):
        acc = ext(t.gamma00[u])
        for i in range(n1):
            acc = acc + ext(t.gamma_y[u, i]) * ys[i]
        for b in range(n2):
            acc = acc + ext(t.gamma_z[u, b]) * zs[b]
        for i in range(n1):
            for b in range(n2):
                acc = acc + ext(t.gamma_yz[u, i, b]) * ys[i] * zs[b]
        for v in range(n3):
            acc = acc + ext(t.sigma[u, v]) * cs[v]
        out.append(acc)
    return out


def oracle_compose(first: TransitionData, second: TransitionData):
    inner = as_poly_map(first)
    return [p.subst(inner) for p in as_poly_map(second)]


DIMS = [(1, 1, 1, 1), (2, 2, 1, 1), (1, 1, 2, 2), (2, 2, 2, 1), (3, 1, 2, 2)]


# ---------------------------------------------------------------------------
# composition and inversion
# ---------------------------------------------------------------------------


def test_identity_is_neutral():
    rng = random.Random(11)
    t = rand_transition(rng, 2, 2, 1, 2)
    e = identity_transition(2, 2, 1, 2)
    assert first_difference(compose(t, e), t) is None
    assert first_difference(compose(e, t), t) is None


@pytest.mark.parametrize("m,n1,n2,n3", DIMS)
def test_compose_matches_flat_substitution(m, n1, n2, n3):
    rng = random.Random(100 * m + 10 * n1 + n2 + n3)
    for _ in range(3):
        t1 = rand_transition(rng, m, n1, n2, n3)
        t2 = rand_transition(rng, m, n1, n2, n3)
        assert as_poly_map(compose(t1, t2)) == oracle_compose(t1, t2)


def test_compose_is_associative():
    rng = random.Random(7)
    t1 = rand_transition(rng, 2, 1, 2, 1)
    t2 = rand_transition(rng, 2, 1, 2, 1)
    t3 = rand_transition(rng, 2, 1, 2, 1)
    left = compose(compose(t1, t2), t3)
    right = compose(t1, compose(t2, t3))
    assert first_difference(left, right) is None


@pytest.mark.parametrize("m,n1,n2,n3", DIMS)
def test_inverse_round_trip(m, n1, n2, n3):
    rng = random.Random(20 + m + n1 + n2 + n3)
    t = rand_transition(rng, m, n1, n2, n3)
    e = identity_transition(m, n1, n2, n3)
    assert first_difference(compose(t, inverse(t)), e) is None
    assert first_difference(compose(inverse(t), t), e) is None


def test_inverse_rejects_nonconstant_determinant():
    x = Poly(1, {(1,): Fraction(1)})
    t = identity_transition(1, 1, 1, 1)
    bad = TransitionData(
        base_map=t.base_map,
        alpha0=t.alpha0,
        alpha=Mat(((x,),)),
        beta0=t.beta0,
        beta=t.beta,
        gamma00=t.gamma00,
        gamma_y=t.gamma_y,
        gamma_z=t.gamma_z,
        gamma_yz=t.gamma_yz,
        sigma=t.sigma,
        samples=(),
    )
    with pytest.raises(NotInvertible):
        inverse(bad)


def test_singular_block_at_sample_is_rejected():
    x = Poly(1, {(1,): Fraction(1)})
    t = identity_transition(1, 1, 1, 1)
    with pytest.raises(SingularMatrix):
        TransitionData(
            base_map=t.base_map,
            alpha0=t.alpha0,
            alpha=Mat(((x,),)),
            beta0=t.beta0,
            beta=t.beta,
            gamma00=t.gamma00,
            gamma_y=t.gamma_y,
            gamma_z=t.gamma_z,
            gamma_yz=t.gamma_yz,
            sigma=t.sigma,
            samples=(Vec.of(0),),
        )


def test_mismatched_coefficient_arity_is_rejected():
    t = identity_transition(2, 1, 1, 1)
    with pytest.raises(DimMismatch):
        TransitionData(
            base_map=t.base_map,
            alpha0=Vec.of(Poly.zero(3)),
            alpha=t.alpha,
            beta0=t.beta0,
            beta=t.beta,
            gamma00=t.gamma00,
            gamma_y=t.gamma_y,
            gamma_z=t.gamma_z,
            gamma_yz=t.gamma_yz,
            sigma=t.sigma,
        )


def test_lifted_blocks_are_kept_as_given():
    rng = random.Random(15)
    t = rand_transition(rng, 2, 2, 1, 2)
    again = replace(t)
    for name in atlas_module._BLOCK_ORDER:
        assert getattr(again, name) is getattr(t, name)
    t2 = rand_transition(rng, 2, 2, 1, 2)
    composite = compose(t, t2)
    assert replace(composite).gamma_yz is composite.gamma_yz


def test_rational_entries_are_still_lifted():
    t = identity_transition(2, 1, 1, 1)
    assert all(isinstance(e, Poly) and e.nvars == 2 for e in t.alpha0)
    mixed = replace(t, alpha0=Vec([Fraction(1, 2)]), beta=Mat([[Fraction(3)]]))
    assert mixed.alpha0[0] == Poly.const(2, Fraction(1, 2))
    assert isinstance(mixed.alpha0[0], Poly) and isinstance(mixed.beta[0, 0], Poly)
    assert mixed.beta[0, 0] == Poly.const(2, 3)
    assert mixed.gamma_yz is t.gamma_yz


@pytest.mark.parametrize(
    "block",
    [
        dict(alpha=Mat([[Poly.const(3, 1)]])),
        dict(gamma_yz=Bilinear([[[Poly.zero(1)]]])),
    ],
)
def test_polynomial_blocks_on_another_base_are_rejected(block):
    t = identity_transition(2, 1, 1, 1)
    with pytest.raises(DimMismatch):
        replace(t, **block)


@pytest.mark.parametrize(
    "name, nested",
    [
        ("alpha0", (1,)),
        ("alpha0", [Fraction(1, 2)]),
        ("alpha", ((1,),)),
        ("sigma", [[2]]),
        ("gamma_yz", (((1,),),)),
        ("gamma_yz", [[[Poly.variable(1, 0)]]]),
    ],
)
def test_blocks_accept_nested_sequences_of_their_rank(name, nested):
    t = randgen.rand_transition(random.Random(1), 1, 1, 1, 1)
    kind = dict(atlas_module.BLOCKS)[name]
    block = getattr(replace(t, **{name: nested}), name)
    assert type(block) is kind
    assert block == getattr(replace(t, **{name: kind(nested)}), name)


@pytest.mark.parametrize(
    "block",
    [
        dict(alpha0=5),
        dict(alpha0=Mat([[1]])),
        dict(alpha=(1,)),
        dict(beta=Vec.of(1)),
        dict(gamma_yz=((1,),)),
        dict(gamma_yz=Mat([[1]])),
        dict(gamma_yz=[[[1]], 2]),
    ],
)
def test_a_block_of_another_rank_is_a_dim_mismatch(block):
    t = randgen.rand_transition(random.Random(1), 1, 1, 1, 1)
    with pytest.raises(DimMismatch, match="expected a .* or sequences nested"):
        replace(t, **block)


def _with_x1_added(t, name, index):
    """t with x1 added to the entry of block name at index."""
    block = getattr(t, name)

    def bump(nested, index):
        if not index:
            return nested + Poly.variable(1, 0)
        return [bump(x, index[1:]) if i == index[0] else x for i, x in enumerate(nested)]

    nested = block.rows if isinstance(block, Mat) else block.entries
    return replace(t, **{name: type(block)(bump(nested, index))})


@pytest.mark.parametrize(
    "dims, name, index, witness",
    [
        ((2, 2, 2), "alpha0", (1,), "alpha0[1]: -9/2*x1 + 1/2 != -7/2*x1 + 1/2"),
        ((2, 2, 2), "alpha", (1, 0), "alpha[1][0]: x1 - 8/3 != 2*x1 - 8/3"),
        ((2, 2, 2), "gamma_yz", (1, 0, 1), "gamma_yz[1][0][1]: 3*x1 + 2 != 4*x1 + 2"),
        ((2, 3, 2), "gamma_z", (1, 2), "gamma_z[1][2]: -7/3*x1 - 6 != -4/3*x1 - 6"),
        ((2, 3, 2), "gamma_yz", (1, 1, 2), "gamma_yz[1][1][2]: -3*x1 + 5/4 != -2*x1 + 5/4"),
        ((2, 3, 2), "sigma", (1, 1), "sigma[1][1]: 2 != x1 + 2"),
    ],
)
def test_first_difference_names_a_mismatch_away_from_index_zero(dims, name, index, witness):
    t = randgen.rand_transition(random.Random(3), 1, *dims)
    assert first_difference(t, _with_x1_added(t, name, index)) == witness
    assert first_difference(t, replace(t)) is None


@pytest.mark.parametrize("name", ["beta", "sigma"])
def test_lifted_block_singular_at_sample_is_rejected(name):
    x = Poly(1, {(1,): Fraction(1)})
    t = identity_transition(1, 1, 1, 1)
    with pytest.raises(SingularMatrix, match=name):
        replace(t, samples=(Vec.of(0),), **{name: Mat(((x,),))})


def test_pointwise_fiber_maps_track_composition():
    rng = random.Random(42)
    t1 = rand_transition(rng, 2, 2, 2, 1)
    t2 = rand_transition(rng, 2, 2, 2, 1)
    for _ in range(5):
        x = Vec(rand_frac(rng) for _ in range(2))
        lhs = as_double_morphism(compose(t1, t2), x)
        rhs = as_double_morphism(t1, x).then(as_double_morphism(t2, t1.base_map.apply(x)))
        assert lhs == rhs


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 2, 1)])
def test_composite_maps_points_like_its_two_steps(dims):
    """An oracle that does not go through the composite formula: map a point
    through each transition in turn."""
    rng = random.Random(sum(dims) * 31 + dims[0])
    t1 = randgen.rand_transition(rng, 2, *dims)
    t2 = randgen.rand_transition(rng, 2, *dims)
    t12 = compose(t1, t2)
    for _ in range(4):
        x, y, z, c = (randgen.rand_vec(rng, n) for n in (2, *dims))
        assert apply_transition(t12, x, y, z, c) == apply_transition(
            t2, *apply_transition(t1, x, y, z, c)
        )


def _nested(block) -> list:
    if isinstance(block, Vec):
        return list(block)
    if isinstance(block, Mat):
        return [list(row) for row in block.rows]
    return [[list(row) for row in layer] for layer in block.entries]


def _zeros_like(x):
    return [_zeros_like(e) for e in x] if isinstance(x, list) else 0


def _grown(nested: list, axis: int) -> list:
    """One more zero entry along the axis (0: rows or layers, then columns)."""
    if axis == 0:
        return nested + [_zeros_like(nested[0])]
    return [_grown(x, axis - 1) for x in nested]


_BLOCK_AXES = [
    (name, axis)
    for name, naxes in (
        ("alpha0", 1), ("alpha", 2), ("beta0", 1), ("beta", 2), ("gamma00", 1),
        ("gamma_y", 2), ("gamma_z", 2), ("gamma_yz", 3), ("sigma", 2),
    )
    for axis in range(naxes)
]


@pytest.mark.parametrize("name, axis", _BLOCK_AXES)
def test_a_block_one_row_or_column_too_big_is_rejected(name, axis):
    d = DecomposedDouble(1, 2, 3)
    for value, message in (
        (DoubleMorphism.identity(d), "morphism blocks do not match the given spaces"),
        (identity_transition(2, *d.dims), "transition blocks have inconsistent fiber dimensions"),
    ):
        block = getattr(value, name)
        grown = type(block)(_grown(_nested(block), axis))
        with pytest.raises(DimMismatch, match=f"^{message}$"):
            replace(value, **{name: grown})


def test_apply_transition_round_trip():
    rng = random.Random(3)
    t = rand_transition(rng, 2, 1, 2, 1)
    x = Vec.of(Fraction(1, 2), -2)
    y, z, c = Vec.of(3), Vec.of(-1, 2), Vec.of(5)
    x2, y2, z2, c2 = apply_transition(t, x, y, z, c)
    x3, y3, z3, c3 = apply_transition(inverse(t), x2, y2, z2, c2)
    assert (x3, y3, z3, c3) == (x, y, z, c)


# ---------------------------------------------------------------------------
# induced model and hull data
# ---------------------------------------------------------------------------


def zero_dim_check(v):
    return all(p == 0 for p in v)


def test_model_drops_every_affine_block():
    rng = random.Random(5)
    t = rand_transition(rng, 2, 2, 1, 2)
    mt = induce_model(t)
    assert zero_dim_check(mt.alpha0) and zero_dim_check(mt.beta0) and zero_dim_check(mt.gamma00)
    assert mt.alpha == t.alpha and mt.sigma == t.sigma and mt.gamma_yz == t.gamma_yz


def test_partial_linearizations_commute():
    rng = random.Random(6)
    for _ in range(5):
        t = rand_transition(rng, 2, 2, 2, 1)
        a = linearize(t, "side1")
        b = linearize(t, "side2")
        assert first_difference(a, b) is None
        assert first_difference(a, induce_model(t)) is None


def test_model_is_functorial():
    rng = random.Random(8)
    t1 = rand_transition(rng, 2, 2, 1, 1)
    t2 = rand_transition(rng, 2, 2, 1, 1)
    assert first_difference(induce_model(compose(t1, t2)), compose(induce_model(t1), induce_model(t2))) is None


def test_hull_is_functorial():
    rng = random.Random(9)
    t1 = rand_transition(rng, 2, 1, 2, 1)
    t2 = rand_transition(rng, 2, 1, 2, 1)
    assert first_difference(induce_hull(compose(t1, t2)), compose(induce_hull(t1), induce_hull(t2))) is None


def test_induced_transitions_keep_their_samples_without_checking_them_again(monkeypatch):
    t = rand_transition(random.Random(21), 2, 2, 1, 2, samples=3)
    checked = []
    real = Mat.is_invertible
    monkeypatch.setattr(Mat, "is_invertible", lambda self: checked.append(self) or real(self))
    induced = [
        induce_model(t),
        induce_hull(t),
        linearize(t, "side1"),
        linearize(t, "side2"),
        atlas_module.partial_model_side1(t),
        atlas_module.partial_model_side2(t),
        restrict_hull(induce_hull(t), 1, 1),
        restrict_hull(induce_hull(t), 0, 0),
    ]
    assert checked == []
    assert all(u.samples == t.samples for u in induced)
    # a composite is still checked: alpha, beta and sigma at each sample
    compose(t, induce_model(t))
    assert len(checked) == 9


def test_hull_dimensions_and_leading_rows():
    rng = random.Random(10)
    t = rand_transition(rng, 2, 2, 3, 1)
    th = induce_hull(t)
    assert th.fiber_dims == (3, 4, 1)
    assert th.alpha[0, 0] == 1 and all(th.alpha[0, j] == 0 for j in range(1, 3))
    assert th.beta[0, 0] == 1 and all(th.beta[0, j] == 0 for j in range(1, 4))
    assert zero_dim_check(th.alpha0) and zero_dim_check(th.gamma00)


@pytest.mark.parametrize("m,n1,n2,n3", DIMS)
def test_hull_restricts_to_original_and_model(m, n1, n2, n3):
    rng = random.Random(30 + m + n1 + n2 + n3)
    t = rand_transition(rng, m, n1, n2, n3)
    th = induce_hull(t)
    assert first_difference(restrict_hull(th, 1, 1), t) is None
    assert first_difference(restrict_hull(th, 0, 0), induce_model(t)) is None


def test_hull_restriction_commutes_with_composition():
    rng = random.Random(13)
    t1 = rand_transition(rng, 2, 1, 1, 2)
    t2 = rand_transition(rng, 2, 1, 1, 2)
    s_val, t_val = Fraction(1, 2), Fraction(-3)
    lhs = restrict_hull(induce_hull(compose(t1, t2)), s_val, t_val)
    rhs = compose(
        restrict_hull(induce_hull(t1), s_val, t_val),
        restrict_hull(induce_hull(t2), s_val, t_val),
    )
    assert first_difference(lhs, rhs) is None


def test_restriction_guards_leading_coordinates():
    rng = random.Random(14)
    t = rand_transition(rng, 1, 1, 1, 1)
    # a raw transition (no hull structure) does not fix any leading coordinate
    with pytest.raises(ConstraintViolated):
        restrict_hull(t, 1, 1)


# ---------------------------------------------------------------------------
# atlases and reports
# ---------------------------------------------------------------------------


def three_chart_atlas(seed, m=2, dims=(1, 2, 1)):
    rng = random.Random(seed)
    n1, n2, n3 = dims
    t_ab = rand_transition(rng, m, n1, n2, n3)
    t_bc = rand_transition(rng, m, n1, n2, n3)
    t_ac = compose(t_ab, t_bc)
    edges = (
        ("a", "b", t_ab),
        ("b", "a", inverse(t_ab)),
        ("b", "c", t_bc),
        ("c", "b", inverse(t_bc)),
        ("a", "c", t_ac),
        ("c", "a", inverse(t_ac)),
    )
    return Atlas(m, dims, ("a", "b", "c"), edges)


def test_consistent_atlas_passes_cocycle_check():
    report = cocycle_check(three_chart_atlas(seed=1))
    assert report.passed
    names = [r.name for r in report.sorted_records()]
    assert any(n.startswith("triangle a->b->c") for n in names)
    assert any(n.startswith("inverse pair a<->b") for n in names)


def test_cocycle_reports_are_deterministic():
    r1 = cocycle_check(three_chart_atlas(seed=2))
    r2 = cocycle_check(three_chart_atlas(seed=2))
    assert r1.to_json() == r2.to_json()
    data = json.loads(r1.to_json())
    assert all(rec["status"] == "pass" for rec in data["checks"])


def test_perturbed_atlas_fails_with_coefficient_witness():
    atlas = three_chart_atlas(seed=3)
    a, c, t_ac = atlas.edges[4]
    assert (a, c) == ("a", "c")
    bumped = TransitionData(
        base_map=t_ac.base_map,
        alpha0=Vec([t_ac.alpha0[0] + 1]),
        alpha=t_ac.alpha,
        beta0=t_ac.beta0,
        beta=t_ac.beta,
        gamma00=t_ac.gamma00,
        gamma_y=t_ac.gamma_y,
        gamma_z=t_ac.gamma_z,
        gamma_yz=t_ac.gamma_yz,
        sigma=t_ac.sigma,
        samples=t_ac.samples,
    )
    edges = tuple(
        (x, y, bumped if (x, y) == ("a", "c") else t) for x, y, t in atlas.edges
    )
    report = cocycle_check(Atlas(atlas.base_dim, atlas.fiber_dims, atlas.charts, edges))
    assert not report.passed
    bad = [r for r in report.sorted_records() if r.status == "fail"]
    assert any("alpha0[0]" in (r.witness or "") and "!=" in r.witness for r in bad)
    assert any(r.name == "triangle a->b->c" for r in bad)


def test_self_loop_must_be_identity():
    e = identity_transition(1, 1, 1, 1)
    atlas = Atlas(1, (1, 1, 1), ("u",), (("u", "u", e),))
    assert cocycle_check(atlas).passed

    rng = random.Random(4)
    t = rand_transition(rng, 1, 1, 1, 1)
    atlas = Atlas(1, (1, 1, 1), ("u",), (("u", "u", t),))
    report = cocycle_check(atlas)
    assert not report.passed
    assert report.sorted_records()[0].name == "self-loop u"


def test_single_chart_atlas_reports_no_overlaps():
    atlas = Atlas(1, (1, 1, 1), ("only",), ())
    report = cocycle_check(atlas)
    assert report.passed
    assert report.sorted_records()[0].name == "no overlaps"


def test_atlas_rejects_bad_wiring():
    e = identity_transition(1, 1, 1, 1)
    with pytest.raises(DaffineError):
        Atlas(1, (1, 1, 1), ("a", "a"), ())
    with pytest.raises(DaffineError):
        Atlas(1, (1, 1, 1), ("a",), (("a", "ghost", e),))
    with pytest.raises(DaffineError):
        Atlas(1, (1, 1, 1), ("a", "b"), (("a", "b", e), ("a", "b", e)))
    with pytest.raises(DimMismatch):
        Atlas(1, (2, 1, 1), ("a", "b"), (("a", "b", e),))


def test_model_hull_report_for_consistent_atlas():
    report = check_atlas_model_hull(three_chart_atlas(seed=5))
    assert report.passed
    names = {r.name for r in report.sorted_records()}
    assert "hull at (1,1) a->b" in names
    assert "hull at (0,0) a->b" in names
    assert "model order-independence a->c" in names
    assert "model triangle a->b->c" in names
    assert "hull triangle a->b->c" in names
    assert "model functorial a->b->c" in names
    assert "hull functorial a->b->c" in names


def test_report_text_format():
    text = cocycle_check(three_chart_atlas(seed=6)).to_text()
    assert text.splitlines()[-1].startswith("OK")
    assert all(
        line.startswith(("PASS", "FAIL", "SKIP", "OK", "FAILED")) for line in text.splitlines()
    )


# ---------------------------------------------------------------------------
# composites: each chart set decided once, each path composed at most once
# ---------------------------------------------------------------------------


def _count_compose(monkeypatch):
    calls = []
    real = atlas_module.compose

    def counting(first, second):
        calls.append((first, second))
        return real(first, second)

    monkeypatch.setattr(atlas_module, "compose", counting)
    return calls


def _fixture_atlas():
    path = Path(__file__).parent / "fixtures" / "atlas_consistent.daff"
    objs = dsl.elaborate(dsl.parse(path.read_text()))
    return next(v for v in objs.values() if isinstance(v, Atlas))


def _path_of(atlas, first, second):
    """The chart path a -> b -> c whose two edges are the given transitions."""
    ((a, b),) = [(x, y) for x, y, t in atlas.edges if t is first]
    (c,) = [z for y, z, t in atlas.edges if y == b and t is second]
    return (a, b, c)


def _term_count(t):
    """Terms in the coefficient polynomials of t's nine blocks."""
    vecs = (t.alpha0, t.beta0, t.gamma00)
    mats = (t.alpha, t.beta, t.gamma_y, t.gamma_z, t.sigma)
    return (
        sum(len(p.terms) for v in vecs for p in v)
        + sum(len(p.terms) for m in mats for row in m.rows for p in row)
        + sum(len(p.terms) for layer in t.gamma_yz.entries for row in layer for p in row)
    )


def _cheapest(atlas, paths):
    """The path whose second edge, the one pulled back, has the fewest terms;
    the first listed on ties."""
    return min(paths, key=lambda p: _term_count(atlas.transition(p[1], p[2])))


def _deciding_paths(atlas):
    """For a glued three-chart atlas: each pair's cheaper round trip, in record
    order, then the cheapest of the six triangles in record order."""
    pairs = [(a, b) for a, b, _ in atlas.edges if a < b]
    triangles = [
        (a, b, c)
        for a, b, _ in atlas.edges
        for b2, c, _ in atlas.edges
        if b2 == b and len({a, b, c}) == 3
    ]
    return [_cheapest(atlas, [(a, b, a), (b, a, b)]) for a, b in pairs] + [
        _cheapest(atlas, triangles)
    ]


@pytest.mark.parametrize(
    "make",
    [_fixture_atlas, lambda: randgen.three_chart_atlas(random.Random(5), 2, (1, 1, 1))],
    ids=["atlas_consistent", "three_chart_atlas"],
)
def test_model_hull_composes_each_chart_path_once(monkeypatch, make):
    atlas = make()
    calls = _count_compose(monkeypatch)
    report = check_atlas_model_hull(atlas)
    assert report.passed
    # the original, model and hull atlases each decide their chart set by
    # three round trips and one triangle; functoriality then finds every
    # composite it asks for glued and composes nothing
    assert len(calls) == 12
    # a second check reuses the original atlas's decisions
    calls.clear()
    assert check_atlas_model_hull(atlas).to_json() == report.to_json()
    assert len(calls) == 8


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_cocycle_check_composes_four_paths(monkeypatch, seed):
    atlas = randgen.three_chart_atlas(random.Random(seed), 2, (1, 1, 1))
    calls = _count_compose(monkeypatch)
    assert cocycle_check(atlas).passed
    assert [_path_of(atlas, *call) for call in calls] == _deciding_paths(atlas)
    # a glued path is its long edge and is not composed
    assert atlas.composite("a", "b", "c") is atlas.transition("a", "c")
    assert atlas.composite("c", "a", "c") is atlas.composite("b", "a", "b")
    assert len(calls) == 4


def test_a_failing_composite_is_not_kept(monkeypatch):
    atlas = three_chart_atlas(seed=5)
    hull_atlas = atlas.mapped(induce_hull)
    # the hull triangle that decides the six: it must be composed
    a, b, c = _deciding_paths(hull_atlas)[-1]
    t_ab, t_bc = atlas.transition(a, b), atlas.transition(b, c)
    real = atlas_module.compose
    calls = []

    def refusing(first, second):
        calls.append((first, second))
        hull_path = (
            first.base_map is t_ab.base_map
            and second.base_map is t_bc.base_map
            and first.fiber_dims != atlas.fiber_dims
        )
        if hull_path:
            raise NotInvertible(f"hull path {a}->{b}->{c} refused")
        return real(first, second)

    monkeypatch.setattr(atlas_module, "compose", refusing)
    records = {r.name: r for r in cocycle_check(hull_atlas).sorted_records()}
    refused = f"triangle {a}->{b}->{c}"
    assert records[refused].status == FAIL
    assert records[refused].witness == f"hull path {a}->{b}->{c} refused"
    # the failed decision leaves each other triangle to its own composite
    others = [r for name, r in records.items() if name.startswith("triangle") and name != refused]
    assert len(others) == 5 and all(r.status == PASS for r in others)
    for _ in range(2):
        n = len(calls)
        with pytest.raises(NotInvertible, match="refused"):
            hull_atlas.composite(a, b, c)
        assert len(calls) == n + 1
    with pytest.raises(NotInvertible, match=f"hull path {a}->{b}->{c} refused"):
        check_atlas_model_hull(atlas)


def test_composite_needs_both_edges():
    atlas = Atlas(1, (1, 1, 1), ("a", "b"), (("a", "b", identity_transition(1, 1, 1, 1)),))
    with pytest.raises(DaffineError, match="no path a->b->a"):
        atlas.composite("a", "b", "a")
    with pytest.raises(DaffineError, match="no round trip or triangle a->b->a"):
        atlas.difference("a", "b", "a")


# ---------------------------------------------------------------------------
# differential: deciding each chart set once against composing every path
# ---------------------------------------------------------------------------


def _reference_record(name, make):
    try:
        diff = make()
    except DaffineError as exc:
        diff = str(exc)
    return CheckRecord(name, PASS if diff is None else FAIL, diff)


def reference_cocycle_check(atlas):
    """The cocycle report composing every round trip and triangle it names."""
    n1, n2, n3 = atlas.fiber_dims
    ident = identity_transition(atlas.base_dim, n1, n2, n3)
    edge = atlas.transition
    records = []
    for a, b, t in atlas.edges:
        if a == b:
            records.append(_reference_record(f"self-loop {a}", lambda: first_difference(t, ident)))
    for a, b, _ in atlas.edges:
        if a < b and edge(b, a) is not None:
            records.append(
                _reference_record(
                    f"inverse pair {a}<->{b}",
                    lambda: first_difference(compose(edge(a, b), edge(b, a)), ident),
                )
            )
    for a, b, _ in atlas.edges:
        for b2, c, _ in atlas.edges:
            if b2 == b and len({a, b, c}) == 3 and edge(a, c) is not None:
                records.append(
                    _reference_record(
                        f"triangle {a}->{b}->{c}",
                        lambda: first_difference(compose(edge(a, b), edge(b, c)), edge(a, c)),
                    )
                )
    if not records:
        records.append(CheckRecord("no overlaps", PASS, "nothing to glue"))
    return Report.of(records)


def reference_check_atlas_model_hull(atlas):
    """The model-hull report composing every chart path each functoriality record names."""
    model_atlas = atlas.mapped(induce_model)
    hull_atlas = atlas.mapped(induce_hull)
    report = Report.of([]).merged(reference_cocycle_check(model_atlas), prefix="model ")
    report = report.merged(reference_cocycle_check(hull_atlas), prefix="hull ")
    extra = []
    for a, b, t in atlas.edges:
        th = hull_atlas.transition(a, b)
        for name, diff in (
            (f"hull at (1,1) {a}->{b}", first_difference(restrict_hull(th, 1, 1), t)),
            (f"hull at (0,0) {a}->{b}", first_difference(restrict_hull(th, 0, 0), model_atlas.transition(a, b))),
            (f"model order-independence {a}->{b}", first_difference(linearize(t, "side1"), linearize(t, "side2"))),
        ):
            extra.append(CheckRecord(name, PASS if diff is None else FAIL, diff))
    for a, b, _ in atlas.edges:
        for b2, c, _ in atlas.edges:
            if b2 != b or a == b or b == c:
                continue
            try:
                t_ac, error = compose(atlas.transition(a, b), atlas.transition(b, c)), None
            except DaffineError as exc:
                t_ac, error = None, str(exc)
            for kind, induce, induced in (("model", induce_model, model_atlas), ("hull", induce_hull, hull_atlas)):
                diff = error
                if t_ac is not None:
                    path = compose(induced.transition(a, b), induced.transition(b, c))
                    diff = first_difference(induce(t_ac), path)
                extra.append(CheckRecord(f"{kind} functorial {a}->{b}->{c}", PASS if diff is None else FAIL, diff))
    return report.merged(Report.of(extra))


def _outcome(check, atlas):
    try:
        return "report", check(atlas).to_json()
    except DaffineError as exc:
        return type(exc).__name__, str(exc)


def _bumped(t, name, shift):
    """t with `shift` added to the first entry of one block."""
    block = getattr(t, name)
    if isinstance(block, Vec):
        new = Vec((block[0] + shift,) + tuple(block)[1:])
    elif isinstance(block, Mat):
        rows = [list(r) for r in block.rows]
        rows[0][0] = rows[0][0] + shift
        new = Mat(rows)
    else:
        layers = [[list(r) for r in layer] for layer in block.entries]
        layers[0][0][0] = layers[0][0][0] + shift
        new = Bilinear(layers)
    return replace(t, **{name: new})


BLOCK_NAMES = ("alpha0", "alpha", "beta0", "beta", "gamma00", "gamma_y", "gamma_z", "gamma_yz", "sigma")


@st.composite
def glued_perturbed_or_cut_atlas(draw):
    """A three-chart atlas at base dim 1-2: consistent, with one block of one
    edge shifted by a constant or a monomial, or with one edge left out."""
    m = draw(st.integers(1, 2))
    atlas = randgen.three_chart_atlas(random.Random(draw(st.integers(0, 10**6))), m, (1, 1, 1))
    kind = draw(st.sampled_from(("consistent", "perturbed", "cut")))
    if kind == "consistent":
        return atlas
    k = draw(st.integers(0, len(atlas.edges) - 1))
    edges = list(atlas.edges)
    if kind == "cut":
        del edges[k]
    else:
        a, b, t = edges[k]
        c = Fraction(draw(st.sampled_from((-2, -1, 1, 3))), draw(st.sampled_from((1, 2))))
        shift = c * Poly.variable(m, draw(st.integers(0, m - 1))) if draw(st.booleans()) else Poly.const(m, c)
        try:
            edges[k] = (a, b, _bumped(t, draw(st.sampled_from(BLOCK_NAMES)), shift))
        except SingularMatrix:
            reject()
    return Atlas(m, atlas.fiber_dims, atlas.charts, tuple(edges))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(glued_perturbed_or_cut_atlas())
def test_deciding_each_chart_set_once_matches_composing_every_path(atlas):
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_compose(mp)
        cocycle = _outcome(cocycle_check, atlas)
        assert cocycle == _outcome(reference_cocycle_check, atlas)
        # no more composites than records, one each when every path is composed
        records = json.loads(cocycle[1])["checks"]
        assert len(calls) <= sum(r["name"].startswith(("inverse", "triangle")) for r in records)

        calls.clear()
        fresh = Atlas(atlas.base_dim, atlas.fiber_dims, atlas.charts, atlas.edges)
        model_hull = _outcome(check_atlas_model_hull, fresh)
        assert model_hull == _outcome(reference_check_atlas_model_hull, atlas)
        # composing every path would take each two-step path once in each of
        # the original, model and hull atlases
        paths = sum(b == b2 and a != b != c for a, b, _ in atlas.edges for b2, c, _ in atlas.edges)
        if model_hull[0] == "report":
            assert len(calls) <= 3 * paths


@pytest.mark.parametrize("edge", [("a", "b"), ("b", "a"), ("a", "c")], ids=["forward", "inverse", "long"])
@pytest.mark.parametrize("name", ["gamma00", "alpha", "gamma_yz"])
def test_a_perturbed_edge_fails_with_the_witness_of_its_own_composite(edge, name):
    atlas = randgen.three_chart_atlas(random.Random(9), 2, (1, 1, 1))
    edges = tuple(
        (a, b, _bumped(t, name, Poly.const(2, Fraction(3, 2))) if (a, b) == edge else t)
        for a, b, t in atlas.edges
    )
    bent = Atlas(2, (1, 1, 1), atlas.charts, edges)
    report = cocycle_check(bent)
    assert not report.passed
    assert report.to_json() == reference_cocycle_check(bent).to_json()
    fresh = Atlas(2, (1, 1, 1), atlas.charts, edges)
    assert check_atlas_model_hull(fresh).to_json() == reference_check_atlas_model_hull(fresh).to_json()


def test_a_singular_composite_fails_its_functoriality_records(tmp_path, capsys):
    """A two-step composite singular at a sample point fails both of its
    functoriality records with the error, as cocycle_check fails its
    triangle, instead of aborting the model-hull report."""
    atlas = randgen.three_chart_atlas(random.Random(1), 1, (1, 1, 1))
    edges = list(atlas.edges)
    a, b, t = edges[1]
    edges[1] = (a, b, replace(t, alpha=t.alpha + Mat([[Poly.variable(1, 0)]])))
    bent = Atlas(1, atlas.fiber_dims, atlas.charts, tuple(edges))
    error = "alpha block is singular at sample point (Fraction(-5, 1),)"
    assert CheckRecord("triangle c->b->a", FAIL, error) in cocycle_check(bent).records
    report = check_atlas_model_hull(bent)
    for kind in ("model", "hull"):
        assert CheckRecord(f"{kind} functorial c->b->a", FAIL, error) in report.records
    fresh = Atlas(1, atlas.fiber_dims, atlas.charts, tuple(edges))
    assert report.to_json() == reference_check_atlas_model_hull(fresh).to_json()

    path = tmp_path / "singular.daff"
    path.write_text(dsl.print_document(dsl.Document((dsl.block_from_atlas("tri", bent),))))
    for suite in ("cocycle", "model-hull"):
        assert cli.main(["verify", "--suite", suite, str(path)]) == 1
        assert f"FAIL tri: {'model ' if suite == 'model-hull' else ''}triangle c->b->a -- {error}" in capsys.readouterr().out
