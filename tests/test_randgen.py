"""The samplers draw the same values from the same stream positions as the
plain formulas they replace, and a reduced covector's representative is the
one the slot-by-slot rebuild gives.

The ``_oracle_*`` functions below are those formulas: every entry made by
``Fraction(p, q)`` and every vector through the public ``Vec`` constructor,
``point_on`` as ``free + unit.scale(...)``.  For each seed both sides start
from equal ``random.Random`` states and must end in equal ones, so a
sampler that skips, adds or reorders a draw fails here.
"""

import random
from fractions import Fraction

import pytest

from daffine.exact import Mat, Vec
from daffine.phase import (
    AFFCTG,
    BBL,
    CONTACT,
    PHASEP,
    CotangentPoint,
    PhaseSet,
    ReducedCovector,
    TrivialBispecial,
    is_adapted,
)
from daffine.errors import DimMismatch
from daffine.randgen import point_on, rand_adapted, rand_cotangent, rand_frac, rand_int_vec, rand_member, rand_vec

SEEDS = range(100)
BUNDLES = (TrivialBispecial(1, 3), TrivialBispecial(2, 1), TrivialBispecial(2, 1, dual_form=True), TrivialBispecial(0, 0))
FUNCTIONALS = (
    Vec([Fraction(3, 2)]),
    Vec([0, 0, Fraction(-2, 3), 5]),
    Vec([1, 0, 0]),
    Vec([Fraction(0), Fraction(7), Fraction(1, 4)]),
)


def _oracle_frac(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _oracle_vec(rng, d):
    return Vec(_oracle_frac(rng) for _ in range(d))


def _oracle_point_on(l, rng):
    i = next(k for k, x in enumerate(l) if x != 0)
    free = Vec(_oracle_frac(rng) if k != i else Fraction(0) for k in range(l.dim))
    return free + Vec.unit(l.dim, i).scale((1 - l.dot(free)) / l[i])


def _oracle_cotangent(rng, bundle):
    m, h = bundle.base_dim, bundle.hull_dim
    return CotangentPoint(bundle, _oracle_vec(rng, m), _oracle_vec(rng, h), _oracle_vec(rng, m), _oracle_vec(rng, h))


def _slot_by_slot(point, mask):
    """The canonical representative rebuilt one masked slot at a time, each
    through the public constructors."""
    for kind, i in sorted(mask):
        y, pi = point.y, point.pi
        if kind == "y":
            y = Vec(Fraction(0) if j == i else e for j, e in enumerate(y))
        else:
            pi = Vec(Fraction(0) if j == i else e for j, e in enumerate(pi))
        point = CotangentPoint(point.bundle, point.x, y, point.p, pi)
    return point


def _oracle_member(rng, ps):
    pt = _oracle_cotangent(rng, ps.bundle)
    for (kind, i), value in ps.constraints:
        y, pi = pt.y, pt.pi
        if kind == "y":
            y = Vec(value if j == i else e for j, e in enumerate(y))
        else:
            pi = Vec(value if j == i else e for j, e in enumerate(pi))
        pt = CotangentPoint(pt.bundle, pt.x, y, pt.p, pi)
    return _slot_by_slot(pt, ps.mask), ps.mask


def _oracle_adapted(rng, bundle):
    h = bundle.hull_dim
    va, al = bundle.v_index, bundle.alpha_index
    m = [[Fraction(1) if i == j else Fraction(0) for j in range(h)] for i in range(h)]
    for _ in range(5):
        i = rng.randrange(h)
        j = rng.randrange(h)
        if i == j or i == va or j == al:
            continue
        c = _oracle_frac(rng)
        for r in m:
            r[j] += c * r[i]
    return Mat(m)


def _same(got, expected):
    assert got == expected
    assert repr(got) == repr(expected)
    assert hash(got) == hash(expected)


def _pair(seed):
    return random.Random(seed), random.Random(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_samplers_match_the_plain_formulas_and_stream(seed):
    rng, oracle = _pair(seed)
    for _ in range(20):
        _same(rand_frac(rng), _oracle_frac(oracle))
    for d in (0, 1, 3, 5):
        _same(rand_vec(rng, d), _oracle_vec(oracle, d))
    for d, bound in ((0, 4), (1, 4), (3, 4), (2, 5), (4, 5)):
        _same(rand_int_vec(rng, d, bound), Vec(Fraction(oracle.randint(-bound, bound)) for _ in range(d)))
    for l in FUNCTIONALS:
        v = point_on(l, rng)
        _same(v, _oracle_point_on(l, oracle))
        assert l.dot(v) == 1
    for bundle in BUNDLES:
        _same(rand_cotangent(rng, bundle), _oracle_cotangent(oracle, bundle))
        _same(rand_adapted(rng, bundle), _oracle_adapted(oracle, bundle))
        for kind in (AFFCTG, PHASEP, BBL, CONTACT):
            w = rand_member(rng, PhaseSet(bundle, kind))
            point, mask = _oracle_member(oracle, PhaseSet(bundle, kind))
            assert w.mask == mask
            _same(w.point, point)
    assert rng.getstate() == oracle.getstate()


@pytest.mark.parametrize("fill", [Fraction(5, 3), -2, 0, Fraction(0)])
@pytest.mark.parametrize("bundle", BUNDLES[:3])
def test_reduced_covector_is_the_slot_by_slot_representative(fill, bundle):
    rng = random.Random(7)
    masks = [PhaseSet(bundle, kind).mask for kind in (AFFCTG, PHASEP, BBL, CONTACT)]
    masks += [frozenset({("y", bundle.v_index)}), frozenset({("y", 0), ("y", 1), ("pi", 1)})]
    for mask in masks:
        pt = rand_cotangent(rng, bundle)
        for s in mask:
            pt = pt.with_slot(s, fill)
        w = ReducedCovector(pt, mask)
        _same(w.point, _slot_by_slot(pt, mask))
        _same(w, ReducedCovector(_slot_by_slot(pt, mask), mask))
        if type(fill) is Fraction and not fill:
            assert w.point is pt  # already canonical: kept as it is
        assert all(type(w.point.slot(s)) is Fraction and not w.point.slot(s) for s in mask)


@pytest.mark.parametrize("slot", [("y", 4), ("pi", -1)])
def test_out_of_range_slot_is_a_dim_mismatch(slot):
    pt = rand_cotangent(random.Random(1), TrivialBispecial(1, 1))
    with pytest.raises(DimMismatch):
        pt.with_slot(slot, Fraction(1))
    with pytest.raises(DimMismatch):
        ReducedCovector(pt, frozenset({slot}))


def _public_member(rng, ps):
    """``rand_member`` through the public path: the drawn cotangent point,
    each constraint imposed through ``with_slot``, then ``ps.reduce``."""
    pt = rand_cotangent(rng, ps.bundle)
    for slot, value in ps.constraints:
        pt = pt.with_slot(slot, value)
    return ps.reduce(pt)


@pytest.mark.parametrize("dual_form", [False, True])
@pytest.mark.parametrize("kind", [AFFCTG, PHASEP, BBL, CONTACT])
def test_built_once_member_is_the_public_construction(kind, dual_form):
    ps = PhaseSet(TrivialBispecial(2, 1, dual_form), kind)
    for seed in range(200):
        rng, public = _pair(seed)
        w = rand_member(rng, ps)
        _same(w, _public_member(public, ps))
        assert ps.contains(w)
        assert rng.getstate() == public.getstate()


@pytest.mark.parametrize("bundle", BUNDLES)
def test_built_once_adapted_change_carries_its_inverse(bundle):
    for seed in range(200):
        mat = rand_adapted(random.Random(seed), bundle)
        assert mat.inverse() == Mat(mat.rows).inverse()
        assert is_adapted(bundle, mat)
