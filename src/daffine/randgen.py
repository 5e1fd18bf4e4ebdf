"""Seeded random generators: instances, and the trial points every suite draws.

Everything takes an explicit ``random.Random`` so reports stay bit-identical
for a given seed.  Entries are small rationals to keep exact arithmetic fast.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Tuple

from .atlas import Atlas, TransitionData, compose, inverse
from .double import DecomposedDouble, DoubleAffine, DoublePoint, horizontal_dual, vertical_dual
from .exact import ZERO, BaseMap, Bilinear, Mat, Poly, Vec
from .exact.linalg import _dot
from .naffine import GradedPoint, GradedSpace, NAffine, unit_degree
from .phase import CotangentPoint, PhaseSet, ReducedCovector, TrivialBispecial


# _FRACTIONS[p + 6][q - 1] is Fraction(p, q), for -6 <= p <= 6 and 1 <= q <= 4
_FRACTIONS = tuple(tuple(Fraction(p, q) for q in range(1, 5)) for p in range(-6, 7))


def rand_frac(rng: random.Random) -> Fraction:
    """``Fraction(rng.randint(-6, 6), rng.randint(1, 4))``, from a table.

    ``randint(a, b)`` is ``a`` plus ``rng``'s rejection draw below
    ``n = b - a + 1``: ``getrandbits(n.bit_length())`` until the value is
    below ``n``.  The two draws are made that way here, 4 bits below 13 and
    then 3 bits below 4, so the stream and the values are ``randint``'s.
    """
    bits = rng.getrandbits
    p = bits(4)
    while p >= 13:
        p = bits(4)
    q = bits(3)
    while q >= 4:
        q = bits(3)
    return _FRACTIONS[p][q]


def rand_vec(rng: random.Random, d: int) -> Vec:
    return Vec._trusted(tuple([rand_frac(rng) for _ in range(d)]))


def rand_int_vec(rng: random.Random, d: int, bound: int) -> Vec:
    """A vector of d integers drawn uniformly from [-bound, bound]."""
    return Vec(Fraction(rng.randint(-bound, bound)) for _ in range(d))


def nonzero_vec(rng: random.Random, d: int) -> Vec:
    while True:
        v = rand_vec(rng, d)
        if not v.is_zero():
            return v


def point_on(l: Vec, rng: random.Random) -> Vec:
    """A random vector with l(v) = 1."""
    i = next(k for k, x in enumerate(l) if x != 0)
    entries = [rand_frac(rng) if k != i else ZERO for k in range(l.dim)]
    entries[i] = (1 - _dot(l.entries, entries)) / l[i]
    return Vec(entries)


def rand_double_affine(rng: random.Random, n1: int, n2: int, n3: int, special: bool = True) -> DoubleAffine:
    return DoubleAffine(
        DecomposedDouble(n1, n2, n3),
        nonzero_vec(rng, n1),
        nonzero_vec(rng, n2),
        nonzero_vec(rng, n3) if special else None,
    )


def rand_dual_pair(rng: random.Random, dd: DoubleAffine) -> Tuple[DoublePoint, DoublePoint]:
    """Random points of the vertical and horizontal duals sharing a core
    covector, which is at level one on the marked vector when there is one."""
    d = dd.space
    cov = point_on(dd.sigma, rng) if dd.is_special else rand_vec(rng, d.n3)
    phi = DoublePoint(vertical_dual(d), point_on(dd.l1, rng), cov, rand_vec(rng, d.n2))
    psi = DoublePoint(horizontal_dual(d), cov, point_on(dd.l2, rng), rand_vec(rng, d.n1))
    return phi, psi


def rand_poly(rng: random.Random, m: int, deg: int = 1) -> Poly:
    """A sparse polynomial of total degree <= deg in m variables."""
    p = Poly.const(m, rand_frac(rng))
    for _ in range(rng.randint(1, 3)):
        exp = [0] * m
        for _ in range(rng.randint(1, deg)) if m else ():
            exp[rng.randrange(m)] += 1
        p = p + Poly(m, {tuple(exp): rand_frac(rng)})
    return p


def unit_det_mat(rng: random.Random, m: int, n: int) -> Mat:
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
    return Mat(tuple(tuple(r) for r in lower)) @ diag @ Mat(tuple(tuple(r) for r in upper))


def rand_base_map(rng: random.Random, m: int) -> BaseMap:
    p = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(i):
            p[i][j] = rand_frac(rng)
    return BaseMap(Mat(p), Vec(rand_frac(rng) for _ in range(m)))


def rand_transition(rng: random.Random, m: int, n1: int, n2: int, n3: int, samples: int = 1) -> TransitionData:
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


def three_chart_atlas(rng: random.Random, m: int = 2, dims: Tuple[int, int, int] = (1, 2, 1)) -> Atlas:
    """A consistent three-chart atlas: the long transition is the composite."""
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


def rand_naffine(rng: random.Random, n: int, maxdim: int = 2, special: bool = True) -> NAffine:
    """A random marked bundle with every graded component present."""
    dims = {}
    for mask in range(1, 1 << n):
        deg = tuple((mask >> k) & 1 for k in range(n))
        dims[deg] = rng.randint(1, maxdim)
    if n == 1:
        dims[(1,)] += 1  # room for a model direction
    space = GradedSpace(n, dims)
    funcs = tuple(nonzero_vec(rng, dims[unit_degree(n, i)]) for i in range(n))
    sigma = None
    if special:
        l = funcs[0]
        while sigma is None:
            v = nonzero_vec(rng, dims[(1,) * n])
            if n > 1 or l.dot(v) == 0:
                sigma = v
            else:
                i = next(k for k, x in enumerate(l) if x != 0)
                w = v - Vec.unit(v.dim, i).scale(l.dot(v) / l[i])
                sigma = None if w.is_zero() else w
    return NAffine(space, funcs, sigma)


def rand_graded_member(rng: random.Random, a: NAffine) -> GradedPoint:
    """A random point of the joint level set with small rational entries."""
    blocks = {deg: rand_vec(rng, d) for deg, d in a.space.components}
    for i, l in enumerate(a.functionals):
        blocks[unit_degree(a.space.n, i)] = point_on(l, rng)
    return a.space.point(blocks)


def rand_cotangent(rng: random.Random, bundle: TrivialBispecial) -> CotangentPoint:
    return CotangentPoint(
        bundle,
        rand_vec(rng, bundle.base_dim),
        rand_vec(rng, bundle.hull_dim),
        rand_vec(rng, bundle.base_dim),
        rand_vec(rng, bundle.hull_dim),
    )


def rand_member(rng: random.Random, ps: PhaseSet) -> ReducedCovector:
    """A random member of a phase set: a cotangent point with the set's
    constraints imposed, then reduced."""
    pt = rand_cotangent(rng, ps.bundle)
    for slot, value in ps.constraints:
        pt = pt.with_slot(slot, value)
    return ps.reduce(pt)


def rand_adapted(rng: random.Random, bundle: TrivialBispecial) -> Mat:
    """A random basis change preserving the marked vector and functional."""
    h = bundle.hull_dim
    va, al = bundle.v_index, bundle.alpha_index
    m = [list(r) for r in Mat.identity(h).rows]
    for _ in range(5):
        i = rng.randrange(h)
        j = rng.randrange(h)
        if i == j or i == va or j == al:
            continue
        c = rand_frac(rng)
        for r in m:  # m @ (identity + c at (i, j)): column j gains c * column i
            r[j] += c * r[i]
    return Mat(m)
