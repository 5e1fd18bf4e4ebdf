"""Higher-order affine level sets over multi-graded spaces.

A space of order n is a direct sum of components indexed by nonzero 0/1
degree vectors of length n; a point carries one coordinate block per
component.  Dropping a grading direction keeps the components that vanish in
it, which is how the side bases below are formed.

An n-fold affine bundle is cut out by one structure functional per grading
direction, each at level one on its unit-degree component, optionally marked
by a section of the top component.  The cotangent lift doubles the space with
conjugate momentum components and turns the marked section into one more
functional; its side bases recover the original bundle and its duals, and any
two directions restrict to a double affine bundle whose special duals satisfy
the adjoint pairing laws checked by :func:`side_base_duality_report`.

At order one a bundle is a special affine space: the level set {alpha = 1} of
one functional on its hull, marked by a model vector v (alpha(v) = 0).  This
is what a ``space`` block of a ``.daff`` document elaborates to.  The side
bases of its cotangent lift are its special dual (the functionals f with
f(v) = 1, marked by alpha) and the space itself, so the special dual is an
involution on the nose.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Tuple, Union

from .double import (
    DecomposedDouble,
    DoubleAffine,
    DoublePoint,
    contains as double_contains,
    pairing,
    require_ints,
)
from .errors import (
    ConstraintViolated,
    DaffineError,
    DimMismatch,
    NotSpecial,
    SpaceMismatch,
    ZeroFunctional,
)
from .exact import Scalar, Vec
from .report import FAIL, PASS, CheckRecord, Report

Degree = Tuple[int, ...]


def _as_degree(n: int, value: Iterable[int]) -> Degree:
    deg = tuple(value)
    require_ints("degree bit", deg)
    if len(deg) != n:
        raise DimMismatch(f"degree {deg} does not have {n} entries")
    if any(b not in (0, 1) for b in deg):
        raise DaffineError(f"degree entries must be 0 or 1, got {deg}")
    if not any(deg):
        raise DaffineError("components must carry a nonzero degree")
    return deg


def unit_degree(n: int, i: int) -> Degree:
    """The degree vector of the i-th grading direction."""
    if not 0 <= i < n:
        raise DimMismatch(f"no grading direction {i} in order {n}")
    return tuple(1 if k == i else 0 for k in range(n))


@dataclass(frozen=True)
class GradedSpace:
    """A direct sum of components indexed by nonzero 0/1 degree vectors.

    Zero-dimensional components are dropped and the rest are kept in sorted
    degree order, so equal collections of dimensions compare equal.
    """

    n: int
    components: Tuple[Tuple[Degree, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise DaffineError("grading order must be at least 1")
        raw = self.components
        if isinstance(raw, Mapping):
            raw = raw.items()
        canon = []
        seen = set()
        for deg, d in raw:
            deg = _as_degree(self.n, deg)
            require_ints("dimension", (d,))
            if d < 0:
                raise DaffineError("component dimensions cannot be negative")
            if deg in seen:
                raise DaffineError(f"duplicate component of degree {deg}")
            seen.add(deg)
            if d:
                canon.append((deg, d))
        object.__setattr__(self, "components", tuple(sorted(canon)))

    def degrees(self) -> Tuple[Degree, ...]:
        return tuple(deg for deg, _ in self.components)

    def dim_of(self, degree: Iterable[int]) -> int:
        deg = tuple(int(b) for b in degree)
        for d, dim in self.components:
            if d == deg:
                return dim
        return 0

    def has(self, degree: Iterable[int]) -> bool:
        return self.dim_of(degree) > 0

    @property
    def total_dim(self) -> int:
        return sum(d for _, d in self.components)

    @property
    def core_degree(self) -> Degree:
        return (1,) * self.n

    @property
    def core_dim(self) -> int:
        return self.dim_of(self.core_degree)

    def point(self, assignments: Union[Mapping, Iterable] = ()) -> "GradedPoint":
        """A point from a degree -> coordinates mapping; missing blocks are zero."""
        items = assignments.items() if isinstance(assignments, Mapping) else assignments
        given = {}
        for deg, vals in items:
            deg = _as_degree(self.n, deg)
            if not self.has(deg):
                raise DimMismatch(f"no component of degree {deg}")
            given[deg] = vals if isinstance(vals, Vec) else Vec(vals)
        blocks = tuple(given.get(deg, Vec.zero(d)) for deg, d in self.components)
        return GradedPoint(self, blocks)

    def zero_point(self) -> "GradedPoint":
        return self.point()


@dataclass(frozen=True)
class GradedPoint:
    space: GradedSpace
    blocks: Tuple[Vec, ...]

    def __post_init__(self):
        blocks = tuple(b if isinstance(b, Vec) else Vec(b) for b in self.blocks)
        comps = self.space.components
        if len(blocks) != len(comps):
            raise DimMismatch("expected one block per graded component")
        for (deg, d), b in zip(comps, blocks):
            if b.dim != d:
                raise DimMismatch(f"block of degree {deg} must have dimension {d}")
        object.__setattr__(self, "blocks", blocks)

    def block(self, degree: Iterable[int]) -> Vec:
        deg = tuple(int(b) for b in degree)
        for (d, _), b in zip(self.space.components, self.blocks):
            if d == deg:
                return b
        raise DimMismatch(f"no component of degree {deg}")

    def with_block(self, degree: Iterable[int], values) -> "GradedPoint":
        deg = tuple(int(b) for b in degree)
        vec = values if isinstance(values, Vec) else Vec(values)
        out = []
        found = False
        for (d, _), b in zip(self.space.components, self.blocks):
            if d == deg:
                out.append(vec)
                found = True
            else:
                out.append(b)
        if not found:
            raise DimMismatch(f"no component of degree {deg}")
        return GradedPoint(self.space, tuple(out))


def drop_direction(space: GradedSpace, k: int) -> GradedSpace:
    """Forget direction k, keeping the components that vanish there."""
    if not 0 <= k < space.n:
        raise DimMismatch(f"no grading direction {k} in order {space.n}")
    if space.n == 1:
        raise DimMismatch("cannot drop the only grading direction")
    dims = {deg[:k] + deg[k + 1:]: d for deg, d in space.components if deg[k] == 0}
    return GradedSpace(space.n - 1, dims)


# ---------------------------------------------------------------------------
# n-fold affine level sets


@dataclass(frozen=True)
class NAffine:
    """An n-fold affine bundle over a point: the joint level-one set of one
    structure functional per grading direction, optionally marked by a
    section of the top component."""

    space: GradedSpace
    functionals: Tuple[Vec, ...]
    sigma: Optional[Vec] = None

    def __post_init__(self):
        funcs = tuple(l if isinstance(l, Vec) else Vec(l) for l in self.functionals)
        object.__setattr__(self, "functionals", funcs)
        if len(funcs) != self.space.n:
            raise DimMismatch("expected one structure functional per grading direction")
        for i, l in enumerate(funcs):
            deg = unit_degree(self.space.n, i)
            if l.dim != self.space.dim_of(deg):
                raise DimMismatch(f"functional {i + 1} must live on the degree {deg} component")
            if l.is_zero():
                raise ZeroFunctional(f"structure functional {i + 1} is zero")
        if self.sigma is not None:
            sig = self.sigma if isinstance(self.sigma, Vec) else Vec(self.sigma)
            object.__setattr__(self, "sigma", sig)
            if sig.dim != self.space.core_dim or sig.dim == 0:
                raise DimMismatch("marked section must live in the top-degree component")
            if sig.is_zero():
                raise NotSpecial("marked core section is zero")
            # At order one the top component is the only component, so the
            # marked translation preserves the level set only along the model.
            if self.space.n == 1 and funcs[0].dot(sig) != 0:
                raise NotSpecial("marked section must translate the level set into itself")

    @property
    def order(self) -> int:
        return self.space.n

    @property
    def is_special(self) -> bool:
        return self.sigma is not None

    def level_values(self, pt: GradedPoint) -> Tuple[Scalar, ...]:
        if pt.space != self.space:
            raise SpaceMismatch("point does not live in the underlying space")
        n = self.space.n
        return tuple(
            l.dot(pt.block(unit_degree(n, i))) for i, l in enumerate(self.functionals)
        )

    def contains(self, pt: GradedPoint) -> bool:
        return all(v == 1 for v in self.level_values(pt))

    def point(self, assignments: Union[Mapping, Iterable] = ()) -> GradedPoint:
        pt = self.space.point(assignments)
        if not self.contains(pt):
            raise ConstraintViolated("point violates a structure level")
        return pt


def core_translate(pt: GradedPoint, delta: Vec) -> GradedPoint:
    """Translate the top-degree block; every level projection is unchanged."""
    deg = pt.space.core_degree
    if not pt.space.has(deg):
        raise DimMismatch("the space has no top-degree component")
    return pt.with_block(deg, pt.block(deg) + delta)


# ---------------------------------------------------------------------------
# The cotangent lift and its side bases


def momentum_degree(degree: Degree) -> Degree:
    """Degree of the momenta conjugate to a component: complementary bits in
    the old directions plus a single 1 in the new one."""
    return tuple(1 - b for b in degree) + (1,)


def cotangent_space(space: GradedSpace) -> GradedSpace:
    """The order n+1 space carrying the base components and their conjugate
    momentum components, each of the same dimension."""
    dims = {}
    for deg, d in space.components:
        dims[deg + (0,)] = d
        dims[momentum_degree(deg)] = d
    return GradedSpace(space.n + 1, dims)


def bbl_n(a: NAffine) -> NAffine:
    """The joint level-one set over the cotangent lift: the n structure
    functionals pull back and the marked section becomes an (n+1)-st
    functional on the momenta conjugate to the top component."""
    if a.sigma is None:
        raise NotSpecial("the cotangent lift needs a marked core section")
    return NAffine(cotangent_space(a.space), a.functionals + (a.sigma,), None)


def side_bases(b: NAffine) -> Tuple[NAffine, ...]:
    """The level-set bases of an n-fold bundle, one per direction.

    The k-th base keeps the components vanishing in direction k and inherits
    the other functionals.  When the component conjugate to direction k has
    the matching dimension, the dropped functional is re-read as a marked
    section of the new top component; otherwise the base is left unmarked so
    the mismatch surfaces downstream instead of being papered over.
    """
    n = b.space.n
    if n < 2:
        raise DimMismatch("side bases need at least two grading directions")
    out = []
    for k in range(n):
        sub = drop_direction(b.space, k)
        funcs = tuple(l for j, l in enumerate(b.functionals) if j != k)
        conj = tuple(0 if t == k else 1 for t in range(n))
        sigma_k = None
        if b.space.dim_of(conj) == b.functionals[k].dim:
            sigma_k = b.functionals[k]
        out.append(NAffine(sub, funcs, sigma_k))
    return tuple(out)


# ---------------------------------------------------------------------------
# Two-direction restrictions


def _place(space: GradedSpace, degrees: Tuple[Degree, ...], target: Degree, vec: Vec) -> Vec:
    """Zero-extend a component vector across a list of components."""
    out = []
    for deg in degrees:
        if deg == target:
            out.extend(vec)
        else:
            out.extend([Fraction(0)] * space.dim_of(deg))
    return Vec(out)


@dataclass(frozen=True)
class DoubleRestriction:
    """A two-direction view of an n-fold bundle as a double affine bundle.

    Components are grouped by their bidegree in the chosen directions; the
    (0, 0) class only carries parameters and is discarded.
    """

    source: NAffine
    i: int
    j: int
    double: DoubleAffine
    side1: Tuple[Degree, ...]
    side2: Tuple[Degree, ...]
    core: Tuple[Degree, ...]

    def embed(self, pt: GradedPoint) -> DoublePoint:
        if pt.space != self.source.space:
            raise SpaceMismatch("point does not live in the restricted bundle")
        y = Vec(x for deg in self.side1 for x in pt.block(deg))
        z = Vec(x for deg in self.side2 for x in pt.block(deg))
        c = Vec(x for deg in self.core for x in pt.block(deg))
        return DoublePoint(self.double.space, y, z, c)

    def place_core(self, delta: Vec) -> Vec:
        """Zero-extend a top-component vector into the full core block."""
        return _place(self.source.space, self.core, self.source.space.core_degree, delta)


def restrict_double(a: NAffine, i: int, j: int) -> DoubleRestriction:
    """Restrict to directions (i, j): sides collect the bidegree (1, 0) and
    (0, 1) components, the core collects bidegree (1, 1), and the structure
    data extends by zero."""
    n = a.space.n
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise DimMismatch("restriction needs two distinct grading directions")
    side1 = tuple(d for d, _ in a.space.components if d[i] == 1 and d[j] == 0)
    side2 = tuple(d for d, _ in a.space.components if d[i] == 0 and d[j] == 1)
    core = tuple(d for d, _ in a.space.components if d[i] == 1 and d[j] == 1)
    dims = tuple(
        sum(a.space.dim_of(d) for d in group) for group in (side1, side2, core)
    )
    l1 = _place(a.space, side1, unit_degree(n, i), a.functionals[i])
    l2 = _place(a.space, side2, unit_degree(n, j), a.functionals[j])
    sigma = None
    if a.sigma is not None:
        sigma = _place(a.space, core, a.space.core_degree, a.sigma)
    dd = DoubleAffine(DecomposedDouble(*dims), l1, l2, sigma)
    return DoubleRestriction(a, i, j, dd, side1, side2, core)


# ---------------------------------------------------------------------------
# Verification


def _mismatch(got: NAffine, want: NAffine) -> str:
    if got.space != want.space:
        return "underlying graded spaces differ"
    if got.functionals != want.functionals:
        return "structure functionals differ"
    return f"marked sections differ: {got.sigma} != {want.sigma}"


def side_base_duality_report(a: NAffine, seed: int = 0, trials: int = 6) -> Report:
    """Check the side-base structure of the cotangent lift of a marked bundle.

    Records cover: the final side base reproducing the bundle, each other side
    base carrying the expected dual data, membership transferring into every
    two-direction restriction, and the restricted special duals satisfying
    the adjoint pairing law (both marked shifts adding one).
    """
    # Imported here because randgen builds on this module.
    from .randgen import rand_dual_pair, rand_graded_member, rand_vec

    records = []
    n = a.order
    sides = side_bases(bbl_n(a))

    ok = sides[-1] == a
    records.append(
        CheckRecord(
            "final side base recovers the bundle",
            PASS if ok else FAIL,
            witness="match" if ok else _mismatch(sides[-1], a),
            seed=seed,
        )
    )

    for i in range(n):
        s = sides[i]
        expect = tuple(a.functionals[j] for j in range(n) if j != i) + (a.sigma,)
        problems = []
        if s.functionals != expect:
            problems.append("inherited functionals differ")
        if s.sigma != a.functionals[i]:
            problems.append("marked section is not the dropped functional")
        if s.space.core_dim != a.functionals[i].dim:
            problems.append("conjugate top component has the wrong dimension")
        records.append(
            CheckRecord(
                f"side base {i + 1} is the marked dual",
                PASS if not problems else FAIL,
                witness="match" if not problems else "; ".join(problems),
                seed=seed,
            )
        )

    for i in range(n):
        for j in range(i + 1, n):
            tag = f"directions ({i + 1},{j + 1})"
            rng = random.Random(seed * 1_000_003 + 211 * i + 17 * j)
            try:
                r = restrict_double(a, i, j)
                bad = None
                for _ in range(trials):
                    pt = rand_graded_member(rng, a)
                    dp = r.embed(pt)
                    if not double_contains(r.double, dp):
                        bad = "level-set point maps outside the restriction"
                        break
                    delta = rand_vec(rng, a.space.core_dim)
                    moved = r.embed(core_translate(pt, delta))
                    if moved != dp.shift_core(r.place_core(delta)):
                        bad = "core translation does not match the block shift"
                        break
                records.append(
                    CheckRecord(
                        f"{tag} restriction embeds the level set",
                        PASS if bad is None else FAIL,
                        witness=f"{trials} samples" if bad is None else bad,
                        seed=seed,
                    )
                )

                bad = None
                for _ in range(trials):
                    phi, psi = rand_dual_pair(rng, r.double)
                    base = pairing(phi, psi, r.double)
                    if pairing(phi.shift_core(r.double.l2), psi, r.double) != base + 1:
                        bad = "vertical marked shift does not add one"
                        break
                    if pairing(phi, psi.shift_core(-r.double.l1), r.double) != base + 1:
                        bad = "horizontal marked shift does not add one"
                        break
                records.append(
                    CheckRecord(
                        f"{tag} adjoint duality",
                        PASS if bad is None else FAIL,
                        witness=f"{trials} paired samples" if bad is None else bad,
                        seed=seed,
                    )
                )
            except DaffineError as e:
                records.append(CheckRecord(f"{tag} adjoint duality", FAIL, witness=str(e), seed=seed))

    return Report.of(records)
