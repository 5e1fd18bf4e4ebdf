"""Double vector and double affine spaces over a point, in decomposed form.

A decomposed double vector space is a product V1 x V2 x V3 of "side" spaces
V1 (coordinates y), V2 (coordinates z) and a "core" V3 (coordinates c).  It
carries two commuting affine-combination operations: aff1 fixes y and mixes
(z, c); aff2 fixes z and mixes (y, c).  A double affine subspace is cut out
by l1(y) = 1 and l2(z) = 1 for nonzero side covectors l1, l2; a *special*
one additionally carries a nonzero marked core vector sigma.

Duals are taken one leg at a time.  The vertical dual (dualizing the fibers
of (y, z, c) -> y) has sides (V1, V3*) and core V2*; its points evaluate on
points of the original over a shared y.  The horizontal dual is symmetric.
Iterating horizontal-vertical-horizontal duals lands back on the flipped
space, with the core identification picking up a sign; hvh_iso constructs
that comparison map and verifies it on a spanning set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional, Sequence, Tuple

from .errors import (
    BaseMismatch,
    ConstraintViolated,
    DimMismatch,
    FiberMismatch,
    MalformedConstraint,
    NotSpecial,
    SpaceMismatch,
    ZeroFunctional,
)
from .exact import Bilinear, Mat, Scalar, Vec, as_scalar
from .exact.linalg import _combine


# ---------------------------------------------------------------------------
# spaces and points
# ---------------------------------------------------------------------------


def require_ints(what: str, values) -> None:
    """Refuse the first value that is not an ``int``, naming it: a dimension
    or a degree bit of 1.5 is neither truncated nor left to fail later."""
    for v in values:
        if type(v) is not int:
            raise DimMismatch(f"{what} {v!r} is not an int")


def _as_vec(v, n: int) -> Vec:
    if isinstance(v, Vec):
        return v
    if v is None:
        return Vec.zero(n)
    return Vec(v)


@dataclass(frozen=True)
class DecomposedDouble:
    """Dimensions of the two sides and the core."""

    n1: int
    n2: int
    n3: int

    def __post_init__(self):
        require_ints("dimension", self.dims)
        if min(self.n1, self.n2, self.n3) < 0:
            raise DimMismatch("negative dimension")

    @property
    def dims(self) -> Tuple[int, int, int]:
        return (self.n1, self.n2, self.n3)

    def point(self, y, z, c) -> "DoublePoint":
        return DoublePoint(self, _as_vec(y, self.n1), _as_vec(z, self.n2), _as_vec(c, self.n3))

    def zero_point(self) -> "DoublePoint":
        return DoublePoint(self, Vec.zero(self.n1), Vec.zero(self.n2), Vec.zero(self.n3))


@dataclass(frozen=True)
class DoublePoint:
    owner: DecomposedDouble
    y: Vec
    z: Vec
    c: Vec

    def __post_init__(self):
        if (self.y.dim, self.z.dim, self.c.dim) != self.owner.dims:
            raise DimMismatch("point slots do not match the owning space")

    @classmethod
    def _trusted(cls, owner: DecomposedDouble, y: Vec, z: Vec, c: Vec) -> "DoublePoint":
        """Build a point without the dims check: the slots must fit ``owner``,
        as slots computed from a point of ``owner`` slot by slot do."""
        p = object.__new__(cls)
        p.__dict__.update(owner=owner, y=y, z=z, c=c)  # past the frozen __setattr__
        return p

    def shift_core(self, delta: Vec) -> "DoublePoint":
        """Translate the core slot by delta."""
        return DoublePoint(self.owner, self.y, self.z, self.c + delta)


def aff1(p: DoublePoint, q: DoublePoint, lam: Scalar) -> DoublePoint:
    """Affine combination inside a fiber over y: fixes y, mixes (z, c)."""
    if p.owner != q.owner:
        raise SpaceMismatch("points of different double spaces")
    if p.y != q.y:
        raise FiberMismatch("aff1 needs a common y")
    lam = as_scalar(lam)
    z = _combine(lam, p.z.entries, q.z.entries)
    c = _combine(lam, p.c.entries, q.c.entries)
    return DoublePoint._trusted(p.owner, p.y, Vec._trusted(z), Vec._trusted(c))


def aff2(p: DoublePoint, q: DoublePoint, lam: Scalar) -> DoublePoint:
    """Affine combination inside a fiber over z: fixes z, mixes (y, c)."""
    if p.owner != q.owner:
        raise SpaceMismatch("points of different double spaces")
    if p.z != q.z:
        raise FiberMismatch("aff2 needs a common z")
    lam = as_scalar(lam)
    y = _combine(lam, p.y.entries, q.y.entries)
    c = _combine(lam, p.c.entries, q.c.entries)
    return DoublePoint._trusted(p.owner, Vec._trusted(y), p.z, Vec._trusted(c))


def interchange_sides(
    x11: DoublePoint,
    x12: DoublePoint,
    x21: DoublePoint,
    x22: DoublePoint,
    lam: Scalar,
    mu: Scalar,
) -> Tuple[DoublePoint, DoublePoint]:
    """Both evaluation orders of the interchange square.

    Requires x11, x12 and x21, x22 to share y (aff1-compatible) and x11, x21
    and x12, x22 to share z (aff2-compatible).  The two returned points are
    equal precisely because the two combination operations commute.
    """
    first = aff2(aff1(x11, x12, lam), aff1(x21, x22, lam), mu)
    second = aff1(aff2(x11, x21, mu), aff2(x12, x22, mu), lam)
    return first, second


# ---------------------------------------------------------------------------
# double affine subspaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoubleAffine:
    """The subspace {l1(y) = 1, l2(z) = 1}, optionally with a marked core vector."""

    space: DecomposedDouble
    l1: Vec
    l2: Vec
    sigma: Optional[Vec] = None

    def __post_init__(self):
        if self.l1.dim != self.space.n1 or self.l2.dim != self.space.n2:
            raise DimMismatch("side covectors must match the side dimensions")
        if self.l1.is_zero() or self.l2.is_zero():
            raise ZeroFunctional("side covectors must be nonzero")
        if self.sigma is not None:
            if self.sigma.dim != self.space.n3:
                raise DimMismatch("sigma must live in the core")
            if self.sigma.is_zero():
                raise NotSpecial("marked core vector is zero")

    @property
    def is_special(self) -> bool:
        return self.sigma is not None

    def point(self, y, z, c) -> DoublePoint:
        p = self.space.point(y, z, c)
        if not contains(self, p):
            raise ConstraintViolated("point violates l1 = 1 or l2 = 1")
        return p


def contains(a: DoubleAffine, p: DoublePoint) -> bool:
    if p.owner != a.space:
        raise DimMismatch("point belongs to a different double space")
    return a.l1.dot(p.y) == 1 and a.l2.dot(p.z) == 1


@dataclass(frozen=True)
class ModelDouble:
    """The linear model {l1(y) = 0, l2(z) = 0}, with bases for the two sides."""

    ambient: DecomposedDouble
    l1: Vec
    l2: Vec
    dims: Tuple[int, int, int]
    side1_basis: tuple
    side2_basis: tuple

    def contains(self, p: DoublePoint) -> bool:
        if p.owner != self.ambient:
            raise DimMismatch("vector belongs to a different double space")
        return self.l1.dot(p.y) == 0 and self.l2.dot(p.z) == 0


def model_vv(a: DoubleAffine) -> ModelDouble:
    """The model double vector space of A, cut out by l1 = 0 and l2 = 0."""
    k1 = Mat([tuple(a.l1)]).kernel()
    k2 = Mat([tuple(a.l2)]).kernel()
    return ModelDouble(
        ambient=a.space,
        l1=a.l1,
        l2=a.l2,
        dims=(a.space.n1 - 1, a.space.n2 - 1, a.space.n3),
        side1_basis=tuple(k1),
        side2_basis=tuple(k2),
    )


@dataclass(frozen=True)
class Hull:
    """The ambient double vector space presented as the hull of A."""

    space: DecomposedDouble
    l1: Vec
    l2: Vec


def hull(a: DoubleAffine) -> Hull:
    """The vector hull of A is the ambient decomposed space itself."""
    return Hull(a.space, a.l1, a.l2)


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------


# Memoised: every evaluation and pairing compares owners against a dual.
@cache
def vertical_dual(d: DecomposedDouble) -> DecomposedDouble:
    """Dual over the y-projection: sides (V1, V3*), core V2*."""
    return DecomposedDouble(d.n1, d.n3, d.n2)


@cache
def horizontal_dual(d: DecomposedDouble) -> DecomposedDouble:
    """Dual over the z-projection: sides (V3*, V2), core V1*."""
    return DecomposedDouble(d.n3, d.n2, d.n1)


def vd_eval(phi: DoublePoint, x: DoublePoint) -> Scalar:
    """Evaluate a vertical-dual point on a point of the original space.

    phi = (y; gamma in V3*, zeta in V2*) acts on x = (y, z, c) over the same
    y by zeta(z) + gamma(c); the slots of phi are (y, gamma, zeta).
    """
    if phi.owner != vertical_dual(x.owner):
        raise DimMismatch("first argument is not a vertical-dual point")
    if phi.y != x.y:
        raise BaseMismatch("vertical evaluation needs a common y")
    return phi.c.dot(x.z) + phi.z.dot(x.c)


def hd_eval(psi: DoublePoint, x: DoublePoint) -> Scalar:
    """Evaluate a horizontal-dual point on a point of the original space.

    psi = (gamma in V3*; z; eta in V1*) acts on x = (y, z, c) over the same
    z by eta(y) + gamma(c); the slots of psi are (gamma, z, eta).
    """
    if psi.owner != horizontal_dual(x.owner):
        raise DimMismatch("first argument is not a horizontal-dual point")
    if psi.z != x.z:
        raise BaseMismatch("horizontal evaluation needs a common z")
    return psi.c.dot(x.y) + psi.y.dot(x.c)


def special_dual_vertical(a: DoubleAffine) -> DoubleAffine:
    """The special vertical dual: (D^V; l1, eval-at-sigma; marked core l2)."""
    if a.sigma is None:
        raise NotSpecial("special vertical dual needs a marked core vector")
    return DoubleAffine(
        vertical_dual(a.space), l1=a.l1, l2=a.sigma, sigma=a.l2
    )


def special_dual_horizontal(a: DoubleAffine) -> DoubleAffine:
    """The special horizontal dual: (D^H; eval-at-sigma, l2; marked core l1)."""
    if a.sigma is None:
        raise NotSpecial("special horizontal dual needs a marked core vector")
    return DoubleAffine(
        horizontal_dual(a.space), l1=a.sigma, l2=a.l2, sigma=a.l1
    )


def pairing(phi: DoublePoint, psi: DoublePoint, a: DoubleAffine) -> Scalar:
    """The canonical pairing of a vertical-dual point with a horizontal-dual one.

    Both arguments must sit over the same core covector (phi's z slot equals
    psi's y slot); the value is phi(x) - psi(x) for any interpolating point x
    of the original space over (phi.y, psi.z).  The core terms of the two
    evaluations cancel, so that value is phi.c(psi.z) - psi.c(phi.y) for every
    such x, and that closed form is returned.
    """
    return _pair(phi, psi, a.space)


def _pair(phi: DoublePoint, psi: DoublePoint, d: DecomposedDouble) -> Scalar:
    """:func:`pairing` over the original space d."""
    if phi.owner != vertical_dual(d) or psi.owner != horizontal_dual(d):
        raise DimMismatch("pairing arguments do not match the dual spaces")
    if phi.z != psi.y:
        raise BaseMismatch("pairing needs a common core covector")
    return phi.c.dot(psi.z) - psi.c.dot(phi.y)


# ---------------------------------------------------------------------------
# flips, adjoints, morphisms
# ---------------------------------------------------------------------------


def flip(a: DoubleAffine) -> DoubleAffine:
    """Swap the two side structures; the core and its marked vector stay put."""
    return DoubleAffine(
        DecomposedDouble(a.space.n2, a.space.n1, a.space.n3),
        l1=a.l2,
        l2=a.l1,
        sigma=a.sigma,
    )


def adjoint(a: DoubleAffine) -> DoubleAffine:
    """Same space, opposite marked core vector."""
    if a.sigma is None:
        raise NotSpecial("adjoint needs a marked core vector")
    return DoubleAffine(a.space, a.l1, a.l2, -a.sigma)


def _fits(m: Mat, rows: int, cols: int) -> bool:
    # A matrix without rows carries no column count, so its columns go unchecked.
    return m.nrows == rows and (rows == 0 or m.ncols == cols)


def blocks_fit(src: Tuple[int, int, int], dst: Tuple[int, int, int], b) -> bool:
    """Do the nine blocks of b (any object carrying them by name) map a double
    space of dims src to one of dims dst?"""
    s1, s2, s3 = src
    d1, d2, d3 = dst
    bk, br, bs = b.gamma_yz.shape
    return (
        (b.alpha0.dim, b.beta0.dim, b.gamma00.dim) == dst
        and _fits(b.alpha, d1, s1)
        and _fits(b.beta, d2, s2)
        and _fits(b.sigma, d3, s3)
        and _fits(b.gamma_y, d3, s1)
        and _fits(b.gamma_z, d3, s2)
        and bk == d3
        and (d3 == 0 or (br == s1 and (s1 == 0 or bs == s2)))
    )


def composite_blocks(f, g) -> dict:
    """The nine blocks of g after f, by name; f and g are any objects carrying them.

    The entries may be rationals or polynomials; the formula is the same.
    """
    return dict(
        alpha0=g.alpha0 + g.alpha @ f.alpha0,
        alpha=g.alpha @ f.alpha,
        beta0=g.beta0 + g.beta @ f.beta0,
        beta=g.beta @ f.beta,
        gamma00=g.gamma00
        + g.gamma_y @ f.alpha0
        + g.gamma_z @ f.beta0
        + g.gamma_yz.apply(f.alpha0, f.beta0)
        + g.sigma @ f.gamma00,
        gamma_y=g.gamma_y @ f.alpha + g.gamma_yz.right_vec(f.beta0) @ f.alpha + g.sigma @ f.gamma_y,
        gamma_z=g.gamma_z @ f.beta + g.gamma_yz.left_vec(f.alpha0) @ f.beta + g.sigma @ f.gamma_z,
        gamma_yz=g.gamma_yz.left_mat(f.alpha).right_mat(f.beta) + f.gamma_yz.post(g.sigma),
        sigma=g.sigma @ f.sigma,
    )


@dataclass(frozen=True)
class DoubleMorphism:
    """A block map between decomposed doubles, affine in each slot.

    y' = alpha0 + alpha y;  z' = beta0 + beta z;
    c' = gamma00 + gamma_y y + gamma_z z + gamma_yz(y, z) + sigma c.
    """

    src: DecomposedDouble
    dst: DecomposedDouble
    alpha: Mat
    beta: Mat
    sigma: Mat
    gamma_yz: Bilinear
    alpha0: Vec
    beta0: Vec
    gamma00: Vec
    gamma_y: Mat
    gamma_z: Mat

    def __post_init__(self):
        if not blocks_fit(self.src.dims, self.dst.dims, self):
            raise DimMismatch("morphism blocks do not match the given spaces")

    @staticmethod
    def linear(
        src: DecomposedDouble,
        dst: DecomposedDouble,
        alpha: Mat,
        beta: Mat,
        sigma: Mat,
        gamma_yz: Optional[Bilinear] = None,
    ) -> "DoubleMorphism":
        """A pure double-vector morphism: all affine parts vanish."""
        return DoubleMorphism(
            src,
            dst,
            alpha,
            beta,
            sigma,
            gamma_yz if gamma_yz is not None else Bilinear.zero(dst.n3, src.n1, src.n2),
            Vec.zero(dst.n1),
            Vec.zero(dst.n2),
            Vec.zero(dst.n3),
            Mat.zero(dst.n3, src.n1),
            Mat.zero(dst.n3, src.n2),
        )

    @staticmethod
    def identity(d: DecomposedDouble) -> "DoubleMorphism":
        return DoubleMorphism.linear(d, d, Mat.identity(d.n1), Mat.identity(d.n2), Mat.identity(d.n3))

    def apply(self, p: DoublePoint) -> DoublePoint:
        if p.owner != self.src:
            raise SpaceMismatch("point is not in the source space")
        y = self.alpha0 + self.alpha @ p.y
        z = self.beta0 + self.beta @ p.z
        c = (
            self.gamma00
            + self.gamma_y @ p.y
            + self.gamma_z @ p.z
            + self.gamma_yz.apply(p.y, p.z)
            + self.sigma @ p.c
        )
        return DoublePoint(self.dst, y, z, c)

    def then(self, g: "DoubleMorphism") -> "DoubleMorphism":
        """The composite g(self(-))."""
        if g.src != self.dst:
            raise SpaceMismatch("composition mismatch")
        return DoubleMorphism(self.src, g.dst, **composite_blocks(self, g))


# ---------------------------------------------------------------------------
# the horizontal-vertical-horizontal comparison
# ---------------------------------------------------------------------------


def hvh_chain(a: DoubleAffine) -> Tuple[DoubleAffine, DoubleAffine, DoubleAffine]:
    """The three iterated special duals (horizontal, then vertical, then horizontal)."""
    ah = special_dual_horizontal(a)
    ahv = special_dual_vertical(ah)
    ahvh = special_dual_horizontal(ahv)
    return ah, ahv, ahvh


def _unit_points(d: DecomposedDouble, fixed_z: Vec):
    """Points of d with the given z slot and unit/zero y and c slots."""
    ys = [Vec.zero(d.n1)] + [Vec.unit(d.n1, i) for i in range(d.n1)]
    cs = [Vec.zero(d.n3)] + [Vec.unit(d.n3, t) for t in range(d.n3)]
    for y in ys:
        for c in cs:
            yield DoublePoint(d, y, fixed_z, c)


# Memoised: the outcome depends on the dims alone, so each space is decided once.
@cache
def _hvh_sign_holds(d: DecomposedDouble) -> bool:
    """Does negating the core turn evaluation on the double dual into the pairing?

    A point Xi of the triple dual evaluates on Theta in the double dual via
    hd_eval.  Mapping Xi to the point (y=Xi.z, z=Xi.y, c=-Xi.c) of the
    original space (seen as the repeated horizontal dual) must reproduce the
    canonical pairing of Theta with it, checked on a spanning set of unit
    points.
    """
    h = horizontal_dual(d)
    hv = vertical_dual(h)
    hvh = horizontal_dual(hv)
    for w in [Vec.zero(d.n1)] + [Vec.unit(d.n1, i) for i in range(d.n1)]:
        for theta in _unit_points(hv, w):
            for xi in _unit_points(hvh, w):
                back = DoublePoint(d, xi.z, xi.y, -xi.c)
                if hd_eval(xi, theta) != _pair(theta, back, h):
                    return False
    return True


def hvh_iso(a: DoubleAffine) -> DoubleMorphism:
    """The natural identification of the triple dual with the flipped adjoint.

    Returns the morphism (identity on both sides, minus identity on the core)
    from the horizontal-vertical-horizontal dual onto adjoint(flip(a)).  The
    sign on the core is forced: a triple-dual point evaluates tautologically
    on the intermediate double, and that evaluation matches the canonical
    vertical/horizontal pairing only after negating the core slot.  The data
    cycle is verified for a, and the sign on a spanning set once per space
    (:func:`_hvh_sign_holds`), before the morphism is returned.
    """
    if a.sigma is None:
        raise NotSpecial("the triple-dual comparison needs a marked core vector")
    d = a.space
    n1, n2, n3 = d.dims
    ahvh = hvh_chain(a)[2]
    target = adjoint(flip(a))

    # Bookkeeping: the data cycle must come out as (l2, l1; sigma) in coordinates.
    if ahvh.space.dims != (n2, n1, n3):
        raise ConstraintViolated("triple dual landed in the wrong dimensions")
    if ahvh.l1 != a.l2 or ahvh.l2 != a.l1 or ahvh.sigma != a.sigma:
        raise ConstraintViolated("triple-dual data cycle failed")

    if not _hvh_sign_holds(d):
        raise ConstraintViolated("triple-dual sign check failed")

    iso = DoubleMorphism.linear(
        ahvh.space,
        target.space,
        Mat.identity(n2),
        Mat.identity(n1),
        -Mat.identity(n3),
    )
    # The marked data must transport correctly through the comparison map.
    if iso.sigma @ ahvh.sigma != target.sigma:
        raise ConstraintViolated("triple-dual comparison missed the marked core vector")
    return iso


# ---------------------------------------------------------------------------
# level-set classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """A side point (or pair of side points) whose fiber in the level set is empty."""

    y: Optional[tuple]
    z: Optional[tuple]
    reason: str


@dataclass(frozen=True)
class Classification:
    is_subbundle: bool
    witness: Optional[Witness]
    reason: str


_SEARCH_VALUES = tuple(
    Fraction(t) for t in (0, 1, -1, 2, "1/2", -2, "-1/2", 3, -3, "1/3")
)


def _flat(system_rows: Sequence[Vec], rhs: Sequence[Scalar], dim: int):
    """Particular solution and kernel basis of a linear system, or None if empty."""
    if not system_rows:
        return Vec.zero(dim), [Vec.unit(dim, i) for i in range(dim)]
    m = Mat([tuple(r) for r in system_rows])
    part = m.solve(Vec(rhs))
    if part is None:
        return None
    return part, m.kernel()


def _grid(origin: Vec, basis: Sequence[Vec], cap: int = 400):
    """Deterministic scan of points origin + sum(s_i * basis_i), small s first."""
    if not basis:
        yield origin
        return
    count = 0
    for combo in itertools.product(_SEARCH_VALUES, repeat=len(basis)):
        p = origin
        for s, b in zip(combo, basis):
            p = p + b.scale(s)
        yield p
        count += 1
        if count >= cap:
            return


class _Row:
    __slots__ = ("g00", "gy", "gz", "gyz", "sc", "val")

    def __init__(self, g00, gy, gz, gyz, sc, val):
        self.g00, self.gy, self.gz, self.gyz, self.sc, self.val = g00, gy, gz, gyz, sc, val

    def eval_yz(self, y: Vec, z: Vec) -> Scalar:
        """Value of the (y, z)-part minus the target, ignoring the core term."""
        bil = sum((self.gyz.row(i).dot(z)) * y[i] for i in range(self.gy.dim))
        return self.g00 + self.gy.dot(y) + self.gz.dot(z) + bil - self.val

    def z_coeff(self, y: Vec) -> Vec:
        """Coefficient of z after substituting the given y (core term ignored)."""
        return self.gz + Vec(self.gyz.col(b).dot(y) for b in range(self.gz.dim))

    def y_coeff(self, z: Vec) -> Vec:
        return self.gy + Vec(self.gyz.row(i).dot(z) for i in range(self.gy.dim))


def _parse_rows(d: DecomposedDouble, rows) -> list:
    n1, n2, n3 = d.dims
    width = 1 + n1 + n2 + n1 * n2 + n3 + 1
    out = []
    for k, raw in enumerate(rows):
        entries = [as_scalar(x) for x in raw]
        if len(entries) != width:
            raise MalformedConstraint(
                f"row {k}: expected {width} entries "
                f"(1 + {n1} + {n2} + {n1 * n2} + {n3} + 1), got {len(entries)}"
            )
        g00 = entries[0]
        gy = Vec(entries[1 : 1 + n1])
        gz = Vec(entries[1 + n1 : 1 + n1 + n2])
        flat = entries[1 + n1 + n2 : 1 + n1 + n2 + n1 * n2]
        gyz = Mat([flat[i * n2 : (i + 1) * n2] for i in range(n1)] if n1 else [])
        sc = Vec(entries[1 + n1 + n2 + n1 * n2 : width - 1])
        out.append(_Row(g00, gy, gz, gyz, sc, entries[-1]))
    return out


def _fiber_empty_over_y(y0: Vec, residual: Sequence[_Row]) -> bool:
    rows = [tuple(r.z_coeff(y0)) for r in residual]
    rhs = Vec(r.val - r.g00 - r.gy.dot(y0) for r in residual)
    return Mat(rows).solve(rhs) is None


def _fiber_empty_over_z(z0: Vec, residual: Sequence[_Row]) -> bool:
    rows = [tuple(r.y_coeff(z0)) for r in residual]
    rhs = Vec(r.val - r.g00 - r.gz.dot(z0) for r in residual)
    return Mat(rows).solve(rhs) is None


def classify_level_set(d: DecomposedDouble, rows) -> Classification:
    """Decide whether affine-bilinear level rows cut a double affine subbundle.

    Each row lists (g00, g_y.., g_z.., g_yz row-major.., sigma_c.., value) and
    asserts g00 + g_y y + g_z z + y g_yz z + sigma_c c = value.  Rows that can
    be solved for some core coordinate never obstruct: over any admissible
    (y, z) the core fiber is a nonempty affine subspace varying affinely along
    both sides.  The remaining constraints must split into pure-y and pure-z
    level sets; anything genuinely mixing the two sides produces a side point
    (or pair) with an empty fiber, returned as a witness.
    """
    n1, n2, n3 = d.dims
    parsed = _parse_rows(d, rows)
    if not parsed:
        return Classification(True, None, "no constraints: the whole space")

    width = n3 + n1 * n2 + n1 + n2 + 1
    elim_rows = [
        tuple(r.sc)
        + tuple(r.gyz.rows[i][b] for i in range(n1) for b in range(n2))
        + tuple(r.gy)
        + tuple(r.gz)
        + (r.g00 - r.val,)
        for r in parsed
    ]
    reduced, _ = Mat(elim_rows).rref()

    residual = []
    for row in reduced.rows:
        lead = next((j for j, x in enumerate(row) if x != 0), None)
        if lead is None or lead < n3:
            continue  # zero row, or solvable for a core coordinate
        if lead == width - 1:
            return Classification(
                False,
                Witness(None, None, "the level set is empty"),
                "constraints are inconsistent",
            )
        gyz = Mat([row[n3 + i * n2 : n3 + (i + 1) * n2] for i in range(n1)] if n1 else [])
        gy = Vec(row[n3 + n1 * n2 : n3 + n1 * n2 + n1])
        gz = Vec(row[n3 + n1 * n2 + n1 : n3 + n1 * n2 + n1 + n2])
        residual.append(_Row(row[-1], gy, gz, gyz, Vec.zero(n3), Fraction(0)))

    pure_y = [r for r in residual if r.gz.is_zero() and _mat_is_zero(r.gyz)]
    pure_z = [r for r in residual if r.gy.is_zero() and _mat_is_zero(r.gyz)]
    mixing = [r for r in residual if r not in pure_y and r not in pure_z]

    y_flat = _flat([r.gy for r in pure_y], [r.val - r.g00 for r in pure_y], n1)
    if y_flat is None:
        return Classification(
            False,
            Witness(None, None, "the y-side constraints are inconsistent"),
            "empty side base",
        )
    z_flat = _flat([r.gz for r in pure_z], [r.val - r.g00 for r in pure_z], n2)
    if z_flat is None:
        return Classification(
            False,
            Witness(None, None, "the z-side constraints are inconsistent"),
            "empty side base",
        )

    if not mixing:
        return Classification(
            True, None, "constraints split into core rows and pure side level sets"
        )

    # A constraint genuinely couples the two sides unless it dies on the side
    # flats; check that first, then hunt for an empty fiber.
    y0_, ybasis = y_flat
    z0_, zbasis = z_flat
    if all(_vanishes_on_flats(r, y0_, ybasis, z0_, zbasis) for r in mixing):
        return Classification(
            True, None, "mixed rows vanish identically on the side flats"
        )

    for y0 in _grid(y0_, ybasis):
        if _fiber_empty_over_y(y0, residual):
            return Classification(
                False,
                Witness(tuple(y0), None, f"no point of the level set lies over y = {_fmt(y0)}"),
                "side projection misses a base point",
            )
    for z0 in _grid(z0_, zbasis):
        if _fiber_empty_over_z(z0, residual):
            return Classification(
                False,
                Witness(None, tuple(z0), f"no point of the level set lies over z = {_fmt(z0)}"),
                "side projection misses a base point",
            )
    for y0 in _grid(y0_, ybasis, cap=40):
        for z0 in _grid(z0_, zbasis, cap=40):
            if any(r.eval_yz(y0, z0) != 0 for r in residual):
                return Classification(
                    False,
                    Witness(
                        tuple(y0),
                        tuple(z0),
                        f"the fiber over (y, z) = ({_fmt(y0)}, {_fmt(z0)}) is empty",
                    ),
                    "side pair with empty fiber",
                )
    return Classification(
        False,
        Witness(None, None, "mixed constraints persist but no small witness was found"),
        "side-coupling constraints remain",
    )


def _mat_is_zero(m: Mat) -> bool:
    return all(x == 0 for row in m.rows for x in row)


def _vanishes_on_flats(r: _Row, y0: Vec, ybasis, z0: Vec, zbasis) -> bool:
    """Does the row vanish identically on (y-flat) x (z-flat)?"""
    if r.eval_yz(y0, z0) != 0:
        return False
    for ky in ybasis:
        if r.y_coeff(z0).dot(ky) != 0:
            return False
        for kz in zbasis:
            if Vec(r.gyz.row(i).dot(kz) for i in range(r.gy.dim)).dot(ky) != 0:
                return False
    for kz in zbasis:
        if r.z_coeff(y0).dot(kz) != 0:
            return False
    return True


def _fmt(v: Vec) -> str:
    return "(" + ", ".join(str(t) for t in v) + ")"
