"""Cotangent tower over a one-chart base, in a fixed fiber normal form.

Everything here lives on the total cotangent space of a trivial bundle
E = Q^m x Q^{n+2}.  The fiber carries the normal form of a bispecial space:
one distinguished coordinate cut out by the structure functional (the
"alpha" slot) and one distinguished translation direction (the "v" slot).
A raw point is (x, y, p, pi) with momenta p conjugate to x and pi conjugate
to y.  All the derived objects are carved out of this one coordinate space
by two devices:

* constraints -- equations ``y[alpha] = 1`` and/or ``pi[v] = 1``;
* masks -- quotients by the translation flows chi, represented by zeroing
  the quotiented slot of a canonical representative.

The four standard sets::

    affctg   mask {y[v], pi[alpha]},  no constraints      (a double vector bundle)
    phasep   same mask, both constraints                  (double affine)
    bbl      no mask, both constraints                    (double affine)
    contact  mask {pi[alpha]}, both constraints           (double affine, special)

The dual bundle swaps the alpha and v slots (index 0 <-> index n+1), which
is exactly what the momentum-flip map ``beta`` produces.

Each double structure is read off a block form: :func:`to_double_point`
sends a point of a set to its (y, z, c) blocks, whose side blocks are the two
bundle projections, and :func:`from_double_point` inverts it.

``CotangentPoint._trusted`` and ``ReducedCovector._trusted`` wrap parts
without the checks of the public constructors.  They serve parts that already
fit: slots computed from a point of the same bundle, and the members that
``randgen.rand_member`` draws with the set's constraints and masked zeros
already written in.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import FrozenSet, Optional, Tuple

from .double import (
    DecomposedDouble,
    DoubleAffine,
    DoublePoint,
    require_ints,
    special_dual_vertical,
    vd_eval,
    vertical_dual,
)
from .errors import (
    BaseMismatch,
    ConstraintViolated,
    DimMismatch,
    SingularMatrix,
    SpaceMismatch,
    ZeroForm,
)
from .exact import ONE, ZERO, Mat, Vec, as_scalar
from .naffine import GradedSpace, NAffine
from .report import Report, verdict

Slot = Tuple[str, int]


@dataclass(frozen=True)
class TrivialBispecial:
    """A trivial bundle with bispecial fiber of hull dimension n + 2.

    ``dual_form`` flips which end of the coordinate range carries the
    structure functional: the plain form has alpha at index n+1 and v at
    index 0, the dual form the other way around.
    """

    base_dim: int
    n: int
    dual_form: bool = False

    def __post_init__(self):
        require_ints("dimension", (self.base_dim, self.n))
        if self.base_dim < 0 or self.n < 0:
            raise DimMismatch("negative dimensions")

    @property
    def hull_dim(self) -> int:
        return self.n + 2

    @property
    def alpha_index(self) -> int:
        return 0 if self.dual_form else self.n + 1

    @property
    def v_index(self) -> int:
        return self.n + 1 if self.dual_form else 0

    @property
    def middle(self) -> range:
        """Indices that are neither the alpha slot nor the v slot."""
        return range(1, self.n + 1)

    def fiber(self) -> NAffine:
        """The fiber as a special affine space: the order-one bundle cut out
        by the alpha slot and marked by the v slot."""
        h = self.hull_dim
        return NAffine(
            GradedSpace(1, {(1,): h}), (Vec.unit(h, self.alpha_index),), Vec.unit(h, self.v_index)
        )

    # Memoised, as double.vertical_dual is: beta and kappa ask for it per point.
    @cache
    def dual_bundle(self) -> "TrivialBispecial":
        return TrivialBispecial(self.base_dim, self.n, not self.dual_form)


@dataclass(frozen=True)
class CotangentPoint:
    bundle: TrivialBispecial
    x: Vec
    y: Vec
    p: Vec
    pi: Vec

    def __post_init__(self):
        m, h = self.bundle.base_dim, self.bundle.hull_dim
        if self.x.dim != m or self.p.dim != m or self.y.dim != h or self.pi.dim != h:
            raise DimMismatch("cotangent point does not fit the bundle")

    @classmethod
    def _trusted(cls, bundle: TrivialBispecial, x: Vec, y: Vec, p: Vec, pi: Vec) -> "CotangentPoint":
        """Build a point without the dims check: the slots must fit
        ``bundle``, as slots computed from a point of a bundle with the same
        dims slot by slot do."""
        w = object.__new__(cls)
        w.__dict__.update(bundle=bundle, x=x, y=y, p=p, pi=pi)  # past the frozen __setattr__
        return w

    def slot(self, s: Slot):
        kind, i = s
        return self.y[i] if kind == "y" else self.pi[i]

    def with_slot(self, s: Slot, value) -> "CotangentPoint":
        kind, i = s
        if kind == "y":
            return CotangentPoint._trusted(self.bundle, self.x, self.y.replaced({i: value}), self.p, self.pi)
        return CotangentPoint._trusted(self.bundle, self.x, self.y, self.p, self.pi.replaced({i: value}))


@dataclass(frozen=True)
class ReducedCovector:
    """A cotangent point modulo translations of the masked slots.

    The stored representative is canonical: every masked slot is
    ``Fraction(0)``, so dataclass equality is exactly equality of the
    unmasked coordinates.  A point whose masked slots already are is kept as
    it is; any other is rebuilt once, with all of them zeroed.
    """

    point: CotangentPoint
    mask: FrozenSet[Slot] = frozenset()

    def __post_init__(self):
        mask = self.mask
        if type(mask) is not frozenset:
            mask = frozenset(mask)
            object.__setattr__(self, "mask", mask)
        p = self.point
        for kind, i in mask:
            e = (p.y if kind == "y" else p.pi).entries
            if not (0 <= i < len(e) and type(e[i]) is Fraction and not e[i]):
                break
        else:
            return  # every masked slot already holds Fraction(0)
        y_slots = {i: ZERO for kind, i in mask if kind == "y"}
        pi_slots = {i: ZERO for kind, i in mask if kind != "y"}
        y = p.y.replaced(y_slots) if y_slots else p.y
        pi = p.pi.replaced(pi_slots) if pi_slots else p.pi
        object.__setattr__(self, "point", CotangentPoint._trusted(p.bundle, p.x, y, p.p, pi))

    @classmethod
    def _trusted(cls, point: CotangentPoint, mask: FrozenSet[Slot]) -> "ReducedCovector":
        """Wrap a representative without the canonical-form pass: ``mask``
        must be a frozenset and every masked slot of ``point`` must already
        hold ``Fraction(0)``, as ``randgen.rand_member`` builds them."""
        w = object.__new__(cls)
        w.__dict__.update(point=point, mask=mask)  # past the frozen __setattr__
        return w

    @property
    def bundle(self) -> TrivialBispecial:
        return self.point.bundle


def chi(s, t, w):
    """Translate y along v by ``s`` and the alpha-momentum by ``t``."""
    if isinstance(w, ReducedCovector):
        return ReducedCovector(chi(s, t, w.point), w.mask)
    b = w.bundle
    p = w.with_slot(("y", b.v_index), w.y[b.v_index] + as_scalar(s))
    return p.with_slot(("pi", b.alpha_index), p.pi[b.alpha_index] + as_scalar(t))


def lifts(w) -> Tuple[Fraction, Fraction]:
    """The two chi-invariant level functions (structure level, v-momentum)."""
    p = w.point if isinstance(w, ReducedCovector) else w
    b = p.bundle
    return p.y[b.alpha_index], p.pi[b.v_index]


AFFCTG, PHASEP, BBL, CONTACT = "affctg", "phasep", "bbl", "contact"
_KINDS = (AFFCTG, PHASEP, BBL, CONTACT)


@dataclass(frozen=True)
class PhaseSet:
    """One of the four standard subquotients of the cotangent space.

    ``mask`` (the quotiented slots) and ``constraints`` (the slots fixed to
    1) are computed once, when the set is built; they are not fields, so
    equality, hashing and ``repr`` read the bundle and the kind alone.
    """

    bundle: TrivialBispecial
    kind: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown phase set kind {self.kind!r}")
        b = self.bundle
        mask: FrozenSet[Slot] = frozenset()
        if self.kind in (AFFCTG, PHASEP):
            mask = frozenset({("y", b.v_index), ("pi", b.alpha_index)})
        elif self.kind == CONTACT:
            mask = frozenset({("pi", b.alpha_index)})
        constraints: Tuple[Tuple[Slot, Fraction], ...] = ()
        if self.kind != AFFCTG:
            constraints = ((("y", b.alpha_index), ONE), (("pi", b.v_index), ONE))
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "constraints", constraints)

    def contains(self, w: ReducedCovector) -> bool:
        # identity first: a point of a set built through ``build`` shares its
        # bundle and mask objects
        return (
            (w.bundle is self.bundle or w.bundle == self.bundle)
            and (w.mask is self.mask or w.mask == self.mask)
            and all(w.point.slot(s) == v for s, v in self.constraints)
        )

    def reduce(self, w) -> ReducedCovector:
        """Quotient a point (or a less-reduced point) into this set."""
        p = w.point if isinstance(w, ReducedCovector) else w
        if isinstance(w, ReducedCovector) and not w.mask <= self.mask:
            raise ConstraintViolated("cannot unmask a quotiented coordinate")
        if p.bundle != self.bundle:
            raise SpaceMismatch("point belongs to a different bundle")
        out = ReducedCovector(p, self.mask)
        for s, v in self.constraints:
            if out.point.slot(s) != v:
                raise ConstraintViolated(f"slot {s} must equal {v}")
        return out


# Memoised, as dual_bundle is: tau, kappa and the pairing ask for a set per point.
@cache
def build(kind: str, bundle: TrivialBispecial) -> PhaseSet:
    return PhaseSet(bundle, kind)


# ---------------------------------------------------------------------------
# double (affine) structure of each set
# ---------------------------------------------------------------------------


def _drop(v: Vec, index: int) -> Vec:
    return Vec(v[j] for j in range(v.dim) if j != index)


def _insert(v: Vec, index: int, value) -> Vec:
    entries = list(v)
    entries.insert(index, as_scalar(value))
    return Vec(entries)


def _pos_after_drop(index: int, dropped: int) -> int:
    return index if index < dropped else index - 1


def side_functionals(bundle: TrivialBispecial) -> Tuple[Vec, Vec]:
    """(l1 on the reduced y-block, l2 on the reduced pi-block)."""
    h = bundle.hull_dim
    l1 = Vec.unit(h - 1, _pos_after_drop(bundle.alpha_index, bundle.v_index))
    l2 = Vec.unit(h - 1, _pos_after_drop(bundle.v_index, bundle.alpha_index))
    return l1, l2


# The three block spaces are memoised per bundle, as ``build`` is: the block
# form of every point asks for one.
@cache
def affctg_double(bundle: TrivialBispecial) -> DecomposedDouble:
    h, m = bundle.hull_dim, bundle.base_dim
    return DecomposedDouble(h - 1, h - 1, m)


def phasep_double_affine(bundle: TrivialBispecial, omega=None) -> DoubleAffine:
    l1, l2 = side_functionals(bundle)
    sigma = None if omega is None else omega.coeffs
    return DoubleAffine(affctg_double(bundle), l1, l2, sigma)


@cache
def bbl_double(bundle: TrivialBispecial) -> DecomposedDouble:
    h, m = bundle.hull_dim, bundle.base_dim
    return DecomposedDouble(h, h, m)


def bbl_double_affine(bundle: TrivialBispecial) -> DoubleAffine:
    h = bundle.hull_dim
    return DoubleAffine(
        bbl_double(bundle), Vec.unit(h, bundle.alpha_index), Vec.unit(h, bundle.v_index), None
    )


@cache
def contact_double(bundle: TrivialBispecial) -> DecomposedDouble:
    h, m = bundle.hull_dim, bundle.base_dim
    return DecomposedDouble(h - 1, h - 1, m + 1)


def contact_double_affine(bundle: TrivialBispecial) -> DoubleAffine:
    """Contact structure: sides are both reduced blocks, the core gains the
    v-slot coordinate as a final entry, and that direction is the special one."""
    l1, l2 = side_functionals(bundle)
    m = bundle.base_dim
    return DoubleAffine(contact_double(bundle), l1, l2, Vec.unit(m + 1, m))


def to_double_point(ps: PhaseSet, w: ReducedCovector) -> DoublePoint:
    """The block form of a point of ``ps`` in its double decomposition."""
    if not ps.contains(w):
        raise ConstraintViolated(f"point is not in the {ps.kind} set")
    b, p = ps.bundle, w.point
    if ps.kind == BBL:
        return bbl_double(b).point(p.y, p.pi, p.p)
    y = _drop(p.y, b.v_index)
    z = _drop(p.pi, b.alpha_index)
    if ps.kind == CONTACT:
        core = Vec(list(p.p) + [p.y[b.v_index]])
        return contact_double(b).point(y, z, core)
    return affctg_double(b).point(y, z, p.p)


def from_double_point(ps: PhaseSet, q: DoublePoint, x: Optional[Vec] = None) -> ReducedCovector:
    """Inverse of :func:`to_double_point` on each set (over the base point x)."""
    b = ps.bundle
    m = b.base_dim
    if x is None:
        x = Vec.zero(m)
    if ps.kind == BBL:
        return ps.reduce(CotangentPoint(b, x, q.y, q.c, q.z))
    if ps.kind == CONTACT:
        y = _insert(q.y, b.v_index, q.c[m])
        core = Vec(q.c[j] for j in range(m))
    else:
        y = _insert(q.y, b.v_index, 0)
        core = q.c
    pi = _insert(q.z, b.alpha_index, 0)
    return ps.reduce(CotangentPoint(b, x, y, core, pi))


# ---------------------------------------------------------------------------
# tau, beta, kappa
# ---------------------------------------------------------------------------


def tau(c: ReducedCovector) -> ReducedCovector:
    """Exchange the quotiented slot: from the contact quotient to the quotient
    by the v-translation, fixing the alpha-momentum by the pairing formula."""
    b = c.bundle
    contact = build(CONTACT, b)
    if not contact.contains(c):
        raise ConstraintViolated("input must satisfy the contact constraints")
    p = c.point
    total = -p.y[b.v_index]
    for i in b.middle:
        total -= p.y[i] * p.pi[i]
    out = p.with_slot(("pi", b.alpha_index), total)
    return ReducedCovector(out, frozenset({("y", b.v_index)}))


def beta(w):
    """Momentum flip onto the dual bundle: (x, y, p, pi) -> (x, pi, -p, y)."""
    if isinstance(w, ReducedCovector):
        mask = frozenset(("pi" if k == "y" else "y", i) for k, i in w.mask)
        return ReducedCovector(beta(w.point), mask)
    return CotangentPoint._trusted(w.bundle.dual_bundle(), w.x, w.pi, -w.p, w.y)


def kappa(c: ReducedCovector) -> ReducedCovector:
    """The contact duality: beta after tau, landing in the dual contact set."""
    out = beta(tau(c))
    if not build(CONTACT, out.bundle).contains(out):
        raise ConstraintViolated("duality image left the contact set")
    return out


def phase_kappa(q: ReducedCovector) -> ReducedCovector:
    """The map induced by kappa between the two phase sets."""
    b = q.bundle
    phasep = build(PHASEP, b)
    if not phasep.contains(q):
        raise ConstraintViolated("input must lie in the phase set")
    p = q.point
    out = beta(p.with_slot(("pi", b.alpha_index), Fraction(0)))
    return build(PHASEP, out.bundle).reduce(out)


# ---------------------------------------------------------------------------
# adapted changes of fiber basis
# ---------------------------------------------------------------------------


_NOT_ADAPTED = "basis change does not preserve the normal form"


def _fixes_normal_form(bundle: TrivialBispecial, mat: Mat) -> bool:
    """Is ``mat`` a hull-sized square matrix that fixes the v-row and the
    alpha-column?"""
    h = bundle.hull_dim
    if mat.shape != (h, h):
        return False
    va, al = bundle.v_index, bundle.alpha_index
    rows = mat.rows
    return rows[va] == _unit_row(h, va) and tuple(r[al] for r in rows) == _unit_row(h, al)


@cache
def _unit_row(h: int, i: int) -> tuple:
    return Vec.unit(h, i).entries


def is_adapted(bundle: TrivialBispecial, mat: Mat) -> bool:
    """A hull basis change is adapted when it is invertible and fixes the
    v-row and alpha-column, which is exactly what preserves the normal form
    (and hence tau)."""
    return _fixes_normal_form(bundle, mat) and mat.is_invertible()


def apply_adapted(w, mat: Mat):
    """Rewrite a point in the new coordinates: y transforms through the matrix,
    momenta through the inverse so the fiber pairing is preserved."""
    if isinstance(w, ReducedCovector):
        return ReducedCovector(apply_adapted(w.point, mat), w.mask)
    if not _fixes_normal_form(w.bundle, mat):
        raise ConstraintViolated(_NOT_ADAPTED)
    try:
        inverse = mat.inverse()
    except SingularMatrix:
        raise ConstraintViolated(_NOT_ADAPTED) from None
    return CotangentPoint._trusted(w.bundle, w.x, mat.vec_mul(w.y), w.p, inverse @ w.pi)


# ---------------------------------------------------------------------------
# reduced tangent classes and their pairing with contact points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TangentClass:
    """A tangent vector of the constraint level, modulo the diagonal flow
    that shifts the v-coordinate while counter-shifting its velocity.

    The canonical representative has y[v] = 0; the invariant of the orbit is
    y[v] + ydot[v], which the normalization stores in the ydot slot.
    """

    bundle: TrivialBispecial
    x: Vec
    y: Vec
    xdot: Vec
    ydot: Vec

    def __post_init__(self):
        b = self.bundle
        m, h = b.base_dim, b.hull_dim
        if self.x.dim != m or self.xdot.dim != m or self.y.dim != h or self.ydot.dim != h:
            raise DimMismatch("tangent data does not fit the bundle")
        if self.y[b.alpha_index] != 1:
            raise ConstraintViolated("base point must satisfy the structure equation")
        if self.ydot[b.alpha_index] != 0:
            raise ConstraintViolated("velocity must be tangent to the level")
        shift = self.y[b.v_index]
        if shift:
            y = Vec(0 if j == b.v_index else self.y[j] for j in range(h))
            ydot = Vec(
                self.ydot[j] + (shift if j == b.v_index else 0) for j in range(h)
            )
            object.__setattr__(self, "y", y)
            object.__setattr__(self, "ydot", ydot)


def x_section(bundle: TrivialBispecial, x: Vec, y: Vec) -> TangentClass:
    """The distinguished class: the v-translation generator at the given point."""
    m, h = bundle.base_dim, bundle.hull_dim
    return TangentClass(bundle, x, y, Vec.zero(m), Vec.unit(h, bundle.v_index))


def contact_tangent_pairing(c: ReducedCovector, tc: TangentClass) -> Fraction:
    """Evaluate a contact covector on a reduced tangent class.

    The class is re-aligned over the covector's own representative before the
    raw cotangent pairing is taken; the masked alpha-momentum never enters
    because velocities are tangent to the level.
    """
    b = c.bundle
    if not build(CONTACT, b).contains(c):
        raise ConstraintViolated("first argument must lie in the contact set")
    if tc.bundle != b:
        raise SpaceMismatch("tangent class belongs to a different bundle")
    p = c.point
    if tc.x != p.x or any(tc.y[i] != p.y[i] for i in b.middle):
        raise BaseMismatch("covector and tangent class sit over different points")
    value = p.p.dot(tc.xdot)
    for i in b.middle:
        value += p.pi[i] * tc.ydot[i]
    value += p.pi[b.v_index] * (tc.ydot[b.v_index] - p.y[b.v_index])
    return value


# ---------------------------------------------------------------------------
# the injection of the reduced cotangent model
# ---------------------------------------------------------------------------


def iota(bundle: TrivialBispecial, x: Vec, u: Vec, p: Vec, mu: Vec) -> ReducedCovector:
    """Embed a cotangent vector of the reduced model fiber: the middle slots
    carry (u, mu) and both level functions vanish on the image."""
    if u.dim != bundle.n or mu.dim != bundle.n:
        raise DimMismatch("model data must have the reduced fiber dimension")
    y = [Fraction(0)] * bundle.hull_dim
    pi = [Fraction(0)] * bundle.hull_dim
    for k, i in enumerate(bundle.middle):
        y[i] = as_scalar(u[k])
        pi[i] = as_scalar(mu[k])
    pt = CotangentPoint(bundle, x, Vec(y), p, Vec(pi))
    return build(AFFCTG, bundle).reduce(pt)


def iota_inverse(w: ReducedCovector) -> Tuple[Vec, Vec, Vec, Vec]:
    """Read the model data back off; defined exactly on {lifts = (0, 0)}."""
    b = w.bundle
    if w.mask != build(AFFCTG, b).mask or lifts(w) != (0, 0):
        raise ConstraintViolated("not a point of the zero-level model")
    p = w.point
    u = Vec(p.y[i] for i in b.middle)
    mu = Vec(p.pi[i] for i in b.middle)
    return p.x, u, p.p, mu


# ---------------------------------------------------------------------------
# the horizontal-vector side of the story
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OneForm:
    """A constant, nowhere vanishing covector on the base."""

    coeffs: Vec

    def __post_init__(self):
        if self.coeffs.is_zero():
            raise ZeroForm("the base covector must be nowhere vanishing")


def afftg_and_duals(bundle: TrivialBispecial, omega: OneForm):
    """The dual tower: the vertical dual of the big double vector bundle, the
    special vertical dual of the phase set, and a report certifying the
    pairing, the model injection, and the two unit shift identities."""
    # Imported here because randgen builds on this module.
    from .randgen import rand_int_vec

    if omega.coeffs.dim != bundle.base_dim:
        raise DimMismatch("covector does not fit the base")
    m, n = bundle.base_dim, bundle.n
    big = affctg_double(bundle)
    dual_big = vertical_dual(big)
    pa = phasep_double_affine(bundle, omega)
    pdual = special_dual_vertical(pa)

    records = []

    fixed_y = Vec.zero(n + 1)
    basis_src = [
        big.point(fixed_y, Vec.unit(n + 1, j), Vec.zero(m)) for j in range(n + 1)
    ] + [big.point(fixed_y, Vec.zero(n + 1), Vec.unit(m, a)) for a in range(m)]
    basis_dst = [
        dual_big.point(fixed_y, Vec.unit(m, a), Vec.zero(n + 1)) for a in range(m)
    ] + [dual_big.point(fixed_y, Vec.zero(m), Vec.unit(n + 1, j)) for j in range(n + 1)]
    gram = Mat(
        tuple(tuple(vd_eval(phi, xpt) for phi in basis_dst) for xpt in basis_src)
    )
    perm_signed = gram.is_invertible() and all(
        sum(1 for e in row if e != 0) == 1 and all(e in (0, 1, -1) for e in row)
        for row in gram.rows
    )
    records.append(
        verdict("pairing gram permutation-signed", None if perm_signed else f"gram rows {gram.rows}")
    )

    model_dim = len(Mat([tuple(bundle.fiber().functionals[0])]).kernel())
    core_ok = dual_big.n3 == n + 1 and model_dim == n + 1
    records.append(
        verdict(
            "dual core is the model fiber",
            None if core_ok else f"dual core dim {dual_big.n3}, model fiber dim {model_dim}",
        )
    )

    l2_ok = pdual.l2 == omega.coeffs
    records.append(
        verdict(
            "dual side condition is the base covector",
            None if l2_ok else f"{pdual.l2} != {omega.coeffs}",
        )
    )

    rng = random.Random(20240 + 7 * m + n)
    witness = None
    l1, l2 = side_functionals(bundle)
    for _ in range(8):
        # a phase point and a dual-phase point over the same y, built to meet
        # their side constraints
        y = rand_int_vec(rng, n + 1, 4)
        y = y + l1.scale(1 - l1.dot(y))
        z = rand_int_vec(rng, n + 1, 4)
        z = z + l2.scale(1 - l2.dot(z))
        xpt = big.point(y, z, rand_int_vec(rng, m, 4))
        zc = rand_int_vec(rng, m, 4)
        denom = omega.coeffs.dot(omega.coeffs)
        zc = zc + omega.coeffs.scale((1 - omega.coeffs.dot(zc)) / denom)
        phi = dual_big.point(y, zc, rand_int_vec(rng, n + 1, 4))
        first = vd_eval(phi, xpt.shift_core(omega.coeffs)) - vd_eval(phi, xpt)
        second = vd_eval(phi.shift_core(l2), xpt) - vd_eval(phi, xpt)
        if first != 1 or second != 1:
            witness = f"shifts gave ({first}, {second})"
            break
    records.append(verdict("unit shift identities", witness))

    witness = None
    for _ in range(6):
        x, u, p, mu = (rand_int_vec(rng, k, 5) for k in (m, n, m, n))
        w = iota(bundle, x, u, p, mu)
        if lifts(w) != (0, 0):
            witness = "image misses the zero level"
            break
        if iota_inverse(w) != (x, u, p, mu):
            witness = "embedding is not section-wise invertible"
            break
    records.append(verdict("model injection onto the zero level", witness))

    return dual_big, pdual, Report.of(records)
