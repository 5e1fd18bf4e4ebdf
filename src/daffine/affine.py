"""Affine and special affine spaces modelled inside vector hulls.

An affine space of dimension n is stored as the level set {alpha = 1} of a
nonzero functional alpha on an (n+1)-dimensional "hull" vector space; its
model vector space is ker(alpha).  A *special* affine space additionally
carries a distinguished nonzero model vector v with alpha(v) = 0 (so the
rep is "bispecial": one functional, one vector, pairing to zero).

The special dual consists of the affine maps to (Q, 1) whose linear part
sends v to 1; through the hull these are exactly the linear functionals f
with f(v) = 1, so the dual of (hull, alpha, v) is (hull*, eval-at-v, alpha).
Taking the dual twice returns the original data on the nose in coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import (
    ConstraintViolated,
    DimMismatch,
    NotSpecial,
    SpaceMismatch,
    ZeroFunctional,
)
from .exact import Mat, Scalar, Vec, as_scalar


@dataclass(frozen=True)
class BispecialRep:
    """An affine space as a hull functional, optionally with a marked vector."""

    hull_dim: int
    alpha: Vec
    v: Optional[Vec] = None

    def __post_init__(self):
        if self.alpha.dim != self.hull_dim:
            raise DimMismatch("alpha must be a covector on the hull")
        if self.alpha.is_zero():
            raise ZeroFunctional("level functional is zero")
        if self.v is not None:
            if self.v.dim != self.hull_dim:
                raise DimMismatch("v must live in the hull")
            if self.v.is_zero():
                raise NotSpecial("distinguished vector is zero")
            if self.alpha.dot(self.v) != 0:
                raise NotSpecial("distinguished vector must lie in the model (alpha(v) = 0)")

    @property
    def dim(self) -> int:
        return self.hull_dim - 1

    @property
    def is_special(self) -> bool:
        return self.v is not None

    def contains(self, coords: Vec) -> bool:
        """Is `coords` a point of the affine space {alpha = 1}?"""
        return self.alpha.dot(coords) == 1

    def in_model(self, coords: Vec) -> bool:
        """Is `coords` a model vector, i.e. in ker(alpha)?"""
        return self.alpha.dot(coords) == 0

    def point(self, coords) -> "AffinePoint":
        return AffinePoint(self, coords if isinstance(coords, Vec) else Vec.of(*coords))

    def model_basis(self) -> list:
        """A basis of ker(alpha)."""
        return Mat([tuple(self.alpha)]).kernel()


@dataclass(frozen=True)
class AffinePoint:
    space: BispecialRep
    coords: Vec

    def __post_init__(self):
        if self.coords.dim != self.space.hull_dim:
            raise DimMismatch("point coords must match the hull dimension")
        if not self.space.contains(self.coords):
            raise ConstraintViolated("coords do not satisfy alpha = 1")

    def __iter__(self):
        return iter(self.coords)


def aff(a: AffinePoint, b: AffinePoint, lam: Scalar) -> AffinePoint:
    """The affine combination b + lam*(a - b) = lam*a + (1-lam)*b.

    Defined for every rational weight; aff(a, b, 1) = a and aff(a, b, 0) = b.
    """
    if a.space != b.space:
        raise SpaceMismatch("affine combination across different spaces")
    lam = as_scalar(lam)
    return AffinePoint(a.space, a.coords.scale(lam) + b.coords.scale(1 - lam))


def model_vector(a: AffinePoint, b: AffinePoint) -> Vec:
    """The unique model vector [a, b] with a + [a, b] = b, i.e. b - a."""
    if a.space != b.space:
        raise SpaceMismatch("difference of points of different spaces")
    return b.coords - a.coords


def translate(a: AffinePoint, w: Vec) -> AffinePoint:
    """a + w for a model vector w (alpha(w) must vanish)."""
    if not a.space.in_model(w):
        raise ConstraintViolated("translation vector is not a model vector")
    return AffinePoint(a.space, a.coords + w)


def level_set_hull(hull_dim: int, l: Vec) -> BispecialRep:
    """Present the level set {l = 1} of a nonzero functional as an affine space."""
    return BispecialRep(hull_dim, l)


def special_dual(a: BispecialRep) -> BispecialRep:
    """The special affine dual: maps to (Q, 1) with linear part sending v to 1.

    In hull coordinates: functionals f with f(v) = 1, inside the dual hull;
    the marked vector of the dual is alpha itself (the constant function 1).
    """
    if a.v is None:
        raise NotSpecial("special dual needs a distinguished vector")
    return BispecialRep(a.hull_dim, alpha=a.v, v=a.alpha)


def adjoint(a: BispecialRep) -> BispecialRep:
    """Same space, opposite distinguished vector."""
    if a.v is None:
        raise NotSpecial("adjoint needs a distinguished vector")
    return BispecialRep(a.hull_dim, a.alpha, -a.v)


def dual_pairing(f: AffinePoint, a: AffinePoint) -> Scalar:
    """Evaluate a dual point (a functional on the hull) on a point of the primal."""
    if f.space.hull_dim != a.space.hull_dim:
        raise DimMismatch("pairing across different hull dimensions")
    return f.coords.dot(a.coords)


@dataclass(frozen=True)
class AffineMap:
    """A linear hull map that restricts to an affine map of the level sets."""

    src: BispecialRep
    dst: BispecialRep
    L: Mat

    def __post_init__(self):
        if self.L.shape != (self.dst.hull_dim, self.src.hull_dim):
            raise DimMismatch("hull map shape")
        if self.L.vec_mul(self.dst.alpha) != self.src.alpha:
            raise ConstraintViolated("alpha_dst o L != alpha_src; map does not preserve level sets")

    @property
    def is_special(self) -> bool:
        return (
            self.src.v is not None
            and self.dst.v is not None
            and self.L @ self.src.v == self.dst.v
        )

    def apply(self, p: AffinePoint) -> AffinePoint:
        if p.space != self.src:
            raise SpaceMismatch("point not in the source space")
        return AffinePoint(self.dst, self.L @ p.coords)

    def then(self, second: "AffineMap") -> "AffineMap":
        if second.src != self.dst:
            raise SpaceMismatch("composition mismatch")
        return AffineMap(self.src, second.dst, second.L @ self.L)
