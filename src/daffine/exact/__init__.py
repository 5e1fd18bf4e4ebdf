"""Exact arithmetic kernel: rationals, vectors, matrices, rank-3 arrays,
sparse polynomials, and invertible affine base maps."""

from .scalar import Scalar, ZERO, ONE, as_scalar, format_scalar
from .linalg import Vec, Mat
from .tensor import Bilinear
from .poly import Poly, BaseMap

__all__ = [
    "Scalar",
    "ZERO",
    "ONE",
    "as_scalar",
    "format_scalar",
    "Vec",
    "Mat",
    "Bilinear",
    "Poly",
    "BaseMap",
]
