"""Immutable exact vectors and matrices.

Entries are usually :class:`fractions.Fraction`, but any commutative-ring
element with ``+``, ``-`` and ``*`` works (the atlas layer stores polynomial
entries).  Operations that need division -- ``inverse``, ``rref``, ``kernel``,
``solve``, ``rank`` -- require Fraction entries.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Number
from typing import Iterable, Sequence

from ..errors import DimMismatch, SingularMatrix
from .scalar import Scalar, as_scalar


class Vec:
    """An immutable column vector."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable):
        object.__setattr__(self, "entries", tuple(entries))

    def __setattr__(self, *args):  # pragma: no cover - defensive
        raise AttributeError("Vec is immutable")

    @staticmethod
    def of(*entries) -> "Vec":
        """Numbers and ``"p/q"`` strings become exact scalars, so a float
        raises :class:`TypeError`; ring elements such as polynomials pass as
        they are."""
        return Vec(as_scalar(e) if isinstance(e, (Number, str)) else e for e in entries)

    @staticmethod
    def zero(n: int) -> "Vec":
        return Vec([Fraction(0)] * n)

    @staticmethod
    def unit(n: int, i: int) -> "Vec":
        if not 0 <= i < n:
            raise DimMismatch(f"unit index {i} out of range for dimension {n}")
        return Vec(Fraction(1) if j == i else Fraction(0) for j in range(n))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Vec) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __add__(self, other: "Vec") -> "Vec":
        self._check(other)
        return Vec(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "Vec") -> "Vec":
        self._check(other)
        return Vec(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "Vec":
        return Vec(-a for a in self.entries)

    def scale(self, c) -> "Vec":
        return Vec(c * a for a in self.entries)

    __rmul__ = scale

    def dot(self, other: "Vec"):
        """Exact inner product; empty vectors pair to 0."""
        self._check(other)
        total = Fraction(0)
        for a, b in zip(self.entries, other.entries):
            total = total + a * b
        return total

    def is_zero(self) -> bool:
        return all(not e for e in self.entries)

    def concat(self, other: "Vec") -> "Vec":
        return Vec(self.entries + other.entries)

    def _check(self, other: "Vec") -> None:
        if not isinstance(other, Vec) or len(other) != len(self):
            raise DimMismatch(f"vector dims {len(self)} vs {getattr(other, 'dim', '?')}")

    def __repr__(self) -> str:
        return f"Vec({list(self.entries)!r})"


class Mat:
    """An immutable matrix stored as a tuple of row tuples."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        rs = tuple(tuple(r) for r in rows)
        if rs and any(len(r) != len(rs[0]) for r in rs):
            raise DimMismatch("ragged rows")
        object.__setattr__(self, "rows", rs)

    def __setattr__(self, *args):  # pragma: no cover - defensive
        raise AttributeError("Mat is immutable")

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat([[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(r: int, c: int) -> "Mat":
        return Mat([[Fraction(0)] * c for _ in range(r)])

    @staticmethod
    def from_cols(cols: Sequence[Vec]) -> "Mat":
        if not cols:
            return Mat([])
        return Mat([[col[i] for col in cols] for i in range(cols[0].dim)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def row(self, i: int) -> Vec:
        return Vec(self.rows[i])

    def col(self, j: int) -> Vec:
        return Vec(r[j] for r in self.rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __add__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise DimMismatch(f"matrix shapes {self.shape} vs {other.shape}")
        return Mat(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows))

    def __sub__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise DimMismatch(f"matrix shapes {self.shape} vs {other.shape}")
        return Mat(tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows))

    def __neg__(self) -> "Mat":
        return Mat(tuple(-a for a in r) for r in self.rows)

    def scale(self, c) -> "Mat":
        return Mat(tuple(c * a for a in r) for r in self.rows)

    def __matmul__(self, other):
        if isinstance(other, Vec):
            if other.dim != self.ncols:
                raise DimMismatch(f"matvec {self.shape} @ {other.dim}")
            return Vec(Vec(r).dot(other) for r in self.rows)
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise DimMismatch(f"matmul {self.shape} @ {other.shape}")
            cols = [other.col(j) for j in range(other.ncols)]
            return Mat(tuple(Vec(r).dot(c) for c in cols) for r in self.rows)
        return NotImplemented

    def transpose(self) -> "Mat":
        return Mat(zip(*self.rows)) if self.rows else Mat([])

    def vec_mul(self, v: Vec) -> Vec:
        """Row-vector times matrix: v^T M, returned as a Vec."""
        if v.dim != self.nrows:
            raise DimMismatch(f"vecmat {v.dim} @ {self.shape}")
        return Vec(v.dot(self.col(j)) for j in range(self.ncols))

    # ---- ring-generic determinant (cofactor expansion, small sizes) ----

    def det(self):
        if self.nrows != self.ncols:
            raise DimMismatch("determinant of non-square matrix")
        n = self.nrows
        if n == 0:
            return Fraction(1)
        if all(isinstance(e, Fraction) for r in self.rows for e in r):
            return self._det_gauss()
        return _det_cofactor(self.rows)

    def _det_gauss(self) -> Scalar:
        n = self.nrows
        a = [list(r) for r in self.rows]
        det = Fraction(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col]), None)
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                det = -det
            det *= a[col][col]
            inv = 1 / a[col][col]
            for r in range(col + 1, n):
                if a[r][col]:
                    f = a[r][col] * inv
                    for c in range(col, n):
                        a[r][c] -= f * a[col][c]
        return det

    def adjugate(self) -> "Mat":
        """Adjugate via cofactors; ring-generic (used for polynomial matrices)."""
        if self.nrows != self.ncols:
            raise DimMismatch("adjugate of non-square matrix")
        n = self.nrows
        if n == 1:
            one = self.rows[0][0] * 0 + 1
            return Mat([[one]])
        cof = [
            [
                _det_cofactor(_minor(self.rows, i, j)) * ((-1) ** ((i + j) % 2))
                for j in range(n)
            ]
            for i in range(n)
        ]
        return Mat(cof).transpose()

    # ---- field-only operations (Fraction entries) ----

    def rref(self):
        """Reduced row echelon form; returns (Mat, pivot column list)."""
        a = [list(map(as_scalar, r)) for r in self.rows]
        nr, nc = len(a), (len(a[0]) if a else 0)
        pivots = []
        row = 0
        for col in range(nc):
            pivot = next((r for r in range(row, nr) if a[r][col]), None)
            if pivot is None:
                continue
            a[row], a[pivot] = a[pivot], a[row]
            inv = 1 / a[row][col]
            a[row] = [x * inv for x in a[row]]
            for r in range(nr):
                if r != row and a[r][col]:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[row])]
            pivots.append(col)
            row += 1
            if row == nr:
                break
        return Mat(a), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> list:
        """Basis of the right null space, as a list of Vec."""
        red, pivots = self.rref()
        nc = self.ncols
        free = [c for c in range(nc) if c not in pivots]
        basis = []
        for f in free:
            v = [Fraction(0)] * nc
            v[f] = Fraction(1)
            for r, p in enumerate(pivots):
                v[p] = -red[r, f]
            basis.append(Vec(v))
        return basis

    def solve(self, b: Vec):
        """One exact solution of ``self @ x == b``, or None if inconsistent."""
        if b.dim != self.nrows:
            raise DimMismatch("rhs dimension")
        aug = Mat([tuple(r) + (b[i],) for i, r in enumerate(self.rows)]) if self.rows else Mat([])
        red, pivots = aug.rref()
        nc = self.ncols
        if nc in pivots:
            return None
        x = [Fraction(0)] * nc
        for r, p in enumerate(pivots):
            x[p] = red[r, nc]
        return Vec(x)

    def inverse(self) -> "Mat":
        """Exact inverse by Gauss-Jordan; raises :class:`SingularMatrix` when none exists."""
        if self.nrows != self.ncols:
            raise DimMismatch("inverse of non-square matrix")
        n = self.nrows
        aug = Mat([tuple(r) + tuple(Mat.identity(n).rows[i]) for i, r in enumerate(self.rows)])
        red, pivots = aug.rref()
        if pivots != list(range(n)):
            raise SingularMatrix("matrix is singular")
        return Mat(tuple(red.rows[i][n:]) for i in range(n))

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and bool(self.det())

    def __repr__(self) -> str:
        return f"Mat({[list(r) for r in self.rows]!r})"


def _minor(rows, i: int, j: int):
    return [
        [e for c, e in enumerate(r) if c != j]
        for k, r in enumerate(rows)
        if k != i
    ]


def _det_cofactor(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = None
    for j in range(n):
        e = rows[0][j]
        term = e * _det_cofactor(_minor(rows, 0, j))
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total
