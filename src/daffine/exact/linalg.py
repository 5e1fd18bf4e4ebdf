"""Immutable exact vectors and matrices.

An entry is an ``int``, a :class:`fractions.Fraction` or a polynomial
(:class:`~daffine.exact.poly.Poly`, which the atlas layer stores).  The three
types are closed under each other's ring operations, so exactness is checked
only where a value enters -- the public constructors of ``Vec``, ``Mat`` and
``Bilinear``, the factor of ``scale`` and the new entries of ``replaced`` --
and an entry of any other type, such as a float, a ``bool`` or a string,
raises :class:`TypeError` there, so no entry is ever rounded.  The results
the kernel computes, and the entries ``transpose``, ``concat``, ``row`` and
``col`` rearrange, are built by the private ``_trusted`` constructors.
Operations that need division -- ``inverse``, ``rref``, ``kernel``,
``solve``, ``rank`` -- require rational entries.

Products and determinants take one of two branches; inverses and row
reduction need rational entries and always take the first:

* When every entry is an ``int`` or a ``Fraction`` (the rational kernel),
  ``dot``, ``@``, ``vec_mul``, ``det``, ``inverse`` and the affine
  combination ``lam * x + (1 - lam) * y`` (``_combine``, which
  ``double.aff1``/``aff2`` use) work on the integer numerators and
  denominators and make one ``Fraction`` per result.  A dot
  product sums ``p/q`` over a running common denominator; ``det``,
  ``inverse`` and ``rref`` scale each row by the lcm of its denominators and
  run one fraction-free (Bareiss) elimination, whose every division is exact
  by Sylvester's identity; ``rref`` divides by the last pivot once at the
  end, and ``rank``, ``kernel`` and ``solve`` read its result.  All
  arithmetic is on Python integers, so the result is the exact rational
  value, normalised once when the ``Fraction`` is made.
* Polynomial entries take the generic loop of ring operations.  A dot
  product starts from its first product, so it adds no ``Fraction(0)`` to a
  polynomial sum.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm, prod
from operator import add, mul, neg, sub
from typing import Iterable, Mapping

from ..errors import DimMismatch, SingularMatrix
from .scalar import ONE, ZERO, Scalar, as_scalar

_RATIONAL = frozenset((Fraction, int))
# the entry types: int, Fraction and Poly, which poly.py adds when it is imported
_EXACT_TYPES = set(_RATIONAL)


def _is_rational(entries) -> bool:
    """Is every entry exactly an ``int`` or a ``Fraction``?"""
    return _RATIONAL.issuperset(map(type, entries))


def _exact(entries: Iterable) -> tuple:
    """The entries as a tuple; the first entry of another type than int,
    Fraction or Poly raises TypeError."""
    t = tuple(entries)
    if not _EXACT_TYPES.issuperset(map(type, t)):
        e = next(e for e in t if type(e) not in _EXACT_TYPES)
        raise TypeError(f"cannot interpret {e!r} as an exact scalar")
    return t


def _refuse_factor(c, entries: Iterable):
    """Raise the TypeError of ``_exact`` for a factor ``c`` of another type
    than int, Fraction or Poly.  It names the first product ``c * e`` that is
    not of those types, as building from the products would, else ``c``."""
    for e in entries:
        try:
            p = c * e
        except TypeError:
            break
        if type(p) not in _EXACT_TYPES:
            c = p
            break
    raise TypeError(f"cannot interpret {c!r} as an exact scalar")


def _dot(xs, ys):
    """The sum of ``x * y`` over the pairs; ``Fraction(0)`` when there are none."""
    if _is_rational(xs) and _is_rational(ys):
        num, den = 0, 1
        for a, b in zip(xs, ys):
            p = a.numerator * b.numerator
            if p:
                q = a.denominator * b.denominator
                if q == den:
                    num += p
                else:
                    num, den = num * q + p * den, den * q
        return Fraction(num, den)
    products = map(mul, xs, ys)
    total = next(products, None)
    if total is None:
        return Fraction(0)
    for p in products:
        total = total + p
    return total


def _combine(lam, xs, ys) -> tuple:
    """The entries ``lam * x + (1 - lam) * y`` over the pairs.  When ``lam``
    and every entry are ``int`` or ``Fraction``, each entry is summed over
    the integer numerators and denominators and made as one ``Fraction``."""
    if type(lam) in _RATIONAL and _is_rational(xs) and _is_rational(ys):
        a, b = lam.numerator, lam.denominator
        c = b - a  # 1 - lam == c / b
        out = []
        for x, y in zip(xs, ys):
            q, s = x.denominator, y.denominator
            if q == s:
                out.append(Fraction(a * x.numerator + c * y.numerator, b * q))
            else:
                out.append(Fraction(a * x.numerator * s + c * y.numerator * q, b * q * s))
        return tuple(out)
    mu = 1 - lam
    return tuple(lam * x + mu * y for x, y in zip(xs, ys))


def _rational_rows(rows):
    """The rows, through ``as_scalar`` unless every entry is an ``int`` or a
    ``Fraction``, so an entry that is not a rational raises TypeError."""
    return rows if all(map(_is_rational, rows)) else [tuple(map(as_scalar, r)) for r in rows]


def _cleared(rows):
    """Each rational row times the lcm of its denominators, as a list of
    integers, and the list of those multipliers."""
    ints, scales = [], []
    for r in rows:
        m = lcm(*(e.denominator for e in r))
        ints.append([e.numerator * (m // e.denominator) for e in r])
        scales.append(m)
    return ints, scales


def _bareiss(a, n: int):
    """Fraction-free Gauss-Jordan elimination on the first ``n`` columns of
    the integer rows ``a``, in place, swapping rows to find nonzero pivots.
    A column with no pivot joins a free list, which every later step updates
    along with the columns right of its pivot; while the list is empty, no
    step touches a column left of its pivot.

    Returns ``(sign, d, pivots)``: the parity of the swaps, the last pivot
    (1 if none) and the pivot columns.  Every other column has become ``d``
    times its reduced row echelon form; the pivot columns are left stale.
    When the leading n x n block is nonsingular (``len(pivots) == n``),
    ``sign * d`` is its determinant and each later column ``c`` (as it was
    before the swaps) has become ``d * block^-1 @ c``.  Every division is
    exact (Sylvester's identity).
    """
    sign, prev, pivots, free = 1, 1, [], []
    for k in range(n):
        i = len(pivots)
        pivot = next((r for r in range(i, len(a)) if a[r][k]), None)
        if pivot is None:
            free.append(k)
            continue
        if pivot != i:
            a[i], a[pivot] = a[pivot], a[i]
            sign = -sign
        row = a[i]
        p = row[k]
        cols = free + list(range(k + 1, len(row))) if free else range(k + 1, len(row))
        for ai in a:
            if ai is not row:
                f = ai[k]
                for j in cols:
                    ai[j] = (p * ai[j] - f * row[j]) // prev
        prev = p
        pivots.append(k)
    return sign, prev, pivots


class Vec:
    """An immutable column vector."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable):
        object.__setattr__(self, "entries", _exact(entries))

    @classmethod
    def _trusted(cls, entries: tuple) -> "Vec":
        """Wrap a tuple of entries without the exactness check: they must
        have passed it, or be computed from such entries of closed types."""
        v = object.__new__(cls)
        object.__setattr__(v, "entries", entries)
        return v

    def __setattr__(self, *args):  # pragma: no cover - defensive
        raise AttributeError("Vec is immutable")

    @staticmethod
    def of(*entries) -> "Vec":
        """Ints and ``"p/q"`` strings become Fractions through ``as_scalar``,
        Fractions and polynomials pass as they are, and anything else raises
        :class:`TypeError`."""
        return Vec._trusted(
            tuple(e if type(e) in _EXACT_TYPES and type(e) not in _RATIONAL else as_scalar(e) for e in entries)
        )

    @staticmethod
    def zero(n: int) -> "Vec":
        return Vec._trusted((ZERO,) * n)

    @staticmethod
    def unit(n: int, i: int) -> "Vec":
        if not 0 <= i < n:
            raise DimMismatch(f"unit index {i} out of range for dimension {n}")
        return Vec._trusted(_unit_entries(n, i))

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
        return Vec._trusted(tuple(map(add, self.entries, other.entries)))

    def __sub__(self, other: "Vec") -> "Vec":
        self._check(other)
        return Vec._trusted(tuple(map(sub, self.entries, other.entries)))

    def __neg__(self) -> "Vec":
        return Vec._trusted(tuple(map(neg, self.entries)))

    def scale(self, c) -> "Vec":
        if type(c) not in _EXACT_TYPES:
            _refuse_factor(c, self.entries)
        return Vec._trusted(tuple(c * a for a in self.entries))

    __rmul__ = scale

    def replaced(self, changes: Mapping[int, object]) -> "Vec":
        """This vector with entry ``i`` replaced by ``changes[i]``; only the
        new entries are checked."""
        entries = list(self.entries)
        for i, value in changes.items():
            if not 0 <= i < len(entries):
                raise DimMismatch(f"index {i} out of range for dimension {len(entries)}")
            entries[i] = value
        _exact(changes.values())
        return Vec._trusted(tuple(entries))

    def dot(self, other: "Vec"):
        """Exact inner product; empty vectors pair to 0."""
        self._check(other)
        return _dot(self.entries, other.entries)

    def is_zero(self) -> bool:
        return all(not e for e in self.entries)

    def concat(self, other: "Vec") -> "Vec":
        return Vec._trusted(self.entries + other.entries)

    def _check(self, other: "Vec") -> None:
        if not isinstance(other, Vec) or len(other) != len(self):
            raise DimMismatch(f"vector dims {len(self)} vs {getattr(other, 'dim', '?')}")

    def __repr__(self) -> str:
        return f"Vec({list(self.entries)!r})"


class Mat:
    """An immutable matrix stored as a tuple of row tuples.

    The private slot ``_inv`` holds the inverse once ``inverse`` has found
    one, or ``_trusted`` was given it; equality, hashing and ``repr`` read
    ``rows`` alone.
    """

    __slots__ = ("rows", "_inv")

    def __init__(self, rows: Iterable[Iterable]):
        rs = tuple(_exact(r) for r in rows)
        if rs and any(len(r) != len(rs[0]) for r in rs):
            raise DimMismatch("ragged rows")
        object.__setattr__(self, "rows", rs)

    @classmethod
    def _trusted(cls, rows: tuple, inverse: "Mat" = None) -> "Mat":
        """Wrap a tuple of equal-length row tuples without the exactness
        check, as ``Vec._trusted`` does.  A caller that built the matrix's
        inverse alongside it passes it as ``inverse``, which ``inverse()``
        then returns without an elimination."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        if inverse is not None:
            object.__setattr__(m, "_inv", inverse)
        return m

    def __setattr__(self, *args):  # pragma: no cover - defensive
        raise AttributeError("Mat is immutable")

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat._trusted(tuple(_unit_entries(n, i) for i in range(n)))

    @staticmethod
    def zero(r: int, c: int) -> "Mat":
        return Mat._trusted(((ZERO,) * c,) * r)

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
        return Vec._trusted(self.rows[i])

    def col(self, j: int) -> Vec:
        return Vec._trusted(tuple(r[j] for r in self.rows))

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
        return Mat._trusted(tuple(tuple(map(add, r1, r2)) for r1, r2 in zip(self.rows, other.rows)))

    def __sub__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise DimMismatch(f"matrix shapes {self.shape} vs {other.shape}")
        return Mat._trusted(tuple(tuple(map(sub, r1, r2)) for r1, r2 in zip(self.rows, other.rows)))

    def __neg__(self) -> "Mat":
        return Mat._trusted(tuple(tuple(map(neg, r)) for r in self.rows))

    def scale(self, c) -> "Mat":
        if type(c) not in _EXACT_TYPES:
            _refuse_factor(c, chain.from_iterable(self.rows))
        return Mat._trusted(tuple(tuple(c * a for a in r) for r in self.rows))

    def __matmul__(self, other):
        if isinstance(other, Vec):
            if other.dim != self.ncols:
                raise DimMismatch(f"matvec {self.shape} @ {other.dim}")
            v = other.entries
            return Vec._trusted(tuple(_dot(r, v) for r in self.rows))
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise DimMismatch(f"matmul {self.shape} @ {other.shape}")
            cols = tuple(zip(*other.rows))
            return Mat._trusted(tuple(tuple(_dot(r, c) for c in cols) for r in self.rows))
        return NotImplemented

    def transpose(self) -> "Mat":
        return Mat._trusted(tuple(zip(*self.rows)))

    def vec_mul(self, v: Vec) -> Vec:
        """Row-vector times matrix: v^T M, returned as a Vec."""
        if v.dim != self.nrows:
            raise DimMismatch(f"vecmat {v.dim} @ {self.shape}")
        return Vec._trusted(tuple(_dot(v.entries, c) for c in zip(*self.rows)))

    # ---- ring-generic determinant (cofactor expansion, small sizes) ----

    def det(self):
        if self.nrows != self.ncols:
            raise DimMismatch("determinant of non-square matrix")
        n = self.nrows
        if n == 0:
            return Fraction(1)
        if all(map(_is_rational, self.rows)):
            return self._det_gauss()
        return _det_cofactor(self.rows)

    def _det_gauss(self) -> Scalar:
        """Bareiss elimination on the rows cleared of denominators."""
        a, scales = _cleared(self.rows)
        sign, d, pivots = _bareiss(a, len(a))
        return Fraction(sign * d if len(pivots) == len(a) else 0, prod(scales))

    def adjugate(self) -> "Mat":
        """Adjugate via cofactors; ring-generic (used for polynomial matrices)."""
        if self.nrows != self.ncols:
            raise DimMismatch("adjugate of non-square matrix")
        n = self.nrows
        if n == 1:
            return Mat._trusted(((self.rows[0][0] * 0 + 1,),))
        return Mat._trusted(
            tuple(
                tuple(_det_cofactor(_minor(self.rows, i, j)) * ((-1) ** ((i + j) % 2)) for i in range(n))
                for j in range(n)
            )
        )

    # ---- field-only operations (Fraction entries) ----

    def rref(self):
        """Reduced row echelon form; returns (Mat, pivot column list).

        The fraction-free elimination of ``det`` and ``inverse`` on the rows
        cleared of denominators, then one division by the last pivot.
        """
        a = _cleared(_rational_rows(self.rows))[0]
        _, d, pivots = _bareiss(a, self.ncols)
        row_of = {c: i for i, c in enumerate(pivots)}
        return Mat._trusted(
            tuple(
                tuple((ONE if row_of[j] == i else ZERO) if j in row_of else Fraction(x, d) for j, x in enumerate(r))
                for i, r in enumerate(a)
            )
        ), pivots

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
            basis.append(Vec._trusted(tuple(v)))
        return basis

    def solve(self, b: Vec):
        """One exact solution of ``self @ x == b``, or None if inconsistent."""
        if b.dim != self.nrows:
            raise DimMismatch("rhs dimension")
        aug = Mat._trusted(tuple(r + (b[i],) for i, r in enumerate(self.rows)))
        red, pivots = aug.rref()
        nc = self.ncols
        if nc in pivots:
            return None
        x = [Fraction(0)] * nc
        for r, p in enumerate(pivots):
            x[p] = red[r, nc]
        return Vec._trusted(tuple(x))

    def inverse(self) -> "Mat":
        """Exact inverse; raises :class:`SingularMatrix` when none exists.

        Fraction-free Gauss-Jordan on ``[B | I]``, where row i of ``B`` is row
        i of ``self`` times its denominators' lcm ``s_i``, ends at
        ``[d I | d B^-1]``; entry (i, j) of the inverse is
        ``(d B^-1)[i][j] * s_j / d``.  The inverse is computed once per
        matrix and then returned as the same object; a singular matrix is
        eliminated, and raises, on every call.
        """
        inv = getattr(self, "_inv", None)
        if inv is not None:
            return inv
        if self.nrows != self.ncols:
            raise DimMismatch("inverse of non-square matrix")
        a, scales = _cleared(_rational_rows(self.rows))
        n = len(a)
        for i, r in enumerate(a):
            r.extend(int(i == j) for j in range(n))
        _, d, pivots = _bareiss(a, n)
        if len(pivots) < n:
            raise SingularMatrix("matrix is singular")
        inv = Mat._trusted(tuple(tuple(Fraction(r[n + j] * scales[j], d) for j in range(n)) for r in a))
        object.__setattr__(self, "_inv", inv)
        return inv

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and bool(self.det())

    def __repr__(self) -> str:
        return f"Mat({[list(r) for r in self.rows]!r})"


def _unit_entries(n: int, i: int) -> tuple:
    return (ZERO,) * i + (ONE,) + (ZERO,) * (n - i - 1)


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
