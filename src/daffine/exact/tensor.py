"""Rank-3 arrays (bilinear blocks of double-bundle transition data).

A ``Bilinear`` with shape ``(k, r, s)`` sends a pair (u, w) with dims (r, s)
to a k-vector; entry ``[t][i][b]`` multiplies ``u[i] * w[b]``.  Entries are
ints, Fractions or polynomials; an entry of any other type, such as a float,
is rejected with :class:`TypeError` when the block is built, as in ``Vec``
and ``Mat``.  The blocks the operations below compute are built by the
private ``_trusted`` constructor, without that check.

Each layer ``entries[t]`` is an r x s matrix, and every operation is a
``Mat`` operation on the layers: ``+``, negation and ``scale`` layer by
layer, the contractions as ``@`` and ``vec_mul`` (so a rational block takes
the integer kernel of :mod:`daffine.exact.linalg`, and a polynomial block
its generic loop), and ``post`` as one product with the layers flattened
into rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Iterable

from ..errors import DimMismatch
from .linalg import Mat, Vec, _exact


class Bilinear:
    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Iterable[Iterable]]):
        es = tuple(tuple(_exact(row) for row in layer) for layer in entries)
        if es:
            r = len(es[0])
            if any(len(layer) != r for layer in es):
                raise DimMismatch("ragged bilinear layers")
            if r:
                s = len(es[0][0])
                if any(len(row) != s for layer in es for row in layer):
                    raise DimMismatch("ragged bilinear rows")
        object.__setattr__(self, "entries", es)

    @classmethod
    def _trusted(cls, entries: tuple) -> "Bilinear":
        """Wrap a tuple of equal-shaped layers of row tuples without the
        exactness check, as ``Mat._trusted`` does."""
        b = object.__new__(cls)
        object.__setattr__(b, "entries", entries)
        return b

    def __setattr__(self, *args):  # pragma: no cover - defensive
        raise AttributeError("Bilinear is immutable")

    @staticmethod
    def zero(k: int, r: int, s: int) -> "Bilinear":
        return Bilinear([[[Fraction(0)] * s for _ in range(r)] for _ in range(k)])

    @property
    def shape(self):
        k = len(self.entries)
        r = len(self.entries[0]) if k else 0
        s = len(self.entries[0][0]) if k and r else 0
        return (k, r, s)

    def __getitem__(self, idx):
        t, i, b = idx
        return self.entries[t][i][b]

    def __eq__(self, other) -> bool:
        return isinstance(other, Bilinear) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def _layers(self):
        """Each layer ``entries[t]`` as an r x s matrix."""
        return [Mat._trusted(layer) for layer in self.entries]

    def __add__(self, other: "Bilinear") -> "Bilinear":
        if self.shape != other.shape:
            raise DimMismatch(f"bilinear shapes {self.shape} vs {other.shape}")
        return Bilinear._trusted(tuple((a + b).rows for a, b in zip(self._layers(), other._layers())))

    def __neg__(self) -> "Bilinear":
        return Bilinear._trusted(tuple((-a).rows for a in self._layers()))

    def scale(self, c) -> "Bilinear":
        return Bilinear._trusted(tuple(a.scale(c).rows for a in self._layers()))

    def apply(self, u: Vec, w: Vec) -> Vec:
        """Contract both slots: result[t] = sum_{i,b} entries[t][i][b] u[i] w[b]."""
        _, r, s = self.shape
        if u.dim != r or w.dim != s:
            raise DimMismatch(f"bilinear {self.shape} applied to dims ({u.dim}, {w.dim})")
        return self.left_vec(u) @ w

    def left_vec(self, u: Vec) -> Mat:
        """Contract the first slot: a (k x s) matrix acting on w; row t is u^T entries[t]."""
        if u.dim != self.shape[1]:
            raise DimMismatch("left contraction dimension")
        return Mat._trusted(tuple(a.vec_mul(u).entries for a in self._layers()))

    def right_vec(self, w: Vec) -> Mat:
        """Contract the second slot: a (k x r) matrix acting on u; row t is entries[t] @ w."""
        if w.dim != self.shape[2]:
            raise DimMismatch("right contraction dimension")
        return Mat._trusted(tuple((a @ w).entries for a in self._layers()))

    def left_mat(self, A: Mat) -> "Bilinear":
        """Precompose the first slot with A: result[t] = A^T entries[t], whose
        row i' is column i' of A times entries[t] from the left (``A^T @``
        would fail on an A without columns, whose transpose has no rows)."""
        if A.nrows != self.shape[1]:
            raise DimMismatch("left matrix contraction dimension")
        cols = [A.col(j) for j in range(A.ncols)]
        return Bilinear._trusted(tuple(tuple(a.vec_mul(c).entries for c in cols) for a in self._layers()))

    def right_mat(self, B: Mat) -> "Bilinear":
        """Precompose the second slot with B: result[t] = entries[t] @ B."""
        if B.nrows != self.shape[2]:
            raise DimMismatch("right matrix contraction dimension")
        return Bilinear._trusted(tuple((a @ B).rows for a in self._layers()))

    def post(self, S: Mat) -> "Bilinear":
        """Apply S to the output slot: result[t'] = sum_t S[t',t] entries[t],
        that is S @ the k x (r*s) matrix whose row t is entries[t] flattened."""
        k, r, s = self.shape
        if S.ncols != k:
            raise DimMismatch("output contraction dimension")
        flat = Mat._trusted(tuple(tuple(chain.from_iterable(layer)) for layer in self.entries))
        return Bilinear._trusted(tuple(tuple(row[i * s:(i + 1) * s] for i in range(r)) for row in (S @ flat).rows))

    def __repr__(self) -> str:
        return f"Bilinear(shape={self.shape})"
