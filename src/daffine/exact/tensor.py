"""Rank-3 arrays (bilinear blocks of double-bundle transition data).

A ``Bilinear`` with shape ``(k, r, s)`` sends a pair (u, w) with dims (r, s)
to a k-vector; entry ``[t][i][b]`` multiplies ``u[i] * w[b]``.  Entries may be
Fractions or polynomials; a number that is not rational, such as a float, is
rejected with :class:`TypeError` when the block is built, as in ``Vec`` and
``Mat``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from ..errors import DimMismatch
from .linalg import Mat, Vec, _dot, _exact


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

    def __add__(self, other: "Bilinear") -> "Bilinear":
        if self.shape != other.shape:
            raise DimMismatch(f"bilinear shapes {self.shape} vs {other.shape}")
        return Bilinear(
            tuple(
                tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(l1, l2))
                for l1, l2 in zip(self.entries, other.entries)
            )
        )

    def __neg__(self) -> "Bilinear":
        return Bilinear(tuple(tuple(tuple(-a for a in row) for row in layer) for layer in self.entries))

    def scale(self, c) -> "Bilinear":
        return Bilinear(tuple(tuple(tuple(c * a for a in row) for row in layer) for layer in self.entries))

    def apply(self, u: Vec, w: Vec) -> Vec:
        """Contract both slots: result[t] = sum_{i,b} entries[t][i][b] u[i] w[b]."""
        k, r, s = self.shape
        if u.dim != r or w.dim != s:
            raise DimMismatch(f"bilinear {self.shape} applied to dims ({u.dim}, {w.dim})")
        out = []
        for t in range(k):
            total = Fraction(0)
            layer = self.entries[t]
            for i in range(r):
                ui = u[i]
                row = layer[i]
                for b in range(s):
                    total = total + row[b] * ui * w[b]
            out.append(total)
        return Vec(out)

    def left_vec(self, u: Vec) -> Mat:
        """Contract the first slot: a (k x s) matrix acting on w."""
        k, r, s = self.shape
        if u.dim != r:
            raise DimMismatch("left contraction dimension")
        return Mat(
            [
                [_dot(tuple(self.entries[t][i][b] for i in range(r)), u.entries) for b in range(s)]
                for t in range(k)
            ]
        )

    def right_vec(self, w: Vec) -> Mat:
        """Contract the second slot: a (k x r) matrix acting on u."""
        k, r, s = self.shape
        if w.dim != s:
            raise DimMismatch("right contraction dimension")
        return Mat([[_dot(self.entries[t][i], w.entries) for i in range(r)] for t in range(k)])

    def left_mat(self, A: Mat) -> "Bilinear":
        """Precompose the first slot with A: result[t][i'][b] = sum_i entries[t][i][b] A[i,i']."""
        k, r, s = self.shape
        if A.nrows != r:
            raise DimMismatch("left matrix contraction dimension")
        return Bilinear(
            [
                [
                    [_dot(tuple(self.entries[t][i][b] for i in range(r)), A.col(ip).entries) for b in range(s)]
                    for ip in range(A.ncols)
                ]
                for t in range(k)
            ]
        )

    def right_mat(self, B: Mat) -> "Bilinear":
        """Precompose the second slot with B: result[t][i][b'] = sum_b entries[t][i][b] B[b,b']."""
        k, r, s = self.shape
        if B.nrows != s:
            raise DimMismatch("right matrix contraction dimension")
        return Bilinear(
            [
                [[_dot(self.entries[t][i], B.col(bp).entries) for bp in range(B.ncols)] for i in range(r)]
                for t in range(k)
            ]
        )

    def post(self, S: Mat) -> "Bilinear":
        """Apply S to the output slot: result[t'] = sum_t S[t',t] entries[t]."""
        k, r, s = self.shape
        if S.ncols != k:
            raise DimMismatch("output contraction dimension")
        return Bilinear(
            [
                [
                    [
                        _dot(tuple(self.entries[t][i][b] for t in range(k)), S.rows[tp])
                        for b in range(s)
                    ]
                    for i in range(r)
                ]
                for tp in range(S.nrows)
            ]
        )

    def __repr__(self) -> str:
        return f"Bilinear(shape={self.shape})"
