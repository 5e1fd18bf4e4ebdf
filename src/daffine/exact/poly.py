"""Sparse multivariate polynomials over the rationals, plus affine base maps.

A polynomial in ``nvars`` variables is a dict from exponent tuples to nonzero
Fraction coefficients.  These are the coefficient functions of fiber-bundle
transition data, so composition and evaluation must be exact.

Every ``Poly`` holds this invariant: each key of ``terms`` is a tuple of
``nvars`` non-negative ints and each value is a nonzero ``Fraction``.  The
public constructor ``Poly(nvars, terms)`` establishes it for any input.  The
results the kernel computes itself (sums, negations, products and
substitutions of polynomials that already hold it) are wrapped by
``Poly._trusted``, which checks nothing; the code that builds them drops
zero coefficients before wrapping, and that is all the invariant needs.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Dict, Mapping, Sequence, Tuple

from ..errors import DimMismatch, MissingSubstitute, SingularMatrix
from .linalg import Mat, Vec
from .scalar import ONE, Scalar, as_scalar, format_scalar

Exponent = Tuple[int, ...]
Terms = Dict[Exponent, Scalar]


def _nonzero(terms: Terms) -> Terms:
    return {e: c for e, c in terms.items() if c}


def _mul_terms(a: Terms, b: Terms) -> Terms:
    """The product of two term dicts, zero coefficients dropped."""
    out: Terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exp = tuple(map(add, e1, e2))
            out[exp] = out[exp] + c1 * c2 if exp in out else c1 * c2
    return _nonzero(out)


def _monomial(exp: Exponent, table: Sequence, target: int, monomials: Dict[Exponent, Terms]) -> Terms:
    """The terms of ``prod(table[i] ** exp[i])``, through the cache ``monomials``.

    A missing monomial is the cached one with the last nonzero exponent
    lowered by one, times that one substitute; every monomial passed on the
    way down is cached too.
    """
    chain = []
    while exp not in monomials:
        i = next((j for j in range(len(exp) - 1, -1, -1) if exp[j]), None)
        if i is None:
            monomials[exp] = {(0,) * target: ONE}
            break
        chain.append((exp, i))
        exp = exp[:i] + (exp[i] - 1,) + exp[i + 1:]
    mono = monomials[exp]
    for exp, i in reversed(chain):
        mono = _mul_terms(mono, table[i].terms)
        monomials[exp] = mono
    return mono


def _substitute(terms: Terms, table: Sequence, target: int, monomials: Dict[Exponent, Terms]) -> Terms:
    """``sum(c * prod(table[i] ** e[i]))`` over ``terms``, zero coefficients dropped.

    ``monomials`` caches the products of substitutes by source exponent.  It
    stays valid for every later call with the same ``table`` and ``target``,
    and its term dicts must never be mutated.
    """
    out: Terms = {}
    for exp, coeff in terms.items():
        for e, c in _monomial(exp, table, target, monomials).items():
            out[e] = out[e] + coeff * c if e in out else coeff * c
    return _nonzero(out)


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Scalar]):
        clean: Dict[Exponent, Scalar] = {}
        for exp, coeff in terms.items():
            exp = tuple(exp)
            if len(exp) != nvars:
                raise DimMismatch(f"exponent {exp} has arity {len(exp)}, expected {nvars}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            c = as_scalar(coeff)
            if c:
                clean[exp] = clean.get(exp, Fraction(0)) + c
                if not clean[exp]:
                    del clean[exp]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, nvars: int, terms: Terms) -> "Poly":
        """Wrap ``terms`` without checks; they must already hold the invariant."""
        p = object.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, *args):  # pragma: no cover - defensive
        raise AttributeError("Poly is immutable")

    # ---- constructors ----

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars, {})

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        c = as_scalar(c)
        return Poly(nvars, {(0,) * nvars: c} if c else {})

    @staticmethod
    def variable(nvars: int, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise DimMismatch(f"variable index {i} out of range for {nvars} variables")
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return Poly(nvars, {exp: Fraction(1)})

    # ---- queries ----

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Scalar:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        return max((sum(e) for e in self.terms), default=-1)

    def coefficient(self, exp: Exponent) -> Scalar:
        return self.terms.get(tuple(exp), Fraction(0))

    # ---- arithmetic ----

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise DimMismatch(f"poly arities {self.nvars} vs {other.nvars}")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.nvars, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self.terms)
        for exp, c in other.terms.items():
            merged[exp] = merged[exp] + c if exp in merged else c
        return Poly._trusted(self.nvars, _nonzero(merged))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_scalar(other)
            return Poly._trusted(self.nvars, _nonzero({e: k * c for e, k in self.terms.items()}))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly._trusted(self.nvars, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    # ---- evaluation and substitution ----

    def eval(self, point: Sequence) -> Scalar:
        if len(point) != self.nvars:
            raise DimMismatch(f"evaluation point has {len(point)} coords, expected {self.nvars}")
        pt = [p if isinstance(p, Fraction) else as_scalar(p) for p in point]
        total = Fraction(0)
        for exp, coeff in self.terms.items():
            term = coeff
            for value, e in zip(pt, exp):
                if e:
                    term = term * value**e
            total += term
        return total

    def subst(self, subs) -> "Poly":
        """Substitute a polynomial for each variable.

        ``subs`` is either a sequence of ``nvars`` polynomials (all in the same
        target arity) or a mapping from variable index to polynomial; in the
        mapping form a variable that occurs but has no entry raises
        :class:`MissingSubstitute`.
        """
        if isinstance(subs, Mapping):
            used = sorted({i for exp in self.terms for i, e in enumerate(exp) if e})
            missing = [i for i in used if i not in subs]
            if missing:
                raise MissingSubstitute(f"no substitute for variable(s) {missing}")
            if subs:
                target = next(iter(subs.values())).nvars
            else:
                target = self.nvars
            table = [subs.get(i) for i in range(self.nvars)]
            checked = [table[i] for i in used]
        else:
            table = checked = list(subs)
            if len(table) != self.nvars:
                raise MissingSubstitute(
                    f"{len(table)} substitutes for {self.nvars} variables"
                )
            target = table[0].nvars if table else 0
        for p in checked:
            if p.nvars != target:
                raise DimMismatch("substitutes have mixed arities")
        return Poly._trusted(target, _substitute(self.terms, table, target, {}))

    # ---- rendering ----

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            coeff = self.terms[exp]
            factors = [
                f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exp)
                if e
            ]
            if not factors:
                parts.append(format_scalar(coeff))
                continue
            body = "*".join(factors)
            if coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{format_scalar(coeff)}*{body}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {self.terms!r})"


class BaseMap:
    """An invertible affine change of base coordinates, ``x' = P x + q``.

    A base map keeps its rows as polynomials and a cache of the products of
    those rows it has built while pulling polynomials back, so every
    pullback through one map shares them.
    """

    __slots__ = ("P", "q", "_rows", "_monomials")

    def __init__(self, P: Mat, q: Vec):
        if P.nrows != P.ncols:
            raise DimMismatch("base matrix must be square")
        if q.dim != P.nrows:
            raise DimMismatch("offset dimension mismatch")
        if not P.det():
            raise SingularMatrix("base map is not invertible")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_rows", None)
        object.__setattr__(self, "_monomials", {})

    def __setattr__(self, *args):  # pragma: no cover - defensive
        raise AttributeError("BaseMap is immutable")

    @staticmethod
    def identity(m: int) -> "BaseMap":
        return BaseMap(Mat.identity(m), Vec.zero(m))

    @property
    def dim(self) -> int:
        return self.P.nrows

    def apply(self, x: Vec) -> Vec:
        return self.P @ x + self.q

    def then(self, second: "BaseMap") -> "BaseMap":
        """The composite x -> second(self(x))."""
        if second.dim != self.dim:
            raise DimMismatch("composing base maps of different dimensions")
        return BaseMap(second.P @ self.P, second.P @ self.q + second.q)

    def inverse(self) -> "BaseMap":
        inv = self.P.inverse()
        return BaseMap(inv, -(inv @ self.q))

    def as_polys(self) -> list:
        """The map's rows as degree-<=1 polynomials in x1..xm."""
        return list(self._table())

    def _table(self) -> Tuple[Poly, ...]:
        # Built on first use: most base maps elaborated from a document are
        # never pulled back through.
        if self._rows is None:
            m = self.dim
            rows = []
            for i in range(m):
                terms = {(0,) * m: self.q[i]}
                for j in range(m):
                    terms[tuple(1 if k == j else 0 for k in range(m))] = self.P[i, j]
                rows.append(Poly(m, terms))
            object.__setattr__(self, "_rows", tuple(rows))
        return self._rows

    def pullback(self, f: Poly) -> Poly:
        """``f`` composed with this map: x -> f(P x + q)."""
        if f.nvars != self.dim:
            raise DimMismatch("polynomial arity does not match base dimension")
        return Poly._trusted(self.dim, _substitute(f.terms, self._table(), self.dim, self._monomials))

    def __eq__(self, other) -> bool:
        return isinstance(other, BaseMap) and self.P == other.P and self.q == other.q

    def __hash__(self) -> int:
        return hash((self.P, self.q))

    def __repr__(self) -> str:
        return f"BaseMap(P={self.P!r}, q={self.q!r})"
