"""Sparse multivariate polynomials over the rationals, plus affine base maps.

These are the coefficient functions of fiber-bundle transition data, so
composition and evaluation must be exact.  A polynomial in ``nvars``
variables is stored as one integer polynomial over one denominator, as in
FLINT's ``fmpq_poly``: a positive int ``den`` and a dict ``num`` from
exponent tuples to nonzero int numerators, standing for
``sum(num[e] * x**e for e in num) / den``.  Sums, products, powers,
substitutions, pullbacks and evaluation all run on Python integers.

Every ``Poly`` is in canonical form: each key of ``num`` is a tuple of
``nvars`` non-negative ints, each value is a nonzero int, ``den > 0`` and
``gcd(den, *num.values()) == 1``.  So two polynomials are equal exactly when
their ``nvars``, ``den`` and ``num`` are, and ``==`` and ``hash`` read the
stored form.  The public constructor ``Poly(nvars, terms)`` checks its input
and puts the coefficients over the lcm of their denominators, which is
already canonical.  Every sum, product and substitution the kernel computes
is normalised once, by ``_canonical``, which drops zero numerators and
divides out their gcd with the denominator; negation keeps the form.
``terms``, the ``{exponent: Fraction}`` view that rendering and callers
outside the kernel read, is built on first read and cached.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Dict, Mapping, Sequence, Tuple

from ..errors import DimMismatch, MissingSubstitute, SingularMatrix
from .linalg import _EXACT_TYPES, Mat, Vec
from .scalar import Scalar, as_scalar, format_scalar

Exponent = Tuple[int, ...]
Terms = Dict[Exponent, Scalar]
Ints = Dict[Exponent, int]


def _canonical(num: Ints, den: int) -> Tuple[Ints, int]:
    """``num / den`` (``den > 0``) with zero numerators dropped and the gcd
    of the denominator with the numerators divided out."""
    if 0 in num.values():
        num = {e: c for e, c in num.items() if c}
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
    return num, den


def _mul(a: Ints, da: int, b: Ints, db: int) -> Tuple[Ints, int]:
    """The product of ``a / da`` and ``b / db``, canonical."""
    out: Ints = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exp = tuple(map(add, e1, e2))
            out[exp] = out[exp] + c1 * c2 if exp in out else c1 * c2
    return _canonical(out, da * db)


def _monomial(exp: Exponent, table: Sequence, target: int, monomials: Dict) -> Tuple[Ints, int]:
    """``prod(table[i] ** exp[i])`` as ``(num, den)``, through the cache ``monomials``.

    A missing monomial is the cached one with the last nonzero exponent
    lowered by one, times that one substitute; every monomial passed on the
    way down is cached too.
    """
    chain = []
    while exp not in monomials:
        i = next((j for j in range(len(exp) - 1, -1, -1) if exp[j]), None)
        if i is None:
            monomials[exp] = ({(0,) * target: 1}, 1)
            break
        chain.append((exp, i))
        exp = exp[:i] + (exp[i] - 1,) + exp[i + 1:]
    mono = monomials[exp]
    for exp, i in reversed(chain):
        sub = table[i]
        mono = _mul(mono[0], mono[1], sub.num, sub.den)
        monomials[exp] = mono
    return mono


def _substitute(num: Ints, den: int, table: Sequence, target: int, monomials: Dict) -> Tuple[Ints, int]:
    """``sum(c * prod(table[i] ** e[i])) / den`` over ``num``, canonical.

    The monomials' numerators are brought over the lcm of their
    denominators, so the sum is taken on integers and normalised once.
    ``monomials`` caches the products of substitutes by source exponent.  It
    stays valid for every later call with the same ``table`` and ``target``,
    and its dicts must never be mutated.
    """
    monos = [(c, _monomial(exp, table, target, monomials)) for exp, c in num.items()]
    common = lcm(*(d for _, (_, d) in monos))
    out: Ints = {}
    for coeff, (terms, d) in monos:
        scale = coeff * (common // d)
        for e, c in terms.items():
            out[e] = out[e] + scale * c if e in out else scale * c
    return _canonical(out, den * common)


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "num", "den", "_terms")

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
        self._init(nvars, *_over_lcm(clean))

    def _init(self, nvars: int, num: Ints, den: int) -> None:
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_terms", None)

    @classmethod
    def _make(cls, nvars: int, num: Ints, den: int) -> "Poly":
        """Wrap ``num / den`` without checks; it must already be canonical."""
        p = object.__new__(cls)
        p._init(nvars, num, den)
        return p

    @classmethod
    def _from_fractions(cls, nvars: int, terms: Terms) -> "Poly":
        """Wrap distinct exponents of ``nvars`` non-negative ints with nonzero
        ``Fraction`` coefficients, without checks."""
        return cls._make(nvars, *_over_lcm(terms))

    def __setattr__(self, *args):  # pragma: no cover - defensive
        raise AttributeError("Poly is immutable")

    @property
    def terms(self) -> Terms:
        """The coefficients as ``{exponent: Fraction}``, in the order of
        ``num``; built on first read and cached, so never mutate it."""
        view = self._terms
        if view is None:
            den = self.den
            view = {e: Fraction(c, den) for e, c in self.num.items()}
            object.__setattr__(self, "_terms", view)
        return view

    # ---- constructors ----

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly._make(nvars, {}, 1)

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        c = as_scalar(c)
        return Poly._make(nvars, {(0,) * nvars: c.numerator} if c else {}, c.denominator)

    @staticmethod
    def variable(nvars: int, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise DimMismatch(f"variable index {i} out of range for {nvars} variables")
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return Poly._make(nvars, {exp: 1}, 1)

    # ---- queries ----

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.num)

    def constant_value(self) -> Scalar:
        return self.coefficient((0,) * self.nvars)

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        return max((sum(e) for e in self.num), default=-1)

    def coefficient(self, exp: Exponent) -> Scalar:
        return Fraction(self.num.get(tuple(exp), 0), self.den)

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
        if not other.num:
            return self
        if not self.num:
            return other
        da, db = self.den, other.den
        den = lcm(da, db)
        merged = dict(self.num) if den == da else {e: c * (den // da) for e, c in self.num.items()}
        scale = den // db
        for exp, c in other.num.items():
            c *= scale
            merged[exp] = merged[exp] + c if exp in merged else c
        return Poly._make(self.nvars, *_canonical(merged, den))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> "Poly":
        return Poly._make(self.nvars, {e: -c for e, c in self.num.items()}, self.den)

    def _scaled(self, p: int, q: int) -> "Poly":
        """This polynomial times ``p / q`` (``q > 0``)."""
        return Poly._make(self.nvars, *_canonical({e: c * p for e, c in self.num.items()}, self.den * q))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num, other.num
        if not a:
            return self
        if not b:
            return other
        # A constant factor only scales the other one's numerators.
        if len(b) == 1 and not any(next(iter(b))):
            return self._scaled(next(iter(b.values())), other.den)
        if len(a) == 1 and not any(next(iter(a))):
            return other._scaled(next(iter(a.values())), self.den)
        return Poly._make(self.nvars, *_mul(a, self.den, b, other.den))

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
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.den, frozenset(self.num.items())))

    # ---- evaluation and substitution ----

    def eval(self, point: Sequence) -> Scalar:
        if len(point) != self.nvars:
            raise DimMismatch(f"evaluation point has {len(point)} coords, expected {self.nvars}")
        pt = [p if isinstance(p, Fraction) else as_scalar(p) for p in point]
        pt = [(p.numerator, p.denominator) for p in pt]
        # The sum of the terms over a running common denominator.
        total, common = 0, 1
        for exp, c in self.num.items():
            tn, td = c, 1
            for (p, q), e in zip(pt, exp):
                if e:
                    tn *= p**e
                    td *= q**e
            if td == common:
                total += tn
            else:
                m = lcm(common, td)
                total = total * (m // common) + tn * (m // td)
                common = m
        return Fraction(total, common * self.den)

    def subst(self, subs) -> "Poly":
        """Substitute a polynomial for each variable.

        ``subs`` is either a sequence of ``nvars`` polynomials (all in the same
        target arity) or a mapping from variable index to polynomial; in the
        mapping form a variable that occurs but has no entry raises
        :class:`MissingSubstitute`.
        """
        if isinstance(subs, Mapping):
            used = sorted({i for exp in self.num for i, e in enumerate(exp) if e})
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
        return Poly._make(target, *_substitute(self.num, self.den, table, target, {}))

    # ---- rendering ----

    def __str__(self) -> str:
        if not self.num:
            return "0"
        parts = []
        terms = self.terms
        for exp in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
            coeff = terms[exp]
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


# Poly's ring operations with int, Fraction and Poly return a Poly, so it is
# the third entry type of Vec, Mat and Bilinear.
_EXACT_TYPES.add(Poly)


def _over_lcm(terms: Terms) -> Tuple[Ints, int]:
    """Nonzero ``Fraction`` coefficients as numerators over the lcm of their
    denominators; canonical, since each coefficient is in lowest terms."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den


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
        return Poly._make(self.dim, *_substitute(f.num, f.den, self._table(), self.dim, self._monomials))

    def __eq__(self, other) -> bool:
        return isinstance(other, BaseMap) and self.P == other.P and self.q == other.q

    def __hash__(self) -> int:
        return hash((self.P, self.q))

    def __repr__(self) -> str:
        return f"BaseMap(P={self.P!r}, q={self.q!r})"
