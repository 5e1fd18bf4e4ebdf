"""Text format for bundle descriptions.

A document is a sequence of named blocks::

    double A { n1 = 1; n2 = 1; n3 = 1; l1 = [1]; l2 = [1]; sigma = [1]; }

Block kinds: ``space`` (hull_dim, alpha, optional v: the special affine space
{alpha = 1}, elaborated as the order-one bundle of :mod:`daffine.naffine`),
``double`` (dims, functionals, optional marked section and constraint rows),
``atlas`` (wiring plus per-edge coefficient polynomials in x1..xm, keyed
``src.dst.field``), ``special_bundle``
(m, n, optional omega covector) and ``graded`` (order, component dims keyed by
bitstrings, functionals keyed by unit degree, optional sigma).  An edge's
fields are its base map, the nine transition blocks and optional sample
points; ``atlas.BLOCKS`` is the one place that holds the blocks' names, kinds
and order, and the reader and writer here loop over it.

Values are rationals, identifiers, possibly-nested bracket lists, or
polynomial expressions over x1 .. x100 (``MAX_VARIABLE``) with rational
coefficients, expanded by ``exact.Poly``.  Parsing normalises each block to a
canonical field order and collapses constant polynomial expressions to
rationals, so printing and reparsing a document reproduces it exactly.
"""

from __future__ import annotations

import itertools
import re
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb
from typing import Dict, List, Optional, Tuple, Union

from .atlas import BLOCKS, Atlas, TransitionData, map_entries
from .double import DecomposedDouble, DoubleAffine
from .errors import (
    DaffineError,
    DimMismatch,
    DuplicateName,
    ParseError,
    UnresolvedReference,
)
from .exact import BaseMap, Bilinear, Mat, Poly, Vec, as_scalar
from .naffine import GradedSpace, NAffine
from .phase import OneForm, TrivialBispecial

BLOCK_KINDS = ("space", "double", "atlas", "special_bundle", "graded")

_VAR_RE = re.compile(r"^x([1-9][0-9]*)$")
_BITS_RE = re.compile(r"^[01]+$")


@dataclass(frozen=True)
class PolyValue:
    """A non-constant polynomial literal: one canonical ``Poly`` in as many
    variables as the highest one it uses, so equal literals are equal values."""

    poly: Poly

    def to_poly(self, nvars: int) -> Poly:
        """The literal as a polynomial in ``nvars`` variables."""
        p = self.poly
        if p.nvars > nvars:
            v = next(v for mono, _ in self._terms() for v, _ in mono if v >= nvars)
            raise DimMismatch(f"polynomial uses x{v + 1} but only {nvars} base variables exist")
        pad = (0,) * (nvars - p.nvars)
        return Poly._make(nvars, {e + pad: c for e, c in p.num.items()}, p.den) if pad else p

    def _terms(self):
        """``(((var, exponent), ...), coefficient)`` pairs in printed order:
        descending degree, then monomial."""
        terms = [
            (tuple((v, e) for v, e in enumerate(exp) if e), c)
            for exp, c in self.poly.terms.items()
        ]
        return sorted(terms, key=lambda t: (-sum(e for _, e in t[0]), t[0]))

    def __str__(self) -> str:
        text = ""
        for mono, c in self._terms():
            mag, body = abs(c), "*".join(f"x{v + 1}" + (f"^{e}" if e > 1 else "") for v, e in mono)
            piece = str(mag) if not body else body if mag == 1 else f"{mag}*{body}"
            text += (" - " if c < 0 else " + ") + piece
        return text[3:] if text[1] == "+" else "-" + text[3:]


Value = Union[Fraction, str, Tuple["Value", ...], PolyValue]


# ---------------------------------------------------------------------------
# Tokenizer and parser
#
# A token is the string ``_TOKEN`` captures: a run of decimal digits, an
# identifier, one punctuation character, or "": the end of the input or,
# before the end, a character that starts no token.  Tokens carry no
# position; ``_error_at`` works it out from the text when an error is raised.

MAX_NESTING = 100
"""Deepest nesting of ``[`` and ``(`` in a value; one level more is a ParseError."""

MAX_EXPONENT = 100
"""Largest exponent of a power; ``x1^a^b`` is ``x1^(a*b)`` and counts as ``a*b``."""

MAX_VARIABLE = 100
"""Highest variable a polynomial may use: ``x100``; ``x101`` in a polynomial is
a ParseError at its token.  Names that only look like variables are not bounded."""

MAX_TERMS = 2000
"""Most terms a product or power may expand to, bounded before expanding:
``p*q`` by the product of the term counts, ``p^k`` of t terms by the number
of degree-k monomials in t variables, C(t+k-1, k).  A monomial factor is one
term; a parenthesised one has the terms of its expansion, zeros dropped."""

MAX_TERM_PRODUCTS = MAX_EXPONENT * (MAX_EXPONENT + 1)
"""Most products of two terms a power may take to expand, bounded before
expanding.  ``p^k`` of t terms multiplies by ``p`` k times, up to
k*C(t+k-1, k) term products in all; the bound admits a binomial to every
exponent up to ``MAX_EXPONENT``.  A product ``p*q`` takes as many as its
terms, which ``MAX_TERMS`` bounds."""

_ONE = Fraction(1)
_PUNCT = frozenset("{}[]=;,./+-*^()")
_STARTS = _PUNCT | {"_"}  # with letters and digits, the characters a token starts with
_ENDS = frozenset(";,]")  # the tokens that may follow a value
_SKIP = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*")
_TOKEN = re.compile(r"(\d+|[^\W\d]\w*|[{}\[\]=;,./+\-*^()]|)" + _SKIP.pattern)


def _error_at(text: str, index: int, expected, found: str = "") -> ParseError:
    """A ParseError at the token with this index; by default it names the character there."""
    matches = _TOKEN.finditer(text, _SKIP.match(text).end())
    offset = next(itertools.islice(matches, index, None)).start()
    if offset == len(text):  # at the end, a comment open on the last line ends where it starts
        hash_at = text.find("#", text.rfind("\n") + 1)
        offset = offset if hash_at < 0 else hash_at
    line, col = text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
    return ParseError(line, col, expected, found=found or repr(text[offset]))


def _tokenize(text: str) -> List[str]:
    toks = _TOKEN.findall(text, _SKIP.match(text).end())
    bad = toks.index("")
    if not text.isascii():  # [^\W\d] also matches non-letters such as "²" and "½"
        starts = [t[0].isalpha() or t[0] in _STARTS or t.isdecimal() for t in toks[:bad]]
        bad = bad if all(starts) else starts.index(False)
    if bad < len(toks) - 1:
        raise _error_at(text, bad, ("a token",))
    return toks


@dataclass(frozen=True)
class Block:
    kind: str
    name: str
    fields: Tuple[Tuple[str, Value], ...]

    def field_map(self) -> Dict[str, Value]:
        return dict(self.fields)


@dataclass(frozen=True)
class Document:
    blocks: Tuple[Block, ...]


_FIELD_ORDER = {
    "space": ("hull_dim", "alpha", "v"),
    "double": ("n1", "n2", "n3", "l1", "l2", "sigma", "constraints"),
    "special_bundle": ("m", "n", "omega"),
}
_ATLAS_HEAD = ("base_dim", "fiber_dims", "charts")
_EDGE_FIELDS = ("base_p", "base_q") + tuple(name for name, _ in BLOCKS) + ("samples",)

# Fields that may not carry an empty vector: catching `l1=[]` style mistakes
# at parse time with the field named in the diagnostic.
_NONEMPTY = {"alpha", "v", "l1", "l2", "sigma", "omega", "fiber_dims", "charts"}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = toks = _tokenize(text)
        self.i = 0
        self.depth = 0
        distinct = dict.fromkeys(toks)  # in order of first appearance
        self.ints: Dict[str, int] = {}
        for t in distinct:
            if t[:1].isdecimal():
                try:
                    self.ints[t] = int(t)
                except ValueError:  # more digits than int() converts
                    self.fail(("a number with fewer digits",), toks.index(t))
        # The index of each x<k> (four digits already pass MAX_VARIABLE); exponent
        # tuples are as wide as the highest such token within the bound.
        self.vars = {t: int(m[1][:4]) - 1 for t in distinct if (m := _VAR_RE.match(t))}
        self.width = max((v + 1 for v in self.vars.values() if v < MAX_VARIABLE), default=0)

    def fail(self, expected, index: Optional[int] = None, found: str = "") -> None:
        index = self.i if index is None else index
        raise _error_at(self.text, index, expected, found or self.toks[index] or "end of input")

    def is_ident(self, tok: str) -> bool:
        return bool(tok) and tok not in _PUNCT and tok not in self.ints

    def expect(self, punct: str) -> None:
        if self.toks[self.i] != punct:
            self.fail((f"'{punct}'",))
        self.i += 1

    def ident(self, what: str) -> str:
        tok = self.toks[self.i]
        if not self.is_ident(tok):
            self.fail((what,))
        self.i += 1
        return tok

    def open(self) -> None:
        """Step into a ``[`` or ``(``, keeping within MAX_NESTING."""
        if self.depth == MAX_NESTING:
            self.fail((f"at most {MAX_NESTING} levels of nesting",))
        self.depth += 1
        self.i += 1

    # -- grammar ------------------------------------------------------------

    def document(self) -> Document:
        blocks: Dict[str, Block] = {}
        while self.toks[self.i]:
            block = self.block()
            if block.name in blocks:
                raise DuplicateName(f"duplicate block name '{block.name}'")
            blocks[block.name] = block
        return Document(tuple(blocks.values()))

    def block(self) -> Block:
        kind = self.toks[self.i]
        if kind not in BLOCK_KINDS:
            self.fail(tuple(BLOCK_KINDS))
        self.i += 1
        name = self.ident("a block name")
        self.expect("{")
        fields = []
        seen = set()
        while self.toks[self.i] != "}":
            at = self.i
            key = self.key()
            if key in seen:
                self.fail((f"a key other than '{key}'",), at, found=key)
            seen.add(key)
            self.expect("=")
            value = self.value()
            if value == () and key.rsplit(".", 1)[-1] in _NONEMPTY:
                self.fail((f"a nonempty value for '{key}'",), at, found="[]")
            self.expect(";")
            fields.append((key, value, at))
        self.i += 1
        return Block(kind, name, _canonical_fields(kind, fields, partial(_error_at, self.text)))

    def key(self) -> str:
        parts = [self.ident("a field key")]
        while self.toks[self.i] == ".":
            self.i += 1
            parts.append(self.ident("a key segment"))
        return ".".join(parts)

    def value(self) -> Value:
        toks, i = self.toks, self.i
        tok = toks[i]
        if tok == "[":
            return self.list_value()
        j = i + 1 if tok == "-" else i
        if toks[j] in self.ints:  # fast path: a rational [-]p[/q] that ends the value
            r, end = self.rational(j)
            if toks[end] in _ENDS:
                self.i = end
                return -r if j > i else r
        if self.is_ident(tok) and tok not in self.vars:
            self.i = i + 1
            if toks[i + 1] not in _ENDS:
                self.fail(("';'", "','", "']'"))
            return tok
        return value_of_poly(self.expr())

    def rational(self, j: int) -> Tuple[Fraction, int]:
        """The rational p or p/q whose numerator is token j, and the index after it."""
        toks = self.toks
        p = self.ints[toks[j]]
        if toks[j + 1] != "/":
            return Fraction(p), j + 1
        q = self.ints.get(toks[j + 2])
        if q is None:
            self.fail(("a denominator",), j + 2)
        if not q:
            self.fail(("a nonzero denominator",), j + 2)
        return Fraction(p, q), j + 3

    def list_value(self) -> Tuple[Value, ...]:
        self.open()
        items: List[Value] = []
        if self.toks[self.i] != "]":
            items.append(self.value())
            while self.toks[self.i] == ",":
                self.i += 1
                items.append(self.value())
        self.expect("]")
        self.depth -= 1
        return tuple(items)

    # -- polynomial expressions: each term c*x1^a*x3^b is read in one pass
    # into its coefficient and exponents; only parenthesised factors are
    # multiplied, raised and added as Polys.

    def expr(self) -> Poly:
        toks = self.toks
        monomials: Dict[Tuple[int, ...], Fraction] = {}
        products = []
        neg = False
        while True:
            term = self.term(neg)
            if isinstance(term, Poly):
                products.append(term)
            else:
                exp, c = term
                monomials[exp] = monomials[exp] + c if exp in monomials else c
            if toks[self.i] not in ("+", "-"):
                break
            neg = toks[self.i] == "-"
            self.i += 1
        out = Poly._from_fractions(self.width, {e: c for e, c in monomials.items() if c})
        return sum(products, out)

    def term(self, neg: bool):
        """A product of factors, negated if ``neg``: ``(exponents, coefficient)``
        when no factor is parenthesised, else the product as a Poly."""
        toks = self.toks
        coef, exps = _ONE, [0] * self.width
        poly = star = None
        while True:
            while toks[self.i] == "-":
                self.i += 1
                neg = not neg
            tok = toks[self.i]
            factor = None
            if tok in self.ints:
                r, self.i = self.rational(self.i)
                k = self.power(1)
                r = r if k == 1 else r**k
                coef = r if coef is _ONE else coef * r
            elif tok in self.vars:
                v = self.vars[tok]
                if v >= MAX_VARIABLE:
                    self.fail((f"a variable x<k> with k at most {MAX_VARIABLE}",))
                self.i += 1
                exps[v] += self.power(1)
            elif tok == "(":
                self.open()
                factor = self.expr()
                self.expect(")")
                self.depth -= 1
                k = self.power(len(factor.num))
                if k != 1:
                    factor = factor**k
            elif self.is_ident(tok):
                self.fail(("a variable x<k>",))
            else:
                self.fail(("a rational", "a variable x<k>", "'('"))
            if star is not None:  # the product's terms, bounded before multiplying
                left = 1 if poly is None else len(poly.num)
                if left * (1 if factor is None else len(factor.num)) > MAX_TERMS:
                    self.fail((f"a product of at most {MAX_TERMS} terms",), star)
            if factor is not None:
                poly = factor if poly is None else poly * factor
            if toks[self.i] != "*":
                break
            star = self.i
            self.i += 1
        coef, exp = -coef if neg else coef, tuple(exps)
        if poly is None:
            return exp, coef
        return poly * Poly._from_fractions(self.width, {exp: coef} if coef else {})

    def power(self, terms: int) -> int:
        """The exponent of a factor of this many terms: the product of its
        ``^`` chain, 1 without one; refused before expanding past the bounds."""
        toks = self.toks
        k, at = 1, self.i
        while toks[self.i] == "^":
            self.i += 1
            e = self.ints.get(toks[self.i])
            if e is None:
                self.fail(("an integer exponent",))
            k *= e
            if e > MAX_EXPONENT or k > MAX_EXPONENT:
                self.fail((f"an exponent of at most {MAX_EXPONENT}",))
            self.i += 1
        if k > 1:
            count = comb(terms + k - 1, k)
            if count > MAX_TERMS:
                self.fail((f"a power of at most {MAX_TERMS} terms",), at)
            if k * count > MAX_TERM_PRODUCTS:
                self.fail((f"a power of at most {MAX_TERM_PRODUCTS} term products",), at)
        return k


def _canonical_fields(kind: str, fields, error) -> Tuple[Tuple[str, Value], ...]:
    """Validate the keys of ``(key, value, at)`` fields for the block kind and
    sort them canonically; ``error(at, expected, key)`` is the ParseError for a bad key."""

    def order_key(entry):
        key, _value, at = entry
        if kind in _FIELD_ORDER:
            if key not in _FIELD_ORDER[kind]:
                raise error(at, _FIELD_ORDER[kind], key)
            return (0, _FIELD_ORDER[kind].index(key), "")
        if kind == "graded":
            if key == "n":
                return (0, 0, "")
            if key.startswith("dim_") and _BITS_RE.match(key[4:]):
                return (1, 0, key[4:])
            if key.startswith("l_") and _BITS_RE.match(key[2:]) and key[2:].count("1") == 1:
                return (2, key[2:].index("1"), "")
            if key == "sigma":
                return (3, 0, "")
            raise error(at, ("n", "dim_<bits>", "l_<unit bits>", "sigma"), key)
        # atlas: head fields, then src.dst.field edge entries
        if key in _ATLAS_HEAD:
            return (0, _ATLAS_HEAD.index(key), "")
        parts = key.split(".")
        if len(parts) == 3 and parts[2] in _EDGE_FIELDS:
            return (1, (parts[0], parts[1]), _EDGE_FIELDS.index(parts[2]))
        raise error(at, _ATLAS_HEAD + ("<src>.<dst>.<field>",), key)

    decorated = sorted(((order_key(e), e) for e in fields), key=lambda p: p[0])
    return tuple((key, value) for _, (key, value, _at) in decorated)


def parse(text: str) -> Document:
    """Parse source text into a canonical Document."""
    return _Parser(text).document()


def format_value(v: Value) -> str:
    if isinstance(v, tuple):
        return "[" + ", ".join(format_value(x) for x in v) + "]"
    return str(v)


def print_document(doc: Document) -> str:
    """Render a Document canonically; parsing the output reproduces it."""
    chunks = []
    for b in doc.blocks:
        lines = [f"{b.kind} {b.name} {{"]
        for key, value in b.fields:
            lines.append(f"  {key} = {format_value(value)};")
        lines.append("}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


# ---------------------------------------------------------------------------
# Serialization of computational objects back into blocks


def value_of_poly(p: Poly) -> Value:
    """A Poly as a document value: a rational when constant, else the
    PolyValue of ``p`` cut to the highest variable it uses."""
    used = max((i + 1 for exp in p.num for i, e in enumerate(exp) if e), default=0)
    if not used:
        return p.constant_value()
    if used < p.nvars:
        p = Poly._make(used, {e[:used]: c for e, c in p.num.items()}, p.den)
    return PolyValue(p)


def _value_of_entry(x) -> Value:
    return value_of_poly(x) if isinstance(x, Poly) else as_scalar(x)


def value_of_block(block: Union[Vec, Mat, Bilinear]) -> Tuple[Value, ...]:
    """A vector, matrix or bilinear block as nested lists of document values."""
    return map_entries(_value_of_entry, type(block), block)


def _canonical(kind: str, pairs) -> Tuple[Tuple[str, Value], ...]:
    fields = [(k, v, None) for k, v in pairs]
    return _canonical_fields(kind, fields, lambda _at, want, key: ParseError(0, 0, want, key))


def block_from_double(name: str, space, bundle=None, constraints=None) -> Block:
    """A double block from a DecomposedDouble plus optional structure."""
    pairs = [(k, Fraction(d)) for k, d in zip(("n1", "n2", "n3"), space.dims)]
    if bundle is not None:
        pairs.append(("l1", value_of_block(bundle.l1)))
        pairs.append(("l2", value_of_block(bundle.l2)))
        if bundle.sigma is not None:
            pairs.append(("sigma", value_of_block(bundle.sigma)))
    if constraints is not None:
        pairs.append(
            ("constraints", tuple(tuple(map(as_scalar, row)) for row in constraints))
        )
    return Block("double", name, _canonical("double", pairs))


def block_from_special_bundle(name: str, bundle: TrivialBispecial, omega=None) -> Block:
    pairs = [("m", Fraction(bundle.base_dim)), ("n", Fraction(bundle.n))]
    if omega is not None:
        pairs.append(("omega", value_of_block(omega.coeffs)))
    return Block("special_bundle", name, _canonical("special_bundle", pairs))


def block_from_graded(name: str, a: NAffine) -> Block:
    n = a.space.n
    pairs = [("n", Fraction(n))]
    for deg in a.space.degrees():
        pairs.append(("dim_" + "".join(map(str, deg)), Fraction(a.space.dim_of(deg))))
    for i, l in enumerate(a.functionals):
        bits = "".join("1" if k == i else "0" for k in range(n))
        pairs.append((f"l_{bits}", value_of_block(l)))
    if a.sigma is not None:
        pairs.append(("sigma", value_of_block(a.sigma)))
    return Block("graded", name, _canonical("graded", pairs))


def block_from_atlas(name: str, atlas: Atlas) -> Block:
    pairs = [
        ("base_dim", Fraction(atlas.base_dim)),
        ("fiber_dims", tuple(Fraction(d) for d in atlas.fiber_dims)),
        ("charts", tuple(atlas.charts)),
    ]
    for src, dst, t in atlas.edges:
        stem = f"{src}.{dst}."
        blocks = [("base_p", t.base_map.P), ("base_q", t.base_map.q)]
        blocks += [(name, getattr(t, name)) for name, _ in BLOCKS]
        pairs += [(stem + key, value_of_block(block)) for key, block in blocks]
        pairs.append((stem + "samples", tuple(value_of_block(s) for s in t.samples)))
    return Block("atlas", name, _canonical("atlas", pairs))


# ---------------------------------------------------------------------------
# Elaboration into computational objects


@dataclass(frozen=True)
class DoubleBlock:
    """A decomposed double space, optionally with affine structure and
    level-set constraint rows."""

    space: DecomposedDouble
    bundle: Optional[DoubleAffine]
    constraints: Optional[Tuple[Tuple[Fraction, ...], ...]]


@dataclass(frozen=True)
class SpecialBundleBlock:
    bundle: TrivialBispecial
    omega: Optional[OneForm]


class _Fields:
    def __init__(self, block: Block):
        self.block = block
        self.map = block.field_map()

    def ctx(self, key: str) -> str:
        return f"{self.block.kind} block '{self.block.name}', field '{key}'"

    def need(self, key: str) -> Value:
        if key not in self.map:
            raise DaffineError(
                f"{self.block.kind} block '{self.block.name}' is missing field '{key}'"
            )
        return self.map[key]

    def opt(self, key: str) -> Optional[Value]:
        return self.map.get(key)


def _as_int(v: Value, ctx: str) -> int:
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    raise DaffineError(f"{ctx}: expected an integer, got {format_value(v)}")


MAX_DIM = 100
"""Largest dimension a ``double`` (``n1``, ``n2``, ``n3``), a
``special_bundle`` (``m``, ``n``) or a ``graded`` component may declare.  No
entry of the document has to match these sizes, and the suites draw points
of them, so a dimension one above is refused when the document is
elaborated.  The sizes of a ``space`` or an ``atlas`` are checked against
the entries they hold."""


def _as_dim(v: Value, ctx: str) -> int:
    n = _as_int(v, ctx)
    if n > MAX_DIM:
        raise DaffineError(f"{ctx}: a dimension is at most {MAX_DIM}, got {n}")
    return n


def _as_frac(v: Value, ctx: str) -> Fraction:
    if isinstance(v, Fraction):
        return v
    raise DaffineError(f"{ctx}: expected a rational, got {format_value(v)}")


def _as_vec(v: Value, ctx: str) -> Vec:
    if not isinstance(v, tuple):
        raise DaffineError(f"{ctx}: expected a vector")
    return Vec(_as_frac(x, ctx) for x in v)


def _as_rows(v: Value, ctx: str) -> Tuple[Tuple[Fraction, ...], ...]:
    if not isinstance(v, tuple):
        raise DaffineError(f"{ctx}: expected a list of rows")
    out = []
    for row in v:
        if not isinstance(row, tuple):
            raise DaffineError(f"{ctx}: expected rows of rationals")
        out.append(tuple(_as_frac(x, ctx) for x in row))
    return tuple(out)


def _as_poly(v: Value, m: int, ctx: str) -> Poly:
    if isinstance(v, Fraction):
        return Poly.const(m, v)
    if isinstance(v, PolyValue):
        try:
            return v.to_poly(m)
        except DimMismatch as e:
            raise DaffineError(f"{ctx}: {e}") from None
    raise DaffineError(f"{ctx}: expected a polynomial over x1..x{m}")


_SHAPES = {
    Vec: "a vector of polynomials",
    Mat: "a matrix of polynomials",
    Bilinear: "layers of matrices",
}


def _as_poly_block(kind: type, v: Value, m: int, ctx: str):
    """A transition block of this kind; its nesting is checked before any entry."""
    try:
        # the shape checks, nesting and then ragged rows, are the only
        # DimMismatch here: _as_poly raises DaffineError
        return kind(map_entries(lambda x: _as_poly(x, m, ctx), kind, v))
    except DimMismatch:
        raise DaffineError(f"{ctx}: expected {_SHAPES[kind]}") from None


@contextmanager
def _prefixed(ctx: str):
    """Re-raise a library error with the block (or edge) it came from."""
    try:
        yield
    except DaffineError as exc:
        raise type(exc)(f"{ctx}: {exc}") from None


def _elaborate_space(block: Block) -> NAffine:
    """The order-one bundle {alpha = 1} on a hull of one component, marked by
    the model vector v when there is one."""
    f = _Fields(block)
    hull_dim = _as_int(f.need("hull_dim"), f.ctx("hull_dim"))
    alpha = _as_vec(f.need("alpha"), f.ctx("alpha"))
    ctx = f"space block '{block.name}'"
    with _prefixed(ctx):
        space = GradedSpace(1, {(1,): hull_dim})
    v = f.opt("v")
    v = None if v is None else _as_vec(v, f.ctx("v"))
    with _prefixed(ctx):
        return NAffine(space, (alpha,), v)


def _elaborate_double(block: Block) -> DoubleBlock:
    f = _Fields(block)
    dims = tuple(_as_dim(f.need(k), f.ctx(k)) for k in ("n1", "n2", "n3"))
    space = DecomposedDouble(*dims)
    l1, l2 = f.opt("l1"), f.opt("l2")
    if (l1 is None) != (l2 is None):
        raise DaffineError(
            f"double block '{block.name}' needs both l1 and l2 or neither"
        )
    bundle = None
    if l1 is not None:
        sigma = f.opt("sigma")
        bundle = DoubleAffine(
            space,
            _as_vec(l1, f.ctx("l1")),
            _as_vec(l2, f.ctx("l2")),
            None if sigma is None else _as_vec(sigma, f.ctx("sigma")),
        )
    elif f.opt("sigma") is not None:
        raise DaffineError(f"double block '{block.name}' has sigma but no l1/l2")
    constraints = f.opt("constraints")
    return DoubleBlock(
        space,
        bundle,
        None if constraints is None else _as_rows(constraints, f.ctx("constraints")),
    )


def _elaborate_special_bundle(block: Block) -> SpecialBundleBlock:
    f = _Fields(block)
    m = _as_dim(f.need("m"), f.ctx("m"))
    n = _as_dim(f.need("n"), f.ctx("n"))
    omega = f.opt("omega")
    return SpecialBundleBlock(
        TrivialBispecial(m, n),
        None if omega is None else OneForm(_as_vec(omega, f.ctx("omega"))),
    )


def _elaborate_graded(block: Block) -> NAffine:
    f = _Fields(block)
    n = _as_int(f.need("n"), f.ctx("n"))
    dims = {}
    funcs: Dict[int, Vec] = {}
    sigma = None
    for key, value in block.fields:
        if key.startswith("dim_"):
            bits = key[4:]
            if len(bits) != n:
                raise DaffineError(f"{f.ctx(key)}: bitstring length must equal n={n}")
            dims[tuple(int(b) for b in bits)] = _as_dim(value, f.ctx(key))
        elif key.startswith("l_"):
            bits = key[2:]
            if len(bits) != n:
                raise DaffineError(f"{f.ctx(key)}: bitstring length must equal n={n}")
            funcs[bits.index("1")] = _as_vec(value, f.ctx(key))
        elif key == "sigma":
            sigma = _as_vec(value, f.ctx(key))
    space = GradedSpace(n, dims)
    missing = [i for i in range(n) if i not in funcs]
    if missing:
        raise DaffineError(
            f"graded block '{block.name}' is missing functional l_"
            + "".join("1" if k == missing[0] else "0" for k in range(n))
        )
    return NAffine(space, tuple(funcs[i] for i in range(n)), sigma)


def _elaborate_atlas(block: Block) -> Atlas:
    f = _Fields(block)
    m = _as_int(f.need("base_dim"), f.ctx("base_dim"))
    fiber_value = f.need("fiber_dims")
    if not isinstance(fiber_value, tuple) or len(fiber_value) != 3:
        raise DaffineError(f"{f.ctx('fiber_dims')}: expected three dimensions")
    n1, n2, n3 = (_as_int(x, f.ctx("fiber_dims")) for x in fiber_value)
    charts_value = f.need("charts")
    if not isinstance(charts_value, tuple) or not all(
        isinstance(c, str) for c in charts_value
    ):
        raise DaffineError(f"{f.ctx('charts')}: expected chart names")
    charts = tuple(charts_value)

    grouped: Dict[Tuple[str, str], Dict[str, Value]] = {}
    for key, value in block.fields:
        if "." not in key:
            continue
        src, dst, field = key.split(".")
        for c in (src, dst):
            if c not in charts:
                raise UnresolvedReference(
                    f"atlas block '{block.name}' edge {src}->{dst} uses undeclared chart '{c}'"
                )
        grouped.setdefault((src, dst), {})[field] = value

    edges = []
    for (src, dst), data in sorted(grouped.items()):
        ctx = f"atlas block '{block.name}' edge {src}->{dst}"
        for field in _EDGE_FIELDS:
            if field not in data and field != "samples":
                raise DaffineError(f"{ctx} is missing field '{field}'")
        field_ctx = lambda key: f"{ctx}, field '{key}'"
        try:
            base_p = Mat(_as_rows(data["base_p"], field_ctx("base_p")))
        except DimMismatch:
            raise DaffineError(f"{field_ctx('base_p')}: expected a matrix of rationals") from None
        base_q = _as_vec(data["base_q"], field_ctx("base_q"))
        samples = tuple(
            Vec(row) for row in _as_rows(data.get("samples", ()), field_ctx("samples"))
        )
        # Before any coefficient is lifted into m variables.
        if base_p.nrows != m or base_p.ncols != m or base_q.dim != m:
            raise DaffineError(f"{ctx}: base_p must be {m}x{m} and base_q must have {m} entries")
        blocks = {name: _as_poly_block(kind, data[name], m, field_ctx(name)) for name, kind in BLOCKS}
        with _prefixed(ctx):
            t = TransitionData(base_map=BaseMap(base_p, base_q), **blocks, samples=samples)
        edges.append((src, dst, t))
    return Atlas(m, (n1, n2, n3), charts, tuple(edges))


_ELABORATORS = {
    "space": _elaborate_space,
    "double": _elaborate_double,
    "atlas": _elaborate_atlas,
    "special_bundle": _elaborate_special_bundle,
    "graded": _elaborate_graded,
}


def elaborate(doc: Document) -> Dict[str, object]:
    """Build the computational object described by every block."""
    return {b.name: _ELABORATORS[b.kind](b) for b in doc.blocks}
