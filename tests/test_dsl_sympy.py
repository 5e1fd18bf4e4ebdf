"""Differential test of the ``.daff`` expression parser against sympy.

Each drawn expression is built twice from one draw: as ``.daff`` text and as
a sympy expression.  The two differ only in syntax: ``.daff`` reads
``a^b^c`` as ``a^(b*c)`` and binds unary minus tighter than ``*`` but looser
than ``^``, so the sympy side is built structurally rather than by parsing
the text.  Draws stay within the parser's bounds; the few whose expansion a
bound refuses are rejected, after checking that a term bound refused them.
"""

from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, reject, settings, strategies as st

from daffine.dsl import (
    MAX_TERM_PRODUCTS,
    MAX_TERMS,
    PolyValue,
    parse,
    print_document,
)
from daffine.errors import ParseError
from daffine.exact import Poly

sympy = pytest.importorskip("sympy")

NVARS = 3
SYMBOLS = sympy.symbols(f"x1:{NVARS + 1}")
TERM_BOUNDS = {
    (f"a product of at most {MAX_TERMS} terms",),
    (f"a power of at most {MAX_TERMS} terms",),
    (f"a power of at most {MAX_TERM_PRODUCTS} term products",),
}


@st.composite
def factor(draw, depth):
    """``-...-base^a^b``: a rational, a variable or a parenthesised expression."""
    kinds = ["integer", "rational", "variable"] + (["parens"] * 2 if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "integer":
        n = draw(st.integers(0, 12))
        text, expr = str(n), sympy.Integer(n)
    elif kind == "rational":
        p, q = draw(st.integers(0, 12)), draw(st.integers(1, 12))
        text, expr = f"{p}/{q}", sympy.Rational(p, q)
    elif kind == "variable":
        i = draw(st.integers(0, NVARS - 1))
        text, expr = f"x{i + 1}", SYMBOLS[i]
    else:
        inner, expr = draw(expression(depth - 1))
        text = f"({inner})"
    powers = draw(st.lists(st.integers(0, 3 if kind != "parens" else 2), max_size=2))
    minus = draw(st.integers(0, 3))
    text = "-" * minus + text + "".join(f"^{k}" for k in powers)
    return text, (-1) ** minus * expr ** prod(powers)


@st.composite
def expression(draw, depth=2):
    """A sum of products of factors, nested up to ``depth`` parentheses."""
    text, total = "", sympy.Integer(0)
    for i in range(draw(st.integers(1, 3))):
        factors = draw(st.lists(factor(depth), min_size=1, max_size=3))
        term = draw(st.sampled_from(["*", " * "])).join(t for t, _ in factors)
        product = sympy.Mul(*(e for _, e in factors))
        negate = draw(st.booleans())
        text += (" - " if negate else " + " if i else "") + term
        total += -product if negate else product
    return text, total


def expanded(expr) -> Poly:
    terms = sympy.Poly(sympy.expand(expr), *SYMBOLS, domain="QQ").as_dict()
    return Poly(NVARS, {exp: F(int(c.p), int(c.q)) for exp, c in terms.items()})


@settings(deadline=None, max_examples=200)
@given(expression(), expression())
def test_parsed_expressions_match_sympy_and_round_trip(first, second):
    text = f"double A {{ n1 = {first[0]}; l1 = [{second[0]}, 1]; }}"
    try:
        doc = parse(text)
    except ParseError as err:
        assert err.expected in TERM_BOUNDS, text
        reject()
    fields = doc.blocks[0].field_map()
    for value, (_, expr) in zip((fields["n1"], fields["l1"][0]), (first, second)):
        got = value.to_poly(NVARS) if isinstance(value, PolyValue) else Poly.const(NVARS, value)
        assert got == expanded(expr), text
    assert parse(print_document(doc)) == doc
