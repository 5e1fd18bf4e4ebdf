"""Parsing, canonical printing, and elaboration of bundle documents."""

import random
import re
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from daffine import cli, dsl
from daffine.atlas import Atlas, first_difference
from daffine.dsl import (
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_TERM_PRODUCTS,
    MAX_TERMS,
    MAX_VARIABLE,
    Document,
    DoubleBlock,
    PolyValue,
    SpecialBundleBlock,
    block_from_atlas,
    block_from_double,
    block_from_graded,
    block_from_special_bundle,
    elaborate,
    parse,
    print_document,
)
from daffine.errors import (
    DaffineError,
    DimMismatch,
    DuplicateName,
    ParseError,
    UnresolvedReference,
)
from daffine.exact import Poly, Vec
from daffine.naffine import GradedSpace, NAffine
from daffine.phase import OneForm, TrivialBispecial
from daffine.randgen import rand_double_affine, rand_naffine, three_chart_atlas

FIXTURES = Path(__file__).parent / "fixtures"

MINIMAL = "double A { n1=1; n2=1; n3=1; l1=[1]; l2=[1]; sigma=[1]; }"


# ---------------------------------------------------------------------------
# parsing and diagnostics
# ---------------------------------------------------------------------------


def test_minimal_document_parses_and_elaborates():
    objs = elaborate(parse(MINIMAL))
    block = objs["A"]
    assert isinstance(block, DoubleBlock)
    assert block.space.dims == (1, 1, 1)
    assert block.bundle is not None and block.bundle.is_special
    assert block.bundle.l1 == Vec.of(1)
    assert block.bundle.sigma == Vec.of(1)


def test_comments_and_whitespace_are_ignored():
    text = "# leading\ndouble A {\n  n1=1; # trailing\n  n2=1; n3=1;\n}\n"
    doc = parse(text)
    assert doc.blocks[0].field_map()["n1"] == F(1)


def test_parse_error_carries_position_and_expectations():
    with pytest.raises(ParseError) as err:
        parse("double A { n1 = ; }")
    e = err.value
    assert (e.line, e.col) == (1, 17)
    assert "a rational" in e.expected
    assert e.found == ";"
    assert "line 1, col 17" in str(e)


def test_unknown_block_kind_is_rejected():
    with pytest.raises(ParseError) as err:
        parse("module A { }")
    assert "double" in err.value.expected
    assert err.value.found == "module"


def test_missing_semicolon_points_at_the_next_token():
    with pytest.raises(ParseError) as err:
        parse("double A { n1 = 1 n2 = 1; }")
    assert err.value.expected == ("';'",)
    assert err.value.found == "n2"


def test_unterminated_block_reports_end_of_input():
    with pytest.raises(ParseError) as err:
        parse("double A { n1 = 1;")
    assert err.value.found == "end of input"


def test_stray_character_is_a_tokenizer_error():
    with pytest.raises(ParseError) as err:
        parse("double A { n1 = @; }")
    assert (err.value.line, err.value.col) == (1, 17)


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("double A {\n  n1 = 1; # note\n  n2 = ; }", 3, 8),
        ("double A {\r\n\tn1 = @; }", 2, 7),
        ("double A { n1 = 1; # no newline at the end", 1, 20),
        ("double A { n1 = 1;\n# closing comment\n", 3, 1),
    ],
)
def test_error_positions_count_characters_on_the_line(text, line, col):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (line, col)


@pytest.mark.parametrize(
    "text, bad",
    [("double A { n1=²; }", "²"), ("double A { n1=1²; }", "²"), ("double A { n1=½; }", "½")],
)
def test_digit_that_is_not_decimal_is_a_tokenizer_error(text, bad):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (1, text.index(bad) + 1)
    assert err.value.expected == ("a token",)
    assert err.value.found == repr(bad)


def test_unicode_decimal_digits_and_letters_are_accepted():
    doc = parse("double é { n1 = ١٢; n2 = x²; }")
    assert doc.blocks[0].name == "é"
    assert doc.blocks[0].field_map() == {"n1": F(12), "n2": "x²"}


@pytest.mark.parametrize(
    "value, found", [("1/0", "0"), ("-1/0", "0"), ("2/00 * x1", "00"), ("x1 + 3/0", "0")]
)
def test_zero_denominator_is_a_parse_error(value, found):
    text = f"double A {{ n1=1; n2=1; n3=1; l1=[{value}]; l2=[1]; }}"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.expected == ("a nonzero denominator",)
    assert err.value.found == found
    assert (err.value.line, err.value.col) == (1, text.index("/0") + 2)


@pytest.mark.parametrize("bracket", ["()", "[]"])
def test_nesting_is_bounded(bracket):
    def doc(depth):
        return f"double A {{ n1 = {bracket[0] * depth}1{bracket[1] * depth}; }}"

    expected = F(1)
    for _ in range(MAX_NESTING if bracket == "[]" else 0):
        expected = (expected,)
    assert parse(doc(MAX_NESTING)).blocks[0].field_map()["n1"] == expected
    for depth in (MAX_NESTING + 1, 3000):
        text = doc(depth)
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.expected == (f"at most {MAX_NESTING} levels of nesting",)
        assert err.value.found == bracket[0]
        assert err.value.col == text.index(bracket[0]) + MAX_NESTING + 1


@pytest.mark.parametrize(
    "power, found",
    [
        ("x1^999999999", "999999999"),
        (f"x1^{MAX_EXPONENT + 1}", str(MAX_EXPONENT + 1)),
        (f"(x1 + 1)^{MAX_EXPONENT + 1}", str(MAX_EXPONENT + 1)),
        ("x1^10^20", "20"),
    ],
)
def test_exponent_above_the_bound_is_a_parse_error(power, found):
    text = f"double A {{ n1 = {power}; }}"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.expected == (f"an exponent of at most {MAX_EXPONENT}",)
    assert err.value.found == found
    assert err.value.col == text.rindex(found) + 1


def test_powers_up_to_the_bound_expand_exactly():
    fm = parse(
        f"double A {{ n1 = x1^{MAX_EXPONENT}; n2 = (x1 + 1)^3 * x2^2^2; n3 = (2*x1)^0 - 0^0; }}"
    ).blocks[0].field_map()
    assert fm["n1"].to_poly(1) == Poly.variable(1, 0) ** MAX_EXPONENT
    x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
    assert fm["n2"].to_poly(2) == (x1 + Poly.const(2, 1)) ** 3 * x2**4
    assert fm["n3"] == F(0)


def _sum(t):
    return "(" + " + ".join(f"x{i + 1}" for i in range(t)) + ")"


@pytest.mark.parametrize(
    "value, op, what",
    [
        (_sum(6) + "^100", "^", "power"),
        (_sum(6) + "^15", "^", "power"),
        (_sum(63) + "^2", "^", "power"),  # C(64, 2) = 2016 terms
        (_sum(41) + " * " + _sum(50), "*", "product"),  # 2050 terms
        ("2 * " + _sum(50) + " * " + _sum(41), "*", "product"),  # the second '*' is the one past the bound
    ],
)
def test_expansion_above_the_term_bound_is_a_parse_error(value, op, what):
    text = f"double A {{ n1 = {value}; }}"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.expected == (f"a {what} of at most {MAX_TERMS} terms",)
    assert err.value.found == op
    assert err.value.col == text.rindex(op) + 1


def test_expansions_up_to_the_term_bound_are_exact():
    def total(nvars, t):
        return sum((Poly.variable(nvars, i) for i in range(1, t)), Poly.variable(nvars, 0))

    fm = parse(
        f"double A {{ n1 = {_sum(62)}^2; n2 = {_sum(40)} * {_sum(50)}; n3 = {_sum(2)}^{MAX_EXPONENT}; }}"
    ).blocks[0].field_map()
    assert fm["n1"].to_poly(62) == total(62, 62) ** 2  # C(63, 2) = 1953 terms
    assert fm["n2"].to_poly(50) == total(50, 40) * total(50, 50)  # 2000 products
    assert fm["n3"].to_poly(2) == total(2, 2) ** MAX_EXPONENT


def _no_expansion(*_):
    raise AssertionError("expanded before the bound was checked")


@pytest.mark.parametrize(
    "t, k",
    [
        (3, 61),  # 1891 terms from 61 * C(63, 61) = 119 133 term products
        (4, 20),  # 1771 terms from 35 420
        (6, 8),  # 1287 terms from 10 296
        (3, 27),  # 406 terms from 10 962
    ],
)
def test_power_above_the_work_bound_is_a_parse_error(t, k, monkeypatch):
    for op in ("__pow__", "__mul__"):  # refused before any expansion
        monkeypatch.setattr(Poly, op, _no_expansion)
    text = f"double A {{ n1 = {_sum(t)}^{k}; }}"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.expected == (f"a power of at most {MAX_TERM_PRODUCTS} term products",)
    assert err.value.found == "^"
    assert err.value.col == text.rindex("^") + 1


def test_powers_up_to_the_work_bound_expand_exactly():
    x = [Poly.variable(3, i) for i in range(3)]
    fm = parse(f"double A {{ n1 = {_sum(3)}^26; n2 = {_sum(2)}^{MAX_EXPONENT}; }}").blocks[0].field_map()
    assert fm["n1"].to_poly(3) == (x[0] + x[1] + x[2]) ** 26  # 26 * C(28, 26) = 9828 term products
    assert fm["n2"].to_poly(3) == (x[0] + x[1]) ** MAX_EXPONENT  # 10 100, the bound


def test_term_bounds_count_terms_after_cancellation():
    # x41 - x41 and x3 - x3 cancel inside their parentheses, so these factors
    # count 40 and 2 terms: 40 * 50 = 2000 products, a square of 62 terms.
    fm = parse(
        f"double A {{ n1 = (x41 + {_sum(41)[1:-1]} - x41 - x41) * {_sum(50)};"
        f" n2 = (x1 + x2 + x3 - x3)^61; }}"
    ).blocks[0].field_map()
    x = [Poly.variable(50, i) for i in range(50)]
    assert fm["n1"].to_poly(50) == sum(x[1:40], x[0]) * sum(x[1:], x[0])
    assert fm["n2"].to_poly(2) == (Poly.variable(2, 0) + Poly.variable(2, 1)) ** 61


def test_variables_up_to_the_bound_parse():
    fm = parse(f"double A {{ n1 = x1 * x{MAX_VARIABLE}^2; n2 = x{MAX_VARIABLE}; }}").blocks[0].field_map()
    assert fm["n1"].poly.nvars == fm["n2"].poly.nvars == MAX_VARIABLE
    assert fm["n1"].to_poly(MAX_VARIABLE) == Poly.variable(MAX_VARIABLE, 0) * Poly.variable(MAX_VARIABLE, 99) ** 2


@pytest.mark.parametrize("var", [f"x{MAX_VARIABLE + 1}", "x999999999", "x" + "1" * 5000])
def test_variable_above_the_bound_is_a_parse_error(var):
    text = f"double A {{\n  n1 = 1;\n  l1 = [2*x1 - 3*{var}^2];\n}}"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (3, 18)
    assert err.value.expected == (f"a variable x<k> with k at most {MAX_VARIABLE}",)
    assert err.value.found == var


@pytest.mark.parametrize("name", ["x999999999", "x" + "1" * 5000])
def test_names_that_look_like_variables_are_not_bounded(name):
    doc = parse(f"double {name} {{ n1 = 1; n2 = 1; n3 = 1; l1 = [x1]; l2 = [1]; }}")
    assert doc.blocks[0].name == name
    assert doc.blocks[0].field_map()["l1"][0].poly == Poly.variable(1, 0)
    with pytest.raises(ParseError) as err:
        parse(f"double A {{ n1 = 1; {name} = 1; }}")
    assert err.value.expected == ("n1", "n2", "n3", "l1", "l2", "sigma", "constraints")
    assert err.value.found == name
    with pytest.raises(UnresolvedReference, match=f"uses undeclared chart '{name}'"):
        elaborate(parse(f"atlas A {{ base_dim = 1; fiber_dims = [1, 1, 1]; charts = [u]; {name}.u.alpha0 = [x1]; }}"))


@pytest.mark.parametrize("power", [f"(x1 + x{MAX_VARIABLE})^{MAX_EXPONENT}", "(x1+x2+x3)^26"])
def test_largest_powers_parse_well_under_a_second(power):
    start = time.perf_counter()
    parse(f"double A {{ n1 = {power}; }}")
    assert time.perf_counter() - start < 1.0


def test_documents_without_parentheses_parse_without_poly_products(monkeypatch):
    atlas = three_chart_atlas(random.Random(3), m=2, dims=(1, 2, 1))
    texts = [p.read_text() for p in sorted(FIXTURES.glob("*.daff")) if p.name != "parse_error.daff"]
    texts.append(print_document(Document((block_from_atlas("T", atlas),))))
    calls = []
    for op in ("__mul__", "__pow__"):
        real = getattr(Poly, op)
        monkeypatch.setattr(Poly, op, lambda *a, _op=op, _real=real: calls.append(_op) or _real(*a))
    for text in texts:
        parse(text)
    assert calls == []
    parse("double A { n1 = (x1 + 1)^2 * (x2 - 1); }")  # the counter sees parenthesised factors
    assert set(calls) == {"__mul__", "__pow__"}


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() converts any length"
)
def test_number_longer_than_int_converts_is_a_parse_error():
    text = "double A { n1 = 1; n2 = " + "7" * (sys.get_int_max_str_digits() + 1) + "; }"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.expected == ("a number with fewer digits",)
    assert (err.value.line, err.value.col) == (1, text.index("7") + 1)


def test_empty_vector_for_a_functional_names_the_field():
    with pytest.raises(ParseError) as err:
        parse("double A { n1=1; n2=1; n3=1; l1=[]; l2=[1]; }")
    assert "l1" in str(err.value)
    assert err.value.found == "[]"


def test_empty_lists_are_fine_where_content_is_optional():
    doc = parse("atlas A { base_dim=1; fiber_dims=[1,1,1]; charts=[u]; }")
    assert doc.blocks[0].field_map()["charts"] == ("u",)
    atlas = elaborate(doc)["A"]
    assert atlas.edges == ()


def test_duplicate_field_is_rejected():
    with pytest.raises(ParseError) as err:
        parse("double A { n1=1; n1=2; }")
    assert "other than 'n1'" in str(err.value)


def test_duplicate_block_name_is_rejected():
    with pytest.raises(DuplicateName):
        parse("double A { n1=1; n2=1; n3=1; } space A { hull_dim=2; alpha=[0,1]; }")


def test_unknown_field_key_is_rejected():
    with pytest.raises(ParseError) as err:
        parse("double A { n4 = 1; }")
    assert "n1" in err.value.expected and err.value.found == "n4"


def test_bare_ident_value_must_end_the_field():
    with pytest.raises(ParseError) as err:
        parse("atlas A { charts = [u w]; }")
    assert err.value.expected == ("';'", "','", "']'")
    assert err.value.found == "w"


def test_rationals_are_normalized():
    doc = parse("double A { n1=1; n2=1; n3=1; l1=[2/4]; l2=[-4/2]; }")
    fm = doc.blocks[0].field_map()
    assert fm["l1"] == (F(1, 2),)
    assert fm["l2"] == (F(-2),)
    assert "1/2" in print_document(doc) and "-2" in print_document(doc)


# ---------------------------------------------------------------------------
# polynomial values
# ---------------------------------------------------------------------------


def test_polynomial_precedence_and_powers():
    doc = parse("atlas A { base_dim=2; fiber_dims=[1,1,1]; charts=[u];"
                " u.u.gamma00 = [1 + 2*x1*x2^2 - x1]; u.u.base_p=[[1,0],[0,1]];"
                " u.u.base_q=[0,0]; u.u.alpha0=[0]; u.u.alpha=[[1]];"
                " u.u.beta0=[0]; u.u.beta=[[1]]; u.u.gamma_y=[[0]];"
                " u.u.gamma_z=[[0]]; u.u.gamma_yz=[[[0]]]; u.u.sigma=[[1]]; }")
    val = doc.blocks[0].field_map()["u.u.gamma00"][0]
    assert isinstance(val, PolyValue)
    assert val.to_poly(2) == Poly(2, {(0, 0): F(1), (1, 2): F(2), (1, 0): F(-1)})


def test_constant_expressions_collapse_to_rationals():
    doc = parse("double A { n1=1; n2=1; n3=1; l1=[x1 - x1 + 3/6]; l2=[(2 + 1)*2]; }")
    fm = doc.blocks[0].field_map()
    assert fm["l1"] == (F(1, 2),)
    assert fm["l2"] == (F(6),)


def test_polynomial_printing_is_canonical():
    src = "double A { n1=1; n2=1; n3=1; l1=[x2 + x1^2 - 1 + 2*x1^2]; l2=[1]; }"
    text = print_document(parse(src))
    assert "l1 = [3*x1^2 + x2 - 1];" in text


def test_unary_minus_and_nested_parens():
    doc = parse("double A { n1=1; n2=1; n3=1; l1=[-(-(x1))]; l2=[- - 2]; }")
    fm = doc.blocks[0].field_map()
    assert fm["l1"][0].to_poly(1) == Poly.variable(1, 0)
    assert fm["l2"] == (F(2),)


def test_fractional_exponent_is_rejected():
    with pytest.raises(ParseError) as err:
        parse("double A { n1=1; l1=[x1^(1/2)]; }")
    assert err.value.expected == ("an integer exponent",)


def test_missing_denominator_is_rejected():
    with pytest.raises(ParseError) as err:
        parse("double A { n1 = 1/; }")
    assert err.value.expected == ("a denominator",)


# ---------------------------------------------------------------------------
# canonical field order and round trips
# ---------------------------------------------------------------------------


def test_fields_are_sorted_canonically():
    doc = parse("double A { sigma=[1]; n3=1; l2=[1]; n1=1; l1=[1]; n2=1; }")
    assert [k for k, _ in doc.blocks[0].fields] == ["n1", "n2", "n3", "l1", "l2", "sigma"]


def test_graded_fields_sort_dims_then_functionals():
    doc = parse(
        "graded G { sigma=[1]; l_01=[1]; dim_11=1; l_10=[1]; n=2; dim_01=1; dim_10=1; }"
    )
    assert [k for k, _ in doc.blocks[0].fields] == [
        "n", "dim_01", "dim_10", "dim_11", "l_10", "l_01", "sigma",
    ]


def test_atlas_edges_group_by_edge_in_field_order():
    text = ("atlas A { charts=[u, w]; base_dim=1; fiber_dims=[1,1,1];"
            " w.u.base_q=[0]; u.w.base_q=[0]; u.w.base_p=[[1]]; w.u.base_p=[[1]]; }")
    keys = [k for k, _ in parse(text).blocks[0].fields]
    assert keys == [
        "base_dim", "fiber_dims", "charts",
        "u.w.base_p", "u.w.base_q", "w.u.base_p", "w.u.base_q",
    ]


def test_print_then_parse_is_identity():
    src = ("double A { sigma=[2/4]; n3=1; l2=[1]; n1=2; l1=[1, x1 - x1 - 3]; n2=1; }"
           " graded G { n=1; dim_1=2; l_1=[1, 1]; }")
    doc = parse(src)
    text = print_document(doc)
    assert parse(text) == doc
    assert print_document(parse(text)) == text


# Fixtures that parse but do not elaborate, with the error each raises.
ELABORATION_ERRORS = {
    "atlas_bad_block.daff": (
        DaffineError,
        "atlas block 'flat' edge a->b, field 'gamma_yz': expected layers of matrices",
    ),
    "space_bad_block.daff": (
        DimMismatch,
        "space block 'short': functional 1 must live on the degree (1,) component",
    ),
}


@pytest.mark.parametrize(
    "path", sorted(p.name for p in FIXTURES.glob("*.daff") if p.name != "parse_error.daff")
)
def test_fixture_round_trips(path):
    doc = parse((FIXTURES / path).read_text())
    assert parse(print_document(doc)) == doc
    if path in ELABORATION_ERRORS:
        error, message = ELABORATION_ERRORS[path]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            elaborate(doc)
    else:
        elaborate(doc)


def test_parse_error_fixture_names_the_field():
    with pytest.raises(ParseError) as err:
        parse((FIXTURES / "parse_error.daff").read_text())
    assert "l1" in str(err.value)


# ---------------------------------------------------------------------------
# elaboration
# ---------------------------------------------------------------------------


def test_space_block_builds_a_bispecial_presentation():
    doc = parse("space S { hull_dim=3; alpha=[0,0,1]; v=[1,0,0]; }")
    rep = elaborate(doc)["S"]
    assert rep == NAffine(GradedSpace(1, {(1,): 3}), (Vec.of(0, 0, 1),), Vec.of(1, 0, 0))


def test_double_needs_both_functionals_or_neither():
    with pytest.raises(DaffineError, match="both l1 and l2"):
        elaborate(parse("double A { n1=1; n2=1; n3=1; l1=[1]; }"))


def test_sigma_without_functionals_is_rejected():
    with pytest.raises(DaffineError, match="sigma but no l1/l2"):
        elaborate(parse("double A { n1=1; n2=1; n3=1; sigma=[1]; }"))


def test_constraint_rows_are_exact_rationals():
    doc = parse("double A { n1=1; n2=1; n3=1; constraints=[[0, 1/3, 1, 0, 1, 1]]; }")
    block = elaborate(doc)["A"]
    assert block.constraints == ((F(0), F(1, 3), F(1), F(0), F(1), F(1)),)


def test_special_bundle_with_and_without_covector():
    doc = parse("special_bundle E { m=1; n=2; omega=[5]; } special_bundle F { m=0; n=1; }")
    objs = elaborate(doc)
    assert isinstance(objs["E"], SpecialBundleBlock)
    assert objs["E"].bundle == TrivialBispecial(1, 2)
    assert objs["E"].omega == OneForm(Vec.of(5))
    assert objs["F"].omega is None


def test_graded_block_builds_a_marked_bundle():
    doc = parse(
        "graded G { n=2; dim_01=1; dim_10=2; dim_11=2; l_10=[1,1]; l_01=[1]; sigma=[2,-2]; }"
    )
    a = elaborate(doc)["G"]
    assert isinstance(a, NAffine)
    assert a.space.dim_of((1, 0)) == 2
    assert a.functionals[0] == Vec.of(1, 1) and a.functionals[1] == Vec.of(1)
    assert a.sigma == Vec.of(2, -2)


def test_graded_missing_functional_is_named():
    with pytest.raises(DaffineError, match="l_010"):
        elaborate(parse(
            "graded G { n=3; dim_001=1; dim_010=1; dim_100=1; dim_111=1;"
            " l_100=[1]; l_001=[1]; }"
        ))


def test_graded_bitstring_length_must_match_order():
    with pytest.raises(DaffineError, match="length must equal n=2"):
        elaborate(parse("graded G { n=2; dim_011=1; l_10=[1]; l_01=[1]; }"))


def test_atlas_undeclared_chart_is_unresolved():
    with pytest.raises(UnresolvedReference, match="undeclared chart 'w'"):
        elaborate(parse(
            "atlas A { base_dim=1; fiber_dims=[1,1,1]; charts=[u]; w.u.base_q=[0]; }"
        ))


def test_atlas_missing_edge_field_is_reported():
    with pytest.raises(DaffineError, match="missing field 'alpha'"):
        elaborate(parse(
            "atlas A { base_dim=1; fiber_dims=[1,1,1]; charts=[u, w];"
            " u.w.base_p=[[1]]; u.w.base_q=[0]; u.w.alpha0=[0]; }"
        ))


def test_polynomial_variable_beyond_base_dim_is_rejected():
    with pytest.raises(DaffineError, match="x3"):
        elaborate(parse(
            "atlas A { base_dim=2; fiber_dims=[1,1,1]; charts=[u];"
            " u.u.base_p=[[1,0],[0,1]]; u.u.base_q=[0,0]; u.u.alpha0=[x3];"
            " u.u.alpha=[[1]]; u.u.beta0=[0]; u.u.beta=[[1]]; u.u.gamma00=[0];"
            " u.u.gamma_y=[[0]]; u.u.gamma_z=[[0]]; u.u.gamma_yz=[[[0]]]; u.u.sigma=[[1]]; }"
        ))


_EDGE = {
    "base_p": "[[1]]", "base_q": "[0]", "alpha0": "[0]", "alpha": "[[1]]", "beta0": "[0]",
    "beta": "[[1]]", "gamma00": "[0]", "gamma_y": "[[0]]", "gamma_z": "[[0]]",
    "gamma_yz": "[[[0]]]", "sigma": "[[1]]",
}


@pytest.mark.parametrize(
    "field, value, expected",
    [
        ("alpha0", "5", "expected a vector of polynomials"),
        ("alpha", "[1]", "expected a matrix of polynomials"),
        ("beta", "[[1], 2]", "expected a matrix of polynomials"),
        ("gamma_yz", "[[1]]", "expected layers of matrices"),
        ("gamma_yz", "[1, 2]", "expected layers of matrices"),
        # the shape of every layer is checked before any entry: layer 0's
        # entry is not a polynomial, and layer 1 is not a matrix
        ("gamma_yz", "[[[foo]], 3]", "expected layers of matrices"),
        ("alpha0", "[[1]]", "expected a polynomial over x1..x1"),
        # ragged rows, caught with the shape and not as a bare DimMismatch
        ("gamma_y", "[[x1], [1, 2]]", "expected a matrix of polynomials"),
        ("gamma_yz", "[[[1], [1, 2]]]", "expected layers of matrices"),
        ("base_p", "[[1], [1, 2]]", "expected a matrix of rationals"),
    ],
)
def test_an_edge_block_of_the_wrong_shape_names_its_kind(field, value, expected):
    fields = {**_EDGE, field: value}
    text = "atlas t { base_dim = 1; fiber_dims = [1, 1, 1]; charts = [a, b]; "
    text += " ".join(f"a.b.{key} = {v};" for key, v in fields.items()) + " }"
    with pytest.raises(DaffineError) as err:
        elaborate(parse(text))
    assert str(err.value) == f"atlas block 't' edge a->b, field '{field}': {expected}"


@pytest.mark.parametrize(
    "fields, expected",
    [
        ({"alpha": "[[1, 2]]"}, "transition blocks have inconsistent fiber dimensions"),
        ({"samples": "[[1, 2]]"}, "sample point dimension does not match the base"),
        ({"alpha": "[[x1]]", "samples": "[[0]]"}, "alpha block is singular at sample point (Fraction(0, 1),)"),
    ],
)
def test_an_inconsistent_edge_names_its_block_and_edge(fields, expected, tmp_path, capsys):
    """Errors found only once the whole transition is built still say which
    atlas block and edge they come from, and daff check exits 2."""
    text = "atlas t { base_dim = 1; fiber_dims = [1, 1, 1]; charts = [a, b]; "
    text += " ".join(f"a.b.{key} = {v};" for key, v in {**_EDGE, **fields}.items()) + " }"
    path = tmp_path / "edge.daff"
    path.write_text(text)
    assert cli.main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: atlas block 't' edge a->b: {expected}\n"


def test_non_integer_dimension_is_rejected():
    with pytest.raises(DaffineError, match="expected an integer"):
        elaborate(parse("double A { n1=1/2; n2=1; n3=1; }"))


# ---------------------------------------------------------------------------
# serialization of computed objects
# ---------------------------------------------------------------------------


def test_double_block_serializer_round_trips():
    rng = random.Random(3)
    a = rand_double_affine(rng, 2, 3, 2)
    doc = Document((block_from_double("A", a.space, a),))
    assert parse(print_document(doc)) == doc
    again = elaborate(doc)["A"].bundle
    assert again == a


def test_space_and_bundle_serializers_round_trip():
    (space,) = parse("space S { hull_dim=3; alpha=[0,0,1]; v=[1,0,0]; }").blocks
    doc = Document((
        space,
        block_from_special_bundle("E", TrivialBispecial(1, 2), OneForm(Vec.of(7))),
    ))
    assert parse(print_document(doc)) == doc


def test_graded_serializer_round_trips():
    rng = random.Random(4)
    a = rand_naffine(rng, 3)
    doc = Document((block_from_graded("G", a),))
    assert parse(print_document(doc)) == doc
    assert elaborate(doc)["G"] == a


def test_atlas_serializer_preserves_every_coefficient():
    rng = random.Random(5)
    atlas = three_chart_atlas(rng, m=2, dims=(1, 2, 1))
    doc = Document((block_from_atlas("T", atlas),))
    assert parse(print_document(doc)) == doc
    rebuilt = elaborate(doc)["T"]
    assert isinstance(rebuilt, Atlas)
    original = {(a, b): t for a, b, t in atlas.edges}
    assert len(rebuilt.edges) == len(atlas.edges)
    for a, b, t in rebuilt.edges:
        assert first_difference(original[(a, b)], t) is None


@pytest.mark.parametrize(
    "text, field",
    [
        ("double A { n1 = 1; n2 = 1; n3 = @; }", "n3"),
        ("special_bundle B { m = @; n = 1; }", "m"),
        ("special_bundle B { m = 1; n = @; }", "n"),
        ("graded G { n = 2; dim_10 = 1; dim_01 = 1; dim_11 = @; l_10 = [1]; l_01 = [1]; }", "dim_11"),
    ],
)
def test_dimensions_are_bounded_at_elaboration(text, field):
    kind, name = text.split()[:2]
    for n in (1, dsl.MAX_DIM):
        elaborate(parse(text.replace("@", str(n))))
    with pytest.raises(DaffineError) as err:
        elaborate(parse(text.replace("@", str(dsl.MAX_DIM + 1))))
    assert str(err.value) == (
        f"{kind} block '{name}', field '{field}': a dimension is at most {dsl.MAX_DIM}, got {dsl.MAX_DIM + 1}"
    )
