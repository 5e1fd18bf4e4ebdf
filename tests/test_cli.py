"""Exit codes, output formats, and determinism of the command-line tool."""

import json
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from daffine import cli, dsl, suites
from daffine.errors import UnknownOp, UnknownSuite
from daffine.exact import Poly

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def test_check_valid_document_exits_zero(capsys):
    assert cli.main(["check", fixture("minimal.daff")]) == 0
    out = capsys.readouterr().out
    assert "PASS double A" in out
    assert out.endswith("OK (1 checks)\n")


def test_check_parse_error_exits_two(capsys):
    assert cli.main(["check", fixture("parse_error.daff")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "l1" in err


def test_missing_file_exits_two(capsys):
    assert cli.main(["check", fixture("no_such_file.daff")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "source",
    [
        "double A { n1=1; n2=1; n3=1; l1=[1/0]; l2=[1]; }",
        "double A { n1=²; }",
        "double A { n1 = " + "(" * 3000 + "1" + ")" * 3000 + "; }",
        "double A { n1 = " + "[" * 3000 + "1" + "]" * 3000 + "; }",
        "double A { n1 = x1^999999999; }",
        "double A { n1 = (x1+x2+x3+x4+x5+x6)^100; }",
    ],
)
def test_malformed_literal_exits_two(source, tmp_path, capsys):
    path = tmp_path / "doc.daff"
    path.write_text(source, encoding="utf-8")
    assert cli.main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 1, col ")


def _no_expansion(*_):
    raise AssertionError("expanded before the bound was checked")


def test_power_over_the_work_bound_exits_two_before_expanding(tmp_path, capsys, monkeypatch):
    text = Path(fixture("atlas_consistent.daff")).read_text()
    path = tmp_path / "doc.daff"
    path.write_text(text.replace("[-x1 - 3]", "[(x1+x2+x3)^61]", 1), encoding="utf-8")
    for op in ("__pow__", "__mul__"):  # the power is refused before it is expanded
        monkeypatch.setattr(Poly, op, _no_expansion)
    assert cli.main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 7, col 27: expected a power of at most {dsl.MAX_TERM_PRODUCTS} term products, found ^\n"


ONE_EDGE_ATLAS = """atlas A {
  base_dim = 1000000000;
  fiber_dims = [1, 1, 1];
  charts = [u];
  u.u.base_p = [[1]];
  u.u.base_q = [0];
  u.u.alpha0 = [0];
  u.u.alpha = [[1]];
  u.u.beta0 = [0];
  u.u.beta = [[1]];
  u.u.gamma00 = [0];
  u.u.gamma_y = [[0]];
  u.u.gamma_z = [[0]];
  u.u.gamma_yz = [[[0]]];
  u.u.sigma = [[1]];
}
"""


@pytest.mark.parametrize(
    "base_dim, base_p, base_q",
    [("1000000000", "[[1]]", "[0]"), ("2", "[[1]]", "[0]"), ("1", "[[1, 0], [0, 1]]", "[0, 0]"), ("1", "[[1]]", "[0, 0]")],
)
def test_base_map_of_the_wrong_size_exits_two_before_lifting(base_dim, base_p, base_q, tmp_path, capsys):
    path = tmp_path / "doc.daff"
    text = ONE_EDGE_ATLAS.replace("1000000000", base_dim).replace("[[1]];\n  u.u.base_q = [0]", f"{base_p};\n  u.u.base_q = {base_q}")
    path.write_text(text, encoding="utf-8")
    assert cli.main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: atlas block 'A' edge u->u: base_p must be {base_dim}x{base_dim}"
        f" and base_q must have {base_dim} entries\n"
    )


def test_undecodable_file_exits_two(tmp_path, capsys):
    path = tmp_path / "doc.daff"
    path.write_bytes(b"double A { n1 = 1; \xff }")
    assert cli.main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode")


FIXTURE_BYTES = [p.read_bytes() for p in sorted(FIXTURES.glob("*.daff"))]
TOKEN = re.compile(rb"\w+|[^\w\s]")


@st.composite
def mutated_fixture(draw):
    """A fixture with a few tokens deleted, duplicated or swapped, or bytes spliced in."""
    text = draw(st.sampled_from(FIXTURE_BYTES))
    for _ in range(draw(st.integers(1, 4))):
        spans = [m.span() for m in TOKEN.finditer(text)] or [(0, 0)]
        a, b = draw(st.sampled_from(spans))
        op = draw(st.sampled_from(("delete", "duplicate", "swap", "splice")))
        if op == "delete":
            text = text[:a] + text[b:]
        elif op == "duplicate":
            text = text[:b] + text[a:b] + text[b:]
        elif op == "swap":
            c, d = draw(st.sampled_from(spans))
            (a, b), (c, d) = sorted([(a, b), (c, d)])
            if b <= c:
                text = text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
        else:
            other = draw(st.sampled_from(FIXTURE_BYTES))
            start = draw(st.integers(0, len(other)))
            piece = draw(st.one_of(st.binary(min_size=1, max_size=8), st.just(other[start:][:40])))
            text = text[:a] + piece + text[a:]
    return text


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_fixture())
def test_check_on_mutated_fixtures_exits_zero_one_or_two(source):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.daff"
        path.write_bytes(source)
        try:
            code = cli.main(["check", str(path)])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)


VALID_FIXTURES = [(p.name, p.read_bytes()) for p in sorted(FIXTURES.glob("*.daff")) if p.name != "parse_error.daff"]
NUMBER = re.compile(rb"(?<![\w^./])\d+(?:/\d+)?")
SMALL = (b"0", b"0", b"1", b"2", b"3", b"1/2", b"2/3")
BUILD_AND_VERIFY = [["build", "--op", op] for op in suites.BUILD_OPS] + [
    ["verify", "--suite", suite, "--trials", "3"] for suite in suites.SUITE_NAMES
]


@st.composite
def renumbered_fixture(draw):
    """A valid fixture with a few of its numbers replaced by small ones, zero included."""
    name, text = draw(st.sampled_from(VALID_FIXTURES))
    spans = [m.span() for m in NUMBER.finditer(text)]
    for a, b in sorted(draw(st.sets(st.sampled_from(spans), min_size=1, max_size=4)), reverse=True):
        text = text[:a] + draw(st.sampled_from(SMALL)) + text[b:]
    return name, text


@settings(max_examples=800, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(renumbered_fixture(), st.sampled_from(BUILD_AND_VERIFY))
def test_build_and_verify_on_renumbered_fixtures(fixture_and_text, command):
    """Exit 0, 1 or 2 with nothing but SystemExit escaping; a check fails
    (exit 1) only on an atlas, whose transitions no longer glue."""
    name, text = fixture_and_text
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.daff"
        path.write_bytes(text)
        try:
            code = cli.main(command + [str(path)])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code == 1:
        assert name.startswith("atlas")


def test_verify_passing_suite_exits_zero(capsys):
    code = cli.main(["verify", "--suite", "interchange", "--trials", "5", fixture("minimal.daff")])
    assert code == 0
    assert "interchange law" in capsys.readouterr().out


def test_verify_failing_suite_exits_one(capsys):
    code = cli.main(["verify", "--suite", "cocycle", fixture("atlas_perturbed.daff")])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "gamma00" in out


def test_verify_consistent_atlas_passes(capsys):
    code = cli.main(["verify", "--suite", "cocycle", fixture("atlas_consistent.daff")])
    assert code == 0
    assert "FAILED" not in capsys.readouterr().out


def test_unknown_suite_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "nonsense", fixture("minimal.daff")])
    assert exc.value.code == 2


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_without_a_trial_exits_two(trials, capsys):
    code = cli.main(["verify", "--suite", "interchange", "--trials", trials, fixture("minimal.daff")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "trials" in captured.err


def test_unknown_suite_in_the_library_raises():
    doc = dsl.parse((FIXTURES / "minimal.daff").read_text())
    with pytest.raises(UnknownSuite):
        suites.run(doc, "verify:nonsense")
    with pytest.raises(UnknownOp):
        suites.run(doc, "build:nonsense")


def test_json_format_is_machine_readable(capsys):
    code = cli.main([
        "verify", "--suite", "duality-pairing", "--trials", "5", "--format", "json",
        fixture("special_double.daff"),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert names == sorted(names)
    assert all(c["status"] in ("pass", "fail", "skip") for c in payload["checks"])


def test_reports_are_bit_identical_across_runs(capsys):
    argv = ["verify", "--suite", "phase-tower", "--trials", "7", "--seed", "13",
            "--format", "json", fixture("bundle_tower.daff")]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first


def test_seed_changes_are_recorded_not_silent(capsys):
    argv = ["verify", "--suite", "interchange", "--trials", "3", "--seed", "99",
            fixture("minimal.daff")]
    assert cli.main(argv) == 0
    assert "[seed 99]" in capsys.readouterr().out


def test_build_reports_model_constraints(capsys):
    assert cli.main(["build", "--op", "model", fixture("minimal.daff")]) == 0
    assert "l1 = 0 and l2 = 0" in capsys.readouterr().out


def test_build_hull_reports_level_functions(capsys):
    assert cli.main(["build", "--op", "hull", fixture("special_double.daff")]) == 0
    out = capsys.readouterr().out
    assert "at value 1" in out and "ambient dims (2, 3, 2)" in out


def test_build_classify_reports_both_verdicts(capsys):
    assert cli.main(["build", "--op", "classify", fixture("constraints_hyperbola.daff")]) == 0
    assert "not a double affine subbundle" in capsys.readouterr().out
    assert cli.main(["build", "--op", "classify", fixture("constraints_plane.daff")]) == 0
    out = capsys.readouterr().out
    assert "not a double" not in out and "a double affine subbundle" in out


def test_build_writes_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = cli.main([
        "build", "--op", "contact", fixture("bundle_tower.daff"),
        "-o", str(target), "--format", "json",
    ])
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(target.read_text())
    assert payload["passed"] is True


def test_build_into_a_missing_directory_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    code = cli.main(["build", "--op", "contact", fixture("bundle_tower.daff"), "-o", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(target) in captured.err
    assert not target.parent.exists()


def test_env_var_sets_the_default_format(monkeypatch, capsys):
    monkeypatch.setenv("DAFF_FORMAT", "json")
    assert cli.main(["check", fixture("minimal.daff")]) == 0
    json.loads(capsys.readouterr().out)
    monkeypatch.setenv("DAFF_FORMAT", "bogus")
    assert cli.main(["check", fixture("minimal.daff")]) == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_explicit_format_beats_the_env_default(monkeypatch, capsys):
    monkeypatch.setenv("DAFF_FORMAT", "json")
    assert cli.main(["check", "--format", "text", fixture("minimal.daff")]) == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_verify_naffine_suite_on_fixture(capsys):
    code = cli.main(["verify", "--suite", "naffine", "--trials", "4", fixture("graded_pair.daff")])
    assert code == 0
    out = capsys.readouterr().out
    assert "unmarked: needs a marked section" in out
    assert "SKIP" in out


def test_verify_tau_kappa_suite_on_fixture(capsys):
    code = cli.main(["verify", "--suite", "tau-kappa", "--trials", "5",
                     fixture("bundle_tower.daff")])
    assert code == 0


def test_suites_skip_when_nothing_applies(capsys):
    code = cli.main(["verify", "--suite", "cocycle", fixture("minimal.daff")])
    assert code == 0
    assert "SKIP no applicable blocks" in capsys.readouterr().out


@pytest.mark.parametrize("n1", ["1000000000", str(dsl.MAX_DIM + 1)])
def test_a_huge_dimension_exits_two_at_once(n1, tmp_path, capsys):
    path = tmp_path / "doc.daff"
    path.write_text(f"double A {{ n1 = {n1}; n2 = 1; n3 = 1; }}\n", encoding="utf-8")
    start = time.perf_counter()
    assert cli.main(["verify", "--suite", "interchange", "--trials", "1", str(path)]) == 2
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: double block 'A', field 'n1': a dimension is at most {dsl.MAX_DIM}, got {n1}\n"
    )


@pytest.mark.parametrize(
    "fields",
    [
        pytest.param("hull_dim = 3; alpha = [0, 1]; v = [1, 0, 0];", id="alpha-too-short"),
        pytest.param("hull_dim = 3; alpha = [0, 0, 0, 1]; v = [1, 0, 0];", id="alpha-too-long"),
        pytest.param("hull_dim = 3; alpha = [0, 0, 0]; v = [1, 0, 0];", id="alpha-zero"),
        pytest.param("hull_dim = 3; alpha = [0, 0, 1]; v = [1, 0];", id="v-wrong-size"),
        pytest.param("hull_dim = 3; alpha = [0, 0, 1]; v = [0, 0, 0];", id="v-zero"),
        pytest.param("hull_dim = 3; alpha = [0, 0, 1]; v = [1, 0, 1];", id="alpha-of-v-nonzero"),
        pytest.param("hull_dim = 0; alpha = [1]; v = [1];", id="hull-dim-0"),
        pytest.param("hull_dim = -1; alpha = [1]; v = [1];", id="hull-dim-negative"),
    ],
)
def test_an_invalid_space_block_exits_two(fields, tmp_path, capsys):
    path = tmp_path / "doc.daff"
    path.write_text(f"space S {{ {fields} }}\n", encoding="utf-8")
    assert cli.main(["verify", "--suite", "naffine", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: space block 'S': ") and captured.err.count("\n") == 1
