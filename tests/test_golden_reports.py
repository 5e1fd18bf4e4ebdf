"""Reports and errors must stay byte-identical to the recorded golden outputs.

Each file under ``fixtures/golden/`` is the exact output of one ``daff``
command on one fixture, named ``<fixture>.<command>[-<suite or op>].<ext>``:
its stderr when the command exits 2, its stdout otherwise (the other stream
must stay empty); ``exit_codes.json`` holds the exit code of each.  The
cocycle and model/hull checks on the atlas fixtures are exact polynomial
identities, so any change to the polynomial kernel or to how transitions are
composed must leave those outputs unchanged; ``check`` on every fixture
guards the parser, its error messages and elaboration.  The duality-pairing,
phase-tower, tau-kappa and naffine suites and ``build --op tbar`` draw their
trial points from :mod:`daffine.randgen`, so their goldens pin the sampled
streams.  The interchange and HVH suites and ``build --op classify`` run on
``Vec``/``Mat`` arithmetic (products, determinants, inverses, ``rref``), so
their goldens guard the rational kernel in :mod:`daffine.exact.linalg`.
``build --op model`` and the model-hull suite on ``special_double`` take the
kernel of a double block's side functionals (``rref`` on the integer
kernel), and the phase, contact, bbl, affctg, bbln and sides builds pin the
constructions of the phase tower and of the n-fold side bases; on
``special_double`` the naffine suite and the sides build pin the special dual
of its ``space`` block, an order-one bundle.
"""

import json
from pathlib import Path

import pytest

from daffine import cli

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())
COMMANDS = {
    "check": ["check"],
    "verify-cocycle": ["verify", "--suite", "cocycle"],
    "verify-model-hull": ["verify", "--suite", "model-hull"],
    "verify-duality-pairing": ["verify", "--suite", "duality-pairing"],
    "verify-phase-tower": ["verify", "--suite", "phase-tower"],
    "verify-tau-kappa": ["verify", "--suite", "tau-kappa"],
    "verify-naffine": ["verify", "--suite", "naffine"],
    "verify-interchange": ["verify", "--suite", "interchange"],
    "verify-hvh": ["verify", "--suite", "hvh"],
    "build-hull": ["build", "--op", "hull"],
    "build-model": ["build", "--op", "model"],
    "build-tbar": ["build", "--op", "tbar"],
    "build-classify": ["build", "--op", "classify"],
    "build-phase": ["build", "--op", "phase"],
    "build-contact": ["build", "--op", "contact"],
    "build-bbl": ["build", "--op", "bbl"],
    "build-affctg": ["build", "--op", "affctg"],
    "build-bbln": ["build", "--op", "bbln"],
    "build-sides": ["build", "--op", "sides"],
}
FORMATS = {"txt": "text", "json": "json"}


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_report_matches_golden_output(name, capsys):
    stem, command, ext = name.split(".")
    argv = COMMANDS[command] + ["--format", FORMATS[ext], str(FIXTURES / f"{stem}.daff")]
    code = cli.main(argv)
    captured = capsys.readouterr()
    shown, silent = captured.out, captured.err
    if EXIT_CODES[name] == 2:
        shown, silent = silent, shown
    assert shown == (GOLDEN / name).read_text()
    assert silent == ""
    assert code == EXIT_CODES[name]


def test_every_golden_file_has_an_exit_code():
    recorded = {p.name for p in GOLDEN.iterdir() if p.name != "exit_codes.json"}
    assert recorded == set(EXIT_CODES)
