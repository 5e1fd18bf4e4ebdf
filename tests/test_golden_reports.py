"""Atlas reports must stay byte-identical to the recorded golden outputs.

Each file under ``fixtures/golden/`` is the exact stdout of one ``daff``
command on one atlas fixture, named ``<fixture>.<command>-<suite or op>.<ext>``;
``exit_codes.json`` holds the exit code of each.  The cocycle and model/hull
checks are exact polynomial identities, so any change to the polynomial
kernel or to how transitions are composed must leave these outputs unchanged.
"""

import json
from pathlib import Path

import pytest

from daffine import cli

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())
COMMANDS = {
    "verify-cocycle": ["verify", "--suite", "cocycle"],
    "verify-model-hull": ["verify", "--suite", "model-hull"],
    "build-hull": ["build", "--op", "hull"],
    "build-model": ["build", "--op", "model"],
}
FORMATS = {"txt": "text", "json": "json"}


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_report_matches_golden_output(name, capsys):
    stem, command, ext = name.split(".")
    argv = COMMANDS[command] + ["--format", FORMATS[ext], str(FIXTURES / f"{stem}.daff")]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / name).read_text()
    assert captured.err == ""
    assert code == EXIT_CODES[name]


def test_every_golden_file_has_an_exit_code():
    recorded = {p.name for p in GOLDEN.iterdir() if p.name != "exit_codes.json"}
    assert recorded == set(EXIT_CODES)
