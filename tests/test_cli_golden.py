"""Byte-identity of the CLI on a pinned command set.

``data/cli_golden.json`` holds, for every subcommand in csv and json, the
argv, exit code, stdout and (where the library writes it: exit codes 0, 1
and 3) stderr of one in-process ``cli.run`` call. A refactor of the CLI must
reproduce every entry byte for byte; a deliberate output change bumps
``SCHEMA_VERSION`` and recaptures the file.

argparse help and usage wording changes across Python versions, so help is
checked only for its exit code and the flags it lists.
"""

import json
from pathlib import Path

import pytest

from primroots.cli import COLUMNS, run

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())

FLAGS = {
    "order": ("u", "n"),
    "is-primroot": ("u", "p"),
    "lift": ("u", "n"),
    "germain": ("limit", "s"),
    "germain-test": ("q", "p"),
    "fermat-test": ("q", "f"),
    "k2n": ("k", "nmax"),
    "psi": ("u", "p", "method", "literal"),
    "interval": ("z", "q"),
    "artin-constant": ("cutoff",),
    "density": ("q", "x"),
    "least-prime": ("q", "cap"),
    "scan": ("qmin", "qmax", "cap", "threads"),
}


def test_golden_set_covers_every_subcommand():
    assert {case["argv"][0] for case in GOLDEN} == set(COLUMNS) == set(FLAGS)


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_cli_output_is_byte_identical(case, capsys):
    assert run(case["argv"]) == case["exit"]
    captured = capsys.readouterr()
    assert captured.out == case["stdout"]
    if case["exit"] in (0, 1, 3):
        assert captured.err == case["stderr"]


@pytest.mark.parametrize("name", list(FLAGS))
def test_subcommand_help_lists_every_flag(name, capsys):
    assert run([name, "--help"]) == 0
    out = capsys.readouterr().out
    for flag in FLAGS[name] + ("format",):
        assert f"--{flag}" in out
