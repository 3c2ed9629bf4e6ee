"""Golden CLI outputs: each subcommand's default report, byte for byte.

A change that moves a printed number on purpose rewrites the golden file
(``python -m logdamp.cli <command> > tests/golden/<command>.csv``) and
says why in CHANGES.md.
"""

from pathlib import Path

import pytest

from logdamp.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("command", ["special", "lemmas", "decay", "profile"])
def test_default_report_matches_golden_file(command, capsys):
    assert main([command]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (GOLDEN / f"{command}.csv").read_text(encoding="utf-8")
