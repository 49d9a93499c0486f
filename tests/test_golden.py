"""Verdict output pinned byte for byte: stdout, stderr and exit code.

The files under tests/golden/ were written by the CLI before the theorem
statements became table rows; any change to the verdict payloads, their
order or the exit codes shows up here.  To regenerate after an intended
change, run for example
``totecc verify --theorem all -n 3..8 --format json > verify_all_3_8.json``
(stderr to ``.stderr``, exit code to ``.exit``).
"""

from pathlib import Path

import pytest

from totecc.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify_all_3_8": ["verify", "--theorem", "all", "-n", "3..8", "--format", "json"],
    "conjecture_5_8": ["conjecture", "-n", "5..8", "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(capsys, name):
    code = main(CASES[name])
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / f"{name}.json").read_text()
    assert captured.err == (GOLDEN / f"{name}.stderr").read_text()
    assert code == int((GOLDEN / f"{name}.exit").read_text())
