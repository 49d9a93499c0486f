"""Verdicts and the n = 8 and 9 streams pinned byte for byte: stdout, stderr, exit code.

The JSON verdict files under tests/golden/ were written by the CLI before
the theorem statements became table rows, the text and CSV ones before
one walk of the growth tree served a whole order range, the rewrite, search
and eps files (record reprs and dicts) before the records became named
tuples and ``Graph`` a slots class, enumerate_8.sha256 (the sha256 of
the stdout of ``totecc enumerate -n 8``) before the augmentation
pre-test, and enumerate_9.sha256 before the per-parent cut tests.  Any
change to the verdict payloads, the stream's graphs or their order, or
the exit codes shows up here.  To regenerate after an
intended change, run for example
``totecc verify --theorem all -n 3..8 --format json > verify_all_3_8.json``
(stderr to ``.stderr``, exit code to ``.exit``; text and CSV stdout to
``.out``), or
``totecc enumerate -n 8 | sha256sum``.  The n = 9 stream takes about a
minute, so its test is opt-in: ``TOTECC_RUN_N9=1 pytest -m optin_n9``.
"""

import hashlib
from pathlib import Path

import pytest

from conftest import RUN_N9
from totecc.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: Two triangles and a tadpole with a 4-ring meet at vertex 0; vertex 1
#: roots dangling paths of lengths 1 and 2.  Every rewrite kind but
#: balance-paths (clique-with-paths graphs only) has a site on it.
SITES_G6 = "L{e?GC@?i?G??@"
REWRITE_KINDS = (
    "add-edge", "graft", "relocate", "block-to-cycle", "merge-cycles", "balance-paths", "shrink-girth"
)

CASES = {
    "verify_all_3_8": ["verify", "--theorem", "all", "-n", "3..8", "--format", "json"],
    "conjecture_5_8": ["conjecture", "-n", "5..8", "--format", "json"],
    "verify_all_3_8_text": ["verify", "--theorem", "all", "-n", "3..8", "--format", "text"],
    "verify_all_3_8_csv": ["verify", "--theorem", "all", "-n", "3..8", "--format", "csv"],
    "conjecture_5_8_text": ["conjecture", "-n", "5..8", "--format", "text"],
    "conjecture_5_8_csv": ["conjecture", "-n", "5..8", "--format", "csv"],
    # Record reprs and dicts: site listings, one applied rewrite, one search
    # report and one family's invariants, with avg_ecc from a Fraction.
    **{
        f"rewrite_{kind.replace('-', '_')}_sites_{fmt}": [
            "rewrite", kind, "--graph6", SITES_G6, "--list-sites", "--format", fmt
        ]
        for kind in REWRITE_KINDS
        for fmt in ("text", "json")
    },
    **{
        f"rewrite_balance_paths_k3_sites_{fmt}": [
            "rewrite", "balance-paths", "--family", "complete_with_paths", "3", "1", "1", "4",
            "--list-sites", "--format", fmt,
        ]
        for fmt in ("text", "json")
    },
    "rewrite_relocate_json": [
        "rewrite", "relocate", "--graph6", SITES_G6, "--site-index", "1", "--format", "json"
    ],
    "search_7_pendant_2_max": [
        "search", "-n", "7", "--class", "pendant_count=2", "--objective", "max", "--format", "json"
    ],
    "eps_dumbbell_3_3_7": ["eps", "--family", "dumbbell", "3", "3", "7", "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(capsys, name):
    code = main(CASES[name])
    captured = capsys.readouterr()
    # JSON payloads are kept as .json, text and CSV as .out; read as bytes,
    # since CSV lines end in \r\n
    suffix = ".json" if CASES[name][-1] == "json" else ".out"
    assert captured.out == (GOLDEN / f"{name}{suffix}").read_bytes().decode()
    assert captured.err == (GOLDEN / f"{name}.stderr").read_text()
    assert code == int((GOLDEN / f"{name}.exit").read_text())


def test_enumerate_8_stream_matches_golden(capsys):
    code = main(["enumerate", "-n", "8"])
    captured = capsys.readouterr()
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert digest == (GOLDEN / "enumerate_8.sha256").read_text().strip()
    assert captured.err == (GOLDEN / "enumerate_8.stderr").read_text()
    assert code == int((GOLDEN / "enumerate_8.exit").read_text())


@pytest.mark.optin_n9
@pytest.mark.skipif(not RUN_N9, reason="set TOTECC_RUN_N9=1 for order-9 runs")
@pytest.mark.parametrize("workers", ["1", "2"])
def test_enumerate_9_stream_matches_golden(capsys, workers):
    # with two workers every root is extended with generators that
    # subtree finds for it, not those of the walk from K1
    code = main(["enumerate", "-n", "9", "--workers", workers])
    captured = capsys.readouterr()
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert digest == (GOLDEN / "enumerate_9.sha256").read_text().strip()
    assert code == 0
