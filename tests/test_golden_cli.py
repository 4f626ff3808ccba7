"""`permtwist check` and `permtwist char` stdout, byte for byte.

tests/data/golden_reports.json holds only the benchmark workloads' reports,
at their own settings.  Here the stdout of `permtwist check <family>` at its
default settings is kept for every family, and that of
`permtwist char --k 1 2 3 --cutoff 2`, so a change that means to keep every
text is machine-checked against the same runs a reader makes by hand.  A
change that means to alter one regenerates the files with

    PYTHONPATH=src python3 tests/test_golden_cli.py

and says why in its change notes.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from permtwist import cli

DATA = Path(__file__).resolve().parent / "data"
FAMILIES = cli.CHECK_NAMES
CHAR_ARGS = ["char", "--k", "1", "2", "3", "--cutoff", "2"]


def golden_path(name: str) -> Path:
    return DATA / f"cli_check_{name}.txt"


CHAR_GOLDEN = DATA / "cli_char.txt"


@pytest.mark.parametrize("name", FAMILIES)
def test_check_output_matches_golden(capsys, name):
    assert cli.main(["check", name]) == 0
    assert capsys.readouterr().out == golden_path(name).read_text()


def test_char_output_matches_golden(capsys):
    assert cli.main(CHAR_ARGS) == 0
    assert capsys.readouterr().out == CHAR_GOLDEN.read_text()


if __name__ == "__main__":
    import contextlib
    import io

    runs = [(["check", name], golden_path(name)) for name in FAMILIES] + [(CHAR_ARGS, CHAR_GOLDEN)]
    for argv, path in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(argv)
        path.write_text(out.getvalue())
