"""`permtwist check` output for the families the workload golden misses.

tests/data/golden_reports.json holds no `untwist.supercommutator`, no
`twisted.l-minus-one` and no k = 5 conjugation report, so the stdout of
`permtwist check conjugation`, `check roundtrip` and `check lminus1` at
their default settings is kept here, byte for byte.  A change that means to
alter one regenerates the files with

    PYTHONPATH=src python3 tests/test_golden_cli.py

and says why in its change notes.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from permtwist import cli

DATA = Path(__file__).resolve().parent / "data"
FAMILIES = ("conjugation", "roundtrip", "lminus1")


def golden_path(name: str) -> Path:
    return DATA / f"cli_check_{name}.txt"


@pytest.mark.parametrize("name", FAMILIES)
def test_check_output_matches_golden(capsys, name):
    assert cli.main(["check", name]) == 0
    assert capsys.readouterr().out == golden_path(name).read_text()


if __name__ == "__main__":
    import contextlib
    import io

    for name in FAMILIES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["check", name])
        golden_path(name).write_text(out.getvalue())
