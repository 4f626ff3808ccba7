"""The demonstration scripts run end to end against the package's public names."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# script -> lines its output must contain
EXPECTED = {
    "demo_twisted_module.py": ["corollary check: pass"],
    "obstruction_demo.py": [
        "field-exponent census: expected-obstruction",
        "rebuilt-bracket half-integer branch: pass",
        "fractional bracket factor needed: pass",
    ],
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_script_runs(name, capsys):
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    out = capsys.readouterr().out
    for line in EXPECTED[name]:
        assert line in out, (name, line)
