"""Tests for the command-line front end: JSON-line output, exit codes,
deterministic ordering, and the report writer."""

from __future__ import annotations

import json

import pytest

from permtwist import cli
from permtwist.fseries import CheckReport


def _lines(capsys):
    return [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]


def test_coeffs_command(capsys):
    rc = cli.main(["coeffs", "--k", "3", "--order", "2"])
    assert rc == 0
    (row,) = _lines(capsys)
    assert row == {"k": 3, "order": 2, "a": ["-1", "2/3"]}


def test_check_grading_passes_and_sorts(capsys):
    rc = cli.main(["check", "grading", "--k", "3", "1"])
    assert rc == 0
    rows = _lines(capsys)
    assert rows and all(r["status"] == "pass" for r in rows)
    keys = [(r["check"], r["k"], r["identity"]) for r in rows]
    assert keys == sorted(keys)
    # deterministic across runs
    cli.main(["check", "grading", "--k", "3", "1"])
    assert _lines(capsys) == rows


def test_check_even_obstruction_exit_zero(capsys):
    rc = cli.main(["check", "even-obstruction", "--k", "2"])
    assert rc == 0
    rows = _lines(capsys)
    statuses = {r["identity"]: r["status"] for r in rows}
    assert statuses["twisted.even-order-obstruction"] == "expected-obstruction"
    assert statuses["untwist.even-branch-witness"] == "pass"


def test_check_unknown_name_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "no-such-family"])
    assert exc.value.code == 2


def test_check_k_below_one_exits_two_with_message(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "grading", "--k", "3", "0"])
    assert exc.value.code == 2
    assert "--k values must be >= 1, got 0" in capsys.readouterr().err


def test_check_bad_fraction_exits_two(capsys):
    rc = cli.main(["check", "grading", "--max-weight", "one-half"])
    assert rc == 2


def test_check_empty_configuration_exits_two(capsys):
    # conjugation sweeps odd k only; offering just k=2 leaves nothing to run
    rc = cli.main(["check", "conjugation", "--k", "2"])
    assert rc == 2


def test_emit_flags_failure(capsys):
    rows = [
        ("demo", CheckReport("id.a", ("x",), "w", "pass")),
        ("demo", CheckReport("id.b", ("x",), "w", "fail", first_mismatch="boom")),
    ]
    assert cli.emit(rows) == 1
    out = _lines(capsys)
    assert out[1]["first_mismatch"] == "boom"


def test_char_command_odd_and_even(capsys):
    rc = cli.main(["char", "--k", "2", "3", "--cutoff", "1/2"])
    assert rc == 0
    rows = _lines(capsys)
    even = [r for r in rows if r.get("k") == 2]
    odd = [r for r in rows if r.get("k") == 3]
    assert even[0]["status"] == "expected-obstruction"
    assert odd[0]["twisted"][0] == ["-1/144", 1]
    assert odd[0]["plain"][0] == ["-1/48", 1]


def test_theta_rejects_k1(capsys):
    assert cli.main(["theta", "--k", "1"]) == 2


def test_theta_passes(capsys):
    rc = cli.main(["theta", "--k", "3", "--order", "3"])
    assert rc == 0
    assert all(r["status"] == "pass" for r in _lines(capsys))


def test_report_writes_files(tmp_path, capsys, monkeypatch):
    # shrink the family list so the writer itself is what gets tested
    monkeypatch.setattr(cli, "CHECK_NAMES", ("grading", "even-obstruction"))
    monkeypatch.setenv("PERMTWIST_REPORT_DIR", str(tmp_path / "r"))
    rc = cli.main(["report"])
    assert rc == 0
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert summary["fail"] == 0 and summary["total"] > 0
    lines = (tmp_path / "r" / "checks.jsonl").read_text().strip().splitlines()
    assert len(lines) == summary["total"]
    assert json.loads(capsys.readouterr().out)["written"].endswith("checks.jsonl")


def test_report_out_flag_overrides_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "CHECK_NAMES", ("grading",))
    monkeypatch.setenv("PERMTWIST_REPORT_DIR", str(tmp_path / "ignored"))
    rc = cli.main(["report", "--out", str(tmp_path / "chosen")])
    assert rc == 0
    assert (tmp_path / "chosen" / "checks.jsonl").exists()
    assert not (tmp_path / "ignored").exists()
