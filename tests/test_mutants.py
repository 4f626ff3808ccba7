"""The mutation table: every check family can fail, and it is written down
which mutant each family catches.

Each row names a mutant of the mathematics, applied by monkeypatch, and the
smallest set of checks that should catch it, with the reason derived from
the mathematics.  A row expects at least one `fail` report among its checks
and never a raise.  A mutant that no check catches keeps its row, marked
expected-uncaught with the reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as F
from functools import partial
from typing import Callable

import pytest

from permtwist import fermion
from permtwist.exactnum import get_ring
from permtwist.fermion import mirror_side, psi_vec, untwisted_jacobi_check, vac_vec
from permtwist.fseries import Window
from permtwist.twistor import supercommutator_check, twisted_jacobi_check

R1, R3 = get_ring(1), get_ring(3)

# the checks of the benchmark workloads with these ids, on the same boxes
CHECKS = {
    "supercomm.k3.psi-psi.vac": partial(supercommutator_check, psi_vec(R3), psi_vec(R3), vac_vec(R3),
                                        Window.of(x1=(-2, 2), x2=(-2, 2))),
    "jacobi.k3.psi1-psi1.vac": partial(twisted_jacobi_check, psi_vec(R3), 1, psi_vec(R3), 1, vac_vec(R3),
                                       Window.of(x0=(-2, 1), x1=(-1, 1), x2=(-1, 1))),
    "untwisted-jacobi.k1.psi-psi.vac": partial(untwisted_jacobi_check, psi_vec(R1), psi_vec(R1), vac_vec(R1),
                                               Window.of(x0=(-2, 2), x1=(-2, 2), x2=(-2, 2))),
}


def _mirror_without_parity(side):
    """The mirrored second Jacobi side with no (-1)^e0: -1 times side's
    (e0, b, a) term at (e0, a, b)."""
    return side._of(side.ring, side.vars, {(n0, n2, n1): -vec for (n0, n1, n2), vec in side.terms.items()},
                    side.den)


def _mirror_without_minus(side):
    """The mirrored second Jacobi side with no leading minus."""
    return -mirror_side(side)


@dataclass(frozen=True)
class Row:
    name: str
    target: tuple  # (module, attribute) the mutant replaces
    mutant: Callable
    checks: tuple  # ids in CHECKS
    why: str
    # x0-exponent parities at which the mutant differs from the truth; the
    # first mismatch of a Jacobi check (its box has x0) lies at one of them
    wrong_parities: tuple = (0, 1)


ROWS = [
    Row("mirror-without-parity", (fermion, "mirror_side"), _mirror_without_parity,
        ("supercomm.k3.psi-psi.vac", "jacobi.k3.psi1-psi1.vac", "untwisted-jacobi.k1.psi-psi.vac"),
        "with u = v the second product side is -(-1)^e0 times the first's (e0, b, a) term; "
        "dropping (-1)^e0 flips it at every odd e0, and a bracket is the e0 = -1 slice",
        wrong_parities=(1,)),
    Row("mirror-without-minus", (fermion, "mirror_side"), _mirror_without_minus,
        ("supercomm.k3.psi-psi.vac", "jacobi.k3.psi1-psi1.vac", "untwisted-jacobi.k1.psi-psi.vac"),
        "dropping the leading minus flips the second product side at every e0 where it is nonzero"),
]


def _x0_exponent(first_mismatch: str) -> F:
    """The x0-exponent of the monomial named by an "at x0^a*x1^b, ..." mismatch."""
    mono = first_mismatch.removeprefix("at ").split(",")[0]
    exps = dict(part.split("^") for part in mono.split("*") if part != "1")
    return F(exps["x0"])


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_mutant_is_caught_without_a_raise(monkeypatch, row):
    monkeypatch.setattr(*row.target, row.mutant)
    reports = {check_id: CHECKS[check_id]() for check_id in row.checks}
    failed = {check_id: rep for check_id, rep in reports.items() if rep.status == "fail"}
    assert failed, f"{row.name} escapes {row.checks}: {row.why}"
    for check_id, rep in failed.items():
        assert rep.first_mismatch.startswith("at "), (check_id, rep.first_mismatch)
        if "x0" in rep.window:
            assert _x0_exponent(rep.first_mismatch) % 2 in row.wrong_parities, (check_id, rep.first_mismatch)


def test_checks_of_the_table_pass_unmutated():
    # a mutant is caught only against checks that pass on the true construction
    for check_id, check in CHECKS.items():
        assert check().status == "pass", check_id
