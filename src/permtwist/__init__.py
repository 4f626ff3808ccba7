"""Exact-arithmetic engine for cyclic-permutation-twisted modules over tensor
powers of the NS free-fermion vertex operator superalgebra.

Everything is computed over Q(sqrt(k), eta) with eta a primitive k-th root of
unity; every identity the package asserts is re-verified coefficientwise by
the check functions re-exported here, and the even-order obstruction is
raised -- with its coset certificate -- wherever a module structure is
requested that cannot exist.
"""

from __future__ import annotations

from .changeofvars import a_table, compute_a, f_and_inverse, theta_extract
from .exactnum import Scalar, ScalarRing, get_ring
from .fermion import (
    Vec,
    VecSeries,
    omega_vec,
    psi_vec,
    standard_basis,
    vac_vec,
    vertex_mode,
    vertex_op,
    virasoro_mode,
)
from .fseries import CheckReport, CompositionDomainError, FracSeries, Window
from .qchar import QSeries, char_plain, char_twisted, corollary_check, evidence_even
from .twistor import (
    ModeAction,
    ObstructionError,
    conjugation_check,
    delta_apply,
    invariant_subspace_scan,
    obstruction_report,
    supercommutator_check,
    twisted_field,
    twisted_jacobi_check,
    twisted_mode,
    untwist,
    ybar,
)

__version__ = "0.1.0"

__all__ = [
    "a_table",
    "compute_a",
    "f_and_inverse",
    "theta_extract",
    "Scalar",
    "ScalarRing",
    "get_ring",
    "Vec",
    "VecSeries",
    "omega_vec",
    "psi_vec",
    "standard_basis",
    "vac_vec",
    "vertex_mode",
    "vertex_op",
    "virasoro_mode",
    "CheckReport",
    "CompositionDomainError",
    "FracSeries",
    "Window",
    "QSeries",
    "char_plain",
    "char_twisted",
    "corollary_check",
    "evidence_even",
    "ModeAction",
    "ObstructionError",
    "conjugation_check",
    "delta_apply",
    "invariant_subspace_scan",
    "obstruction_report",
    "supercommutator_check",
    "twisted_field",
    "twisted_jacobi_check",
    "twisted_mode",
    "untwist",
    "ybar",
    "__version__",
]
