"""Randomized verification of numerical-radius inequalities for G1 operators.

The package computes the numerical radius with a certified witness,
evaluates Herglotz-class functions of matrices by two independent routes,
generates certified growth-condition operators, and property-tests a
catalog of operator inequalities on seeded random instances.

Importing the package pins OpenBLAS, OpenMP and MKL to one thread unless
the caller set OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS:
the package's solves and eigensolves are on matrices small enough that
extra BLAS threads only add synchronisation. The pin takes effect only if
numpy has not been imported yet.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .errors import (
    CertificationFailed,
    ConfigError,
    DimensionMismatch,
    G1RadError,
    IoError,
    NotSelfAdjoint,
    ParseError,
    Singular,
    SpectrumOnBoundary,
)
from .funcalc import (
    HerglotzFunction,
    apply_normal,
    random_herglotz,
    riesz_dunford,
)
from .g1gen import (
    G1Operator,
    boundary_distance,
    certify_core,
    haar_unitary,
    random_g1,
)
from .ineq import (
    InequalityReport,
    check_cor23,
    check_cor26,
    check_lemma21_a,
    check_lemma21_b,
    check_lemma21_c,
    check_lemma21_d,
    check_lemma21_e,
    check_lemma21_f,
    check_rem25,
    check_rem27,
    check_thm22,
    check_thm24,
)
from .linalg import (
    adjoint,
    as_matrix,
    herm_part,
    resolvents,
    skew_part,
    spectral_norm,
)
from .runner import (
    ALL_SUITES,
    RunResult,
    SuiteReport,
    TrialConfig,
    emit_report,
    load_operator,
    render_report,
    run_suite,
    run_trial,
    trial_seed,
)
from .wradius import RadiusResult, numerical_radius

__version__ = "0.1.0"

__all__ = [
    "ALL_SUITES",
    "CertificationFailed",
    "ConfigError",
    "DimensionMismatch",
    "G1Operator",
    "G1RadError",
    "HerglotzFunction",
    "InequalityReport",
    "IoError",
    "NotSelfAdjoint",
    "ParseError",
    "RadiusResult",
    "RunResult",
    "Singular",
    "SpectrumOnBoundary",
    "SuiteReport",
    "TrialConfig",
    "adjoint",
    "apply_normal",
    "as_matrix",
    "boundary_distance",
    "certify_core",
    "check_cor23",
    "check_cor26",
    "check_lemma21_a",
    "check_lemma21_b",
    "check_lemma21_c",
    "check_lemma21_d",
    "check_lemma21_e",
    "check_lemma21_f",
    "check_rem25",
    "check_rem27",
    "check_thm22",
    "check_thm24",
    "emit_report",
    "haar_unitary",
    "herm_part",
    "load_operator",
    "numerical_radius",
    "random_g1",
    "random_herglotz",
    "render_report",
    "resolvents",
    "riesz_dunford",
    "run_suite",
    "run_trial",
    "skew_part",
    "spectral_norm",
    "trial_seed",
]
