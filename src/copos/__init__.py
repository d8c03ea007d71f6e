"""Copositivity certificates for low-order symmetric tensors.

The package decides or certifies whether a symmetric tensor G of order 3
or 4 satisfies G x^m >= 0 on the nonnegative orthant, using closed-form
inequality criteria (dimensions 2 and 3), and cross-checks every verdict
against a brute-force minimizer on the unit simplex.  A small application
module maps scalar-potential vacuum stability onto the same machinery.

Entry points: :func:`build` constructs tensors, :func:`certify_all` runs
every applicable criterion, :func:`min_on_simplex` is the oracle, and
:mod:`copos.cli` provides the ``copos`` command.
"""

__version__ = "0.1.0"

from .tensors import (Index, SymmetricTensor, Vector, all_indices, build,
                      canonicalize, multiplicity, zero)
from .halfline import (CubicCoeffs, QuadCoeffs, cubic_disc, cubic_min_bruteforce,
                       cubic_nonneg_exact, cubic_nonneg_sufficient,
                       quad_min_bruteforce, quad_nonneg)
from .criteria import (Certificate, Condition, Verdict, aggregate,
                       applicable_criteria, certify_all, diag_necessity,
                       qi_strict_generic, run_criterion, songqi_strict_generic,
                       thm31_exact_c3d2, thm32_sqrt_c3d2, thm33_mixed_c3d2,
                       thm34_disc_c3d3, thm35_sqrt_c3d3, thm41_disc_c4d2,
                       thm42_sqrt_c4d2, thm43_disc_c4d3, thm44_sqrt_c4d3,
                       thm45_sos_c4d3, thm4remark_check, thm4remark_decompose)
from .oracle import (Classification, OracleConfig, OracleResult, classify,
                     default_config, min_on_simplex)
from .vacuum import (StabilityReport, Z3Params, check_stability, coupling_tensor,
                     printed_certificate, scan_rho, theorem_certificate)
from .documents import (entries_as_strings, load_document, parse_document,
                        serialize_document)

__all__ = [
    "Index", "SymmetricTensor", "Vector", "all_indices", "build",
    "canonicalize", "multiplicity", "zero",
    "CubicCoeffs", "QuadCoeffs", "cubic_disc", "cubic_min_bruteforce", "cubic_nonneg_exact",
    "cubic_nonneg_sufficient", "quad_min_bruteforce", "quad_nonneg",
    "Certificate", "Condition", "Verdict", "aggregate", "applicable_criteria",
    "certify_all", "diag_necessity", "qi_strict_generic", "run_criterion",
    "songqi_strict_generic", "thm31_exact_c3d2", "thm32_sqrt_c3d2",
    "thm33_mixed_c3d2", "thm34_disc_c3d3", "thm35_sqrt_c3d3", "thm41_disc_c4d2",
    "thm42_sqrt_c4d2", "thm43_disc_c4d3", "thm44_sqrt_c4d3", "thm45_sos_c4d3",
    "thm4remark_check", "thm4remark_decompose",
    "Classification", "OracleConfig", "OracleResult", "classify",
    "default_config", "min_on_simplex",
    "StabilityReport", "Z3Params", "check_stability", "coupling_tensor",
    "printed_certificate", "scan_rho", "theorem_certificate",
    "entries_as_strings", "load_document", "parse_document", "serialize_document",
    "__version__",
]
