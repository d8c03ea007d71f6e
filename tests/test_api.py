"""The public names of the copos package."""

import copos

PUBLIC_NAMES = [
    "Certificate", "Classification", "Condition", "CubicCoeffs", "Index",
    "OracleConfig", "OracleResult", "QuadCoeffs", "StabilityReport",
    "SymmetricTensor", "Vector", "Verdict", "Z3Params", "__version__",
    "aggregate", "all_indices", "applicable_criteria", "build", "canonicalize",
    "certify_all", "check_stability", "classify", "coupling_tensor", "cubic_disc",
    "cubic_nonneg_exact", "cubic_nonneg_sufficient", "default_config",
    "diag_necessity", "entries_as_strings", "load_document", "min_on_simplex",
    "multiplicity", "parse_document", "printed_certificate", "qi_strict_generic",
    "quad_nonneg", "run_criterion", "scan_rho", "serialize_document",
    "songqi_strict_generic",
    "theorem_certificate", "thm31_exact_c3d2", "thm32_sqrt_c3d2",
    "thm33_mixed_c3d2", "thm34_disc_c3d3", "thm35_sqrt_c3d3", "thm41_disc_c4d2",
    "thm42_sqrt_c4d2", "thm43_disc_c4d3", "thm44_sqrt_c4d3", "thm45_sos_c4d3",
    "thm4remark_check", "thm4remark_decompose", "zero",
]


def test_public_names_are_pinned():
    # names may be reordered in __all__, never dropped or added unnoticed
    assert sorted(copos.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(copos, name), name
