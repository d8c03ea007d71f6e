"""Closed-form criteria: every documented example plus structural laws.

Frozen expected values were computed against the simplex oracle before
being pinned here; boundary instances assert exact float equality because
the comparisons in the criteria are literal.
"""

import hashlib
import itertools
import math
import pathlib
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from copos import criteria
from copos import (Certificate, Condition, Verdict, aggregate,
                   all_indices, applicable_criteria, build, certify_all, diag_necessity,
                   min_on_simplex, multiplicity, parse_document, qi_strict_generic, run_criterion,
                   songqi_strict_generic, thm31_exact_c3d2, thm32_sqrt_c3d2,
                   thm33_mixed_c3d2, thm34_disc_c3d3, thm35_sqrt_c3d3, thm41_disc_c4d2,
                   thm42_sqrt_c4d2, thm43_disc_c4d3, thm44_sqrt_c4d3,
                   thm45_sos_c4d3, thm4remark_check, thm4remark_decompose, zero)
from copos.halfline import cubic_disc, cubic_nonneg_exact, cubic_nonneg_sufficient, quad_nonneg
from copos.oracle import OracleConfig
from conftest import (SHAPES, ge_reference, random_point, random_tensor, rel_err,
                      verdict_reference)

C = Verdict.CERTIFIED
R = Verdict.REFUTED
U = Verdict.UNKNOWN

THIRD = 1.0 / 3.0
SIXTH = 1.0 / 6.0

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "golden"


def t32(g111, g112, g122, g222):
    return build(3, 2, {(1, 1, 1): g111, (1, 1, 2): g112,
                        (1, 2, 2): g122, (2, 2, 2): g222})


def t42(a1111, a1112, a1122, a1222, a2222):
    return build(4, 2, {(1, 1, 1, 1): a1111, (1, 1, 1, 2): a1112,
                        (1, 1, 2, 2): a1122, (1, 2, 2, 2): a1222,
                        (2, 2, 2, 2): a2222})


def diag_ones(order, dim, extra=None):
    entries = {(i,) * order: 1.0 for i in range(1, dim + 1)}
    entries.update(extra or {})
    return build(order, dim, entries)


# ---------------------------------------------------------------------------
# diagonal necessity

def test_diag_refutes_negative_diagonal():
    cert = diag_necessity(build(3, 2, {(1, 1, 1): -1.0}))
    assert cert.outcome is R
    assert cert.criterion_id == "diag"


def test_diag_zero_tensor_unknown():
    assert diag_necessity(zero(3, 3)).outcome is U


def test_diag_on_unstable_coupling_tensor():
    from copos import Z3Params, coupling_tensor
    t = coupling_tensor(Z3Params(lam1=-1.0, lam2=1.0, lam_s=1.0))
    assert diag_necessity(t).outcome is R


# ---------------------------------------------------------------------------
# order 3, dimension 2

def test_thm31_diagonal_pair():
    cert = thm31_exact_c3d2(t32(1, 0, 0, 1))
    assert cert.outcome is C
    assert cert.branch == "(1)"


def test_thm31_refutes_with_witness():
    t = t32(1, 0, -1, 1)
    cert = thm31_exact_c3d2(t)
    assert cert.outcome is R
    assert t.evaluate((0.5, 0.5)) == -0.125  # explicit negative point


def test_thm31_degenerate_diagonals():
    assert thm31_exact_c3d2(t32(0, 1, 1, 0)).outcome is C


@pytest.mark.parametrize("entries", [(1.0, -THIRD, 0.0, 0.0), (0.0, 0.0, -THIRD, 1.0)])
def test_thm31_refutes_a_degenerate_half_line_cubic(entries):
    # x1^2 (x1 - x2) and its mirror: one coordinate pair of the cubic is 0, so its
    # discriminant is 0 whatever the signs; the form is -1/27 at (1/3, 2/3) or
    # (2/3, 1/3), and the max rows of system (2) fail
    t = t32(*entries)
    x = (Fraction(1, 3), Fraction(2, 3)) if entries[0] else (Fraction(2, 3), Fraction(1, 3))
    form = sum(Fraction(t.get(idx)) * multiplicity(idx) * x[idx[0] - 1] * x[idx[1] - 1]
               * x[idx[2] - 1] for idx in all_indices(3, 2))
    assert abs(form + Fraction(1, 27)) < 1e-16
    cert = thm31_exact_c3d2(t)
    assert cert.outcome is R and cert.conditions[-1].value == 0.0
    assert aggregate(certify_all(t)) is R
    cubic = (entries[0], 3 * entries[1], 3 * entries[2], entries[3])
    assert not cubic_nonneg_exact(cubic)


def test_thm31_is_the_exact_half_line_test():
    # thm3.1 and cubic_nonneg_exact share system (2)'s rows: on integer entries,
    # whose triples 3*g112 and 3*g122 are exact, they agree, degenerate pairs
    # (g111 = g112 = 0 or g122 = g222 = 0) included
    verdicts = {True: 0, False: 0}
    for g111, g112, g122, g222 in itertools.product(range(-3, 4), repeat=4):
        got = thm31_exact_c3d2(t32(g111, g112, g122, g222)).certified
        assert got == cubic_nonneg_exact((g111, 3 * g112, 3 * g122, g222)), (g111, g112, g122, g222)
        verdicts[got] += 1
    assert min(verdicts.values()) > 400, verdicts


def test_thm31_agrees_with_oracle():
    # moderate sweep here; the full 10k run lives in the acceptance suite
    rng = np.random.default_rng(31)
    cfg = OracleConfig(resolution=2000, refine_rounds=3, band=1e-6)
    definitive = 0
    for _ in range(800):
        t = random_tensor(rng, 3, 2)
        got = min_on_simplex(t, cfg)
        if got.classification.value == "indeterminate":
            continue
        definitive += 1
        want = got.classification.value == "copositive-up-to-band"
        assert (thm31_exact_c3d2(t).outcome is C) == want
    assert definitive > 700


def test_thm31_refutation_has_negative_grid_point():
    rng = np.random.default_rng(13)
    cfg = OracleConfig(resolution=2000, refine_rounds=3)
    found = 0
    while found < 100:
        t = random_tensor(rng, 3, 2)
        if thm31_exact_c3d2(t).outcome is R:
            found += 1
            assert min_on_simplex(t, cfg).min_value < 0.0


def test_thm32_boundary_thresholds():
    cert = thm32_sqrt_c3d2(t32(1, -THIRD, -THIRD, 1))
    assert cert.outcome is C
    # thresholds are exactly (1 - 2)/3; equality certifies
    assert cert.conditions[2].value == 0.0
    assert cert.conditions[3].value == 0.0


def test_thm32_diagonal_pair():
    cert = thm32_sqrt_c3d2(t32(1, 0, 0, 1))
    assert cert.outcome is C
    assert cert.conditions[2].value == THIRD


def test_thm32_zero_diagonals_cannot_absorb():
    assert thm32_sqrt_c3d2(t32(0, 0, -0.1, 0)).outcome is U


def test_thm33_first_system_boundary():
    cert = thm33_mixed_c3d2(t32(1, -2, 3, 1))
    assert cert.outcome is C
    assert cert.branch == "(1)"
    assert cert.conditions[3].value == 0.0  # -2 >= -(2/3)*sqrt(9)


def test_thm33_zero_tensor():
    assert thm33_mixed_c3d2(t32(0, 0, 0, 0)).outcome is C


def test_thm33_past_threshold():
    assert thm33_mixed_c3d2(t32(1, -3, 3, 1)).outcome is U


def test_thm33_does_not_certify_a_row_that_rounds_past_its_boundary():
    # g222 = 0 makes system (1) exact: 9*g112^2 - 12*g111*g122 is +1.8e-15 here,
    # yet g112 - quad_bound(3*g122, g111)/3 rounds to >= 0
    t = t32(1, -1.6162466901333152, 1.9591900225251724, 0)
    assert thm31_exact_c3d2(t).outcome is R
    cert = thm33_mixed_c3d2(t)
    assert cert.outcome is U
    assert cert.conditions[3] == ("(1) g112 >= -(2/3)*sqrt(3*g122*g111)", -math.ulp(0.0), False)


def test_thm33_square_root_rows_carry_the_exact_sign():
    # draws on the boundary of system (1), and their mirrors on that of (2): a row
    # is negative iff 9*b^2 - 12*a*c > 0 for its entry b < 0 and the a, c under its
    # root, so no certificate stands where thm3.1 refutes
    rng = np.random.default_rng(3303)
    wrong_way = certified = 0
    for k in range(20_000):
        a, c = rng.uniform(0.1, 3.0, size=2)
        b = -(2.0 / 3.0) * math.sqrt(3.0 * a * c)
        t, row = (t32(a, b, c, 0.0), 3) if k % 2 else (t32(0.0, c, b, a), 7)
        disc = 9 * Fraction(b) ** 2 - 12 * Fraction(a) * Fraction(c)
        cert = thm33_mixed_c3d2(t)
        assert (cert.conditions[row].value < 0) == (disc > 0), (a, b, c, cert)
        if cert.outcome is C:
            certified += 1
            assert disc <= 0 and thm31_exact_c3d2(t).outcome is C, (a, b, c)
        wrong_way += disc > 0
    assert certified + wrong_way == 20_000 and wrong_way > 4000  # the rest all certified


def test_thm32_and_thm33_imply_thm31():
    rng = np.random.default_rng(3233)
    hits = 0
    for _ in range(2000):
        t = random_tensor(rng, 3, 2)
        exact = thm31_exact_c3d2(t).outcome
        if thm32_sqrt_c3d2(t).outcome is C:
            hits += 1
            assert exact is C
        if thm33_mixed_c3d2(t).outcome is C:
            hits += 1
            assert exact is C
    assert hits > 100


# ---------------------------------------------------------------------------
# order 3, dimension 3

def test_thm34_diagonal_ones():
    cert = thm34_disc_c3d3(diag_ones(3, 3))
    assert cert.outcome is C
    assert [c.value for c in cert.conditions[4:]] == [1.0, 1.0, 1.0]


def test_thm34_negative_pair_fails():
    t = diag_ones(3, 3, {(1, 1, 2): -0.25, (1, 2, 2): -0.25})
    cert = thm34_disc_c3d3(t)
    assert cert.outcome is U
    # -0.5 - 0.5 + 1 - 1.5 - 0.1875
    assert cert.conditions[4].value == -1.6875


def test_thm34_negative_g123_fails():
    assert thm34_disc_c3d3(diag_ones(3, 3, {(1, 2, 3): -0.1})).outcome is U


def test_thm35_boundary_pairs():
    extra = {(i, i, j): -SIXTH for i, j in ((1, 2), (1, 3), (2, 3))}
    extra.update({(i, j, j): -SIXTH for i, j in ((1, 2), (1, 3), (2, 3))})
    extra[(1, 2, 3)] = 0.0
    cert = thm35_sqrt_c3d3(diag_ones(3, 3, extra))
    assert cert.outcome is C
    assert all(c.value == 0.0 for c in cert.conditions[4:])


def test_thm35_diagonal_ones():
    assert thm35_sqrt_c3d3(diag_ones(3, 3)).outcome is C


def test_thm35_negative_g123_fails():
    extra = {(i, i, j): -SIXTH for i, j in ((1, 2), (1, 3), (2, 3))}
    extra.update({(i, j, j): -SIXTH for i, j in ((1, 2), (1, 3), (2, 3))})
    extra[(1, 2, 3)] = -0.01
    assert thm35_sqrt_c3d3(diag_ones(3, 3, extra)).outcome is U


# ---------------------------------------------------------------------------
# order 4, dimension 2

def test_thm41_sparse_diagonal():
    cert = thm41_disc_c4d2(t42(1, 0, 0, 0, 1))
    assert cert.outcome is C
    assert cert.branch == "(1)"
    assert cert.conditions[3].value == 0.0  # first discriminant


def test_thm41_positive_cross_term():
    cert = thm41_disc_c4d2(t42(1, 0, 1, 0, 1))
    assert cert.outcome is C
    assert cert.conditions[3].value == 54.0


def test_thm41_negative_cross_term_unknown():
    assert thm41_disc_c4d2(t42(1, 0, -1, 1, 1)).outcome is U


def test_thm41_requires_positive_diagonals():
    assert thm41_disc_c4d2(zero(4, 2)).outcome is U
    assert thm41_disc_c4d2(t42(0, 0, 1, 0, 1)).outcome is U


def test_thm42_first_system():
    cert = thm42_sqrt_c4d2(t42(1, 1, 0, 1, 1))
    assert cert.outcome is C
    assert cert.branch == "(1)"


def test_thm42_conservative_on_sparse_diagonal():
    # thm4.1 certifies this tensor; the square-root test does not reach it
    cert = thm42_sqrt_c4d2(t42(1, 0, 0, 0, 1))
    assert cert.outcome is U
    assert cert.conditions[3].value == -0.25  # a1112 misses the 1/4 threshold


def test_thm42_negative_entries_unknown():
    assert thm42_sqrt_c4d2(t42(1, -1, -1, 1, 1)).outcome is U


def test_thm42_second_system():
    t = build(4, 2, {(1, 1, 1, 1): 4.0})
    cert = thm42_sqrt_c4d2(t)
    assert cert.outcome is C
    assert cert.branch == "(2)"


# ---------------------------------------------------------------------------
# order 4, dimension 3

SIX_CUBICS = ((1, 1, 1, 2), (1, 1, 1, 3), (1, 2, 2, 2),
              (2, 2, 2, 3), (1, 3, 3, 3), (2, 3, 3, 3))


def test_thm43_small_positive_cubics():
    cert = thm43_disc_c4d3(diag_ones(4, 3, {idx: 0.01 for idx in SIX_CUBICS}))
    assert cert.outcome is C
    want = 16.0 * 0.01**2 * 0.01**2
    assert [c.value for c in cert.conditions[15:]] == [want] * 3


def test_thm43_zero_tensor_excluded():
    # the max{.,.} > 0 rows rule out the zero tensor by construction
    cert = thm43_disc_c4d3(zero(4, 3))
    assert cert.outcome is U
    assert not cert.conditions[9].satisfied


def test_thm43_negative_a1123():
    t = diag_ones(4, 3, {idx: 0.01 for idx in SIX_CUBICS})
    t = build(4, 3, {**t.entries, (1, 1, 2, 3): -1.0})
    cert = thm43_disc_c4d3(t)
    assert cert.outcome is U
    assert cert.conditions[16].value < -0.079


def test_thm44_zero_tensor():
    assert thm44_sqrt_c4d3(zero(4, 3)).outcome is C


def test_thm44_unit_cubics_boundary():
    cert = thm44_sqrt_c4d3(diag_ones(4, 3, {idx: 1.0 for idx in SIX_CUBICS}))
    assert cert.outcome is C
    # triple thresholds are (2/3)*(1 - 2), met by the zero entries
    assert all(c.value == 2.0 / 3.0 for c in cert.conditions[12:])


def test_thm44_negative_pair_fails():
    t = diag_ones(4, 3, {idx: 1.0 for idx in SIX_CUBICS})
    t = build(4, 3, {**t.entries, (1, 1, 2, 2): -1.0})
    assert thm44_sqrt_c4d3(t).outcome is U


def test_thm45_diagonal_ones():
    assert thm45_sos_c4d3(diag_ones(4, 3)).outcome is C


def test_thm45_boundary_mixed_entry():
    t = diag_ones(4, 3, {(1, 2, 3, 3): -1.0 / 27.0})
    cert = thm45_sos_c4d3(t)
    assert cert.outcome is C
    assert cert.conditions[11].value == 0.0  # 27*a1233 + sqrt(q13*q23)


def test_thm45_past_boundary():
    t = diag_ones(4, 3, {(1, 2, 3, 3): -1.0 / 13.0})
    assert thm45_sos_c4d3(t).outcome is U


def test_thm45_strict_needs_positive_cubics():
    # non-strict certifies diagonal ones; strict fails on the zero entries
    assert thm45_sos_c4d3(diag_ones(4, 3), strict=True).outcome is U


def test_thm45_strict_certifies_interior_instance():
    extra = {(1, 1, 1, 3): 0.01, (1, 2, 2, 2): 0.01, (2, 3, 3, 3): 0.01,
             (1, 1, 2, 2): 0.01, (1, 1, 3, 3): 0.01, (2, 2, 3, 3): 0.01,
             (1, 1, 2, 3): 0.01, (1, 2, 2, 3): 0.01, (1, 2, 3, 3): 0.01}
    cert = thm45_sos_c4d3(diag_ones(4, 3, extra), strict=True)
    assert cert.outcome is C
    assert cert.margin == 0.01


def test_thm45_strict_implies_nonstrict(rng):
    for _ in range(300):
        t = random_tensor(rng, 4, 3)
        if thm45_sos_c4d3(t, strict=True).outcome is C:
            assert thm45_sos_c4d3(t).outcome is C


# ---------------------------------------------------------------------------
# the x_i-split

def test_decompose_identity(rng):
    for _ in range(200):
        t = random_tensor(rng, 4, 3)
        g1, g2, g3 = thm4remark_decompose(t)
        x = random_point(rng, 3, -1.5, 1.5)
        split = (x[0] * g1.evaluate(x) + x[1] * g2.evaluate(x)
                 + x[2] * g3.evaluate(x))
        assert rel_err(split, t.evaluate(x)) <= 1e-12


def decompose_reference(tensor):
    # the split written out by hand: the reference the table-driven
    # thm4remark_decompose must match bit for bit
    a = tensor.get
    a1111, a2222, a3333 = a((1,) * 4), a((2,) * 4), a((3,) * 4)
    a1112, a1113 = a((1, 1, 1, 2)), a((1, 1, 1, 3))
    a1222, a2223 = a((1, 2, 2, 2)), a((2, 2, 2, 3))
    a1333, a2333 = a((1, 3, 3, 3)), a((2, 3, 3, 3))
    a1122, a1133, a2233 = a((1, 1, 2, 2)), a((1, 1, 3, 3)), a((2, 2, 3, 3))
    a1123, a1223, a1233 = a((1, 1, 2, 3)), a((1, 2, 2, 3)), a((1, 2, 3, 3))
    g1 = build(3, 3, {
        (1, 1, 1): a1111,
        (1, 1, 2): 2.0 * a1112 / 3.0,
        (1, 2, 2): a1122,
        (2, 2, 2): 2.0 * a1222,
        (3, 3, 3): 2.0 * a1333,
        (1, 3, 3): a1133,
        (1, 1, 3): 2.0 * a1113 / 3.0,
        (1, 2, 3): 2.0 * a1123 / 3.0,
        (2, 2, 3): 4.0 * a1223 / 3.0,
        (2, 3, 3): 4.0 * a1233 / 3.0,
    })
    g2 = build(3, 3, {
        (1, 1, 1): 2.0 * a1112,
        (1, 1, 2): a1122,
        (1, 2, 2): 2.0 * a1222 / 3.0,
        (2, 2, 2): a2222,
        (3, 3, 3): 2.0 * a2333,
        (1, 3, 3): 4.0 * a1233 / 3.0,
        (1, 1, 3): 4.0 * a1123 / 3.0,
        (1, 2, 3): 2.0 * a1223 / 3.0,
        (2, 2, 3): 2.0 * a2223 / 3.0,
        (2, 3, 3): a2233,
    })
    g3 = build(3, 3, {
        (1, 1, 1): 2.0 * a1113,
        (1, 1, 2): 4.0 * a1123 / 3.0,
        (1, 2, 2): 4.0 * a1223 / 3.0,
        (2, 2, 2): 2.0 * a2223,
        (3, 3, 3): a3333,
        (1, 3, 3): 2.0 * a1333 / 3.0,
        (1, 1, 3): a1133,
        (1, 2, 3): 2.0 * a1233 / 3.0,
        (2, 2, 3): a2233,
        (2, 3, 3): 2.0 * a2333 / 3.0,
    })
    return g1, g2, g3


def test_decompose_matches_reference_bit_for_bit():
    rng = np.random.default_rng(4303)

    def bits(component):
        return {idx: v.hex() for idx, v in component.entries.items()}

    for _ in range(1_000):
        t = random_tensor(rng, 4, 3)
        got = thm4remark_decompose(t)
        want = decompose_reference(t)
        assert [bits(g) for g in got] == [bits(g) for g in want]


def test_decompose_zero_tensor():
    assert all(g == zero(3, 3) for g in thm4remark_decompose(zero(4, 3)))


def test_decompose_refuses_a_component_that_is_not_finite():
    # G_1's entry (1, 1, 2) is 2 * a1112 / 3, and 2 * 1.7e308 overflows:
    # the components are made by build, so they meet its entry rule
    t = build(4, 3, {(1, 1, 1, 1): 1.0, (1, 1, 1, 2): 1.7e308})
    with pytest.raises(ValueError, match=r"^entry \(1, 1, 2\) is not finite: inf$"):
        thm4remark_decompose(t)


def test_decompose_diagonal_ones():
    g1, g2, g3 = thm4remark_decompose(diag_ones(4, 3))
    assert g1 == build(3, 3, {(1, 1, 1): 1.0})
    assert g2 == build(3, 3, {(2, 2, 2): 1.0})
    assert g3 == build(3, 3, {(3, 3, 3): 1.0})


def test_remark_zero_tensor():
    assert thm4remark_check(zero(4, 3)).outcome is C


def test_remark_diagonal_ones():
    cert = thm4remark_check(diag_ones(4, 3))
    assert cert.outcome is C
    assert cert.branch == "(thm3.4,thm3.4,thm3.4)"


def test_remark_negative_pair_unknown():
    cert = thm4remark_check(diag_ones(4, 3, {(1, 1, 2, 2): -1.0}))
    assert cert.outcome is U
    assert cert.branch is None


# ---------------------------------------------------------------------------
# generic strict tests

def test_qi_small_negative_entry():
    cert = qi_strict_generic(t32(1, -0.1, 0, 1))
    assert cert.outcome is C
    # ordered tuples: g112 counts twice in slice 1, once in slice 2
    assert cert.conditions[0].value == 1.0 - 0.1 - 0.1
    assert cert.conditions[1].value == 1.0 - 0.1


def test_qi_zero_tensor_unknown():
    assert qi_strict_generic(zero(3, 2)).outcome is U


def test_qi_frozen_enumeration_example():
    cert = qi_strict_generic(t32(1, -0.2, -0.2, 1))
    assert cert.outcome is C
    assert [c.value for c in cert.conditions] == [0.4000000000000001] * 2


def test_qi_certified_implies_oracle_positive(rng):
    cfg = OracleConfig(resolution=400, refine_rounds=2)
    found = 0
    for _ in range(400):
        t = random_tensor(rng, 3, 2)
        if qi_strict_generic(t).outcome is C:
            found += 1
            assert min_on_simplex(t, cfg).min_value > 0.0
    assert found > 5


def test_songqi_dominant_mean():
    cert = songqi_strict_generic(t32(2, 0.1, 0.1, 2))
    assert cert.outcome is C
    assert cert.conditions[0].value == 2.3000000000000003   # ordered slice sum
    assert cert.conditions[1].value == 0.4750000000000001   # mean - worst entry


def test_songqi_all_ones_not_strictly_dominant():
    t = build(3, 2, {idx: 1.0 for idx in ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2))})
    cert = songqi_strict_generic(t)
    assert cert.outcome is U
    assert cert.conditions[1].value == 0.0  # mean equals the off-diagonal entries


def test_songqi_zero_tensor_unknown():
    assert songqi_strict_generic(zero(3, 2)).outcome is U


@pytest.mark.parametrize("order, dim", [(12, 3), (18, 2)])
def test_slice_criteria_refuse_too_many_tails(order, dim):
    # refused before enumerating, and before songqi forms its float count;
    # an order above 2**16 never gets here (tests/test_number_rules.py).
    # diag reads no slice, so the tail limit does not bind it
    for cid in ("qi", "songqi"):
        with pytest.raises(ValueError, match=rf"^a slice of an order-{order} dim-{dim} tensor"
                                             rf" has {dim}\*\*{order - 1} ordered tails,"
                                             r" above the limit of 65536$"):
            run_criterion(cid, zero(order, dim))
    assert run_criterion("diag", zero(order, dim)).outcome is U


def test_diag_reads_its_diagonal_directly():
    # the diagonal entries (i,)*order, whatever the slice plan would cost:
    # order 20 at dim 2 has 2**19 tails per slice, but two diagonal rows
    t = build(20, 2, {(1,) * 20: -1.0, (1,) * 19 + (2,): 5.0})
    cert = diag_necessity(t)
    assert (cert.outcome, cert.conditions) == (R, (
        Condition("g[" + "1" * 20 + "] >= 0", -1.0, False),
        Condition("g[" + "2" * 20 + "] >= 0", 0.0, True)))
    # the rows are dim keys and texts of order components each: bounded in all
    assert len(diag_necessity(zero(2**16, 2)).conditions) == 2
    with pytest.raises(ValueError, match=r"^the diagonal of an order-2 dim-65537 tensor has"
                                         r" 131074 index components, above the limit of 131072$"):
        diag_necessity(zero(2, 2**16 + 1))


def test_slice_criteria_refuse_an_order_above_the_limit():
    # a dim-1 slice has one tail, so the tail limit never binds there: the
    # order limit does, at build, before a slice plan is asked for
    t = zero(2**16, 1)
    assert [run_criterion(cid, t).outcome for cid in ("diag", "qi", "songqi")] == [
        Verdict.UNKNOWN] * 3
    with pytest.raises(ValueError, match=r"^an order-65537 tensor is above the order"
                                         r" limit of 65536$"):
        zero(2**16 + 1, 1)


def test_slice_plan_admits_the_limit():
    # 2**16 tails at order 17, dim 2; unwrapped, so the large plan is not cached
    assert len(criteria._slices.__wrapped__(17, 2)[0][1]) == 2**16 - 1


def test_generic_tests_certify_order_one():
    # a slice of a linear form has no off-diagonal tail: qi's row and songqi's
    # sum row are both g_i > 0, which is exactly strict copositivity
    t = build(1, 3, {(1,): 1.0, (2,): 2.0, (3,): 0.5})
    for fn, text in ((qi_strict_generic, "diagonal + sum of negative off-diagonal entries"
                      " (ordered count) > 0"), (songqi_strict_generic, "ordered sum > 0")):
        cert = fn(t)
        assert cert.outcome is C
        assert [(c.description, c.value) for c in cert.conditions] == [
            (f"slice {i}: {text}", v) for i, v in ((1, 1.0), (2, 2.0), (3, 0.5))]
        assert fn(build(1, 3, {(1,): 1.0, (2,): 2.0})).outcome is U  # g_3 = 0
        assert fn(build(1, 3, {(1,): 1.0, (2,): -2.0, (3,): 0.5})).outcome is U


# ---------------------------------------------------------------------------
# dispatch and aggregation

def test_applicable_criteria_by_shape():
    assert applicable_criteria(3, 2) == ("diag", "thm3.1", "thm3.2", "thm3.3", "qi", "songqi")
    assert applicable_criteria(3, 3) == ("diag", "thm3.4", "thm3.5", "qi", "songqi")
    assert applicable_criteria(4, 2) == ("diag", "thm4.1", "thm4.2", "qi", "songqi")
    assert applicable_criteria(4, 3) == ("diag", "thm4.3", "thm4.4", "thm4.5",
                                         "remark", "qi", "songqi")
    # shapes without closed-form theorems still get the generic tests
    assert applicable_criteria(2, 2) == ("diag", "qi", "songqi")
    # up to the tail limit (2**16 at order 17, dim 2; 3**10 at order 11, dim 3)
    assert applicable_criteria(17, 2) == applicable_criteria(11, 3) == ("diag", "qi", "songqi")


@pytest.mark.parametrize("order, dim", [(12, 3), (18, 2), (20, 2)])
def test_certify_all_leaves_out_a_refused_slice_plan(order, dim):
    # qi and songqi refuse a slice plan above the tail limit; certify_all
    # leaves them out there, so diag's refutation still stands
    t = build(order, dim, {(1,) * order: -1.0, (2,) * order: 1.0})
    assert applicable_criteria(order, dim) == ("diag",)
    certs = certify_all(t)
    assert [c.criterion_id for c in certs] == ["diag"]
    assert aggregate(certs) is R


def test_run_criterion_unknown_id():
    with pytest.raises(ValueError, match="unknown criterion"):
        run_criterion("thm9.9", zero(3, 2))


# every registered criterion with a shape, and the public split, which reads as the remark
SHAPED = {cid: (cid, shape, fn) for cid, (shape, fn, _) in criteria._REGISTRY.items() if shape}
SHAPED["thm4remark_decompose"] = ("remark", (4, 3), thm4remark_decompose)


@pytest.mark.parametrize("name", SHAPED)
def test_criteria_reject_wrong_shape(name):
    cid, (order, dim), fn = SHAPED[name]
    for wrong in (zero(order, 5 - dim), zero(7 - order, dim)):  # the other dim, the other order
        message = (f"{cid} applies to order-{order} dim-{dim} tensors, "
                   f"got order-{wrong.order} dim-{wrong.dim}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fn(wrong)


def test_certify_all_order_and_aggregate():
    certs = certify_all(t32(1, 0, 0, 1))
    assert [c.criterion_id for c in certs] == list(applicable_criteria(3, 2))
    assert aggregate(certs) is C
    assert certs[1].branch == "(1)"

    assert aggregate(certify_all(t32(1, 0, -1, 1))) is R

    certs = certify_all(diag_ones(4, 3))
    by_id = {c.criterion_id: c.outcome for c in certs}
    assert by_id["thm4.3"] is U
    assert by_id["thm4.4"] is C
    assert by_id["thm4.5"] is C
    assert by_id["remark"] is C
    assert aggregate(certs) is C


def test_aggregate_precedence():
    def fake(outcome):
        from copos import Condition
        return Certificate("x", outcome, (Condition("c", 0.0, True),))
    assert aggregate([fake(U), fake(C), fake(R)]) is R
    assert aggregate([fake(U), fake(C)]) is C
    assert aggregate([fake(U), fake(U)]) is U
    assert aggregate([]) is U


def test_condition_repr_and_equality():
    # certificates print their rows through this repr (StabilityReport too)
    c = Condition("a1111 > 0", -0.0, False)
    assert repr(c) == "Condition(description='a1111 > 0', value=-0.0, satisfied=False)"
    assert (c.description, c.value, c.satisfied) == ("a1111 > 0", -0.0, False)
    assert c == Condition("a1111 > 0", 0.0, False)
    assert c != Condition("a1111 > 0", -0.0, True)
    assert c != Condition("a1111 >= 0", -0.0, False)
    # a Condition is a plain tuple: it equals one and unpacks like one
    assert c == ("a1111 > 0", 0.0, False)
    description, value, satisfied = c
    assert (description, value, satisfied, len(c)) == ("a1111 > 0", -0.0, False, 3)


def test_certificate_repr_and_equality():
    row = Condition("g111 >= 0", -1.0, False)
    cert = Certificate("diag", Verdict.REFUTED, (row,))
    # the repr reports print, unchanged from when Certificate was a dataclass
    assert repr(cert) == ("Certificate(criterion_id='diag', outcome=<Verdict.REFUTED: 'refuted'>,"
                          " conditions=(Condition(description='g111 >= 0', value=-1.0,"
                          " satisfied=False),), branch=None)")
    assert not cert.certified and cert.margin == -1.0
    # a Certificate is a plain tuple, like Condition: it equals one and unpacks like one
    assert cert == ("diag", Verdict.REFUTED, (row,), None)
    criterion_id, outcome, conditions, branch = cert
    assert (criterion_id, outcome, conditions, branch, len(cert)) == (
        "diag", Verdict.REFUTED, (row,), None, 4)
    # a tensor compared with anything else is unequal (its __eq__ defers to the other side)
    assert (build(3, 2, {}) == 5) is False


# ---------------------------------------------------------------------------
# structural laws

def test_certificates_always_carry_conditions(rng):
    for order, dim in SHAPES:
        t = random_tensor(rng, order, dim)
        for cert in certify_all(t):
            assert len(cert.conditions) > 0
            assert cert.margin == min(c.value for c in cert.conditions)


def test_certified_branch_conditions_all_hold(rng):
    for order, dim in SHAPES:
        for _ in range(150):
            t = random_tensor(rng, order, dim)
            for cert in certify_all(t):
                if not cert.certified:
                    continue
                if cert.branch in ("(1)", "(2)"):
                    rows = [c for c in cert.conditions
                            if c.description.startswith(cert.branch)
                            or not c.description.startswith("(")]
                else:
                    rows = list(cert.conditions)
                assert all(c.satisfied for c in rows)


def test_verdicts_invariant_under_positive_scaling(rng):
    # powers of two rescale every entry exactly, so each criterion must
    # reach the identical verdict on the scaled tensor
    for order, dim in SHAPES:
        for _ in range(100):
            t = random_tensor(rng, order, dim)
            base = {c.criterion_id: c.outcome for c in certify_all(t)}
            for c in (0.25, 2.0, 32.0):
                scaled = {cert.criterion_id: cert.outcome
                          for cert in certify_all(t.scale(c))}
                assert scaled == base


def test_discriminant_rows_match_their_text(rng):
    # every discriminant row (the rows whose text has a power) is the scaled
    # cubic discriminant; its value must be the polynomial the text prints
    for order, dim in SHAPES:
        for _ in range(200):
            t = build(order, dim, {idx: rng.uniform(0.5, 1.5) if len(set(idx)) == 1
                                   else rng.uniform(-1.0, 1.0)
                                   for idx in all_indices(order, dim)})
            prefix = "g" if order == 3 else "a"
            env = {prefix + "".join(map(str, idx)): t.get(idx)
                   for idx in all_indices(order, dim)}
            env["sqrt"] = math.sqrt
            if (order, dim) == (4, 3):
                for i, j in ((1, 2), (1, 3), (2, 3)):
                    env[f"q{i}{j}"] = eval(f"9*a{i}{i}{j}{j} + sqrt(a{i}{i}{i}{i}*a{j}{j}{j}{j})",
                                           env)
            rows = [row for cert in certify_all(t, strict=True)
                    for row in cert.conditions if "^" in row.description]
            assert rows
            for row in rows:
                lhs = row.description.rsplit(" >", 1)[0].removeprefix("(1) ").removeprefix("(2) ")
                want = eval(lhs.replace("^", "**"), env)
                assert abs(row.value - want) <= 1e-8 * max(1.0, abs(want)), row.description


def biased_draws(rng, count, shape):
    # diagonals mostly nonnegative so that every branch fires often enough
    order, dim = shape
    diags = {(i,) * order for i in range(1, dim + 1)}
    for _ in range(count):
        yield build(order, dim, {idx: rng.uniform(-0.1 if idx in diags else -1.0, 1.0)
                                 for idx in all_indices(order, dim)})


def test_sqrt_criteria_are_the_halfline_tests_at_scaled_coefficients(rng):
    # thm3.2 is cubic_nonneg_sufficient on the order-3 cubic, thm3.3 is
    # quad_nonneg on either quadratic part of it, and each branch of thm4.2
    # is cubic_nonneg_sufficient on one cubic cofactor of the quartic
    counts = {"thm3.2": 0, "thm3.3": 0, "thm4.2": 0}
    for t in biased_draws(rng, 5000, (3, 2)):
        g111, g112, g122, g222 = (t.get(idx) for idx in all_indices(3, 2))
        sufficient = cubic_nonneg_sufficient((g111, 3 * g112, 3 * g122, g222))
        mixed = g111 >= 0 and g222 >= 0 and (
            (g122 >= 0 and quad_nonneg((g111, 3 * g112, 3 * g122)))
            or (g112 >= 0 and quad_nonneg((3 * g112, 3 * g122, g222))))
        assert thm32_sqrt_c3d2(t).certified == sufficient
        assert thm33_mixed_c3d2(t).certified == mixed
        counts["thm3.2"] += sufficient
        counts["thm3.3"] += mixed
    for t in biased_draws(rng, 5000, (4, 2)):
        a1111, a1112, a1122, a1222, a2222 = (t.get(idx) for idx in all_indices(4, 2))
        cofactor = a1111 >= 0 and a2222 >= 0 and (
            cubic_nonneg_sufficient((a1111, 4 * a1112, 6 * a1122, 4 * a1222))
            or cubic_nonneg_sufficient((4 * a1112, 6 * a1122, 4 * a1222, a2222)))
        assert thm42_sqrt_c4d2(t).certified == cofactor
        counts["thm4.2"] += cofactor
    # both outcomes are well represented, so the equalities say something
    assert all(500 < n < 4500 for n in counts.values()), counts


@pytest.mark.parametrize("s", [1e80, 1e160])
def test_overflow_never_refutes(s):
    # a copositive tensor scaled until thm3.1's discriminant, at the input
    # scale, would overflow to inf - inf (1e80) or in its cubes (1e160): read
    # at one power-of-two scale it keeps its x1 verdict and branch, and every
    # row is finite
    t = t32(s, -0.1 * s, 0.5 * s, s)
    cert, one = thm31_exact_c3d2(t), thm31_exact_c3d2(t32(1.0, -0.1, 0.5, 1.0))
    assert (cert.outcome, cert.branch) == (one.outcome, one.branch) == (C, "(2)")
    assert all(math.isfinite(c.value) for c in cert.conditions)
    assert aggregate(certify_all(t)) is C


def test_thm31_rechecks_a_rounded_negative_discriminant_exactly():
    # disc-zero has an exact discriminant of 0 and sqrt-boundary a positive
    # one; at every scale the float row may round below 0, and both tensors
    # are copositive, so neither thm3.1 nor the aggregate may refute
    for name in ("disc-zero", "sqrt-boundary"):
        t = parse_document((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
        for k in range(-73, 76):
            scaled = t.scale(10.0 ** k)
            for strict in (False, True):
                certs = certify_all(scaled, strict=strict)
                assert certs[[c.criterion_id for c in certs].index("thm3.1")].outcome is not R
                assert aggregate(certs) is not R, (name, k, strict)
    # at 0.1 the float row is -2.6e-19; the exact recheck puts its exact 0 there
    cert = thm31_exact_c3d2(t32(0.4, 0.0, -0.1, 0.1))
    assert (cert.outcome, cert.branch, repr(cert.conditions[-1].value)) == (C, "(2)", "0.0")
    # a truly negative discriminant is refuted as before, its float row kept
    cert = thm31_exact_c3d2(t32(0.4, 0.0, -0.1 - 1e-12, 0.1))
    assert cert.outcome is R and cert.conditions[-1].value < 0


# per discriminant criterion: a tensor that is not copositive and the index of
# a discriminant row that is negative on it (the remark's least thm3.4 row)
UNDERFLOWING = {
    # refuted-mixed; below 1e-81 every term of its row underflowed at the input scale
    "thm3.1": (parse_document((GOLDEN / "refuted-mixed.json").read_text(encoding="utf-8")), -1),
    # -4 at (1, 1, 0): the (1, 2) pair row
    "thm3.4": (diag_ones(3, 3, {(1, 1, 2): -1.0, (1, 2, 2): -1.0}), 4),
    # -4 at (1, 1): the branch (1) row
    "thm4.1": (diag_ones(4, 2, {(1, 1, 2, 2): -1.0}), 3),
    # -13 at (1, 1, 1): the boundary cubic of a1222 .. a1333, whose roots are 2, 1/2, -1
    "thm4.3": (diag_ones(4, 3, {(1, 2, 2, 2): 1.0, (1, 3, 3, 3): 1.0,
                                (1, 2, 2, 3): -1.0, (1, 2, 3, 3): -1.0}), 15),
    # -4 at (1, 1, 0): the a1111 cofactor row, with q12 = -8
    "thm4.5": (diag_ones(4, 3, {(1, 1, 2, 2): -1.0}), 12),
    "remark": (diag_ones(4, 3, {(1, 1, 2, 2): -1.0}), 0),
}


@pytest.mark.parametrize("criterion_id", list(UNDERFLOWING))
def test_no_discriminant_row_certifies_an_underflowing_tensor(criterion_id):
    # read at one power-of-two scale, every discriminant row keeps its negative
    # sign and a finite value at every scale, so neither the criterion nor the
    # aggregate certifies a tensor that is not copositive; thm3.1 refutes it
    t, row = UNDERFLOWING[criterion_id]
    for k in range(-110, 80):
        for strict in (False, True):
            certs = certify_all(t.scale(10.0 ** k), strict=strict)
            cert = certs[[c.criterion_id for c in certs].index(criterion_id)]
            value = cert.conditions[row].value
            assert -math.inf < value < 0.0, (k, strict, value)
            assert cert.outcome is (R if criterion_id == "thm3.1" else U), (k, strict)
            assert aggregate(certs) is not C, (k, strict)
            assert criterion_id != "thm3.1" or aggregate(certs) is R
    cert = thm31_exact_c3d2(UNDERFLOWING["thm3.1"][0].scale(1e-90))
    assert cert.outcome is R and -4.0 < cert.conditions[-1].value < -3.0


# the (criterion, shape, entries of the cubic's inputs, row index, factors, divisor) of
# every discriminant row spec.  The row is cubic_disc(fa*a, fb*b, fc*c, fd*d) / divisor
# at inputs (a, b, c, d) = the entries named, read as given; thm4.5's c is q12, which
# is 9*a1122 with a2222 = 0
ROW_SPECS = [
    ("thm3.1", (3, 2), ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)), -1, (1, 3, 3, 1), 27),
    ("thm3.4", (3, 3), ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)), 4, (1, 6, 6, 1), 27),
    ("thm4.1", (4, 2), ((1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 2)), 3,
     (1, 4, 6, 4), 16),
    ("thm4.1", (4, 2), ((1, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 2), (2, 2, 2, 2)), 5,
     (4, 6, 4, 1), 16),
    ("thm4.3", (4, 3), ((1, 2, 2, 2), (1, 2, 2, 3), (1, 2, 3, 3), (1, 3, 3, 3)), 15,
     (4, 6, 6, 4), 432),
    ("thm4.5", (4, 3), ((1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 2)), 12,
     (1, 36, 6, 324), 432),
]


@pytest.mark.parametrize("spec", ROW_SPECS, ids=lambda spec: f"{spec[0]}-row{spec[3]}")
def test_discriminant_rows_carry_the_exact_sign(spec):
    # a(t - r)^2 (t + s) has a double root at r, so its discriminant is 0; divided by
    # the factors and rounded, the cubic's exact discriminant is a tiny number of
    # either sign, which the float formula often gets wrong.  The row is negative iff
    # the exact value is, and positive only where it is (0.0 may stand for a positive)
    criterion_id, shape, keys, row, factors, divisor = spec
    rng = np.random.default_rng(27)
    signs = {-1: 0, 0: 0, 1: 0}
    for _ in range(300):
        a, r, s = rng.uniform(0.5, 2.0), rng.uniform(0.1, 4.0), rng.uniform(-4.0, 4.0)
        cubic = (a, a * (s - 2 * r), a * (r * r - 2 * r * s), a * r * r * s)
        if criterion_id == "thm4.5":
            factors_read = factors[:2] + (54,) + factors[3:]  # a1122 = q12 / 9 = c / 54
        else:
            factors_read = factors
        entries = dict(zip(keys, (v / f for v, f in zip(cubic, factors_read))))
        entries.setdefault((1,) * shape[0], 1.0)
        entries.setdefault((2,) * shape[0], 0.0 if criterion_id == "thm4.5" else 1.0)
        t = build(*shape, entries)
        cert = run_criterion(criterion_id, t)
        value = cert.conditions[row].value
        inputs = [Fraction(t.get(key)) for key in keys]
        if criterion_id == "thm4.5":
            inputs[2] = Fraction(cert.conditions[6].value)  # q12, taken as exact
        exact = cubic_disc(*(f * x for f, x in zip(factors, inputs))) / divisor
        assert math.isfinite(value)
        assert (value < 0) == (exact < 0), (entries, value, float(exact))
        assert value <= 0 or exact > 0, (entries, value, float(exact))
        signs[(exact > 0) - (exact < 0)] += 1
    assert signs[-1] > 30 and signs[1] > 30, signs


def test_thm41_never_certifies_a_form_negative_at_a_double_root():
    # the form is -4.2e-16 at x = (1, 1.0874909108756479), in exact arithmetic.
    # The unchecked float row of thm4.1's branch (1) was positive and certified it
    t = t42(1.5568691908375654, 0.2597302064212785, -0.9766654973255177,
            0.8248841730411385, 8.271806125530277e-25)
    x = (Fraction(1), Fraction(1.0874909108756479))
    form = sum(Fraction(t.get(idx)) * multiplicity(idx) * x[idx[0] - 1] * x[idx[1] - 1]
               * x[idx[2] - 1] * x[idx[3] - 1] for idx in all_indices(4, 2))
    assert -5e-16 < form < -4e-16
    for strict in (False, True):
        certs = certify_all(t, strict=strict)
        assert [c.criterion_id for c in certs if c.outcome is C] == []
        assert aggregate(certs) is U
    assert thm41_disc_c4d2(t).conditions[3].value < 0


@pytest.mark.parametrize("shape, entries, criterion_id", [
    ((4, 2), {(1, 1, 1, 1): 1.0, (1, 1, 2, 2): -1.0, (2, 2, 2, 2): 1.0}, "thm4.1"),
    ((3, 3), {(1, 1, 1): 1.0, (2, 2, 2): 1.0, (3, 3, 3): 1.0, (1, 1, 2): -1.0, (1, 2, 2): -1.0},
     "thm3.4")])
def test_discriminant_rows_never_certify_a_tiny_tensor_that_is_not_copositive(
        shape, entries, criterion_id):
    # the (4,2) form is -4 at (1, 1) and the (3,3) form -4 at (1, 1, 0).  At
    # x1e-90 their unchecked discriminant rows underflowed to -0.0 at the
    # input scale and certified; read at one power-of-two scale they stay negative
    t = build(*shape, entries).scale(1e-90)
    certs = certify_all(t)
    cert = certs[[c.criterion_id for c in certs].index(criterion_id)]
    assert cert.outcome is U and min(c.value for c in cert.conditions) < -1.0
    assert aggregate(certs) is not C


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("shape, entries", [
    # the form is -4 at (1, 1, 0).  Divided by 2**300, every term of thm3.4's
    # (1, 2) discriminant row (-135 at x1) would fall below 2**-1074, to 0.0
    ((3, 3), {(1, 1, 1): 1.0, (2, 2, 2): 1.0, (1, 1, 2): -1.0, (1, 2, 2): -1.0,
              (3, 3, 3): 2.0 ** 300}),
    # the form is negative at x = 1, y ~ 2**-1200.  Divided by 2**1000, g112
    # would round to -0.0, which meets g112 >= 0
    ((3, 2), {(1, 1, 2): -2.0 ** -100, (1, 2, 2): 2.0 ** 1000, (2, 2, 2): 2.0 ** 1000})])
def test_a_wide_tensor_is_never_divided_into_underflow(shape, entries, strict):
    # power_scale stops a division where it would take a nonzero entry below
    # 2**-64, so no criterion certifies these tensors, which are not copositive
    certs = certify_all(build(*shape, entries), strict=strict)
    assert [c.criterion_id for c in certs if c.outcome is C] == []
    if shape == (3, 3):
        assert aggregate(certs) is U
        cert = certs[[c.criterion_id for c in certs].index("thm3.4")]
        assert cert.conditions[4].description.startswith("32*g111*g122^3")
        assert cert.conditions[4].value == -135.0 * 2.0 ** -256
    else:
        # thm3.1's discriminant row leaves the float range (-81*2**1800); its exact
        # value saturates at -max, which refutes
        cert = certs[[c.criterion_id for c in certs].index("thm3.1")]
        assert cert.conditions[-1].value == -sys.float_info.max
        assert cert.outcome is R and aggregate(certs) is R


def test_sqrt_rows_keep_their_verdict_below_the_radicand_underflow():
    # at s = 1e-162 the radicand g111*g222 = 1e-324 underflowed to 0 at the
    # input scale, and thm3.2 lost the certificate it gives from s = 1 down
    for s in (1.0, 1e-160, 1e-162, 1e-300):
        assert thm32_sqrt_c3d2(t32(s, -0.2 * s, -0.2 * s, s)).outcome is C, s


def test_exact_cubic_test_agrees_with_thm31_at_every_scale():
    # cubic_nonneg_exact and thm3.1 share one discriminant recheck.  Where
    # 3*g112 and 3*g122 are exact floats the half-line cubic is thm3.1's and
    # the two agree; elsewhere the rounded cubic is another polynomial
    # (disc-zero x 1e-72: exact discriminant -1.1e-301), decided exactly
    seen = {True: 0, False: 0}
    for name in ("disc-zero", "sqrt-boundary"):
        t = parse_document((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
        for k in range(-73, 76):
            scaled = t.scale(10.0 ** k)
            g111, g112, g122, g222 = (scaled.get(idx) for idx in all_indices(3, 2))
            cubic = (g111, 3 * g112, 3 * g122, g222)
            exact = [Fraction(v) for v in cubic]
            same = exact[1:3] == [3 * Fraction(g112), 3 * Fraction(g122)]
            seen[same] += 1
            if same:
                want = thm31_exact_c3d2(scaled).certified
            else:
                want = min(cubic) >= 0 or cubic_disc(*exact) >= 0
            assert cubic_nonneg_exact(cubic) == want, (name, k, same)
    assert seen[True] > 100 and seen[False] > 100, seen


def test_non_finite_value_never_fires_a_branch():
    # 1e200 * 1e200 overflows to inf inside thm3.3's radicand: the row's
    # value is inf, which proves nothing, so the row is unsatisfied and the
    # branch does not certify
    cert = thm33_mixed_c3d2(t32(1e200, -1.0, 1e200, 1.0))
    inf_rows = [c for c in cert.conditions if not math.isfinite(c.value)]
    assert [(c.description, c.value, c.satisfied) for c in inf_rows] == [
        ("(1) g112 >= -(2/3)*sqrt(3*g122*g111)", math.inf, False)]
    assert cert.outcome is U


def test_soundness_spot_check(rng):
    # small version of the acceptance sweep: no certificate on a tensor the
    # oracle proves not copositive
    for order, dim in SHAPES:
        cfg = OracleConfig(resolution=400 if dim == 2 else 60, band=1e-6)
        for _ in range(150):
            t = random_tensor(rng, order, dim)
            if not any(c.certified for c in certify_all(t)):
                continue
            got = min_on_simplex(t, cfg)
            assert got.classification.value != "not-copositive"


# ---------------------------------------------------------------------------
# frozen certificates and the original remark, qi and songqi

# sha256 of certificate_records over digest_tensors(), generated with the
# criteria as they stood before their texts, slice plans and the remark
# split were cached; any change to an id, outcome, branch, text, value
# (repr, so -0.0 and 0.0 differ) or satisfied flag changes it
CERTIFICATES_DIGEST = "4d6b5474f0de8d9258a0fb8b1b9b656dd25578b27c958bde1e37fcea4277aa37"

TIES = (-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0)


def digest_entries(rng, kind, order, dim):
    out = {}
    for idx in all_indices(order, dim):
        diagonal = len(set(idx)) == 1
        if kind == 0:  # uniform
            out[idx] = rng.uniform(-1.0, 1.0)
        elif kind in (1, 2):  # diagonally biased: gate 2's mixture, then one
            # with positive cross terms, where every (4,3) remark branch fires
            off = (-0.15, 0.05) if kind == 1 else (-0.1, 0.5)
            out[idx] = rng.uniform(0.5, 1.5) if diagonal else rng.uniform(*off)
        elif kind == 3:  # sparse: absent, explicit 0.0 and -0.0 entries
            pick = rng.uniform()
            if pick < 0.3:
                continue
            out[idx] = (0.0 if pick < 0.45 else -0.0 if pick < 0.6
                        else rng.uniform(0.0, 1.0) if diagonal else rng.uniform(-0.5, 0.5))
        else:  # a few exact values: ties in max/min and rows on their boundary
            out[idx] = TIES[int(rng.integers(len(TIES)))]
    return out


def digest_tensors():
    tensors = [parse_document(path.read_text(encoding="utf-8"))
               for path in sorted(GOLDEN.glob("*.json"))]
    rng = np.random.default_rng(5005)
    for order, dim in SHAPES:
        tensors += [build(order, dim, digest_entries(rng, k % 5, order, dim))
                    for k in range(1_000)]
    return tensors


def certificate_records(tensor):
    for strict in (False, True):
        for cert in certify_all(tensor, strict=strict):
            yield certificate_key(cert)


def certificate_key(cert):
    return (cert.criterion_id, cert.outcome.value, cert.branch,
            tuple((c.description, repr(c.value), c.satisfied) for c in cert.conditions))


def certificates_digest():
    h = hashlib.sha256()
    for t in digest_tensors():
        for record in certificate_records(t):
            h.update(repr(record).encode())
    return h.hexdigest()


def test_certificates_match_frozen_digest():
    assert certificates_digest() == CERTIFICATES_DIGEST


# remark, qi and songqi as first written, kept verbatim with the helpers
# they used (the row rule is conftest's): the references the cached versions
# must match bit for bit

def _offdiag_slice_keys(order, dim):
    # for slice i: canonical keys of (i, tail) over ordered tails != (i,..,i)
    out = []
    for i in range(1, dim + 1):
        diag_tail = (i,) * (order - 1)
        keys = [tuple(sorted((i, *tail)))
                for tail in itertools.product(range(1, dim + 1), repeat=order - 1)
                if tail != diag_tail]
        out.append(tuple(keys))
    return tuple(out)


def remark_reference(tensor):
    components = thm4remark_decompose(tensor)
    conds = []
    fired = []
    ok = True
    for i, comp in enumerate(components, start=1):
        c34 = thm34_disc_c3d3(comp)
        c35 = thm35_sqrt_c3d3(comp)
        conds.append(Condition(f"component {i} passes thm3.4", c34.margin, c34.certified))
        conds.append(Condition(f"component {i} passes thm3.5", c35.margin, c35.certified))
        if c34.certified:
            fired.append("thm3.4")
        elif c35.certified:
            fired.append("thm3.5")
        else:
            ok = False
    outcome = Verdict.CERTIFIED if ok else Verdict.UNKNOWN
    branch = "(" + ",".join(fired) + ")" if ok else None
    return Certificate("remark", outcome, tuple(conds), branch)


def qi_reference(tensor):
    conds = []
    for i in range(1, tensor.dim + 1):
        value = tensor.get((i,) * tensor.order)
        for key in _offdiag_slice_keys(tensor.order, tensor.dim)[i - 1]:
            value += min(tensor.entries.get(key, 0.0), 0.0)
        conds.append(ge_reference(f"slice {i}: diagonal + sum of negative off-diagonal"
                                   " entries (ordered count) > 0", value, strict=True))
    return verdict_reference(conds, [(None, conds)], "qi", Verdict.UNKNOWN)


def songqi_reference(tensor):
    conds = []
    count = float(tensor.dim ** (tensor.order - 1))
    for i in range(1, tensor.dim + 1):
        keys = _offdiag_slice_keys(tensor.order, tensor.dim)[i - 1]
        total = tensor.get((i,) * tensor.order)
        worst = -math.inf
        for key in keys:
            v = tensor.entries.get(key, 0.0)
            total += v
            worst = max(worst, v)
        conds.append(ge_reference(f"slice {i}: ordered sum > 0", total, strict=True))
        if keys:  # order 1 and dim 1 have no off-diagonal entries to exceed
            conds.append(ge_reference(f"slice {i}: mean of ordered sum exceeds every"
                                       " off-diagonal entry", total / count - worst,
                                       strict=True))
    return verdict_reference(conds, [(None, conds)], "songqi", Verdict.UNKNOWN)


def test_remark_qi_songqi_match_reference_bit_for_bit():
    rng = np.random.default_rng(5006)
    # the generic tests also run on shapes without closed-form criteria
    extra = [build(order, dim, digest_entries(rng, k % 5, order, dim))
             for order, dim in ((2, 1), (2, 4), (3, 1), (3, 4), (5, 2), (1, 1), (1, 3))
             for k in range(40)]
    for t in digest_tensors() + extra:
        if (t.order, t.dim) == (4, 3):
            assert certificate_key(thm4remark_check(t)) == certificate_key(remark_reference(t))
        assert certificate_key(qi_strict_generic(t)) == certificate_key(qi_reference(t))
        assert (certificate_key(songqi_strict_generic(t))
                == certificate_key(songqi_reference(t)))


# every public criterion function, by id, as certify_all dispatches it
PUBLIC_CRITERIA = {
    "diag": diag_necessity, "thm3.1": thm31_exact_c3d2, "thm3.2": thm32_sqrt_c3d2,
    "thm3.3": thm33_mixed_c3d2, "thm3.4": thm34_disc_c3d3, "thm3.5": thm35_sqrt_c3d3,
    "thm4.1": thm41_disc_c4d2, "thm4.2": thm42_sqrt_c4d2, "thm4.3": thm43_disc_c4d3,
    "thm4.4": thm44_sqrt_c4d3, "thm4.5": thm45_sos_c4d3, "remark": thm4remark_check,
    "qi": qi_strict_generic, "songqi": songqi_strict_generic,
}


def test_certify_all_equals_each_public_criterion():
    for t in digest_tensors():
        ids = applicable_criteria(t.order, t.dim)
        for strict in (False, True):
            want = [certificate_key(PUBLIC_CRITERIA[cid](t, strict=strict) if cid == "thm4.5"
                                    else PUBLIC_CRITERIA[cid](t)) for cid in ids]
            assert [certificate_key(c) for c in certify_all(t, strict=strict)] == want


def test_qi_songqi_signed_zero_rows():
    # min(v, 0.0) keeps an entry of -0.0, and -0.0 + -0.0 stays -0.0, so a
    # slice of explicit -0.0 entries reads -0.0 while one +0.0 or absent
    # entry (read as 0.0) makes it 0.0; repr tells the two apart
    def reprs(cert):
        return [repr(c.value) for c in cert.conditions]

    negative = build(3, 2, {idx: -0.0 for idx in all_indices(3, 2)})
    assert reprs(qi_strict_generic(negative)) == ["-0.0", "-0.0"]
    assert reprs(songqi_strict_generic(negative)) == ["-0.0", "0.0", "-0.0", "0.0"]
    # g122 = +0.0: slice 1 reads it once, slice 2 twice
    mixed = build(3, 2, {(1, 1, 1): -0.0, (1, 1, 2): -0.0, (1, 2, 2): 0.0, (2, 2, 2): -0.0})
    assert reprs(qi_strict_generic(mixed)) == ["0.0", "0.0"]
    assert reprs(songqi_strict_generic(mixed)) == ["0.0", "0.0", "0.0", "0.0"]
    # a positive entry is clipped to +0.0, so its slices read 0.0 too; an
    # absent diagonal reads 0.0
    clipped = build(3, 2, {(1, 1, 1): -0.0, (1, 1, 2): 0.5, (1, 2, 2): -0.0})
    assert reprs(qi_strict_generic(clipped)) == ["0.0", "0.0"]
    assert reprs(songqi_strict_generic(clipped)) == ["1.0", "-0.25", "0.5", "-0.375"]
    # order 1 has no off-diagonal tail: the rows are the diagonal entries
    linear = build(1, 2, {(1,): -0.0, (2,): 0.0})
    assert reprs(qi_strict_generic(linear)) == ["-0.0", "0.0"]
    assert reprs(songqi_strict_generic(linear)) == ["-0.0", "0.0"]
    for t in (negative, mixed, clipped, linear):
        assert certificate_key(qi_strict_generic(t)) == certificate_key(qi_reference(t))
        assert certificate_key(songqi_strict_generic(t)) == certificate_key(songqi_reference(t))


# ---------------------------------------------------------------------------
# the reading each tensor's criteria share

def run_on_a_copy(cid, t):
    """The criterion's certificate, as repr, on a new copy of t read from empty slots."""
    criteria._last_read = criteria._last_slices = (None, None)
    return repr(run_criterion(cid, build(t.order, t.dim, dict(t.entries))))


def reading_tensors(rng, order, dim):
    # two tensors with different entries, one that equals the first but holds -0.0
    # where it holds 0.0 (rows show the sign), and one past 2**64 that _read divides
    t = dict(random_tensor(rng, order, dim).entries)
    diagonals = [(i,) * order for i in range(1, dim + 1)]
    t.update({diagonals[0]: 0.0, diagonals[-1]: 0.0})
    twin = t | {diagonals[0]: -0.0, diagonals[-1]: -0.0}
    wide = {k: v * 2.0 ** 70 for k, v in random_tensor(rng, order, dim).entries.items()}
    return [build(order, dim, e) for e in (t, random_tensor(rng, order, dim).entries, twin, wide)]


@pytest.mark.parametrize("order, dim", SHAPES)
def test_a_shared_reading_never_goes_stale(order, dim):
    rng = np.random.default_rng(2800 + 10 * order + dim)
    tensors = reading_tensors(rng, order, dim)
    assert tensors[0] == tensors[2] and tensors[0] is not tensors[2]
    ids = applicable_criteria(order, dim)
    want = {(cid, i): run_on_a_copy(cid, t) for cid in ids for i, t in enumerate(tensors)}
    sequence = [0, 1, 2, 0, 3, 1, 3, 2]
    runs = ([(cid, i) for cid in ids for i in sequence]     # each criterion alone, interleaved
            + [(cid, i) for i in sequence for cid in ids]   # certify_all's order, interleaved
            + [(cid, i) for cid in reversed(ids) for i in reversed(sequence)])
    for cid, i in runs:
        assert repr(run_criterion(cid, tensors[i])) == want[cid, i], (cid, i)
    other = random_tensor(rng, *next(s for s in SHAPES if s != (order, dim)))
    for cid in ids:
        registered = criteria._REGISTRY[cid][0]
        if registered is None:
            continue
        run_criterion(cid, tensors[0])
        with pytest.raises(ValueError, match=f"^{re.escape(cid)} applies to order-{order}"):
            run_criterion(cid, other)
        foreign = next(c for c, (shape, _, _) in criteria._REGISTRY.items()
                       if shape not in (None, registered))
        with pytest.raises(ValueError, match=f"^{re.escape(foreign)} applies to"):
            run_criterion(foreign, tensors[0])  # the same tensor, another shape's criterion
        assert repr(run_criterion(cid, tensors[0])) == want[cid, 0]


@pytest.mark.parametrize("order, dim", SHAPES)
def test_no_criterion_writes_into_its_reading(order, dim):
    rng = np.random.default_rng(2810 + 10 * order + dim)
    for t in reading_tensors(rng, order, dim):
        ids = applicable_criteria(order, dim)
        shaped = [cid for cid in ids if criteria._REGISTRY[cid][0] is not None]
        reading = criteria._read(t, shaped[0])
        before = repr(list(reading.items()))
        slices = criteria._slice_values(t)  # tuples of floats: nothing to write into
        for cid in ids:
            run_criterion(cid, t, strict=True)
            run_criterion(cid, t)
            assert criteria._read(t, shaped[0]) is reading
            assert repr(list(reading.items())) == before, cid
            assert criteria._slice_values(t) is slices
