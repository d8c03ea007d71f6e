"""Half-line nonnegativity tests for cubics and quadratics.

The exact cubic and quadratic tests are cross-checked against the simplex
oracle on the binary form y^m p(x/y) (``conftest.halfline_form``), which is
copositive iff p >= 0 on t >= 0; the sufficient test must never certify
where the exact one refuses.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from copos import (CubicCoeffs, QuadCoeffs, cubic_disc, cubic_nonneg_exact,
                   cubic_nonneg_sufficient, min_on_simplex, quad_nonneg)
from copos.halfline import power_scale, quad_margin_checked, row_holds

from conftest import halfline_form

POWERS_OF_TWO = (0.03125, 0.25, 0.5, 2.0, 8.0, 128.0)


# ---------------------------------------------------------------------------
# cubic exact

@pytest.mark.parametrize("values, e", [
    ([1.0, -3.0, 0.0], 0),  # the largest magnitude lies in [2**-64, 2**64): as given
    ([0.0, -0.0], 0),
    ([2.0 ** 64, 1.5 * 2.0 ** 10], 64),  # into [1, 2)
    ([-3.0 * 2.0 ** -90, 2.0 ** -1074], -89),  # a multiplication, whatever the span
    ([2.0 ** 300, 1.0, -1.0], 64),  # the division stops with 1.0 at 2**-64
    ([2.0 ** 70, 0.0, 2.0 ** -70], 0),  # any division would take 2**-70 lower
])
def test_power_scale_is_exact_and_never_divides_below_2_to_the_minus_64(values, e):
    got_e, got = power_scale(values)
    assert got_e == e
    assert [math.ldexp(v, e) for v in got] == values
    assert e <= 0 or min(abs(v) for v in got if v) >= 2.0 ** -64


def test_cubic_exact_all_nonneg():
    assert cubic_nonneg_exact(CubicCoeffs(1, 1, 1, 1))


def test_cubic_exact_rejects_shifted_cube():
    # P = (t-1)^3 is negative on [0, 1)
    assert not cubic_nonneg_exact(CubicCoeffs(1, -3, 3, -1))


def test_cubic_exact_discriminant_branch():
    # P = (t-1)^2 (t+1): nonnegative on t >= 0 with a double root,
    # discriminant combination exactly 0
    cc = CubicCoeffs(1, -1, -1, 1)
    assert cubic_nonneg_exact(cc)
    a, b, c, d = cc
    disc = 4*a*c**3 + 4*b**3*d + 27*a*a*d*d - 18*a*b*c*d - b*b*c*c
    assert disc == 0.0
    assert min_on_simplex(halfline_form(cc)).min_value >= 0.0


def test_cubic_disc_is_the_negated_discriminant():
    # t^3 - 3t + 2 = (t-1)^2 (t+2) has a double root: zero
    assert cubic_disc(1.0, 0.0, -3.0, 2.0) == 0.0
    # t^3 - t = t (t-1)(t+1): discriminant prod (ri - rj)^2 = 4, negated
    assert cubic_disc(1.0, 0.0, -1.0, 0.0) == -4.0
    # t^3 + t: one real root, discriminant -4, negated
    assert cubic_disc(1.0, 0.0, 1.0, 0.0) == 4.0


def test_cubic_exact_degenerate_leading_and_constant():
    # a = d = 0 leaves only the all-nonnegative system
    assert cubic_nonneg_exact(CubicCoeffs(0, 1, 1, 0))
    assert not cubic_nonneg_exact(CubicCoeffs(0, -1, 1, 0))
    # P = -t^2 + t is positive on (0,1) but negative beyond
    assert not cubic_nonneg_exact(CubicCoeffs(0, -1, 1, 0))


def test_cubic_exact_negative_endpoint_values():
    assert not cubic_nonneg_exact(CubicCoeffs(-1, 0, 0, 1))   # a < 0
    assert not cubic_nonneg_exact(CubicCoeffs(1, 0, 0, -1))   # P(0) < 0


# ---------------------------------------------------------------------------
# cubic sufficient

def test_cubic_sufficient_boundary():
    # sqrt(ad) = 1, both thresholds -1, met with equality
    assert cubic_nonneg_sufficient(CubicCoeffs(1, -1, -1, 1))


def test_cubic_sufficient_zero():
    assert cubic_nonneg_sufficient(CubicCoeffs(0, 0, 0, 0))


def test_cubic_sufficient_below_threshold():
    assert not cubic_nonneg_sufficient(CubicCoeffs(1, -1.01, 0, 1))


def test_cubic_sufficient_implies_exact():
    rng = np.random.default_rng(101)
    certified = 0
    for _ in range(10_000):
        cc = CubicCoeffs(*rng.uniform(-2, 2, size=4))
        if cubic_nonneg_sufficient(cc):
            certified += 1
            assert cubic_nonneg_exact(cc)
    assert certified > 100  # the sweep actually exercises the implication


# ---------------------------------------------------------------------------
# quadratic

def test_quad_perfect_square():
    assert quad_nonneg(QuadCoeffs(1, -2, 1))


def test_quad_below_threshold():
    assert not quad_nonneg(QuadCoeffs(1, -2.1, 1))


def test_quad_linear_ramp():
    assert quad_nonneg(QuadCoeffs(0, 1, 0))


def test_quad_sign_preconditions():
    assert not quad_nonneg(QuadCoeffs(-1, 0, 1))
    assert not quad_nonneg(QuadCoeffs(1, 0, -1))
    assert not quad_nonneg(QuadCoeffs(0, -1, 1))  # -t + 1 < 0 past t=1


def test_quad_is_exact_where_its_root_rounds():
    # beta = -2*sqrt(alpha*gamma) as rounded: the float comparison alone said
    # "nonnegative" for about half of these, where beta^2 > 4*alpha*gamma
    rng = np.random.default_rng(111)
    for alpha, gamma in rng.uniform(0.1, 3.0, size=(5000, 2)):
        for a, g in ((alpha, gamma), (alpha * 2.0 ** -600, gamma * 2.0 ** -600)):
            beta = -2.0 * math.sqrt(a * g)
            want = Fraction(beta) ** 2 <= 4 * Fraction(a) * Fraction(g)
            assert quad_nonneg((a, beta, g)) == want, (a, beta, g)
            assert (quad_margin_checked(beta, a, g) < 0) != want


def test_quad_margin_keeps_an_exact_zero():
    # -1 >= -(2/3)*sqrt(3*0.75*1) holds with equality: the golden mixed-sign rows
    assert quad_margin_checked(-1.0, 0.75, 1.0, 3.0, 3.0) == 0.0
    assert quad_margin_checked(-2.0, 1.0, 1.0) == 0.0


def test_quad_margin_rechecks_an_overflowing_root():
    # 3*1e200*1e200 overflows, so the float row is inf; exactly, 9*beta**2 = 9e402
    # exceeds 4*3e400, and the row is negative.  Where the sign is right, inf stays
    assert quad_margin_checked(-1e201, 1e200, 1e200, 3.0, 3.0) == -math.ulp(0.0)
    assert quad_margin_checked(-1e199, 1e200, 1e200, 3.0, 3.0) == math.inf
    assert not quad_nonneg((1e200, -1e201, 1e200)) and quad_nonneg((1e200, -1e199, 1e200))


# ---------------------------------------------------------------------------
# the row rule

def test_row_holds_is_finite_and_meets_the_bound():
    values = (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1.7e308, math.inf, -math.inf, math.nan)
    want = {False: [True, True, True, False, True, False, True, False, False, False],
            True: [False, False, True, False, True, False, True, False, False, False]}
    for strict in (False, True):
        assert [row_holds(v, strict) for v in values] == want[strict]
        assert [row_holds(np.float64(v), strict) for v in values] == want[strict]


# ---------------------------------------------------------------------------
# every scale

def test_exact_halfline_tests_hold_at_every_power_of_two():
    # s = 2**k over the whole binary64 exponent range, subnormals included.
    # The float products over- or underflow at its ends, where the exact
    # fallback decides.  s(t^2 - 1.9t + 1) has no real root (among the
    # subnormals -1.9s rounds to -2s, and s(t - 1)^2 holds too); s(t - 1)^2
    # (t + 1) has a double root at t = 1; s(t^2 - 3t + 1) and
    # s(t^3 - 2t^2 - t + 1) are negative at t = 1
    for k in range(-1074, 1024):
        s = math.ldexp(1.0, k)
        assert quad_nonneg((s, -1.9 * s, s)), k
        assert cubic_nonneg_exact((s, -s, -s, s)), k
        if k < 1023:  # 2s and 3s are finite
            assert not quad_nonneg((s, -3 * s, s)), k
            assert not cubic_nonneg_exact((s, -2 * s, -s, s)), k
            assert not cubic_nonneg_sufficient((s, -3 * s, -3 * s, s)), k


# ---------------------------------------------------------------------------
# input validation

@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_coefficients_rejected(bad):
    with pytest.raises(ValueError):
        cubic_nonneg_exact(CubicCoeffs(1, bad, 0, 1))
    with pytest.raises(ValueError):
        cubic_nonneg_sufficient(CubicCoeffs(bad, 0, 0, 1))
    with pytest.raises(ValueError):
        quad_nonneg(QuadCoeffs(1, bad, 1))


def test_wrong_arity_rejected():
    with pytest.raises(ValueError):
        cubic_nonneg_exact((1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        quad_nonneg((1.0, 2.0, 3.0, 4.0))


# ---------------------------------------------------------------------------
# the simplex oracle on the binary form

def test_cubic_exact_agrees_with_grid():
    rng = np.random.default_rng(202)
    checked = 0
    for _ in range(1500):
        cc = CubicCoeffs(*rng.uniform(-2, 2, size=4))
        got = min_on_simplex(halfline_form(cc))
        eps = 1e-9 * (1.0 + max(abs(v) for v in cc))
        if abs(got.min_value) <= eps:
            continue  # inside the band: the oracle cannot call the sign
        assert cubic_nonneg_exact(cc) == (got.min_value >= -eps)
        checked += 1
    assert checked > 1000


def test_quad_agrees_with_grid():
    rng = np.random.default_rng(303)
    checked = 0
    for _ in range(1500):
        qc = QuadCoeffs(*rng.uniform(-2, 2, size=3))
        got = min_on_simplex(halfline_form(qc))
        eps = 1e-9 * (1.0 + max(abs(v) for v in qc))
        if abs(got.min_value) <= eps:
            continue
        assert quad_nonneg(qc) == (got.min_value >= -eps)
        checked += 1
    assert checked == 1500  # every draw, alpha <= 0 included, leaves the band


# ---------------------------------------------------------------------------
# positive scaling

def test_deciders_invariant_under_positive_scaling():
    # powers of two scale floats exactly, so the verdicts must be identical
    rng = np.random.default_rng(404)
    for _ in range(500):
        cc = CubicCoeffs(*rng.uniform(-2, 2, size=4))
        qc = QuadCoeffs(*rng.uniform(-2, 2, size=3))
        for c in POWERS_OF_TWO:
            scaled_cc = CubicCoeffs(*(c * v for v in cc))
            scaled_qc = QuadCoeffs(*(c * v for v in qc))
            assert cubic_nonneg_exact(scaled_cc) == cubic_nonneg_exact(cc)
            assert cubic_nonneg_sufficient(scaled_cc) == cubic_nonneg_sufficient(cc)
            assert quad_nonneg(scaled_qc) == quad_nonneg(qc)
