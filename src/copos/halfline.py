"""Nonnegativity of low-degree polynomials on the half-line t >= 0.

The scalar building blocks of every closed-form test in :mod:`copos.criteria`
and :mod:`copos.vacuum`, plus a brute-force grid minimiser used as an oracle.
Only :func:`quad_bound` (the exact quadratic test) takes a square root,
clamped to 0 where the radicand is not positive.  It feeds thm3.3, the
pairwise rows of thm4.3/4.4, thm4.5's q rows and the printed vacuum rows;
:func:`cubic_bounds` (the sufficient cubic test: thm3.2, thm3.5, thm4.2 and
thm4.4's max-arms) takes its shift from it.  :func:`row_holds` sets every row flag
of copos.  :func:`cubic_disc_checked`, the one caller of :func:`cubic_disc`, gives
every discriminant row its value (the exact cubic test and thm3.1 share
:func:`cubic_exact_rows`): it rechecks the sign in Fraction within a rounding
window that, like the oracle's screen window, rests on this module's rounding
model (``_U``, ``_UNDERFLOW``, ``_gamma``).  :func:`quad_margin_checked` does the same
for a square-root row beta >= quad_bound (thm3.3's two, and :func:`quad_nonneg`'s
test), and :func:`quad_nonneg` rechecks in Fraction where a float product overflows.
Every row is homogeneous in its inputs, and :func:`power_scale` divides them by
one power of two, which changes no row's sign, so that a row neither overflows
nor underflows where its inputs span less than 2**128.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Sequence

import numpy as np

from .tensors import _count, _entry_value


_U = 2.0 ** -53            # unit roundoff of binary64
_UNDERFLOW = 2.0 ** -1000  # absolute error of gradual underflow anywhere in the products
_MAX = sys.float_info.max  # where a discriminant row saturates


def _gamma(n: int) -> float:
    return n * _U / (1.0 - n * _U)


def row_holds(value: float, strict: bool = False) -> bool:
    """Whether ``value`` proves its row: finite and >= 0 (> 0 when strict)."""
    return 0.0 < value < math.inf if strict else 0.0 <= value < math.inf


def _exact(*xs: float) -> list:
    """The floats as Fractions; fractions is imported on first use (~3 ms of start-up)."""
    from fractions import Fraction
    return [Fraction(x) for x in xs]


def power_scale(values: Sequence[float]) -> tuple[int, Sequence[float]]:
    """(e, ``values`` / 2**e by ``math.ldexp``): e = 0, and ``values`` itself, where the
    largest magnitude is 0 or in [2**-64, 2**64), else the e that brings it into [1, 2),
    but a division stops where it would take a nonzero magnitude below 2**-64.

    The division is exact.  A product of <= 4 of the values returned underflows only
    where it did at the input scale, and overflows only where the largest magnitude is
    2**64 or more and the nonzero magnitudes span 2**128 or more."""
    top = max(max(values), -min(values))
    if 2.0 ** -64 <= top < 2.0 ** 64 or top == 0.0:
        return 0, values
    e = math.frexp(top)[1] - 1  # top = m * 2**(e + 1) with m in [0.5, 1)
    if e > 0:  # a division: the least nonzero magnitude stays at 2**-64 or above
        e = min(e, max(0, math.frexp(min(abs(v) for v in values if v))[1] + 63))
    return (e, [math.ldexp(v, -e) for v in values]) if e else (0, values)


class CubicCoeffs(NamedTuple):
    """Coefficients of ``P(t) = a t^3 + b t^2 + c t + d``."""
    a: float
    b: float
    c: float
    d: float


class QuadCoeffs(NamedTuple):
    """Coefficients of ``p(t) = alpha t^2 + beta t + gamma``."""
    alpha: float
    beta: float
    gamma: float


class GridMin(NamedTuple):
    """Result of a half-line grid scan.

    ``negative_at_infinity`` flags a negative leading nonzero coefficient,
    i.e. P(t) -> -inf (or P == d < 0 for a constant); the scan interval is
    a root bound, so the grid minimum already reflects the divergence sign.
    """
    min_value: float
    argmin: float
    negative_at_infinity: bool


def _coeffs(cc, kind: type) -> tuple[float, ...]:  # kind names them: CubicCoeffs or QuadCoeffs
    cc = tuple(cc)
    if len(cc) != len(kind._fields):
        raise ValueError(f"expected {len(kind._fields)} coefficients, got {len(cc)}")
    return tuple(_entry_value(name, v, "coefficient {}") for name, v in zip(kind._fields, cc))


def cubic_disc(a: float, b: float, c: float, d: float) -> float:
    """4ac^3 + 4b^3d + 27a^2d^2 - 18abcd - b^2c^2, the negated discriminant of
    a t^3 + b t^2 + c t + d, on floats or Fractions; a row reads it through
    :func:`cubic_disc_checked`.  Cubes are products: float ``**`` raises where ``*``
    gives inf."""
    return 4*a*(c*c*c) + 4*(b*b*b)*d + 27*a*a*d*d - 18*a*b*c*d - b*b*c*c


def cubic_disc_checked(a: float, b: float, c: float, d: float,
                       factors: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0),
                       divisor: float = 1.0) -> float:
    """cubic_disc(fa*a, fb*b, fc*c, fd*d) / divisor, (fa, fb, fc, fd) = factors: the
    value of every discriminant row, negative iff its exact value is and positive
    only where that is, so rounding neither refutes (disc-zero x 0.1) nor certifies.

    Within its rounding error of 0, or inf or nan on finite a, b, c, d, the float
    value is recomputed in Fraction at the exact factor products, and replaced where
    its sign is wrong (a 0.0 may stand for a positive) or it is not finite: by the
    exact value, saturated at +-sys.float_info.max and kept off 0.0.  An inf or nan
    input (thm4.5's q where a1122 overflows) leaves the float value as it is."""
    fa, fb, fc, fd = factors
    ka, kb, kc, kd = fa * a, fb * b, fc * c, fd * d
    disc = cubic_disc(ka, kb, kc, kd) / divisor
    ss = ka * ka + kb * kb + kc * kc + kd * kd
    # five terms of at most 54*m**4 in all, m = max|k*|, m**4 <= ss**2; each within 13
    # roundings: 4 factor products, 4 products, 4 sums and the division.  1728u*ss**2
    # bounds 54*gamma_13*m**4 and the roundings of ss**2, 2**-1000 gradual underflow
    if (not 1728 / divisor * _U * (ss * ss) + _UNDERFLOW < abs(disc) < math.inf
            and all(map(math.isfinite, (a, b, c, d)))):
        fa, fb, fc, fd, div, a, b, c, d = _exact(*factors, divisor, a, b, c, d)
        exact = cubic_disc(fa * a, fb * b, fc * c, fd * d) / div
        if (exact < 0) != (disc < 0) or exact <= 0 < disc or not abs(disc) < math.inf:
            disc = float(min(max(exact, -_MAX), _MAX))
            if exact and not disc:  # an exact nonzero below the least subnormal
                disc = math.ulp(0.0) if exact > 0 else -math.ulp(0.0)
    return disc


def cubic_exact_rows(a: float, b: float, c: float, d: float,
                     factors: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0),
                     divisor: float = 1.0) -> list[tuple[float, bool]]:
    """(value, strict) of each row of system (2) of the exact test on the cubic
    fa*a t^3 + fb*b t^2 + fc*c t + fd*d, factors > 0: max(a, b) > 0, max(c, d) > 0
    (where a = b = 0 or c = d = 0 the discriminant is 0 whatever the signs), a >= 0,
    d >= 0 and :func:`cubic_disc_checked` >= 0."""
    return [(max(a, b), True), (max(c, d), True), (a, False), (d, False),
            (cubic_disc_checked(a, b, c, d, factors, divisor), False)]


def cubic_nonneg_exact(cc) -> bool:
    """Exact test: P(t) >= 0 for all t >= 0 iff (1) a, b, c, d are all >= 0 or
    (2) every row of :func:`cubic_exact_rows` holds."""
    a, b, c, d = _coeffs(cc, CubicCoeffs)
    return min(a, b, c, d) >= 0 or all(row_holds(v, s) for v, s in cubic_exact_rows(a, b, c, d))


def cubic_bounds(a: float, d: float) -> tuple[float, float]:
    """(a - 2*sqrt(ad), d - 2*sqrt(ad)), the least b and c the sufficient test accepts."""
    s = -quad_bound(a, d)  # negation is exact and turns the clamp's -0.0 into 0.0
    return a - s, d - s


def quad_bound(alpha: float, gamma: float) -> float:
    """-2*sqrt(alpha*gamma), the least beta the quadratic test accepts."""
    return -2.0 * math.sqrt(ag) if (ag := alpha * gamma) > 0 else -0.0


def quad_margin_checked(beta: float, alpha: float, gamma: float,
                        factor: float = 1.0, divisor: float = 1.0) -> float:
    """beta - quad_bound(factor*alpha, gamma) / divisor, factor and divisor > 0: the value
    of a square-root row beta >= -2*sqrt(factor*alpha*gamma)/divisor, negative iff its
    exact value is, so rounding at a tight row certifies nothing.

    Only beta < 0 can give a wrong sign.  The root term carries at most 3 roundings where
    its products are normal, and lies below 2**-500/divisor where they are not; within
    that error of 0 the sign is rechecked in Fraction, as negative iff
    divisor**2*beta**2 > 4*factor*alpha*gamma, and a wrong one replaced by 0.0 or
    -math.ulp(0.0)."""
    value = beta - quad_bound(factor * alpha, gamma) / divisor
    if beta < 0 and abs(value) <= 8 * _U * -beta + 2.0 ** -500 / divisor:
        b, f, a, g, d = _exact(beta, factor, alpha, gamma, divisor)
        negative = d * d * b * b > 4 * f * a * g
        if negative != (value < 0):
            value = -math.ulp(0.0) if negative else 0.0
    return value


def cubic_nonneg_sufficient(cc) -> bool:
    """Sufficient test, thm3.2's rows: a, d, b - lo_b, c - lo_c by :func:`cubic_bounds`."""
    a, b, c, d = _coeffs(cc, CubicCoeffs)
    lo_b, lo_c = cubic_bounds(a, d)
    return all(map(row_holds, (a, d, b - lo_b, c - lo_c)))


def quad_nonneg(qc) -> bool:
    """Exact test of alpha t^2 + beta t + gamma >= 0 on t >= 0: alpha >= 0,
    gamma >= 0 and :func:`quad_margin_checked` >= 0; where alpha*gamma overflows,
    beta >= 0 or beta^2 <= 4*alpha*gamma in exact rationals."""
    alpha, beta, gamma = _coeffs(qc, QuadCoeffs)
    if alpha < 0 or gamma < 0:
        return False
    if beta < 0 and not alpha * gamma < math.inf:  # the root is inf: only Fraction can tell
        fa, fb, fg = _exact(alpha, beta, gamma)
        return fb * fb <= 4 * fa * fg
    return quad_margin_checked(beta, alpha, gamma) >= 0


def _grid_min(coeffs: tuple[float, ...], grid_points: int) -> GridMin:
    # Cauchy-style bound: all real roots lie in [0, B], so the sign pattern
    # past B is the leading coefficient's.
    _count("grid_points", grid_points, 2)
    if all(v == 0.0 for v in coeffs):
        return GridMin(0.0, 0.0, False)
    lead = next(v for v in coeffs if v != 0.0)
    if coeffs[0] > 0:
        bound = 1.0 + max(abs(v) for v in coeffs[1:]) / coeffs[0]
    else:
        bound = 1.0 + max(abs(v) for v in coeffs) / abs(lead)
    ts = np.linspace(0.0, bound, grid_points)
    vals = np.polyval(coeffs, ts)  # Horner, highest coefficient first
    i = int(vals.argmin())  # first index on ties: smallest t
    return GridMin(float(vals[i]), float(ts[i]), lead < 0)


def cubic_min_bruteforce(cc, grid_points: int = 10_000) -> GridMin:
    """Grid minimum of the cubic on [0, B] with B a root bound."""
    return _grid_min(_coeffs(cc, CubicCoeffs), grid_points)


def quad_min_bruteforce(qc, grid_points: int = 10_000) -> GridMin:
    """Grid minimum of the quadratic on [0, B] with B a root bound."""
    return _grid_min(_coeffs(qc, QuadCoeffs), grid_points)
