"""Nonnegativity of low-degree polynomials on the half-line t >= 0.

The scalar building blocks of every closed-form test in :mod:`copos.criteria`
and :mod:`copos.vacuum`, whose every row is an entry sign, a max, or the value
of one of two checked primitives.  :func:`cubic_disc_checked`, the one caller of
:func:`cubic_disc`, gives every discriminant row its value (the exact cubic test
and thm3.1 share :func:`cubic_exact_rows`).  :func:`root_margin_checked`, the one
caller of :func:`quad_bound` (the only function that takes a square root, clamped
to 0 where the radicand is not positive), gives every square-root row its value:
thm3.2/3.3/3.5, thm4.2, the pair and max rows of thm4.3/4.4, thm4.5's q and 27*a
rows, the printed vacuum rows, and the sufficient cubic and exact quadratic tests.
The two checked primitives share one contract, and are the only callers of
``_exact``: where the float value lies within its rounding window of 0 or is not
finite, its sign is rechecked in Fraction, so a row is negative iff its exact value
is (a square-root row over rounded roots fails closed instead where those roots
are not exact).  The windows, like the oracle's screen window, rest on this
module's rounding model (``_U``, ``_UNDERFLOW``, ``_gamma``).  :func:`row_holds`
sets every row flag of copos.
Every row is homogeneous in its inputs, and :func:`power_scale` divides them by
one power of two, which changes no row's sign, so that a row neither overflows
nor underflows where its inputs span less than 2**128.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional, Sequence

from .tensors import _entry_value


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


def quad_bound(alpha: float, gamma: float) -> float:
    """-2*sqrt(alpha*gamma), the least beta the quadratic test accepts (-0.0 where
    alpha*gamma <= 0); only :func:`root_margin_checked` reads it."""
    return -2.0 * math.sqrt(ag) if (ag := alpha * gamma) > 0 else -0.0


_TINY = math.ulp(0.0)
_WINDOW = 8 * _U  # a square-root row's relative rounding window


def root_margin_checked(x: float, alpha: float, gamma: float, base: float = -0.0,
                        divisor: float = 1.0, fx: float = 1.0,
                        nested: Optional[tuple[tuple, tuple]] = None,
                        term: tuple[float, ...] = (), fa: float = 1.0, fb: float = 1.0) -> float:
    """L - (fb*base - 2*sqrt(fa*alpha*gamma)) / divisor, where the linear part L is fx*x
    plus the product of ``term`` (left to right), for factors fx, fb > 0, fa whole and
    divisor >= 1: the value of every square-root row
    L >= (fb*base - 2*sqrt(fa*alpha*gamma)) / divisor, negative iff its exact value is,
    so rounding at a tight row neither certifies nor refutes.  The float value is
    fx*x [+ prod(term)] - (fb*base + quad_bound(fa*alpha, gamma)) / divisor, operation
    for operation.

    Where x >= 0 >= base and the term is absent, > 0 as rounded or has a factor 0, the
    exact row is >= 0 and so is the float.  Elsewhere the error is below
    8u*(|fx*x| + |term| + (|fb*base| + root)/divisor) + 2**-500; within that error of
    0, or where the value is not finite on finite inputs, the sign is rechecked in
    Fraction: with M = divisor*L - fb*base, the row is negative iff M < 0 and
    M**2 > 4*fa*alpha*gamma, and a wrong sign is replaced by 0.0 or -2**-1074.

    ``nested`` holds the arguments (x, alpha, gamma, base, divisor, fx) of the rows
    whose values alpha and gamma are: their rounding widens the window, and where the
    sign turns on the root (M < 0 and alpha*gamma > 0) the recheck runs only where both
    are exactly their rows' values; elsewhere the row fails closed, a value >= 0
    becoming -2**-1074.  (No parameter is keyword-only: CPython 3.11 specialises calls
    only to functions without keyword-only parameters, and this is called per row.)"""
    q = quad_bound(fa * alpha, gamma)
    if not term:
        if x >= 0.0 >= base:
            return fx * x - (fb * base + q) / divisor
        lin = fx * x
        size = abs(lin)
    else:
        product = math.prod(term)
        if x >= 0.0 >= base and (product > 0.0 or 0.0 in term):
            return fx * x + product - (fb * base + q) / divisor
        lin = fx * x
        lin, size = lin + product, abs(lin) + abs(product)
    b = fb * base
    value = lin - (b + q) / divisor
    # the roundings of L, of base, of the root (3) and of the last three operations,
    # and 2*sqrt(2**-1075) from an underflowing radicand
    window = _WINDOW * (size + (abs(b) - q) / divisor) + 2.0 ** -500
    if nested:  # each of alpha, gamma lies within 4*_WINDOW*(|L'| + |itself|) + 2**-497 of
        # its row's exact value, L' that row's linear part, which moves the root by less
        # than (2**-23*(fa*Ma + Mg) + 2**-380*(fa + 1))/divisor, M = |L'| + |itself|
        ra, rg = nested
        window += (2.0 ** -23 * (fa * (abs(ra[5] * ra[0]) + abs(alpha))
                                 + abs(rg[5] * rg[0]) + abs(gamma))
                   + 2.0 ** -380 * (fa + 1.0)) / divisor
    if window < abs(value) < math.inf:
        return value
    if not all(map(math.isfinite, (x, alpha, gamma, base, *term))):
        return value  # an inf or nan input: the row's own inputs fail it elsewhere
    fx, fa, fb, k, x, alpha, gamma, base = _exact(fx, fa, fb, divisor, x, alpha, gamma, base)
    m = k * (fx * x + (math.prod(_exact(*term)) if term else 0)) - fb * base
    if nested and m < 0 and alpha * gamma > 0:  # the root decides: it must be exact
        for v, row in zip((alpha, gamma), nested):
            v, xr, ar, gr, br, kr, fxr = _exact(v, *row)
            d = kr * (v - fxr * xr) + br  # 2*sqrt(ar*gr) where v is exact
            if d < 0 or d * d != 4 * max(ar * gr, 0):
                return value if value < 0 else -_TINY
    negative = m < 0 and m * m > 4 * fa * alpha * gamma
    if negative != (value < 0):
        value = -_TINY if negative else 0.0
    return value


def cubic_nonneg_sufficient(cc) -> bool:
    """Sufficient test, thm3.2's rows: a >= 0, d >= 0, b >= a - 2*sqrt(ad) and
    c >= d - 2*sqrt(ad), the last two by :func:`root_margin_checked`."""
    a, b, c, d = _coeffs(cc, CubicCoeffs)
    return all(map(row_holds, (a, d, root_margin_checked(b, a, d, a),
                               root_margin_checked(c, a, d, d))))


def quad_nonneg(qc) -> bool:
    """Exact test of alpha t^2 + beta t + gamma >= 0 on t >= 0: alpha >= 0,
    gamma >= 0 and beta >= -2*sqrt(alpha*gamma) by :func:`root_margin_checked`."""
    alpha, beta, gamma = _coeffs(qc, QuadCoeffs)
    return alpha >= 0 and gamma >= 0 and root_margin_checked(beta, alpha, gamma) >= 0
