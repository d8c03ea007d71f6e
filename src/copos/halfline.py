"""Nonnegativity of low-degree polynomials on the half-line t >= 0.

The scalar building blocks of every closed-form test in :mod:`copos.criteria`
and :mod:`copos.vacuum`, plus a brute-force grid minimiser used as an oracle.
Only this module takes square roots.  :func:`cubic_bounds` (the sufficient
cubic test) feeds thm3.2, thm3.5, thm4.2 and thm4.4's max-arms, and
:func:`quad_bound` (the exact quadratic test) thm3.3, the pairwise rows of
thm4.3/4.4, thm4.5's q rows and the printed vacuum rows; both call
``math.sqrt`` inline.  The rho scan passes float64 columns of grid points
to :func:`quad_bound` (same rule, elementwise) and :func:`cubic_disc`.
The exact cubic test and thm3.1 share :func:`cubic_disc_checked`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


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


def _coeffs(cc, n: int) -> tuple[float, ...]:
    out = tuple(float(v) for v in cc)
    if len(out) != n:
        raise ValueError(f"expected {n} coefficients, got {len(out)}")
    if not all(math.isfinite(v) for v in out):
        raise ValueError(f"coefficients must be finite, got {out}")
    return out


def cubic_disc(a: float, b: float, c: float, d: float) -> float:
    """4ac^3 + 4b^3d + 27a^2d^2 - 18abcd - b^2c^2, the negated discriminant
    of a t^3 + b t^2 + c t + d.

    With a, d >= 0 and max(a, d) > 0 the cubic is nonnegative on t >= 0
    iff this is >= 0 or all four coefficients are (see
    :func:`cubic_nonneg_exact`).  Every discriminant criterion in
    :mod:`copos.criteria` is a positive multiple of this at scaled
    arguments.  Cubes are products: float ``**`` raises where ``*`` gives inf.
    """
    return 4*a*(c*c*c) + 4*(b*b*b)*d + 27*a*a*d*d - 18*a*b*c*d - b*b*c*c


def cubic_disc_checked(a: float, b: float, c: float, d: float, k: int = 1) -> float:
    """cubic_disc(a, k*b, k*c, d) / k**3 with the exact sign (thm3.1's row is k = 3).

    A value within its rounding error of 0 is recomputed in Fraction at the
    exact k*b and k*c, and replaced where the exact sign differs: rounding
    must neither refute (disc-zero x 0.1) nor certify (refuted-mixed x 1e-90).
    """
    kb, kc = k * b, k * c
    disc = cubic_disc(a, kb, kc, d) / k**3
    m = max(abs(a), abs(kb), abs(kc), abs(d))
    # five terms of at most 54*m**4 in all, within 11 roundings each: 1728u*m**4
    # bounds 54*gamma_11*m**4 and the rounding of m**4, 2**-1000 gradual underflow
    if abs(disc) <= 1728 / k**3 * 2.0**-53 * (m * m * m * m) + 2.0**-1000 and not math.isinf(disc):
        from fractions import Fraction
        exact = cubic_disc(Fraction(a), k * Fraction(b), k * Fraction(c), Fraction(d)) / k**3
        if (exact >= 0) != (disc >= 0):  # an exact negative stays below -0.0
            disc = float(exact) if exact >= 0 else min(float(exact), -math.ulp(0.0))
    return disc


def cubic_nonneg_exact(cc) -> bool:
    """Exact test: P(t) >= 0 for all t >= 0.

    Holds iff one of two systems is satisfied:
      (1) a, b, c, d all >= 0;
      (2) max(a, d) > 0, a >= 0, d >= 0, and
          4ac^3 + 4b^3d + 27a^2d^2 - 18abcd - b^2c^2 >= 0,
          its sign made exact by :func:`cubic_disc_checked`.
    """
    a, b, c, d = _coeffs(cc, 4)
    if min(a, b, c, d) >= 0:
        return True
    return max(a, d) > 0 and a >= 0 and d >= 0 and cubic_disc_checked(a, b, c, d) >= 0


def cubic_bounds(a: float, d: float) -> tuple[float, float]:
    """(a - 2*sqrt(ad), d - 2*sqrt(ad)), the least b and c the sufficient test accepts."""
    s = 2.0 * math.sqrt(ad) if (ad := a * d) > 0 else 0.0
    return a - s, d - s


def quad_bound(alpha: float, gamma: float) -> float:
    """-2*sqrt(alpha*gamma), the least beta the quadratic test accepts (elementwise on columns)."""
    if not isinstance(ag := alpha * gamma, np.ndarray):
        return -2.0 * math.sqrt(ag) if ag > 0 else -0.0
    return np.where(ag > 0, -2.0 * np.sqrt(np.fmax(ag, 0.0)), -0.0)


def cubic_nonneg_sufficient(cc) -> bool:
    """Sufficient test: a >= 0, d >= 0 and (b, c) >= :func:`cubic_bounds`."""
    a, b, c, d = _coeffs(cc, 4)
    if a < 0 or d < 0:
        return False
    lo_b, lo_c = cubic_bounds(a, d)
    return b >= lo_b and c >= lo_c


def quad_nonneg(qc) -> bool:
    """Exact test of alpha t^2 + beta t + gamma >= 0 on t >= 0: alpha >= 0,
    gamma >= 0 and beta >= :func:`quad_bound`."""
    alpha, beta, gamma = _coeffs(qc, 3)
    if alpha < 0 or gamma < 0:
        return False
    return beta >= quad_bound(alpha, gamma)


def _grid_min(coeffs: tuple[float, ...], grid_points: int) -> GridMin:
    # Cauchy-style bound: all real roots lie in [0, B], so the sign pattern
    # past B is the leading coefficient's.
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
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
    return _grid_min(_coeffs(cc, 4), grid_points)


def quad_min_bruteforce(qc, grid_points: int = 10_000) -> GridMin:
    """Grid minimum of the quadratic on [0, B] with B a root bound."""
    return _grid_min(_coeffs(qc, 3), grid_points)
