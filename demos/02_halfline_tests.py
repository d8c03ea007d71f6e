#!/usr/bin/env python3
"""Nonnegativity of cubics and quadratics on the half-line t >= 0.

These scalar tests are the building blocks of every tensor criterion:
restricting a form to an edge of the simplex leaves exactly this kind of
one-variable problem.  The exact cubic test is a sign condition on the
discriminant; the sufficient test trades sharpness for two square roots.

The reduction runs the other way too: p(t) >= 0 on t >= 0 iff the binary
form y^m p(x/y) is copositive, so the simplex oracle checks each answer:
its minimum over x + y = 1 is negative iff p takes a negative value on
t >= 0, but it is not p's minimum.
"""

from math import comb

from copos import (build, cubic_nonneg_exact, cubic_nonneg_sufficient,
                   min_on_simplex, quad_nonneg)


def binary_form(coeffs):
    """y^m p(x/y) for p(t) = coeffs[0] t^m + ... + coeffs[m], as an order-m tensor."""
    m = len(coeffs) - 1
    return build(m, 2, {(1,) * k + (2,) * (m - k): coeffs[m - k] / comb(m, k)
                        for k in range(m + 1)})


def oracle_line(coeffs):
    r = min_on_simplex(binary_form(coeffs))
    x, y = r.argmin
    where = f"t = x/y = {x / y:.4f}" if y else "y = 0, i.e. t -> inf"
    return f"simplex minimum = {r.min_value:.6f} at {where}"


cases = [
    ("all nonnegative coefficients", (1.0, 0.5, 0.2, 0.1)),
    ("dips but stays positive", (1.0, -1.0, 0.5, 1.0)),
    ("crosses zero", (1.0, -3.0, 1.0, 0.5)),
    ("negative leading term", (-0.1, 1.0, 1.0, 1.0)),
]

for label, cc in cases:
    print(f"{label}: coeffs {cc}")
    print(f"  exact test     -> {cubic_nonneg_exact(cc)}")
    print(f"  sufficient test-> {cubic_nonneg_sufficient(cc)}"
          "  (may say False on a true instance)")
    print(f"  {oracle_line(cc)}")
    print()

# the quadratic test is exact as well
for qc in ((1.0, -1.0, 0.5), (1.0, -3.0, 1.0)):
    print(f"quad {qc}: nonneg = {quad_nonneg(qc)}, {oracle_line(qc)}")
