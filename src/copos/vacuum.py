"""Vacuum stability of a Z3-symmetric two-doublet-plus-singlet potential.

The quartic part of the potential, after minimizing over the relative
phases, is a homogeneous degree-4 polynomial in the radial coordinates
(h1, h2, s) with a single orbit-space parameter rho in [0, 1].  The
potential is bounded from below iff that polynomial is (strictly)
copositive as an order-4 dimension-3 tensor, so stability reduces to the
closed-form tests of :mod:`copos.criteria`.

Two condition lists are exposed.  The theorem route runs
:func:`copos.criteria.thm45_sos_c4d3` on the constructed coupling tensor.
The printed route is the inequality list usually quoted for this model:

    lam1 > 0, lam2 > 0, lam_s > 0,
    3*lam3 + 3*lam4*rho^2 + 2*sqrt(lam1*lam2) >= 0,
    3*lam_s1 + 2*sqrt(lam1*lam_s) >= 0,
    3*lam_s2 + 2*sqrt(lam_s*lam2) >= 0,
    -(9/4)*|lam_s12|*rho + sqrt((3*lam_s1 + 2*sqrt(lam1*lam_s))
                               *(3*lam_s2 + 2*sqrt(lam_s*lam2))) >= 0.

The two are not algebraically identical: direct substitution into the
theorem gives the last radical a factor 1/2 that the printed list lacks
(with unit diagonals the printed list tolerates |lam_s12|*rho up to 8/9,
the theorem route up to 4/9).  Neither is silently corrected; the theorem
route is the sound-by-construction default and the printed route is
opt-in.  Neither list is necessary, so failure means Unknown, never
Refuted.

Scans.  Z3Params stores floats and rows square rho as rho*rho (correctly
rounded), so a row on a float64 column of rho points is the scalar row point
by point.  A scan reads the rho-independent entries once and evaluates
a1122, a1233 and both routes' rows (the certificates' value functions) once
per block of _BLOCK points, as columns; the verdicts and the margin come
from those, and the two certificates are built only at worst_rho.

Endpoint lemma.  On [0, 1] every row of both routes is monotone in rho:
q12 = 9*a1122 + sqrt(a1111*a2222) is affine in rho^2; sqrt(q12*q13),
sqrt(q12*q23) and the cofactor row 2*a1111*q12^3 (a1112 = a1222 = 0 here)
are monotone maps of q12; 27*a1233 + sqrt(q13*q23) and the printed mixed
row are affine in rho; the printed c12 is affine in rho^2; every other row
is constant.  IEEE-rounded +, *, / and sqrt are monotone, so the float rows
are monotone too, and each row's minimum over [0, 1] lies at rho = 0 or
rho = 1.  Scans use it only to check a1122 for overflow once, at the
largest rho; verdicts still visit every grid point.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np

from .criteria import (_THM45_ROWS, Certificate, Verdict, _read, _row_certificate, _rows_hold,
                       _thm45_values, thm45_sos_c4d3)
from .halfline import quad_bound
from .tensors import SymmetricTensor, build


@dataclass(frozen=True)
class Z3Params:
    """Quartic couplings of the potential plus the orbit parameter rho.

    The mixed coupling enters only through its magnitude (the phase
    minimization already fixed its sign), hence ``abs_lam_s12 >= 0``.
    """

    lam1: float = 0.0
    lam2: float = 0.0
    lam3: float = 0.0
    lam4: float = 0.0
    lam_s: float = 0.0
    lam_s1: float = 0.0
    lam_s2: float = 0.0
    abs_lam_s12: float = 0.0
    rho: float = 0.0

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            v = getattr(self, field.name)
            real = isinstance(v, (int, float)) and not isinstance(v, bool)
            if not (real and abs(v) <= sys.float_info.max):  # 10**400 fails too
                raise ValueError(f"{field.name} must be a finite real, got {v!r}")
            object.__setattr__(self, field.name, float(v))
        if self.abs_lam_s12 < 0:
            raise ValueError(f"abs_lam_s12 must be >= 0, got {self.abs_lam_s12}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")

    def with_rho(self, rho: float) -> "Z3Params":
        return dataclasses.replace(self, rho=rho)


def coupling_tensor(p: Z3Params) -> SymmetricTensor:
    """Order-4 dim-3 tensor G with G (h1,h2,s)^4 equal to the quartic
    potential; entries carry 1/multiplicity so that evaluation reproduces
    the polynomial coefficients exactly."""
    a1122, a1233 = _rho_entries(p, p.rho)
    return build(4, 3, {
        (1, 1, 1, 1): p.lam1,
        (2, 2, 2, 2): p.lam2,
        (3, 3, 3, 3): p.lam_s,
        (1, 1, 2, 2): a1122,
        (1, 1, 3, 3): p.lam_s1 / 6.0,
        (2, 2, 3, 3): p.lam_s2 / 6.0,
        (1, 2, 3, 3): a1233,
    })


def _rho_entries(p: Z3Params, rho: float) -> tuple[float, float]:
    """(a1122, a1233) of the coupling tensor at rho (a float or a column): its
    only rho-dependent entries."""
    return (p.lam3 + p.lam4 * (rho * rho)) / 6.0, -p.abs_lam_s12 * rho / 12.0


def _printed_rows(strict: bool) -> tuple[tuple[str, bool], ...]:
    # (text, strict) of every printed row, in row order; the three coupling
    # positivity rows are strict either way
    op = ">" if strict else ">="
    return (("lam1 > 0", True), ("lam2 > 0", True), ("lam_s > 0", True),
            (f"3*lam3 + 3*lam4*rho^2 + 2*sqrt(lam1*lam2) {op} 0", strict),
            (f"3*lam_s1 + 2*sqrt(lam1*lam_s) {op} 0", strict),
            (f"3*lam_s2 + 2*sqrt(lam_s*lam2) {op} 0", strict),
            ("-(9/4)*|lam_s12|*rho + sqrt((3*lam_s1 + 2*sqrt(lam1*lam_s))"
             f"*(3*lam_s2 + 2*sqrt(lam_s*lam2))) {op} 0", strict))


_PRINTED_ROWS = {strict: _printed_rows(strict) for strict in (False, True)}


def _printed_values(p: Z3Params, rho: float) -> list:
    """The value of every printed row at rho (a float or a column), in row order."""
    c12 = 3.0 * p.lam3 + 3.0 * p.lam4 * (rho * rho) - quad_bound(p.lam1, p.lam2)
    c13 = 3.0 * p.lam_s1 - quad_bound(p.lam1, p.lam_s)
    c23 = 3.0 * p.lam_s2 - quad_bound(p.lam_s, p.lam2)
    mixed = -9.0 * p.abs_lam_s12 * rho / 4.0 - quad_bound(c13, c23) / 2.0
    return [p.lam1, p.lam2, p.lam_s, c12, c13, c23, mixed]


def printed_certificate(p: Z3Params, strict: bool = False) -> Certificate:
    """The quoted inequality list, evaluated literally.

    strict switches the four non-diagonal conditions from >= to >; the
    three coupling positivity conditions are strict either way.
    """
    return _row_certificate(_printed_values(p, p.rho), _PRINTED_ROWS[bool(strict)],
                            "z3-printed")


def theorem_certificate(p: Z3Params, strict: bool = False) -> Certificate:
    """The order-4 dim-3 sum-of-squares test on the coupling tensor."""
    return thm45_sos_c4d3(coupling_tensor(p), strict=strict)


@dataclass(frozen=True)
class StabilityReport:
    """Both stability routes over one or more rho values.

    rho_values records exactly the rho grid the verdicts were computed at;
    worst_rho is the grid point with the smallest condition margin across
    both routes (ties resolve to the largest rho), and the two certificates
    are the condition lists at that point.
    """

    params: Z3Params
    rho_values: tuple[float, ...]
    theorem_verdict: Verdict
    printed_verdict: Verdict
    worst_rho: float
    theorem_at_worst: Certificate
    printed_at_worst: Certificate


_BLOCK = 1024  # rho points per block: the rows of a block take about 200 KB


def _report(p: Z3Params, rhos: tuple[float, ...], strict: bool) -> StabilityReport:
    # read at the largest rho: a1122 overflows there if anywhere on the grid (endpoint lemma)
    a = _read(coupling_tensor(p.with_rho(rhos[-1])), 4, 3, "thm4.5")
    theorem_rows, printed_rows = _THM45_ROWS[bool(strict)], _PRINTED_ROWS[bool(strict)]
    theorem_ok = printed_ok = True
    worst, worst_margin = None, math.inf
    with np.errstate(all="ignore"):  # inf and nan are row values, as with floats
        for start in range(0, len(rhos), _BLOCK):
            block = np.array(rhos[start:start + _BLOCK])
            a["a1122"], a["a1233"] = _rho_entries(p, block)
            values = _thm45_values(a) + _printed_values(p, block)
            rows = np.empty((len(values), len(block)))
            for i, v in enumerate(values):
                rows[i] = v  # a rho-independent row broadcasts
            theorem_ok = theorem_ok and _rows_hold(rows[:len(theorem_rows)], theorem_rows)
            printed_ok = printed_ok and _rows_hold(rows[len(theorem_rows):], printed_rows)
            # fmin skips nan rows as min does after a finite first row (a1111)
            margins = np.fmin.reduce(rows)
            k = len(block) - 1 - int(np.argmin(margins[::-1]))  # ties go to the largest rho
            if margins[k] <= worst_margin:
                worst, worst_margin = rhos[start + k], margins[k]
    p_worst = p.with_rho(worst)
    return StabilityReport(
        params=p,
        rho_values=rhos,
        theorem_verdict=Verdict.CERTIFIED if theorem_ok else Verdict.UNKNOWN,
        printed_verdict=Verdict.CERTIFIED if printed_ok else Verdict.UNKNOWN,
        worst_rho=worst,
        theorem_at_worst=theorem_certificate(p_worst, strict),
        printed_at_worst=printed_certificate(p_worst, strict),
    )


def check_stability(p: Z3Params, strict: bool = False) -> StabilityReport:
    """Both routes at the single rho carried by the parameters."""
    return _report(p, (p.rho,), strict)


def scan_rho(p: Z3Params, steps: int, strict: bool = False) -> StabilityReport:
    """Both routes on the uniform grid rho = k/steps, k = 0..steps.

    A route's verdict is Certified only if it certifies at every grid
    point.  worst_rho minimizes the combined condition margin; since
    margins often saturate at a rho-independent condition, ties go to the
    largest rho so the reported point sits where the rho-dependent
    conditions are tightest.
    """
    if type(steps) is not int:  # True and 2.0 are not step counts
        raise ValueError(f"steps must be an int, got {steps!r}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    rhos = tuple(k / steps for k in range(steps + 1))
    return _report(p, rhos, strict)
