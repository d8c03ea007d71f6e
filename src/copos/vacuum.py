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

Scans.  The rho grid is k/steps in scan_rho (one correctly rounded division
per point, as in Python) and (rho,) in check_stability; it is rho_values.
Z3Params stores floats and rows square rho as rho*rho (correctly rounded).
A scan builds no tensor: it reads the couplings (not rho) through
halfline.power_scale, as printed_certificate does, so a row is finite unless
the couplings span 2**128 or more, and names the coupling entries as
criteria._read does.  It evaluates both routes' rows as floats at the first
and the last grid point (once on a one-point grid), which decide the whole
grid by the endpoint lemma: a route holds iff each of its rows holds at both
ends, and worst_rho is the last end of least margin (the least row).  If the
margin at rho = 0 is below the margin at the last point, the points where the
margin equals its value at rho = 0 form a prefix of the grid (each row
reaching that value at rho = 0 and at a later point is constant between them,
being monotone and never below it), and a bisection of scalar probes finds its
last point.  The two certificates are built from the rows at worst_rho; the
report keeps the caller's Z3Params.  coupling_tensor is built only where a
tensor is used: by copos report and vacuum --oracle.

Endpoint lemma.  On [0, 1] every row of both routes is monotone in rho:
q12 = 9*a1122 + sqrt(a1111*a2222) is affine in rho^2; sqrt(q12*q13),
sqrt(q12*q23) and the cofactor row 2*a1111*q12^3 (a1112 = a1222 = 0 here)
are monotone maps of q12; 27*a1233 + sqrt(q13*q23) and the printed mixed
row are affine in rho; the printed c12 is affine in rho^2; every other row
is constant.  IEEE-rounded +, *, / and sqrt are monotone, so the float rows
are monotone too, and each row's minimum over the grid lies at its first or
its last point.  The cofactor row is a product here, so its exact recheck
(halfline.cubic_disc_checked) replaces only a -0.0 that underflowed, by
-2**-1074, or an inf or nan, by the exact value saturated at +-max: that
keeps it monotone.  A row finite at both ends lies between two finite values, so
it is finite at every point; a row inf or nan at an end fails there, so its
route is Unknown, as at every point.  test_rows_are_monotone_in_rho checks
both claims at scales 10^k, |k| <= 300, with lam4 or abs_lam_s12 near 0, on
random grids.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .criteria import (_THM45_ROWS, Certificate, Verdict, _named, _row_certificate, _thm45_values,
                       thm45_sos_c4d3)
from .halfline import power_scale, quad_bound, row_holds
from .tensors import Index, SymmetricTensor, _count, _entry_value, build


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
            object.__setattr__(self, field.name,
                               _entry_value(field.name, getattr(self, field.name), "{}"))
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
    return build(4, 3, _coupling_entries(p, p.rho))


def _coupling_entries(p: Z3Params, rho: float) -> dict[Index, float]:
    """The coupling tensor's entries at rho, by canonical index."""
    a1122, a1233 = _rho_entries(p, rho)
    return {
        (1, 1, 1, 1): p.lam1,
        (2, 2, 2, 2): p.lam2,
        (3, 3, 3, 3): p.lam_s,
        (1, 1, 2, 2): a1122,
        (1, 1, 3, 3): p.lam_s1 / 6.0,
        (2, 2, 3, 3): p.lam_s2 / 6.0,
        (1, 2, 3, 3): a1233,
    }


def _rho_entries(p: Z3Params, rho: float) -> tuple[float, float]:
    """(a1122, a1233) of the coupling tensor at rho: its only rho-dependent entries."""
    return (p.lam3 + p.lam4 * (rho * rho)) / 6.0, -p.abs_lam_s12 * rho / 12.0


_COUPLINGS = tuple(field.name for field in dataclasses.fields(Z3Params) if field.name != "rho")


def _scaled(p: Z3Params) -> Z3Params:
    """p with its couplings (not rho) divided by halfline.power_scale's power of two."""
    e, couplings = power_scale([getattr(p, name) for name in _COUPLINGS])
    return dataclasses.replace(p, **dict(zip(_COUPLINGS, couplings))) if e else p


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
# per strict flag, whether each scan row (thm4.5's, then the printed) is strict
_STRICTS = {strict: tuple(s for _, s in _THM45_ROWS[strict] + _PRINTED_ROWS[strict])
            for strict in (False, True)}


def _printed_values(p: Z3Params, rho: float) -> list:
    """The value of every printed row at rho, in row order."""
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
    return _row_certificate(_printed_values(_scaled(p), p.rho), _PRINTED_ROWS[bool(strict)],
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


# rho grid steps one scan may take: the report keeps every grid point (the
# JSON output lists them), so memory and time grow linearly with the steps;
# 2**20 steps add about 48 MB (the grid and rho_values) and take about 45 ms
_MAX_RHO_STEPS = 2 ** 20


def _values_at(p: Z3Params, a: dict[str, float], rho: float) -> list[float]:
    """Every scan row at rho, thm4.5's then the printed, with a's rho entries set to rho."""
    a["a1122"], a["a1233"] = _rho_entries(p, rho)
    return _thm45_values(a) + _printed_values(p, rho)


def _report(p: Z3Params, rhos: tuple[float, ...], strict: bool) -> StabilityReport:
    q = _scaled(p)  # the rows read q; the report keeps p
    a = _named(_coupling_entries(q, rhos[-1]), "thm4.5")
    theorem_rows, printed_rows = _THM45_ROWS[bool(strict)], _PRINTED_ROWS[bool(strict)]
    n, last = len(theorem_rows), len(rhos) - 1
    stricts = _STRICTS[bool(strict)]
    # every row is monotone on the grid (endpoint lemma): a row holds everywhere iff
    # at both ends, and the least margin is at an end
    held, least = [True] * len(stricts), math.inf
    for k in sorted({0, last}):
        values = _values_at(q, a, rhos[k])
        held = [h and row_holds(v, s) for h, v, s in zip(held, values, stricts)]
        if min(values) <= least:  # ties go to the largest rho
            worst, at_worst, least = k, values, min(values)
    if worst == 0:
        # the points where the margin is least form a prefix: bisect for its last point
        above = last
        while above - worst > 1:
            mid = (worst + above) // 2
            values = _values_at(q, a, rhos[mid])
            if min(values) > least:
                above = mid
            else:
                worst, at_worst = mid, values
    return StabilityReport(
        params=p,
        rho_values=rhos,
        theorem_verdict=Verdict.CERTIFIED if all(held[:n]) else Verdict.UNKNOWN,
        printed_verdict=Verdict.CERTIFIED if all(held[n:]) else Verdict.UNKNOWN,
        worst_rho=rhos[worst],
        theorem_at_worst=_row_certificate(at_worst[:n], theorem_rows, "thm4.5"),
        printed_at_worst=_row_certificate(at_worst[n:], printed_rows, "z3-printed"),
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
    if _count("steps", steps, 1) > _MAX_RHO_STEPS:
        raise ValueError(f"a rho scan of {steps} steps is above the limit of {_MAX_RHO_STEPS};"
                         " lower the step count (--rho-scan)")
    # one correctly rounded division per point, as k / steps
    return _report(p, tuple((np.arange(steps + 1) / steps).tolist()), strict)
