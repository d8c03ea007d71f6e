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
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .criteria import Certificate, Verdict, _ge, _verdict, thm45_sos_c4d3
from .halfline import sqrt0
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
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                raise ValueError(f"{field.name} must be a finite real, got {v!r}")
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
    return build(4, 3, {
        (1, 1, 1, 1): p.lam1,
        (2, 2, 2, 2): p.lam2,
        (3, 3, 3, 3): p.lam_s,
        (1, 1, 2, 2): (p.lam3 + p.lam4 * p.rho**2) / 6.0,
        (1, 1, 3, 3): p.lam_s1 / 6.0,
        (2, 2, 3, 3): p.lam_s2 / 6.0,
        (1, 2, 3, 3): -p.abs_lam_s12 * p.rho / 12.0,
    })


def printed_certificate(p: Z3Params, strict: bool = False) -> Certificate:
    """The quoted inequality list, evaluated literally.

    strict switches the four non-diagonal conditions from >= to >; the
    three coupling positivity conditions are strict either way.
    """
    c12 = 3.0 * p.lam3 + 3.0 * p.lam4 * p.rho**2 + 2.0 * sqrt0(p.lam1 * p.lam2)
    c13 = 3.0 * p.lam_s1 + 2.0 * sqrt0(p.lam1 * p.lam_s)
    c23 = 3.0 * p.lam_s2 + 2.0 * sqrt0(p.lam_s * p.lam2)
    mixed = -9.0 * p.abs_lam_s12 * p.rho / 4.0 + sqrt0(c13 * c23)
    op = ">" if strict else ">="
    rows = [
        _ge("lam1 > 0", p.lam1, strict=True),
        _ge("lam2 > 0", p.lam2, strict=True),
        _ge("lam_s > 0", p.lam_s, strict=True),
        _ge(f"3*lam3 + 3*lam4*rho^2 + 2*sqrt(lam1*lam2) {op} 0", c12, strict),
        _ge(f"3*lam_s1 + 2*sqrt(lam1*lam_s) {op} 0", c13, strict),
        _ge(f"3*lam_s2 + 2*sqrt(lam_s*lam2) {op} 0", c23, strict),
        _ge("-(9/4)*|lam_s12|*rho + sqrt((3*lam_s1 + 2*sqrt(lam1*lam_s))"
            f"*(3*lam_s2 + 2*sqrt(lam_s*lam2))) {op} 0", mixed, strict),
    ]
    # sufficient only: a failed list proves nothing
    return _verdict(rows, [(None, rows)], "z3-printed", Verdict.UNKNOWN)


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


def _report(p: Z3Params, rhos: tuple[float, ...], strict: bool) -> StabilityReport:
    worst = None
    worst_margin = math.inf
    theorem_ok = True
    printed_ok = True
    for rho in rhos:
        pk = p.with_rho(rho)
        tc = theorem_certificate(pk, strict)
        pc = printed_certificate(pk, strict)
        theorem_ok &= tc.certified
        printed_ok &= pc.certified
        margin = min(tc.margin, pc.margin)
        if worst is None or margin <= worst_margin:
            worst = (rho, tc, pc)
            worst_margin = margin
    rho_w, tc_w, pc_w = worst
    return StabilityReport(
        params=p,
        rho_values=rhos,
        theorem_verdict=Verdict.CERTIFIED if theorem_ok else Verdict.UNKNOWN,
        printed_verdict=Verdict.CERTIFIED if printed_ok else Verdict.UNKNOWN,
        worst_rho=rho_w,
        theorem_at_worst=tc_w,
        printed_at_worst=pc_w,
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
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    rhos = tuple(k / steps for k in range(steps + 1))
    return _report(p, rhos, strict)
