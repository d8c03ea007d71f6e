"""Vacuum stability of the Z3 dark-matter potential, both decision routes."""

import dataclasses
import math
import random
import sys

import numpy as np
import pytest

from copos import (Classification, OracleConfig, StabilityReport, Verdict, Z3Params,
                   check_stability, coupling_tensor, diag_necessity, min_on_simplex,
                   printed_certificate, scan_rho, theorem_certificate, thm45_sos_c4d3, zero)
from copos.criteria import _entries
from copos.vacuum import _scaled, _values_at
from conftest import ge_reference, verdict_reference

C = Verdict.CERTIFIED
U = Verdict.UNKNOWN


def unit(**kw):
    return Z3Params(lam1=1.0, lam2=1.0, lam_s=1.0, **kw)


def potential(p, h1, h2, s):
    return (p.lam1 * h1**4 + p.lam2 * h2**4
            + (p.lam3 + p.lam4 * p.rho**2) * h1**2 * h2**2
            + p.lam_s * s**4 + p.lam_s1 * s**2 * h1**2
            + p.lam_s2 * s**2 * h2**2
            - p.abs_lam_s12 * p.rho * s**2 * h1 * h2)


def random_params(rng, lo=-1.0, hi=1.0):
    return Z3Params(lam1=rng.uniform(lo, hi), lam2=rng.uniform(lo, hi),
                    lam3=rng.uniform(lo, hi), lam4=rng.uniform(lo, hi),
                    lam_s=rng.uniform(lo, hi), lam_s1=rng.uniform(lo, hi),
                    lam_s2=rng.uniform(lo, hi),
                    abs_lam_s12=rng.uniform(0.0, hi if hi > 0 else 1.0),
                    rho=rng.uniform(0.0, 1.0))


# ---------------------------------------------------------------------------
# parameters

def test_params_validation():
    with pytest.raises(ValueError, match="rho"):
        Z3Params(rho=1.5)
    with pytest.raises(ValueError, match="abs_lam_s12"):
        Z3Params(abs_lam_s12=-1.0)
    with pytest.raises(ValueError, match="finite"):
        Z3Params(lam1=float("nan"))
    with pytest.raises(ValueError):
        Z3Params(lam2=True)
    # an int too large for a float is not a finite real either; 10**308 fits
    for big in (10**400, -10**400, 2**1024):
        with pytest.raises(ValueError, match="lam1 is too large for a float"):
            Z3Params(lam1=big)
    # every field is stored as the equal float
    p = Z3Params(lam1=10**308, rho=1)
    assert type(p.lam1) is float and p.lam1 == float(10**308)
    assert all(type(getattr(p, name)) is float for name in (*COUPLINGS, "abs_lam_s12", "rho"))


def test_with_rho_replaces_only_rho():
    p = unit(abs_lam_s12=0.5, rho=0.25)
    q = p.with_rho(1.0)
    assert q.rho == 1.0 and q.abs_lam_s12 == 0.5 and p.rho == 0.25


# ---------------------------------------------------------------------------
# tensor construction

def test_coupling_tensor_entry_layout():
    p = unit(abs_lam_s12=1.0, rho=1.0)
    t = coupling_tensor(p)
    assert t.get((1, 1, 1, 1)) == 1.0
    assert t.get((2, 2, 2, 2)) == 1.0
    assert t.get((3, 3, 3, 3)) == 1.0
    assert t.get((1, 2, 3, 3)) == -1.0 / 12.0
    assert t.get((1, 1, 2, 2)) == 0.0
    assert t.get((1, 1, 3, 3)) == 0.0
    assert t.get((1, 1, 1, 2)) == 0.0


def test_coupling_tensor_zero_params():
    assert coupling_tensor(Z3Params()) == zero(4, 3)


def test_coupling_tensor_all_ones_point():
    p = Z3Params(lam1=0.3, lam2=-0.2, lam3=0.7, lam4=-0.4, lam_s=1.1,
                 lam_s1=0.5, lam_s2=-0.6, abs_lam_s12=0.9, rho=0.8)
    want = (p.lam1 + p.lam2 + p.lam_s + (p.lam3 + p.lam4 * p.rho**2)
            + p.lam_s1 + p.lam_s2 - p.abs_lam_s12 * p.rho)
    assert abs(coupling_tensor(p).evaluate((1.0, 1.0, 1.0)) - want) <= 1e-12


def test_construction_identity(rng):
    for _ in range(300):
        p = random_params(rng)
        t = coupling_tensor(p)
        h1, h2, s = rng.uniform(0.0, 2.0, 3)
        got = t.evaluate((h1, h2, s))
        want = potential(p, h1, h2, s)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# printed route

def test_printed_unit_couplings():
    cert = printed_certificate(unit())
    assert cert.outcome is C
    assert cert.conditions[6].value == 2.0  # mixed condition, sqrt(2*2)


def test_printed_mixed_failure():
    cert = printed_certificate(unit(abs_lam_s12=1.0, rho=1.0))
    assert cert.outcome is U
    assert cert.conditions[6].value == -0.25


def test_printed_negative_lam1():
    p = Z3Params(lam1=-1.0, lam2=1.0, lam_s=1.0)
    assert printed_certificate(p).outcome is U
    assert diag_necessity(coupling_tensor(p)).outcome is Verdict.REFUTED


def test_printed_boundary_at_eight_ninths():
    cert = printed_certificate(unit(abs_lam_s12=8.0 / 9.0, rho=1.0))
    assert cert.outcome is C
    assert cert.margin == 0.0
    assert abs(cert.margin) < 1e-12


def test_printed_fails_just_past_boundary():
    assert printed_certificate(unit(abs_lam_s12=8.0 / 9.0 + 1e-9, rho=1.0)).outcome is U


def test_printed_never_refutes():
    assert printed_certificate(Z3Params(lam1=-5.0)).outcome is U


# ---------------------------------------------------------------------------
# theorem route

def test_theorem_route_matches_direct_criterion(rng):
    for _ in range(60):
        p = random_params(rng)
        direct = thm45_sos_c4d3(coupling_tensor(p))
        routed = theorem_certificate(p)
        assert routed.outcome == direct.outcome
        assert [c.value for c in routed.conditions] == [c.value for c in direct.conditions]


def test_theorem_boundary_at_four_ninths():
    cert = theorem_certificate(unit(abs_lam_s12=4.0 / 9.0, rho=1.0))
    assert cert.outcome is C
    assert cert.margin == 0.0


def test_theorem_conservative_where_printed_certifies():
    p = unit(abs_lam_s12=0.8, rho=1.0)
    assert theorem_certificate(p).outcome is U
    assert printed_certificate(p).outcome is C  # the documented discrepancy


def test_theorem_no_mixed_coupling():
    assert theorem_certificate(unit(abs_lam_s12=0.0, rho=1.0)).outcome is C


def test_theorem_soundness_random_sweep(rng):
    cfg = OracleConfig(resolution=60, refine_rounds=2, band=1e-6)
    certified = 0
    for _ in range(1000):
        p = random_params(rng)
        if theorem_certificate(p).outcome is not C:
            continue
        certified += 1
        r = min_on_simplex(coupling_tensor(p), cfg)
        assert r.classification is not Classification.NOT_COPOSITIVE
    assert certified > 20


# ---------------------------------------------------------------------------
# strict mode

def test_strict_theorem_unreachable_on_this_family():
    # the coupling tensor always has zero cubic-monomial entries, which can
    # never satisfy the strict version of those conditions
    assert theorem_certificate(unit(abs_lam_s12=0.0), strict=True).outcome is U


def test_strict_printed():
    assert printed_certificate(unit(abs_lam_s12=0.0), strict=True).outcome is C
    assert printed_certificate(unit(abs_lam_s12=8.0 / 9.0, rho=1.0), strict=True).outcome is U


def test_strict_implies_nonstrict(rng):
    for _ in range(300):
        p = random_params(rng)
        if printed_certificate(p, strict=True).outcome is C:
            assert printed_certificate(p).outcome is C
        if theorem_certificate(p, strict=True).outcome is C:
            assert theorem_certificate(p).outcome is C


# ---------------------------------------------------------------------------
# margins and monotonicity

def test_mixed_margin_monotone_in_coupling_and_rho(rng):
    for _ in range(50):
        p = random_params(rng)
        if p.lam4 < 0:
            p = Z3Params(**{**{f: getattr(p, f) for f in
                               ("lam1", "lam2", "lam3", "lam4", "lam_s",
                                "lam_s1", "lam_s2", "abs_lam_s12", "rho")},
                            "lam4": -p.lam4})
        base = printed_certificate(p).conditions[6].value
        stronger = printed_certificate(
            p.with_rho(min(1.0, p.rho + 0.3))).conditions[6].value
        assert stronger <= base + 1e-15
        import dataclasses
        bumped = dataclasses.replace(p, abs_lam_s12=p.abs_lam_s12 + 0.5)
        assert printed_certificate(bumped).conditions[6].value <= base + 1e-15


def test_verdict_only_degrades_as_coupling_grows():
    import dataclasses
    p = unit(rho=1.0)
    seen_unknown = False
    for s12 in np.linspace(0.0, 2.0, 41):
        v = printed_certificate(dataclasses.replace(p, abs_lam_s12=float(s12))).outcome
        if v is U:
            seen_unknown = True
        else:
            assert not seen_unknown  # no recovery after the first failure
    assert seen_unknown


# ---------------------------------------------------------------------------
# rho scans

def test_scan_certified_family():
    rep = scan_rho(unit(abs_lam_s12=0.4), steps=100)
    assert rep.theorem_verdict is C
    assert rep.printed_verdict is C
    assert rep.worst_rho == 1.0
    assert len(rep.rho_values) == 101
    assert rep.rho_values[0] == 0.0 and rep.rho_values[-1] == 1.0


def test_scan_failing_family():
    rep = scan_rho(unit(abs_lam_s12=1.0), steps=100)
    assert rep.theorem_verdict is U
    assert rep.worst_rho == 1.0
    assert rep.theorem_at_worst.outcome is U


def test_scan_rho_independent_family():
    rep = scan_rho(unit(abs_lam_s12=0.0), steps=10)
    assert rep.theorem_verdict is C
    assert rep.printed_verdict is C


def test_scan_rejects_bad_steps():
    with pytest.raises(ValueError):
        scan_rho(unit(), steps=0)
    # True would scan (0.0, 1.0) and 2.0 would fail inside range()
    for steps in (True, False, 2.0, 100.0):
        with pytest.raises(ValueError, match=f"steps must be an integer, got {steps!r}"):
            scan_rho(unit(), steps)


def test_scan_refuses_too_many_steps_before_the_grid():
    # one step past the limit is refused; the limit itself is admitted.  A
    # huge count is refused before its grid exists in tests/test_cli.py, in a
    # child with its address space capped
    with pytest.raises(ValueError, match=r"^a rho scan of 1048577 steps is above the limit"
                                         r" of 1048576; lower the step count \(--rho-scan\)$"):
        scan_rho(unit(), 2**20 + 1)
    assert len(scan_rho(unit(), 2**20).rho_values) == 2**20 + 1


@pytest.mark.parametrize("steps", [1, 3, 7, 100, 999_983, 2**20])
def test_scan_grid_is_k_over_steps(steps):
    # the scan divides a float64 column k = 0..steps by steps: one correctly
    # rounded division per point, so the grid is Python's k / steps bit for bit
    rhos = scan_rho(unit(abs_lam_s12=0.4), steps).rho_values
    assert repr(rhos) == repr(tuple(k / steps for k in range(steps + 1)))


@pytest.mark.parametrize("steps", [1, 4])
@pytest.mark.parametrize("strict", [False, True])
def test_scan_reads_an_entry_that_overflows_only_at_rho_1(steps, strict):
    # lam3 + lam4*rho^2 stays finite below rho = 1 (1.5625e308 at rho = 3/4) and
    # overflows at rho = 1, where coupling_tensor refuses its inf a1122.  The
    # scan reads the couplings divided by 2**64, as far as the unit diagonal
    # lets power_scale divide: a1122 is finite there, the a1111 cofactor row
    # (degree 4) leaves the float range at rho = 1 and saturates at +max, and the
    # printed rows (degree 2) hold.  Every coupling is positive, so the potential
    # is stable: the theorem route certifies it, but for its strict rows on the
    # zero entries (a1113 > 0).  The report keeps the caller's params
    p = unit(lam3=1e308, lam4=1e308)
    with pytest.raises(ValueError, match=r"^entry \(1, 1, 2, 2\) is not finite: inf$"):
        coupling_tensor(p.with_rho(1.0))
    rep = scan_rho(p, steps, strict)
    assert (rep.params, rep.theorem_verdict, rep.printed_verdict, rep.worst_rho) == (
        p, U if strict else C, C, 1.0)
    cofactor = rep.theorem_at_worst.conditions[12]
    assert cofactor.description.startswith("2*a1111*q12^3")
    assert (cofactor.value, cofactor.satisfied) == (sys.float_info.max, True)
    assert check_stability(p.with_rho(0.75), strict).rho_values == (0.75,)


def test_scan_certifies_at_every_scale_as_at_1():
    # at s = 1e100 the cofactor rows were inf, and at 1e154 nan (0*inf), at
    # the input scale: both routes were unknown there
    want = scan_rho(unit(abs_lam_s12=0.4), 100)
    assert (want.theorem_verdict, want.printed_verdict) == (C, C)
    for s in (1e50, 1e100, 1e154, 1e300):
        p = Z3Params(lam1=s, lam2=s, lam_s=s, abs_lam_s12=0.4 * s)
        rep = scan_rho(p, 100)
        assert (rep.theorem_verdict, rep.printed_verdict, rep.worst_rho) == (
            want.theorem_verdict, want.printed_verdict, want.worst_rho), s


def test_every_entry_point_reads_the_couplings_at_one_scale():
    # at the input scale lam1*lam2 = 1e400 overflowed printed_certificate's
    # quad_bound to inf; it reads the couplings through power_scale as the scan does
    p = Z3Params(lam1=1e200, lam2=1e200, lam_s=1e200, lam_s1=1e200, lam_s2=1e200)
    # lam4 spans 2**1021 over the unit diagonal: the division stops at 2**64,
    # so the rows at rho = 0 keep their sign, as in thm4.5 on the built tensor
    q = Z3Params(lam1=1.0, lam2=1.0, lam_s=1.0, lam4=-3.3e307)
    for strict in (False, True):
        rep = check_stability(p, strict)
        assert rep.printed_at_worst == printed_certificate(p, strict)
        assert rep.printed_verdict is printed_certificate(p, strict).outcome is C
        rep, cert = check_stability(q, strict), theorem_certificate(q, strict)
        assert rep.theorem_verdict is cert.outcome is (U if strict else C)
        assert [c.satisfied for c in rep.theorem_at_worst.conditions] == [
            c.satisfied for c in cert.conditions]


def test_check_stability_single_point():
    rep = check_stability(unit(abs_lam_s12=1.0, rho=1.0))
    assert rep.rho_values == (1.0,)
    assert rep.worst_rho == 1.0
    assert rep.theorem_verdict is U
    assert rep.printed_verdict is U


def test_report_with_oracle():
    rep = check_stability(unit(abs_lam_s12=4.0, rho=1.0))
    r = min_on_simplex(coupling_tensor(rep.params.with_rho(rep.worst_rho)))
    assert isinstance(rep, StabilityReport)
    assert r.classification is Classification.NOT_COPOSITIVE


# ---------------------------------------------------------------------------
# the scan against its per-point reference

# _report and printed_certificate as they stood when every grid point built
# both certificates, kept verbatim with the criteria helpers _ge and _verdict
# they called (conftest's ge_reference and verdict_reference), but for
# squaring rho as rho*rho, as src/ does: scan_rho and check_stability, which
# read both certificates off the rows at worst_rho, and the scalar
# printed_certificate must match these in repr, exceptions included

def sqrt0(x):
    """sqrt clamped at zero, as the printed rows took it."""
    return math.sqrt(x) if x > 0 else 0.0


def reference_printed_certificate(p, strict=False):
    c12 = 3.0 * p.lam3 + 3.0 * p.lam4 * (p.rho * p.rho) + 2.0 * sqrt0(p.lam1 * p.lam2)
    c13 = 3.0 * p.lam_s1 + 2.0 * sqrt0(p.lam1 * p.lam_s)
    c23 = 3.0 * p.lam_s2 + 2.0 * sqrt0(p.lam_s * p.lam2)
    mixed = -9.0 * p.abs_lam_s12 * p.rho / 4.0 + sqrt0(c13 * c23)
    op = ">" if strict else ">="
    rows = [
        ge_reference("lam1 > 0", p.lam1, strict=True),
        ge_reference("lam2 > 0", p.lam2, strict=True),
        ge_reference("lam_s > 0", p.lam_s, strict=True),
        ge_reference(f"3*lam3 + 3*lam4*rho^2 + 2*sqrt(lam1*lam2) {op} 0", c12, strict),
        ge_reference(f"3*lam_s1 + 2*sqrt(lam1*lam_s) {op} 0", c13, strict),
        ge_reference(f"3*lam_s2 + 2*sqrt(lam_s*lam2) {op} 0", c23, strict),
        ge_reference("-(9/4)*|lam_s12|*rho + sqrt((3*lam_s1 + 2*sqrt(lam1*lam_s))"
            f"*(3*lam_s2 + 2*sqrt(lam_s*lam2))) {op} 0", mixed, strict),
    ]
    # sufficient only: a failed list proves nothing
    return verdict_reference(rows, [(None, rows)], "z3-printed", Verdict.UNKNOWN)


def reference_report(p, rhos, strict):
    worst = None
    worst_margin = math.inf
    theorem_ok = True
    printed_ok = True
    for rho in rhos:
        pk = p.with_rho(rho)
        tc = theorem_certificate(pk, strict)
        pc = reference_printed_certificate(pk, strict)
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


def outcome(run):
    """repr of the report, or the type and message of what it raised."""
    try:
        return repr(run())
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


COUPLINGS = ("lam1", "lam2", "lam3", "lam4", "lam_s", "lam_s1", "lam_s2")
SCALED = COUPLINGS + ("abs_lam_s12",)  # every field but rho


def coupling_mix(rng, count):
    """Threshold and general couplings, alternating, at a random rho: the mix
    of the vacuum-scan benchmark.  Threshold couplings have a unit-shaped
    diagonal d and put lam_s12 within 25% of 4d/9 or 8d/9, where one route
    stops certifying."""
    out = []
    for i in range(count):
        rho = rng.uniform(0.0, 1.0)
        if i % 2 == 0:
            d = rng.uniform(0.5, 2.0)
            s12 = d * rng.choice((4.0 / 9.0, 8.0 / 9.0)) * (
                1.0 + rng.choice((-1.0, 1.0)) * rng.uniform(1e-3, 0.25))
            out.append(Z3Params(lam1=d, lam2=d, lam_s=d, abs_lam_s12=s12, rho=rho))
        else:
            out.append(Z3Params(
                lam1=rng.uniform(0.5, 2.0), lam2=rng.uniform(0.5, 2.0),
                lam_s=rng.uniform(0.5, 2.0), lam3=rng.uniform(-0.3, 1.0),
                lam4=rng.uniform(-0.3, 0.3), lam_s1=rng.uniform(-0.2, 1.0),
                lam_s2=rng.uniform(-0.2, 1.0), abs_lam_s12=rng.uniform(0.0, 1.2), rho=rho))
    return out


def edge_couplings(rng):
    """Integer and all-zero couplings (stored as the equal floats), and
    couplings scaled up to the top of the float range, where rows would
    overflow to inf or nan at the input scale and coupling_tensor refuses a
    non-finite a1122."""
    out = [Z3Params(), Z3Params(rho=1), Z3Params(lam1=1, lam2=1, lam_s=1, abs_lam_s12=1, rho=1),
           # a1122 overflows only at rho = 1 at the input scale, and below it
           # the a1111 cofactor row would be -inf
           Z3Params(lam1=-1.0, lam2=1.0, lam_s=1.0, lam3=1e307, lam4=1.7e308),
           # a1122 = (1e308 + 1e308*rho^2)/6 overflows at rho = 1 at the input scale
           Z3Params(lam1=1, lam2=1, lam_s=1, lam3=10**308, lam4=10**308, rho=1),
           # both routes hold only for rho above ~0.55: the verdict of a
           # scan must remember the points that failed
           Z3Params(lam1=1.0, lam2=1.0, lam_s=1.0, lam3=-2.5, lam4=6.0),
           # at the input scale the a1111 cofactor row would be nan at rho = 1
           # (6*q12 overflows) and -inf before it (its cube does)
           Z3Params(lam1=1.0, lam2=1.0, lam_s=1.0, lam4=-3.3e307)]
    for _ in range(24):
        out.append(Z3Params(**{name: rng.randint(-3, 3) for name in COUPLINGS},
                            abs_lam_s12=rng.randint(0, 3), rho=rng.choice((0, 1))))
    for scale in (1e100, 1e154, 1e300, 1.7e308):
        for _ in range(16):
            out.append(Z3Params(**{name: rng.uniform(-1.0, 1.0) * scale for name in COUPLINGS},
                                abs_lam_s12=rng.uniform(0.0, 1.0) * scale,
                                rho=rng.uniform(0.0, 1.0)))
    return out


def reference_at_scale(p, rhos, strict):
    """reference_report of the couplings the scan reads, with p's params."""
    return dataclasses.replace(reference_report(_scaled(p), rhos, strict), params=p)


def one_scale(p, rhos):
    """Whether thm4.5 reads every coupling tensor of _scaled(p) on rhos as built:
    its largest |entry| is 0 or lies in [2**-64, 2**64)."""
    tops = (coupling_tensor(_scaled(p).with_rho(rho)).max_abs_entry() for rho in rhos)
    return all(top == 0.0 or 2.0 ** -64 <= top < 2.0 ** 64 for top in tops)


def settled(report):
    return report.rho_values, report.theorem_verdict, report.printed_verdict, report.worst_rho


def assert_reports_match(run, p, rhos, strict):
    """run() reports what reference_at_scale does: in repr, or, where thm4.5
    divides a coupling tensor of _scaled(p) again (lam4 alone at rho = 0 leaves
    its largest |entry| below 2**-64), in its verdicts and worst rho."""
    want = outcome(lambda: reference_at_scale(p, rhos, strict))
    if outcome(run) != want:
        assert not one_scale(p, rhos), (p, rhos, strict)
        assert settled(run()) == settled(reference_at_scale(p, rhos, strict)), (p, rhos, strict)
    return want


def assert_matches_reference(p, steps, strict):
    rhos = tuple(k / steps for k in range(steps + 1))
    return assert_reports_match(lambda: scan_rho(p, steps, strict), p, rhos, strict)


LONG_STEPS = 2049  # one long grid, where a bisection takes up to 11 probes


def test_scan_matches_per_point_reference():
    pool = coupling_mix(random.Random(6), 500)
    for i, p in enumerate(pool):
        strict = (i // 2) % 2 == 1  # both strict modes on both kinds
        for steps in (1, 4, 100) + ((LONG_STEPS,) if i < 4 else ()):
            assert_matches_reference(p, steps, strict)
        for mode in (False, True):
            assert outcome(lambda: check_stability(p, mode)) == outcome(
                lambda: reference_report(p, (p.rho,), mode))
            assert outcome(lambda: printed_certificate(p, mode)) == outcome(
                lambda: reference_printed_certificate(p, mode))


def test_single_point_matches_reference_where_pow_rounds_apart():
    # libm pow(33/41, 2) differs from 33/41 * 33/41 by an ulp, which moves the
    # printed c12 row
    p = Z3Params(lam1=1, lam2=1, lam_s=1, lam3=0.25, lam4=-0.87, rho=33 / 41)
    assert repr(check_stability(p)) == repr(reference_report(p, (p.rho,), False))


def test_edge_scans_match_per_point_reference():
    # the per-point references run on the couplings the scan and
    # printed_certificate read (_scaled)
    seen, scaled = [], 0
    for i, p in enumerate(edge_couplings(random.Random(7))):
        scaled += _scaled(p) != p
        for strict in (False, True):
            # the long grid on the listed couplings
            for steps in (1, 4, 100) + ((LONG_STEPS,) if i < 7 else ()):
                seen.append(assert_matches_reference(p, steps, strict))
            assert_reports_match(lambda: check_stability(p, strict), p, (p.rho,), strict)
            assert outcome(lambda: printed_certificate(p, strict)) == outcome(
                lambda: reference_printed_certificate(_scaled(p), strict))
    # the edges are really reached: every scan gives a report, and couplings that
    # span 2**128 or more take a cofactor row out of the float range, where it
    # saturates at -max
    assert scaled >= 64
    assert all(isinstance(o, str) for o in seen)
    assert any(repr(-sys.float_info.max) in o for o in seen)


def lemma_couplings(rng):
    """(couplings, steps): couplings in [-1, 1] on the grid k/1000, then
    couplings scaled by 10^k, |k| <= 300, a third of them with lam4 and a
    third with abs_lam_s12 near 0 (down to subnormals), on random grids."""
    out = [(Z3Params(**{name: rng.uniform(-1.0, 1.0) for name in COUPLINGS},
                     abs_lam_s12=rng.uniform(0.0, 1.2)), 1000) for _ in range(200)]
    for i in range(600):
        scale = 10.0 ** rng.randint(-300, 300)
        kw = {name: rng.uniform(-1.0, 1.0) * scale for name in COUPLINGS}
        s12 = rng.uniform(0.0, 1.2) * scale
        tiny = scale * 10.0 ** -rng.uniform(8.0, 24.0)
        if i % 3 == 1:
            kw["lam4"] = rng.choice((-1.0, 1.0)) * tiny
        elif i % 3 == 2:
            s12 = tiny
        out.append((Z3Params(**kw, abs_lam_s12=s12), rng.randint(1, 300)))
    return out


def test_rows_are_monotone_in_rho():
    # the endpoint lemma of the vacuum module, on the couplings the scan reads:
    # every row is finite and monotone in rho on the grid k/steps, which is
    # what lets the scan decide from the two ends
    scaled = 0
    for p, steps in lemma_couplings(random.Random(8)):
        q = _scaled(p)
        scaled += q != p
        a = _entries(coupling_tensor(q), "thm4.5")
        columns = [_values_at(q, a, k / steps) for k in range(steps + 1)]
        for row in zip(*columns):
            assert all(map(math.isfinite, row)), (p, steps, row)
            diffs = [hi - lo for lo, hi in zip(row, row[1:])]
            assert all(d >= 0 for d in diffs) or all(d <= 0 for d in diffs), (p, steps, row)
    assert scaled > 400  # most of the 600 scaled couplings lie outside [2**-64, 2**64)


# couplings whose lam4 moves their least row by a few ulps only, so that on
# the grid k/1000 the least margin holds from rho = 0 up to an interior
# point, then rises (the unit coupling's printed c12 row rises past rho ~ 0.86)
def interior_couplings(rng, count):
    """lam4 = ±10^-16…10^-8 and the other couplings in [-1, 1]."""
    out = [unit(lam3=-1.0, lam4=1e-16)]
    for _ in range(count):
        out.append(Z3Params(**{name: rng.uniform(-1.0, 1.0) for name in COUPLINGS
                               if name != "lam4"},
                            lam4=rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16.0, -8.0),
                            abs_lam_s12=rng.uniform(0.0, 1.0)))
    return out


def test_interior_worst_rho_matches_per_point_reference():
    # the scan finds the last point of the least margin's prefix by bisection;
    # the first (rho = 0) or the last point of the grid would differ here
    interior = set()
    for p in interior_couplings(random.Random(4), 120):
        worst = scan_rho(p, 1000).worst_rho
        if 0.0 < worst < 1.0:
            for strict in (False, True):
                assert_matches_reference(p, 1000, strict)
            interior.add(worst)
    assert len(interior) >= 10 and max(interior) > 0.5


def test_integer_couplings_act_as_the_equal_floats():
    # an integer coupling gives the report, or the error, of the equal float,
    # also where integer arithmetic would raise OverflowError (the first two);
    # there the floats overflow at the input scale too, and the scan reads
    # them at one power-of-two scale, so both give a report
    rng = random.Random(10)
    cases = [(dict(lam1=10**308, lam2=10**308, lam_s=1), lambda p: scan_rho(p, 4)),
             (dict(lam1=1, lam2=1, lam_s=1, lam3=10**308, lam4=10**308, rho=1), check_stability)]
    for strict in (False, True):
        kw = {name: rng.randint(-3, 3) for name in COUPLINGS}
        kw.update(abs_lam_s12=rng.randint(0, 3), rho=rng.choice((0, 1)))
        cases += [(kw, lambda p, strict=strict: scan_rho(p, 100, strict)),
                  (kw, lambda p, strict=strict: check_stability(p, strict))]
    got = [outcome(lambda: run(Z3Params(**kw))) for kw, run in cases]
    want = [outcome(lambda: run(Z3Params(**{k: float(v) for k, v in kw.items()})))
            for kw, run in cases]
    assert got == want
    assert all(isinstance(o, str) and o.startswith("StabilityReport(") for o in got[:2])
