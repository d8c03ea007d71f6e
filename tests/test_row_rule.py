"""Every certificate row follows the one row rule, at every scale.

A row is satisfied only when its value is finite and meets its bound, and a
certificate is certified iff one of its branches has every row satisfied.
The inputs are the golden corpus and seeded tensors of each shape, scaled by
10**k for |k| <= 300 in both strict modes, and the rho scans of couplings
near the ends of the float range.  Every row is read at one power-of-two
scale, so it is finite.
"""

import itertools
import math
import pathlib

import numpy as np

from copos import Verdict, Z3Params, certify_all, parse_document, scan_rho
from copos.halfline import row_holds
from conftest import SHAPES, random_tensor

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "golden"


def branches(cert):
    """The row sets of a certificate, one per branch that can fire it."""
    rows = cert.conditions
    if cert.criterion_id == "diag":  # necessary only: it never certifies
        return []
    if cert.criterion_id == "remark":  # thm3.4 or thm3.5 for each of three components
        return list(itertools.product(*(rows[i:i + 2] for i in range(0, len(rows), 2))))
    # rows labelled "(1) ", "(2) " belong to that branch, unlabelled rows to every branch
    labels = sorted({c.description[:4] for c in rows if c.description.startswith("(")})
    common = [c for c in rows if not c.description.startswith("(")]
    return [common + [c for c in rows if c.description.startswith(label)]
            for label in labels] or [rows]


def check(cert):
    assert not any(c.satisfied and not math.isfinite(c.value) for c in cert.conditions), cert
    fires = any(all(c.satisfied for c in rows) for rows in branches(cert))
    assert cert.certified == fires, cert
    if cert.criterion_id == "remark":  # non-strict rows whose value shows why one fails
        assert all(c.satisfied == row_holds(c.value) for c in cert.conditions), cert


def scaled(tensor):
    """tensor * 10**k for |k| <= 300, where no entry overflows."""
    for k in range(-300, 301):
        if tensor.max_abs_entry() * 10.0 ** k < 1.7e308:
            yield tensor.scale(10.0 ** k)


def test_certified_iff_a_branch_has_every_row_satisfied():
    rng = np.random.default_rng(2121)
    tensors = [parse_document(path.read_text(encoding="utf-8"))
               for path in sorted(GOLDEN.glob("*.json"))]
    tensors += [random_tensor(rng, order, dim) for order, dim in SHAPES for _ in range(2)]
    certified = 0
    for tensor in tensors:
        for t in scaled(tensor):
            for strict in (False, True):
                for cert in certify_all(t, strict=strict):
                    check(cert)
                    assert all(math.isfinite(c.value) for c in cert.conditions), cert
                    certified += cert.certified
    assert certified > 100


def test_scan_certificates_agree_with_the_route_verdicts():
    # unit-like ratios at scales from 1e-300 to 1e300, where a1111*a2222 and
    # the cofactor cubes would leave the range at the input scale
    for scale in (1e-300, 1e-160, 1e-100, 1.0, 1e100, 1e150, 1e154, 1e155, 1e200, 1e300):
        p = Z3Params(lam1=scale, lam2=scale, lam_s=scale, lam3=-0.1 * scale, lam4=0.05 * scale,
                     lam_s1=0.3 * scale, lam_s2=0.2 * scale, abs_lam_s12=0.4 * scale)
        for strict in (False, True):
            rep = scan_rho(p, 8, strict)
            for cert, verdict in ((rep.theorem_at_worst, rep.theorem_verdict),
                                  (rep.printed_at_worst, rep.printed_verdict)):
                check(cert)
                # a route certified at every grid point is certified at the worst one
                if verdict is Verdict.CERTIFIED:
                    assert cert.certified and all(c.satisfied for c in cert.conditions), rep
                if not cert.certified:
                    assert verdict is Verdict.UNKNOWN, rep
                assert all(math.isfinite(c.value) for c in cert.conditions), rep
