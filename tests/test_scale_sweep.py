"""Every verdict is the same at every exact power-of-two scale.

Each row of the criteria and of both vacuum routes is homogeneous in its
inputs, and copos reads every row at one power-of-two scale
(``halfline.power_scale``).  So a tensor or a coupling set whose inputs span
less than 2**128, times 2**k for any k whose scaling round-trips through
``math.ldexp`` (no input loses a bit), must give the outcome it gives at x1,
with finite rows.  The sweep
spans k = -1074 ... 1023 in both strict modes.  A tensor whose form is negative,
in exact arithmetic, at its x1 oracle argmin is not copositive at any scale, so
no criterion may certify it at any 2**k.
"""

import math
import pathlib
import random
from fractions import Fraction

import numpy as np

from copos import (Verdict, Z3Params, build, certify_all, check_stability, min_on_simplex,
                   multiplicity, parse_document, scan_rho)
from conftest import SHAPES, random_tensor
from test_vacuum import SCALED, coupling_mix, settled

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "golden"
STRIDE = 11  # k = -1074, -1063, ..., 1016, and 1023


def exponents():
    return list(range(-1074, 1024, STRIDE)) + [1023]


def times_two_to(values, k):
    """values * 2**k, or None where a value overflows or does not round-trip."""
    try:
        out = [math.ldexp(v, k) for v in values]
    except OverflowError:
        return None
    return out if all(math.ldexp(x, -k) == v for x, v in zip(out, values)) else None


def negative_at_argmin(t):
    """Whether the form is negative, in exact arithmetic, at the x1 oracle argmin."""
    x = [Fraction(v) for v in min_on_simplex(t).argmin]
    return sum(multiplicity(idx) * Fraction(v) * math.prod(x[i - 1] for i in idx)
               for idx, v in t.entries.items()) < 0


def test_criteria_outcomes_are_the_same_at_every_power_of_two():
    rng = np.random.default_rng(26)
    tensors = [parse_document(path.read_text(encoding="utf-8"))
               for path in sorted(GOLDEN.glob("*.json"))]
    tensors += [random_tensor(rng, order, dim) for order, dim in SHAPES for _ in range(2)]
    # not copositive, and certified below about 10**-81 before every discriminant
    # row was read at one power-of-two scale: the form is -4 at (1, 1), (1, 1, 0)
    tensors += [build(4, 2, {(1, 1, 1, 1): 1.0, (1, 1, 2, 2): -1.0, (2, 2, 2, 2): 1.0}),
                build(3, 3, {(1, 1, 1): 1.0, (2, 2, 2): 1.0, (3, 3, 3): 1.0,
                             (1, 1, 2): -1.0, (1, 2, 2): -1.0})]
    cases = witnessed = 0
    for t in tensors:
        keys = list(t.entries)
        witness = negative_at_argmin(t)
        witnessed += witness
        for strict in (False, True):
            want = [(c.outcome, c.branch) for c in certify_all(t, strict=strict)]
            assert not (witness and any(outcome is Verdict.CERTIFIED for outcome, _ in want))
            for k in exponents():
                values = times_two_to([t.entries[key] for key in keys], k)
                if values is None:
                    continue
                certs = certify_all(build(t.order, t.dim, dict(zip(keys, values))), strict=strict)
                assert len(certs) == len(want)
                assert not (witness and any(cert.certified for cert in certs)), (t, k, certs)
                for cert, (outcome, branch) in zip(certs, want):
                    # qi and songqi read the raw entries: a slice sum may overflow
                    # near 2**1023, and songqi's mean round near 2**-1074, which
                    # only loses a certificate
                    if cert.criterion_id in ("qi", "songqi"):
                        assert cert.outcome in (outcome, Verdict.UNKNOWN), (t, k, strict, cert)
                        continue
                    assert all(math.isfinite(c.value) for c in cert.conditions), (t, k, cert)
                    assert (cert.outcome, cert.branch) == (outcome, branch), (t, k, cert)
                cases += 1
    assert cases > 3000 and witnessed >= 10


def couplings_times_two_to(p, k):
    values = times_two_to([getattr(p, name) for name in SCALED], k)
    return None if values is None else Z3Params(**dict(zip(SCALED, values)), rho=p.rho)


def test_scan_verdicts_are_the_same_at_every_power_of_two():
    # the vacuum-scan benchmark's mix, and couplings drawn from [-1, 1]; the
    # latter compare verdicts only: worst_rho is the least row over rows of
    # degrees 1 to 4, which a power of two can reorder
    rng = random.Random(26)
    mix = coupling_mix(rng, 12)
    general = [Z3Params(**{name: rng.uniform(-1.0, 1.0) for name in SCALED[:-1]},
                        abs_lam_s12=rng.uniform(0.0, 1.2), rho=rng.uniform(0.0, 1.0))
               for _ in range(12)]
    cases = 0
    for p in mix + general:
        for strict in (False, True):
            want = settled(scan_rho(p, 100, strict))
            for k in exponents():
                q = couplings_times_two_to(p, k)
                if q is None:
                    continue
                got = settled(scan_rho(q, 100, strict))
                assert got == want if p in mix else got[:3] == want[:3], (p, k, strict)
                for end in (0.0, 1.0):  # every row at both ends of the grid
                    rep = check_stability(q.with_rho(end), strict)
                    assert all(math.isfinite(c.value) for cert in (
                        rep.theorem_at_worst, rep.printed_at_worst) for c in cert.conditions)
                cases += 1
    assert cases > 2000
