"""Square-root rows on a tight boundary carry their exact sign.

thm3.2's rows meet the copositive boundary where b = (a - 2*sqrt(ad))/3 and
c = (d - 2*sqrt(ad))/3: the cubic a t^3 + 3b t^2 + 3c t + d is then
(t + 1)(sqrt(a) t - sqrt(d))^2.  thm4.2's first branch meets it where the
cubic cofactor of a2222 = 0 has the same shape.  On such draws the floats land
on either side of the boundary, and rounding decided the sign of the rows
before every square-root row took its value from
``halfline.root_margin_checked``: about half of the certificates were false.
Each family is checked at x1 and at every power of two of the scale sweep,
against an exact reference: thm3.1 for (3, 2), and the quartic form in
Fraction at a rational point next to the double root for (4, 2).
"""

import json
import math
import random
from fractions import Fraction

from copos import (Verdict, build, certify_all, cubic_nonneg_exact, cubic_nonneg_sufficient,
                   multiplicity, thm31_exact_c3d2, thm32_sqrt_c3d2, thm42_sqrt_c4d2)
from copos.cli import main
from test_scale_sweep import exponents, times_two_to

# certified, and exited 0 from copos check, while the form is negative at the ray
QUARTIC = {"1111": 2.2847138300118184, "1112": -0.647889182912526,
           "1122": -0.37906856395000843, "1222": 0.6504647944904679, "2222": 0.0}
QUARTIC_WITNESS = (69288891, 64928837)
# certified by thm3.2 beside thm3.1's refutation
CUBIC = {"111": 2.780210693668815, "112": -0.41198163565474416,
         "122": -0.8552567991145684, "222": 1.4503852032893427}
DRAWS = 300


def tensor(order, entries):
    return build(order, 2, {tuple(map(int, key)): value for key, value in entries.items()})


def form(t, x):
    """T x^m in exact arithmetic at the rational point x."""
    return sum(multiplicity(idx) * Fraction(value) * math.prod(Fraction(x[i - 1]) for i in idx)
               for idx, value in t.entries.items())


def scaled(t):
    """t at every power of two of the scale sweep where its entries round-trip."""
    keys = list(t.entries)
    for k in exponents():
        values = times_two_to([t.entries[key] for key in keys], k)
        if values is not None:
            yield build(t.order, t.dim, dict(zip(keys, values)))


def test_check_does_not_certify_the_quartic_reproducer(tmp_path, capsys):
    t = tensor(4, QUARTIC)
    assert form(t, QUARTIC_WITNESS) < 0
    doc = tmp_path / "tight-quartic.json"
    doc.write_text(json.dumps({"order": 4, "dim": 2, "entries": QUARTIC}), encoding="utf-8")
    assert main(["check", str(doc)]) == 2  # unknown: no criterion refutes a (4, 2) form
    capsys.readouterr()
    assert not thm42_sqrt_c4d2(t).certified


def test_no_certificate_beside_the_cubic_reproducers_refutation():
    t = tensor(3, CUBIC)
    certs = certify_all(t)
    assert thm31_exact_c3d2(t).outcome is Verdict.REFUTED
    assert not thm32_sqrt_c3d2(t).certified
    assert not any(cert.certified for cert in certs)
    g111, g112, g122, g222 = (CUBIC[key] for key in ("111", "112", "122", "222"))
    cc = (g111, 3 * g112, 3 * g122, g222)
    assert cubic_nonneg_sufficient(cc) == cubic_nonneg_exact(cc)


def test_thm32_certifies_no_tight_cubic_that_thm31_refutes():
    rng = random.Random(32)
    certified = refuted = 0
    for _ in range(DRAWS):
        a, d = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
        root = 2.0 * math.sqrt(a * d)
        t = build(3, 2, {(1, 1, 1): a, (1, 1, 2): (a - root) / 3.0,
                         (1, 2, 2): (d - root) / 3.0, (2, 2, 2): d})
        exact = thm31_exact_c3d2(t).outcome
        outcome = thm32_sqrt_c3d2(t).outcome
        assert not (outcome is Verdict.CERTIFIED and exact is Verdict.REFUTED), t.entries
        for s in scaled(t):
            assert thm32_sqrt_c3d2(s).outcome is outcome, (t.entries, s.entries)
        certified += outcome is Verdict.CERTIFIED
        refuted += exact is Verdict.REFUTED
    assert certified > 50 and refuted > 50, (certified, refuted)


def test_thm42_certifies_no_tight_quartic_negative_by_its_double_root():
    rng = random.Random(42)
    certified = witnessed = 0
    for _ in range(DRAWS):
        a1111, a1222 = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
        root = math.sqrt(a1111 * a1222)
        t = build(4, 2, {(1, 1, 1, 1): a1111, (1, 1, 1, 2): a1111 / 4.0 - root,
                         (1, 1, 2, 2): (2.0 / 3.0) * (a1222 - root), (1, 2, 2, 2): a1222,
                         (2, 2, 2, 2): 0.0})
        # the cubic cofactor's double root x/y = 2*sqrt(a1222/a1111), as rounded
        negative = form(t, (Fraction(2.0 * math.sqrt(a1222 / a1111)), 1)) < 0
        outcome = thm42_sqrt_c4d2(t).outcome
        assert not (negative and outcome is Verdict.CERTIFIED), t.entries
        for s in scaled(t):
            assert thm42_sqrt_c4d2(s).outcome is outcome, (t.entries, s.entries)
        certified += outcome is Verdict.CERTIFIED
        witnessed += negative
    assert certified > 50 and witnessed > 50, (certified, witnessed)
