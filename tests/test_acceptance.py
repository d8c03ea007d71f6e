"""Acceptance gates for the whole package.

One test per gate; each prints a single ``[PASS]``/``[FAIL]`` summary line
(visible with ``pytest -s`` and in failure reports) and enforces the gate
with asserts, including the runtime budgets.
"""

import dataclasses
import glob
import os
import subprocess
import sys
import time

import numpy as np

from copos import (Classification, Verdict, Z3Params, all_indices, build,
                   certify_all, coupling_tensor, cubic_nonneg_exact,
                   cubic_nonneg_sufficient, default_config, min_on_simplex,
                   printed_certificate, quad_nonneg, theorem_certificate,
                   thm31_exact_c3d2, thm32_sqrt_c3d2, thm33_mixed_c3d2,
                   thm4remark_decompose)

from conftest import SHAPES, halfline_form, naive_evaluate, random_tensor

C = Verdict.CERTIFIED
R = Verdict.REFUTED
GOLDEN = sorted(glob.glob(os.path.join(os.path.dirname(__file__),
                                       "data", "golden", "*.json")))


def gate(number, label, ok, detail):
    mark = "PASS" if ok else "FAIL"
    print(f"[{mark}] acceptance {number}: {label} ({detail})")
    assert ok, f"acceptance {number} failed: {label} ({detail})"


def biased_tensor(rng, order, dim):
    # mix of distributions so every shape produces certified instances,
    # not just refuted ones; soundness is vacuous without certificates
    kind = rng.integers(3)
    if kind == 0:
        return random_tensor(rng, order, dim)
    if kind == 1:
        diag, off = (0.0, 1.0), (-0.3, 0.3)
    else:
        diag, off = (0.5, 1.5), (-0.15, 0.05)
    return build(order, dim,
                 {idx: rng.uniform(*diag) if len(set(idx)) == 1
                  else rng.uniform(*off)
                  for idx in all_indices(order, dim)})


def test_1_exact_criterion_matches_oracle():
    rng = np.random.default_rng(101)
    cfg = dataclasses.replace(default_config(2), resolution=2000,
                              refine_rounds=3, band=1e-6)
    start = time.perf_counter()
    disagreements = definitive = 0
    for _ in range(10_000):
        t = random_tensor(rng, 3, 2)
        cert = thm31_exact_c3d2(t)
        r = min_on_simplex(t, cfg)
        if r.classification is Classification.INDETERMINATE:
            continue
        definitive += 1
        want = C if r.classification is Classification.COPOSITIVE_UP_TO_BAND else R
        if cert.outcome is not want:
            disagreements += 1
    elapsed = time.perf_counter() - start
    gate(1, "order-3 dim-2 exact criterion vs oracle",
         disagreements == 0 and elapsed < 60.0,
         f"{definitive} definitive of 10000, {disagreements} disagreements,"
         f" {elapsed:.1f}s")


def test_2_no_criterion_certifies_a_refuted_tensor():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    violations = checked = 0
    for order, dim in SHAPES:
        cfg = dataclasses.replace(default_config(dim), band=1e-6)
        for _ in range(10_000):
            t = biased_tensor(rng, order, dim)
            certified = [c.criterion_id for c in certify_all(t)
                         if c.outcome is C]
            if not certified:
                continue
            checked += 1
            if min_on_simplex(t, cfg).classification is Classification.NOT_COPOSITIVE:
                violations += 1
    elapsed = time.perf_counter() - start
    gate(2, "soundness sweep over 10000 tensors per shape",
         violations == 0 and elapsed < 600.0,
         f"{checked} certified instances oracle-checked, {violations}"
         f" violations, {elapsed:.0f}s")


def test_3_halfline_tests_match_grid():
    # p >= 0 on t >= 0 iff its binary form y^m p(x/y) is copositive, which the oracle checks
    rng = np.random.default_rng(303)
    disagreements = definitive = 0
    for _ in range(10_000):
        for coeffs, test in ((tuple(rng.uniform(-1, 1, 4)), cubic_nonneg_exact),
                             (tuple(rng.uniform(-1, 1, 3)), quad_nonneg)):
            band = 1e-9 * (1.0 + max(abs(v) for v in coeffs))
            g = min_on_simplex(halfline_form(coeffs))
            if abs(g.min_value) > band:
                definitive += 1
                if test(coeffs) != (g.min_value > 0.0):
                    disagreements += 1
    gate(3, "half-line tests vs the simplex oracle on their binary forms",
         disagreements == 0 and definitive >= 19_000,
         f"{definitive} definitive of 20000, {disagreements} disagreements")


def test_4_implication_chains():
    rng = np.random.default_rng(404)
    violations = hits = 0
    for _ in range(10_000):
        t = random_tensor(rng, 3, 2)
        exact = None
        for sufficient in (thm32_sqrt_c3d2, thm33_mixed_c3d2):
            if sufficient(t).outcome is C:
                hits += 1
                exact = thm31_exact_c3d2(t) if exact is None else exact
                if exact.outcome is not C:
                    violations += 1
    scalar_hits = 0
    for _ in range(10_000):
        cc = tuple(rng.uniform(-1, 1, 4))
        if cubic_nonneg_sufficient(cc):
            scalar_hits += 1
            if not cubic_nonneg_exact(cc):
                violations += 1
    gate(4, "sufficient criteria imply the exact ones",
         violations == 0 and hits > 100 and scalar_hits > 100,
         f"{hits} tensor hits, {scalar_hits} scalar hits, {violations}"
         " violations")


def test_5_vacuum_thresholds():
    start = time.perf_counter()
    ok = True
    notes = []
    for s12, rho in ((0.0, 1.0), (0.2, 1.0), (4.0 / 9.0, 1.0), (1.6, 0.25),
                     (4.0 / 9.0 + 1e-9, 1.0), (0.8, 1.0), (8.0 / 9.0, 1.0),
                     (1.6, 0.5), (8.0 / 9.0 + 1e-9, 1.0), (1.0, 1.0),
                     (1.6, 0.6)):
        p = Z3Params(lam1=1.0, lam2=1.0, lam_s=1.0, abs_lam_s12=s12, rho=rho)
        product = s12 * rho
        printed_ok = printed_certificate(p).outcome is C
        theorem_ok = theorem_certificate(p).outcome is C
        if printed_ok != (product <= 8.0 / 9.0 + 1e-15):
            ok = False
            notes.append(f"printed wrong at {product}")
        if theorem_ok != (product <= 4.0 / 9.0 + 1e-15):
            ok = False
            notes.append(f"theorem wrong at {product}")
    boundary = printed_certificate(
        Z3Params(lam1=1.0, lam2=1.0, lam_s=1.0, abs_lam_s12=8.0 / 9.0, rho=1.0))
    if not abs(boundary.margin) < 1e-12:
        ok = False
        notes.append("printed boundary margin")
    deep = Z3Params(lam1=1.0, lam2=1.0, lam_s=1.0, abs_lam_s12=4.0, rho=1.0)
    r = min_on_simplex(coupling_tensor(deep))
    if not r.min_value <= -1.0 / 81.0 + 1e-12:
        ok = False
        notes.append(f"oracle min {r.min_value}")
    elapsed = time.perf_counter() - start
    gate(5, "scalar-potential thresholds 8/9 and 4/9",
         ok and elapsed < 1.0,
         (", ".join(notes) if notes else "all thresholds reproduced")
         + f", {elapsed:.2f}s")


def test_6_slice_decomposition_identity():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1_000):
        t = random_tensor(rng, 4, 3)
        x = tuple(rng.uniform(0, 1, 3))
        want = t.evaluate(x)
        got = sum(x[i] * s.evaluate(x) for i, s in enumerate(thm4remark_decompose(t)))
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    gate(6, "quartic equals weighted sum of cubic slices",
         worst <= 1e-12, f"worst relative error {worst:.2e}")


def test_7_evaluation_matches_naive_sum():
    rng = np.random.default_rng(707)
    worst = 0.0
    for order, dim in SHAPES:
        for _ in range(1_000):
            t = random_tensor(rng, order, dim)
            x = tuple(rng.uniform(0, 1, dim))
            want = naive_evaluate(t, x)
            worst = max(worst, abs(t.evaluate(x) - want) / max(1.0, abs(want)))
    gate(7, "evaluate vs naive full summation",
         worst <= 1e-12, f"worst relative error {worst:.2e}")


def test_8_reports_are_deterministic():
    def report_bytes(path, threads):
        env = dict(os.environ, OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "copos.cli", "report", path],
                              capture_output=True, env=env)
        assert proc.returncode in (0, 1, 2), proc.stderr.decode()
        return proc.stdout

    assert len(GOLDEN) >= 12
    unstable = []
    for path in GOLDEN:
        first = report_bytes(path, "1")
        if report_bytes(path, "1") != first or report_bytes(path, "7") != first:
            unstable.append(os.path.basename(path))
    gate(8, "golden corpus reports byte-identical",
         not unstable,
         f"{len(GOLDEN)} documents x 3 runs" +
         (f", unstable: {', '.join(unstable)}" if unstable else ""))
