"""Shared helpers: an independent naive evaluator, random generators, the
binary form of a half-line polynomial and the criteria's row rule, written
out apart from src.

The naive evaluator sums over all n**m ordered index tuples, so it shares
no code with SymmetricTensor.evaluate beyond entry lookup; tests use it as
the ground truth for the multiplicity-weighted fast path.
"""

import itertools
import math

import numpy as np
import pytest

from copos import Certificate, Condition, Verdict, all_indices, build

SHAPES = ((3, 2), (3, 3), (4, 2), (4, 3))


def naive_evaluate(tensor, x):
    acc = 0.0
    for idx in itertools.product(range(1, tensor.dim + 1), repeat=tensor.order):
        term = tensor.get(idx)
        for i in idx:
            term *= x[i - 1]
        acc += term
    return acc


def random_tensor(rng, order, dim, lo=-1.0, hi=1.0):
    return build(order, dim,
                 {idx: rng.uniform(lo, hi) for idx in all_indices(order, dim)})


def halfline_form(coeffs):
    # y^m p(x/y) for p(t) = coeffs[0] t^m + ... + coeffs[m], as an order-m dim-2
    # tensor: p >= 0 on t >= 0 iff this form is copositive, so the simplex oracle
    # is the half-line tests' brute-force reference.  The divisions round
    m = len(coeffs) - 1
    return build(m, 2, {(1,) * k + (2,) * (m - k): coeffs[m - k] / math.comb(m, k)
                        for k in range(m + 1)})


def random_point(rng, dim, lo=0.0, hi=1.0):
    return tuple(rng.uniform(lo, hi) for _ in range(dim))


def rel_err(got, want):
    return abs(got - want) / max(1.0, abs(want))


# the criteria helpers _ge and _verdict written out: the per-point references
# of the cached criteria and of the rho scan call them.  A row is satisfied
# only when its value is finite and meets its bound

def ge_reference(desc, value, strict=False):
    return Condition(desc, value, math.isfinite(value) and (value > 0 if strict else value >= 0))


def verdict_reference(conditions, branches, criterion_id, on_fail):
    for name, conds in branches:
        if all(c.satisfied and math.isfinite(c.value) for c in conds):
            return Certificate(criterion_id, Verdict.CERTIFIED, tuple(conditions), name)
    if not all(math.isfinite(c.value) for c in conditions):
        on_fail = Verdict.UNKNOWN
    return Certificate(criterion_id, on_fail, tuple(conditions), None)


@pytest.fixture
def rng():
    return np.random.default_rng(20250818)
