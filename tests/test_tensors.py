"""Canonical storage, symmetry, and evaluation of symmetric tensors."""

import copy
import math
import pickle
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import copos
from copos import all_indices, build, canonicalize, multiplicity, zero
from copos.tensors import _index_table
from conftest import SHAPES, naive_evaluate, random_point, random_tensor, rel_err


# ---------------------------------------------------------------------------
# canonicalize / multiplicity / all_indices

def test_canonicalize_sorts():
    assert canonicalize((2, 1, 1), 2) == (1, 1, 2)
    assert canonicalize((1, 1, 1), 2) == (1, 1, 1)
    assert canonicalize((3, 1, 2, 3), 3) == (1, 2, 3, 3)


def test_canonicalize_is_idempotent():
    assert canonicalize(canonicalize((3, 1, 2), 3), 3) == canonicalize((3, 1, 2), 3)


def test_canonicalize_range_check():
    with pytest.raises(ValueError):
        canonicalize((0, 1), 2)
    with pytest.raises(ValueError):
        canonicalize((1, 3), 2)


def test_multiplicity_values():
    assert multiplicity((1, 1, 2)) == 3
    assert multiplicity((1, 2, 3, 3)) == 12
    assert multiplicity((1, 1, 1, 1)) == 1
    assert multiplicity((1, 2)) == 2
    assert multiplicity((1, 2, 3)) == 6


def test_multiplicity_sums_to_full_count():
    # the permutation classes partition the n^m ordered tuples
    for order, dim in SHAPES:
        assert sum(multiplicity(idx) for idx in all_indices(order, dim)) == dim ** order


def test_all_indices_count():
    for order, dim in SHAPES:
        got = list(all_indices(order, dim))
        assert len(got) == math.comb(dim + order - 1, order)
        assert got == sorted(got)
        assert all(tuple(sorted(idx)) == idx for idx in got)


# ---------------------------------------------------------------------------
# build

def test_build_sparse_diagonal():
    t = build(3, 2, [((1, 1, 1), 1), ((2, 2, 2), 1)])
    assert t.get((1, 1, 1)) == 1.0
    assert t.get((2, 2, 2)) == 1.0
    assert t.get((1, 1, 2)) == 0.0
    assert t.get((1, 2, 2)) == 0.0


def test_build_rejects_symmetry_conflict():
    with pytest.raises(ValueError, match="conflicting"):
        build(3, 2, [((1, 1, 2), 1), ((2, 1, 1), 2)])


def test_build_accepts_exact_duplicates():
    t = build(3, 2, [((1, 1, 2), 1.5), ((2, 1, 1), 1.5)])
    assert t.get((1, 2, 1)) == 1.5


def test_build_coupling_style_entry_set():
    # quartic diagonals 1, every cross coupling 0: only three nonzeros survive
    t = build(4, 3, {(1, 1, 1, 1): 1, (2, 2, 2, 2): 1, (3, 3, 3, 3): 1,
                     (1, 1, 2, 2): 0.0, (1, 1, 3, 3): 0.0, (2, 2, 3, 3): 0.0,
                     (1, 2, 3, 3): 0.0})
    for i in (1, 2, 3):
        assert t.get((i,) * 4) == 1.0
    assert t.get((1, 1, 2, 2)) == 0.0
    assert t.get((2, 1, 2, 1)) == 0.0


def test_build_rejects_bad_index():
    with pytest.raises(ValueError):
        build(3, 2, {(1, 1, 3): 1.0})
    with pytest.raises(ValueError):
        build(3, 2, {(1, 1): 1.0})


@pytest.mark.parametrize("idx", [(1, 1), (1, 1, 1, 1)])
def test_get_rejects_wrong_length(idx):
    # get used to read 0.0 for an index of the wrong length
    t = build(3, 2, {(1, 1, 1): 1.0})
    with pytest.raises(ValueError) as info:
        t.get(idx)
    assert str(info.value) == f"index {idx} has {len(idx)} components, expected 3"


def test_index_table_agrees_with_canonicalize():
    # build and get look indices up in a per-shape table and fall back to
    # canonicalize on a miss; every accepted form must read the same entry
    t = build(3, 2, {(1, 1, 1): 1.0, (1, 1, 2): 2.0, (1, 2, 2): 3.0})
    for idx in [(1, 1, 2), (2, 1, 1), [1, 2, 1], (1.0, 1, 2), (True, 2, 2),
                tuple(np.array([2, 2, 1])), (2, 2, 2)]:
        assert t.get(idx) == t.entries.get(canonicalize(idx, 2), 0.0)
        assert build(3, 2, [(idx, 5.0)]).entries == {canonicalize(idx, 2): 5.0}


@pytest.mark.parametrize("idx, message", [
    ((1.5, 1, 2), "index (1.5, 1, 2) has a component that is not an integer"),
    ((2.9, 1, 1), "index (2.9, 1, 1) has a component that is not an integer"),
    (("1", 1, 2), "index ('1', 1, 2) has a component that is not an integer"),
    ((float("nan"), 1, 2), "index (nan, 1, 2) has a component that is not an integer"),
    ((None, 1, 2), "index (None, 1, 2) has a component that is not an integer"),
    ("112", "index '112' is a string, not a sequence of integers"),
    ("121", "index '121' is a string, not a sequence of integers"),
], ids=["1.5", "2.9", "str-component", "nan", "None", "str-112", "str-121"])
@pytest.mark.parametrize("shape", [(3, 2), (3, 40)], ids=["table", "no-table"])
def test_index_component_is_never_truncated(idx, message, shape):
    # int() would read 1.5 and 2.9 as 1 and "121" as (1, 2, 1); (3, 40) has
    # no index table, so every index goes through canonicalize
    order, dim = shape
    t = build(order, dim, {(1, 1, 2): 2.0})
    for call in (t.get, lambda i: build(order, dim, {i: 1.0}), lambda i: canonicalize(i, dim)):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            call(idx)


def test_index_table_is_bounded_by_its_components():
    # order 4095 at dim 2 has only 4,096 canonical indices but 16.8 million
    # components; every shape build accepts, zero included, looks its table up
    assert _index_table(4095, 2) == {}
    assert _index_table(3, 40) == {}
    assert len(_index_table(2**16, 1)) == 2  # one index and its digit key
    assert len(_index_table(4, 3)) == 2 * 15


def test_shape_without_index_table():
    # order 7, dim 9 has C(15, 7) = 6,435 canonical indices of 7 components,
    # more than the table holds, so build and get canonicalize every index
    assert _index_table(7, 9) == {}
    t = build(7, 9, [((9, 1, 5, 5, 2, 7, 1), 1.5), ((3,) * 7, -2.0),
                     ([9, 8, 7, 6, 5, 4, 3], 0.25), ((1, 1, 2, 5, 5, 7, 9), 1.5)])
    assert t.entries == {(1, 1, 2, 5, 5, 7, 9): 1.5, (3,) * 7: -2.0,
                         (3, 4, 5, 6, 7, 8, 9): 0.25}
    assert t.get((5, 1, 9, 2, 7, 1, 5)) == 1.5
    assert t.get([3] * 7) == -2.0
    assert t.get((1,) * 7) == 0.0
    with pytest.raises(ValueError, match=r"^index \(1, 1, 1, 1, 1, 1, 10\) has components"
                                         r" outside 1\.\.9$"):
        t.get((1, 1, 1, 1, 1, 1, 10))
    with pytest.raises(ValueError, match=r"^index \(1, 1\) has 2 components, expected 7$"):
        t.get((1, 1))


def test_build_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        build(3, 2, {(1, 1, 1): float("nan")})
    with pytest.raises(ValueError, match="finite"):
        build(3, 2, {(1, 1, 1): float("inf")})


def test_raw_constructor_and_entry_writes_raise():
    # both once gave a tensor whose criteria certify while its form is
    # -6.375 at (1, 0.5): the one door is build, and a built tensor's
    # entries keep what build checked
    entries = {(2, 1, 1): -5.0, (1, 1, 1): 1.0, (2, 2, 2): 1.0}
    with pytest.raises(TypeError, match=r"copos\.build\(order, dim, entries\)"):
        copos.SymmetricTensor(3, 2, entries)
    t = build(3, 2, {(1, 1, 1): 1.0, (2, 2, 2): 1.0})
    writes = [lambda e: e.__setitem__((2, 1, 1), -5.0),
              lambda e: e.__setitem__((1, 1, 1), math.nan),
              lambda e: e.__delitem__((1, 1, 1)),
              lambda e: e.update({(1, 1, 2): -5.0}),
              lambda e: e.setdefault((1, 1, 2), -5.0),
              lambda e: e.pop((1, 1, 1)),
              lambda e: e.popitem(),
              lambda e: e.clear(),
              lambda e: e.__ior__({(1, 1, 2): -5.0})]
    for write in writes:
        with pytest.raises(TypeError, match="read-only"):
            write(t.entries)
    assert dict(t.entries) == {(1, 1, 1): 1.0, (2, 2, 2): 1.0}
    assert t.evaluate((1.0, 0.5)) == 1.125
    # a copy or a pickled round trip is a tensor with read-only entries too
    for twin in (copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert twin == t
        with pytest.raises(TypeError, match="read-only"):
            twin.entries[(2, 1, 1)] = -5.0


def test_build_rejects_bad_shape():
    with pytest.raises(ValueError):
        build(0, 2, {})
    with pytest.raises(ValueError):
        build(3, 0, {})


# ---------------------------------------------------------------------------
# evaluate

def test_evaluate_all_ones_cube():
    t = build(3, 2, {idx: 1.0 for idx in all_indices(3, 2)})
    assert t.evaluate((1.0, 1.0)) == 8.0  # (x1+x2)^3


def test_evaluate_diagonal_sum():
    t = build(3, 2, {(1, 1, 1): 1, (2, 2, 2): 1})
    assert t.evaluate((1.0, 2.0)) == 9.0


def test_evaluate_coordinate_vectors(rng):
    for order, dim in SHAPES:
        t = random_tensor(rng, order, dim)
        for i in range(1, dim + 1):
            e = tuple(1.0 if j == i else 0.0 for j in range(1, dim + 1))
            assert t.evaluate(e) == t.get((i,) * order)


def test_evaluate_dimension_mismatch():
    t = zero(3, 2)
    with pytest.raises(ValueError, match="components"):
        t.evaluate((1.0, 2.0, 3.0))


def test_evaluate_matches_naive_sum(rng):
    for order, dim in SHAPES:
        for _ in range(200):
            t = random_tensor(rng, order, dim)
            x = random_point(rng, dim, -2.0, 2.0)
            assert rel_err(t.evaluate(x), naive_evaluate(t, x)) <= 1e-12


@given(c=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_evaluate_homogeneity(c, seed):
    r = np.random.default_rng(seed)
    t = random_tensor(r, 4, 3)
    x = random_point(r, 3, -1.0, 1.0)
    cx = tuple(c * v for v in x)
    assert rel_err(t.evaluate(cx), c ** t.order * t.evaluate(x)) <= 1e-12


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_permutation_invariance(seed):
    r = np.random.default_rng(seed)
    t = random_tensor(r, 4, 3)
    idx = tuple(int(v) for v in r.integers(1, 4, size=4))
    perm = tuple(int(v) for v in r.permutation(list(idx)))
    assert t.get(idx) == t.get(perm)


# ---------------------------------------------------------------------------
# scale / add

def test_scale_zero_and_additive_inverse(rng):
    t = random_tensor(rng, 3, 3)
    assert t.scale(0.0) == zero(3, 3)
    assert t.add(t.scale(-1.0)) == zero(3, 3)


def test_scale_and_add_refuse_an_overflowing_entry():
    # an inf entry would reach the criteria as a verdict; the factor itself
    # goes through the real rule (tests/test_number_rules.py)
    big = build(3, 2, {(1, 1, 1): 1.7e308})
    for overflow in (lambda: big.add(big), lambda: big.scale(2.0)):
        with pytest.raises(ValueError, match=r"^entry \(1, 1, 1\) is not finite: inf$"):
            overflow()


def test_add_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        zero(3, 2).add(zero(4, 2))


@given(alpha=st.floats(-3, 3, allow_nan=False), beta=st.floats(-3, 3, allow_nan=False),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_evaluate_linearity(alpha, beta, seed):
    r = np.random.default_rng(seed)
    t = random_tensor(r, 3, 3)
    s = random_tensor(r, 3, 3)
    x = random_point(r, 3, -1.0, 1.0)
    combo = t.scale(alpha).add(s.scale(beta))
    want = alpha * t.evaluate(x) + beta * s.evaluate(x)
    assert rel_err(combo.evaluate(x), want) <= 1e-12


def test_scale_times_two_doubles_evaluation(rng):
    t = random_tensor(rng, 3, 2)
    x = random_point(rng, 2)
    assert t.scale(2.0).evaluate(x) == 2.0 * t.evaluate(x)


# ---------------------------------------------------------------------------
# misc surface

def test_semantic_equality_ignores_explicit_zeros():
    a = build(3, 2, {(1, 1, 1): 1.0})
    b = build(3, 2, {(1, 1, 1): 1.0, (1, 1, 2): 0.0})
    assert a == b and b == a
    assert a != build(3, 2, {(1, 1, 1): 2.0})
    # an absent entry, an explicit 0.0 and an explicit -0.0 are all equal
    assert zero(3, 2) == build(3, 2, {(1, 2, 2): -0.0}) == build(3, 2, {(1, 2, 2): 0.0})
    assert build(3, 2, {(1, 2, 2): -0.0}) != build(3, 2, {(2, 2, 2): 1.0})
    # a shape mismatch is unequal, also between two zero tensors
    assert a != zero(4, 2)
    assert zero(3, 2) != zero(3, 3) and zero(3, 2) != zero(2, 3)


def test_equality_cost_follows_the_stored_entries():
    # (4, 60) has 595,665 canonical indices; only the stored keys are compared
    a = build(4, 60, {(1, 2, 3, 60): 1.0})
    b = build(4, 60, {(60, 3, 2, 1): 1.0, (7, 7, 7, 7): 0.0})
    start = time.perf_counter()
    assert a == b and a != build(4, 60, {(1, 2, 3, 60): 1.0, (5, 5, 5, 5): 1e-300})
    assert time.perf_counter() - start < 0.5


def test_max_abs_entry(rng):
    assert zero(3, 2).max_abs_entry() == 0.0
    t = build(3, 2, {(1, 1, 1): -3.0, (2, 2, 2): 2.0})
    assert t.max_abs_entry() == 3.0


def test_zero_tensor_evaluates_to_zero():
    assert zero(4, 3).evaluate((1.0, 2.0, 3.0)) == 0.0


def test_repr_mentions_shape():
    assert "order=3" in repr(zero(3, 2))
