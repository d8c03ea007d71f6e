"""Every public entry point reads a real and a count by the two rules of
copos.tensors: ``_entry_value`` and ``_count``.

A real is a finite float, or an int, Fraction or numpy scalar taken as the
equal float; a bool, a string, None, nan, an infinity and an int beyond the
float range raise ValueError.  A count is an ``int`` no smaller than the
entry point's least value; True, 2.0 and "3" raise ValueError.  Each message
starts with the name of what it refuses.

Every tensor comes through ``build``, which refuses an order above 2**16
(``tensors._MAX_ORDER``) before it makes an index; ``zero`` and
``parse_document`` meet the limit there.
"""

import json
import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from copos import (OracleConfig, Z3Params, build, cubic_nonneg_exact, cubic_nonneg_sufficient,
                   parse_document, quad_nonneg, scan_rho, zero)


def document(order, dim, entries):
    return parse_document(json.dumps({"order": order, "dim": dim, "entries": entries}))


# entry point -> (a call that passes x as a real, the name its messages start with)
REALS = {
    "build": (lambda x: build(2, 2, {(1, 2): x}), "entry (1, 2)"),
    "parse_document": (lambda x: document(2, 2, {"12": x}), "entry '12'"),
    "SymmetricTensor.scale": (lambda x: build(2, 2, {(1, 2): 1.0}).scale(x).entries,
                              "scale factor"),
    "Z3Params": (lambda x: Z3Params(lam3=x), "lam3"),
    "OracleConfig.band": (lambda x: OracleConfig(resolution=10, band=x), "band"),
    "cubic_nonneg_exact": (lambda x: cubic_nonneg_exact((1, x, -3, 1)), "coefficient b"),
    "cubic_nonneg_sufficient": (lambda x: cubic_nonneg_sufficient((1, 0, x, 1)), "coefficient c"),
    "quad_nonneg": (lambda x: quad_nonneg((1, x, 1)), "coefficient beta"),
}

BAD_REALS = {"True": True, "False": False, "'1'": "1", "None": None, "nan": math.nan,
             "inf": math.inf, "-inf": -math.inf, "10**400": 10**400, "-10**400": -10**400}
# JSON carries no Fraction or numpy scalar: a document gets the int alone
GOOD_REALS = [3, Fraction(1, 4), np.float64(0.5), np.int64(2)]


@pytest.mark.parametrize("entry", REALS)
@pytest.mark.parametrize("bad", BAD_REALS.values(), ids=BAD_REALS)
def test_real_rule_refuses(entry, bad):
    call, name = REALS[entry]
    with pytest.raises(ValueError, match="^" + re.escape(name) + " "):
        call(bad)


@pytest.mark.parametrize("entry, good", [
    pytest.param(entry, good, id=f"{entry}-{good!r}") for entry in REALS for good in GOOD_REALS
    if entry != "parse_document" or type(good) is int])
def test_real_rule_reads_the_equal_float(entry, good):
    call, _ = REALS[entry]
    assert repr(call(good)) == repr(call(float(good)))


# entry point -> (a call that passes n as a count, the count's name, its least value)
COUNTS = {
    "build.order": (lambda n: build(n, 2, {}), "order", 1),
    "build.dim": (lambda n: build(3, n, {}), "dim", 1),
    "parse_document.order": (lambda n: document(n, 2, {}), "order", 1),
    "parse_document.dim": (lambda n: document(3, n, {}), "dim", 1),
    "OracleConfig.resolution": (lambda n: OracleConfig(resolution=n), "resolution", 1),
    "OracleConfig.refine_rounds": (lambda n: OracleConfig(resolution=10, refine_rounds=n),
                                   "refine_rounds", 0),
    "OracleConfig.samples": (lambda n: OracleConfig(resolution=10, samples=n), "samples", 0),
    "OracleConfig.seed": (lambda n: OracleConfig(resolution=10, seed=n), "seed", 0),
    "scan_rho": (lambda n: scan_rho(Z3Params(lam1=1, lam2=1, lam_s=1), n), "steps", 1),
}


@pytest.mark.parametrize("entry", COUNTS)
@pytest.mark.parametrize("bad", [True, False, 2.0, 2.5, "3", None], ids=repr)
def test_count_rule_refuses_a_non_int(entry, bad):
    call, name, _ = COUNTS[entry]
    message = f"{name} must be an integer, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize("entry", COUNTS)
def test_count_rule_takes_the_least_value_only(entry):
    call, name, least = COUNTS[entry]
    call(least)
    with pytest.raises(ValueError, match=f"^{name} must be >= {least}, got {least - 1}$"):
        call(least - 1)


# entry point -> a call that makes an empty tensor of the given order and dim
DOORS = {
    "build": lambda order, dim: build(order, dim, {}),
    "zero": zero,
    "parse_document": lambda order, dim: document(order, dim, {}),
}


@pytest.mark.parametrize("entry", DOORS)
@pytest.mark.parametrize("order, dim", [(2**16 + 1, 1), (2**16 + 1, 3), (10**6, 2)])
def test_order_limit_refuses_at_the_door(entry, order, dim):
    # order 10**6 at dim 2 never reaches the slice plan and its tail limit
    message = f"an order-{order} tensor is above the order limit of 65536"
    with pytest.raises(ValueError, match=f"^{message}$"):
        DOORS[entry](order, dim)


@pytest.mark.parametrize("entry", DOORS)
@pytest.mark.parametrize("order, dim", [(2**16, 1), (17, 2), (11, 3)])
def test_order_limit_admits_the_limit(entry, order, dim):
    t = DOORS[entry](order, dim)
    assert (t.order, t.dim, t.entries) == (order, dim, {})


def test_order_limit_refuses_before_an_entry_is_read():
    # weighted_terms() of this one entry would take seconds (two factorials
    # of 10**6); build refuses the shape before it reads the index
    idx = (1,) * 10**6
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^an order-1000000 tensor is above the order limit"):
        build(10**6, 1, {idx: 1.0})
    assert time.perf_counter() - start < 1.0
