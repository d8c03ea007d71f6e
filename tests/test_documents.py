"""JSON document parsing and canonical serialization."""

import json
import sys

import numpy as np
import pytest

from copos import (build, entries_as_strings, load_document, parse_document,
                   serialize_document, zero)
from copos.documents import _checked_entries
from copos.tensors import _index_table

from conftest import SHAPES, random_tensor


def doc(order, dim, entries):
    return json.dumps({"order": order, "dim": dim, "entries": entries})


# ---------------------------------------------------------------------------
# happy path

def test_parse_minimal():
    t = parse_document(doc(3, 2, {"112": -0.5, "222": 1}))
    assert t.order == 3 and t.dim == 2
    assert t.get((1, 1, 2)) == -0.5
    assert t.get((2, 2, 2)) == 1.0
    assert t.get((1, 1, 1)) == 0.0


def test_int_values_become_floats():
    t = parse_document(doc(3, 2, {"111": 1}))
    assert isinstance(t.get((1, 1, 1)), float)


def test_explicit_zero_is_kept():
    t = parse_document(doc(3, 2, {"111": 0.0}))
    assert (1, 1, 1) in t.entries
    assert "111" in entries_as_strings(t)


def test_round_trip_random(rng):
    for order, dim in SHAPES:
        for _ in range(25):
            t = random_tensor(rng, order, dim)
            assert parse_document(serialize_document(t)) == t


def test_serialize_is_fixpoint(rng):
    t = random_tensor(rng, 4, 3)
    text = serialize_document(t)
    assert serialize_document(parse_document(text)) == text


def test_parse_and_round_trip_without_key_table():
    # order 7, dim 9 has 6,435 canonical keys of 7 digits, more than the index
    # table holds, so every key goes through the per-key checks
    t = parse_document(doc(7, 9, {"1125579": 1.5, "3333333": -2, "3456789": 0.25}))
    assert t.entries == {(1, 1, 2, 5, 5, 7, 9): 1.5, (3,) * 7: -2.0,
                         (3, 4, 5, 6, 7, 8, 9): 0.25}
    text = serialize_document(t)
    assert parse_document(text) == t
    assert serialize_document(parse_document(text)) == text


def _checked_parse(text):
    # the per-entry loop alone, then build's own walk: parse_document before
    # it took the single pass
    obj = json.loads(text)
    order, dim = obj["order"], obj["dim"]
    return build(order, dim, _checked_entries(obj["entries"], _index_table(order, dim),
                                              order, dim))


def _generated_documents(rng):
    # every shape with float values, then with ints and -0.0 mixed in, then an
    # order-7 dim-9 document, whose index table is empty
    for order, dim in SHAPES:
        for _ in range(20):
            entries = entries_as_strings(random_tensor(rng, order, dim))
            yield doc(order, dim, entries)
            for key in rng.choice(sorted(entries), size=3, replace=False):
                entries[key] = int(rng.integers(-3, 4)) if rng.random() < 0.5 else -0.0
            yield doc(order, dim, entries)
    yield doc(7, 9, {"1125579": 1.5, "3333333": -2, "3456789": -0.0, "1111111": 0.25})


def test_single_pass_matches_the_checked_loop(rng):
    texts = list(_generated_documents(rng))
    assert any(": -0.0" in text for text in texts) and any(": 2," in text for text in texts)
    for text in texts:
        got, want = parse_document(text), _checked_parse(text)
        assert (got.order, got.dim) == (want.order, want.dim)
        # repr tells -0.0 from 0.0 and 2 from 2.0; the key order is the document's
        assert repr(list(got.entries.items())) == repr(list(want.entries.items()))
        assert all(type(v) is float for v in got.entries.values())
        if _index_table(got.order, got.dim):  # the very key objects of the index table
            assert [id(k) for k in got.entries] == [id(k) for k in want.entries]
        else:
            assert all(type(c) is int for k in got.entries for c in k)


def test_build_takes_checked_entries_as_they_are():
    # parse hands its checked entries to build, which keeps them without a
    # second walk; entries of another order are walked and refused
    # (BUILD_REJECTIONS, "entries of another order")
    t = parse_document(doc(3, 2, {"112": -0.5, "222": 1.0}))
    assert build(3, 2, t.entries).entries is t.entries
    assert build(3, 3, t.entries).entries is t.entries  # dim 2 indices are dim 3 indices
    wide = parse_document(doc(7, 9, {"1125579": 1.5}))
    assert build(7, 9, wide.entries) == wide


def test_serialize_sorts_keys():
    t = build(3, 2, {(2, 2, 2): 1.0, (1, 1, 1): 2.0, (1, 2, 2): 3.0})
    keys = list(entries_as_strings(t))
    assert keys == sorted(keys)
    obj = json.loads(serialize_document(t))
    assert list(obj) == ["order", "dim", "entries"]


def test_load_document(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(doc(4, 3, {"1111": 2.5}), encoding="utf-8")
    t = load_document(str(path))
    assert t.get((1, 1, 1, 1)) == 2.5


def test_serialize_rejects_wide_tensor():
    with pytest.raises(ValueError, match="dim <= 9"):
        serialize_document(zero(3, 10))


def test_digit_keys_refuse_a_wide_tensor():
    # index (1, 1, 10) would be written as the key "1110"
    with pytest.raises(ValueError, match=r"^digit-string keys support dim <= 9, got 10$"):
        entries_as_strings(build(3, 10, {(1, 1, 10): 1.0}))


# ---------------------------------------------------------------------------
# rejection paths

def test_rejects_bad_json():
    with pytest.raises(ValueError, match="not valid JSON"):
        parse_document("{nope")


def test_rejects_non_object():
    with pytest.raises(ValueError, match="must be a JSON object"):
        parse_document("[1, 2]")


def test_rejects_missing_keys():
    with pytest.raises(ValueError, match="document is missing"):
        parse_document('{"order": 3, "dim": 2}')
    with pytest.raises(ValueError, match="document is missing"):
        parse_document('{"entries": {}}')


def test_rejects_extra_key():
    with pytest.raises(ValueError, match="unexpected document key"):
        parse_document('{"order": 3, "dim": 2, "entries": {}, "note": "hi"}')


def test_rejects_bad_order_and_dim():
    with pytest.raises(ValueError, match="must be an integer"):
        parse_document('{"order": 3.0, "dim": 2, "entries": {}}')
    with pytest.raises(ValueError, match="must be an integer"):
        parse_document('{"order": true, "dim": 2, "entries": {}}')
    with pytest.raises(ValueError, match="must be >= 1"):
        parse_document('{"order": 3, "dim": 0, "entries": {}}')
    with pytest.raises(ValueError, match="dim <= 9"):
        parse_document('{"order": 3, "dim": 10, "entries": {}}')


@pytest.mark.parametrize("order, dim", [(2**16, 1), (17, 2), (11, 3)])
def test_parse_admits_the_order_and_tail_limits(order, dim):
    key = "1" * order
    t = parse_document(doc(order, dim, {key: 2.0}))
    assert (t.order, t.dim, entries_as_strings(t)) == (order, dim, {key: 2.0})


def test_rejects_bad_entries_container():
    with pytest.raises(ValueError, match="entries must be an object"):
        parse_document('{"order": 3, "dim": 2, "entries": []}')


def test_rejects_bad_entry_keys():
    with pytest.raises(ValueError, match="must be 3 digits"):
        parse_document(doc(3, 2, {"11": 1.0}))
    with pytest.raises(ValueError, match="must be 3 digits"):
        parse_document(doc(3, 2, {"1a2": 1.0}))
    # non-ASCII digits pass str.isdigit but are not index digits
    with pytest.raises(ValueError, match="must be 3 digits"):
        parse_document(doc(3, 2, {"١١١": 1.0}))
    with pytest.raises(ValueError, match="has a digit outside"):
        parse_document(doc(3, 2, {"113": 1.0}))
    with pytest.raises(ValueError, match="has a digit outside"):
        parse_document(doc(3, 2, {"011": 1.0}))
    with pytest.raises(ValueError, match="sorted non-decreasing"):
        parse_document(doc(3, 2, {"121": 1.0}))


def test_rejects_bad_entry_values():
    with pytest.raises(ValueError, match="must be a number"):
        parse_document(doc(3, 2, {"111": "1"}))
    with pytest.raises(ValueError, match="must be a number"):
        parse_document(doc(3, 2, {"111": True}))
    with pytest.raises(ValueError, match="not finite"):
        parse_document('{"order": 3, "dim": 2, "entries": {"111": NaN}}')
    with pytest.raises(ValueError, match="not finite"):
        parse_document('{"order": 3, "dim": 2, "entries": {"111": Infinity}}')


def test_rejects_duplicate_keys():
    with pytest.raises(ValueError, match="duplicate key"):
        parse_document('{"order": 3, "dim": 2, '
                       '"entries": {"111": 1, "111": 2}}')
    # with two keys repeated, the message names the first repeat in the text
    with pytest.raises(ValueError, match="^duplicate key '111' in document$"):
        parse_document('{"order": 3, "dim": 2, '
                       '"entries": {"222": 1, "111": 1, "111": 1, "222": 1}}')


@pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig", "utf-16", "utf-32-be"])
def test_bytes_parse_as_their_text(encoding):
    # json.loads detects the encoding of bytes and of a bytearray; parse_document keeps that
    text = doc(3, 2, {"112": -0.5, "222": 1, "111": 0.25})
    want = parse_document(text)
    for data in (text.encode(encoding), bytearray(text.encode(encoding))):
        got = parse_document(data)
        assert repr(sorted(got.entries.items())) == repr(sorted(want.entries.items()))
    with pytest.raises(ValueError, match="^duplicate key '111' in document$"):
        parse_document(b'{"order": 3, "dim": 2, "entries": {"111": 1, "111": 1}}')


# Every rejection message, in full.  Documents and build look indices up in
# per-shape tables and validate only on a miss, so these pin that a miss
# still reaches the original check, in the original order.
BIG = "1" + "0" * 400

PARSE_REJECTIONS = [
    ("non-digit key", doc(3, 2, {"1a2": 1.0}), ValueError,
     "entry key '1a2' must be 3 digits"),
    ("non-ascii digits", doc(3, 2, {"\u0661\u0661\u0661": 1.0}), ValueError,
     "entry key '\u0661\u0661\u0661' must be 3 digits"),
    ("short key", doc(3, 2, {"11": 1.0}), ValueError, "entry key '11' must be 3 digits"),
    ("long key", doc(3, 2, {"1111": 1.0}), ValueError, "entry key '1111' must be 3 digits"),
    ("digit above dim", doc(3, 2, {"113": 1.0}), ValueError,
     "entry key '113' has a digit outside 1..2"),
    ("digit zero", doc(3, 2, {"011": 1.0}), ValueError,
     "entry key '011' has a digit outside 1..2"),
    ("non-canonical key", doc(3, 2, {"121": 1.0}), ValueError,
     "non-canonical entry key '121': digits must be sorted non-decreasing"),
    ("non-canonical dim 3", doc(4, 3, {"1132": 1.0}), ValueError,
     "non-canonical entry key '1132': digits must be sorted non-decreasing"),
    ("non-canonical key, no key table", doc(7, 9, {"1122597": 1.0}), ValueError,
     "non-canonical entry key '1122597': digits must be sorted non-decreasing"),
    ("digit zero, no key table", doc(7, 9, {"0112233": 1.0}), ValueError,
     "entry key '0112233' has a digit outside 1..9"),
    ("short key, no key table", doc(7, 9, {"112233": 1.0}), ValueError,
     "entry key '112233' must be 7 digits"),
    ("bad key after good", doc(3, 2, {"111": 1.0, "112": 2.0, "221": 3.0}), ValueError,
     "non-canonical entry key '221': digits must be sorted non-decreasing"),
    ("string value", doc(3, 2, {"111": "1"}), ValueError,
     "entry '111' must be a number, got '1'"),
    ("bool value", doc(3, 2, {"111": True}), ValueError,
     "entry '111' must be a number, got True"),
    ("null value", doc(3, 2, {"111": None}), ValueError,
     "entry '111' must be a number, got None"),
    ("bad value after good", doc(3, 2, {"111": 1.0, "112": "x"}), ValueError,
     "entry '112' must be a number, got 'x'"),
    ("bad key with a bad value", doc(3, 2, {"121": "x"}), ValueError,
     "non-canonical entry key '121': digits must be sorted non-decreasing"),
    ("bad value before bad key", doc(3, 2, {"111": None, "121": 1.0}), ValueError,
     "entry '111' must be a number, got None"),
    ("int value before bad key", doc(3, 2, {"111": 1, "211": 1.0}), ValueError,
     "non-canonical entry key '211': digits must be sorted non-decreasing"),
    ("nan value", '{"order": 3, "dim": 2, "entries": {"111": NaN}}', ValueError,
     "entry '111' is not finite: nan"),
    ("infinite value", '{"order": 3, "dim": 2, "entries": {"112": -Infinity}}', ValueError,
     "entry '112' is not finite: -inf"),
    ("huge int value", '{"order": 3, "dim": 2, "entries": {"111": %s}}' % BIG,
     ValueError, "entry '111' is too large for a float"),
    ("huge negative int value", '{"order": 3, "dim": 2, "entries": {"122": -%s}}' % BIG,
     ValueError, "entry '122' is too large for a float"),
    ("int past the digit limit", '{"order": 3, "dim": 2, "entries": {"111": 1%s}}' % ("0" * 5000),
     ValueError, "not valid JSON: Exceeds the limit (4300 digits) for integer string conversion:"
     " value has 5001 digits; use sys.set_int_max_str_digits() to increase the limit"),
    ("order above the limit", doc(2**16 + 1, 1, {}), ValueError,
     "an order-65537 tensor is above the order limit of 65536"),
    ("duplicate entry", '{"order": 3, "dim": 2, "entries": {"111": 1, "111": 2}}',
     ValueError, "duplicate key '111' in document"),
    ("duplicate top key", '{"order": 3, "order": 3, "dim": 2, "entries": {}}',
     ValueError, "duplicate key 'order' in document"),
    ("BOM-led text", "\ufeff" + doc(3, 2, {}), ValueError,
     "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    ("deeply nested", "[" * 100_000 + "]" * 100_000, ValueError,
     "not valid JSON: maximum recursion depth exceeded while decoding a JSON array"
     " from a unicode string"),
]


@pytest.mark.parametrize("text, exc, message", [case[1:] for case in PARSE_REJECTIONS],
                         ids=[case[0] for case in PARSE_REJECTIONS])
def test_parse_rejection_messages_are_pinned(text, exc, message):
    with pytest.raises(exc) as info:
        parse_document(text)
    assert type(info.value) is exc
    assert str(info.value) == message


BUILD_REJECTIONS = [
    ("out-of-range index", (3, 2, {(1, 1, 3): 1.0}), ValueError,
     "index (1, 1, 3) has components outside 1..2"),
    ("out-of-range index, no index table", (7, 9, {(1, 1, 1, 1, 1, 1, 10): 1.0}), ValueError,
     "index (1, 1, 1, 1, 1, 1, 10) has components outside 1..9"),
    ("zero component in a list", (3, 2, [([0, 1, 1], 1.0)]), ValueError,
     "index (0, 1, 1) has components outside 1..2"),
    ("short index", (3, 2, {(1, 1): 1.0}), ValueError,
     "index (1, 1) has 2 components, expected 3"),
    ("long index", (3, 2, {(1, 1, 1, 1): 1.0}), ValueError,
     "index (1, 1, 1, 1) has 4 components, expected 3"),
    ("conflicting values", (3, 2, [((1, 1, 2), 1.0), ((2, 1, 1), 2.0)]), ValueError,
     "conflicting values for entry (1, 1, 2): 1.0 vs 2.0"),
    ("nan", (3, 2, {(1, 1, 1): float("nan")}), ValueError,
     "entry (1, 1, 1) is not finite: nan"),
    ("inf on a permutation", (3, 2, {(2, 1, 2): float("-inf")}), ValueError,
     "entry (1, 2, 2) is not finite: -inf"),
    ("string value", (3, 2, {(1, 1, 1): "x"}), ValueError,
     "entry (1, 1, 1) must be a number, got 'x'"),
    ("null value", (3, 2, {(1, 1, 1): None}), ValueError,
     "entry (1, 1, 1) must be a number, got None"),
    ("numeric string value", (3, 2, {(2, 1, 1): "1.5"}), ValueError,
     "entry (1, 1, 2) must be a number, got '1.5'"),
    ("bool value", (3, 2, {(1, 1, 1): True}), ValueError,
     "entry (1, 1, 1) must be a number, got True"),
    ("huge int value", (3, 2, {(1, 1, 1): 10**400}), ValueError,
     "entry (1, 1, 1) is too large for a float"),
    ("huge negative int on a permutation", (3, 2, {(2, 2, 1): -10**400}), ValueError,
     "entry (1, 2, 2) is too large for a float"),
    ("list component", (3, 2, [((1, [1], 1), 1.0)]), ValueError,
     "index (1, [1], 1) has a component that is not an integer"),
    ("entries of another order", (4, 3, build(3, 2, {(1, 1, 2): 1.0}).entries), ValueError,
     "index (1, 1, 2) has 3 components, expected 4"),
    ("order 0", (0, 2, {}), ValueError, "order must be >= 1, got 0"),
    ("dim 0", (3, 0, {}), ValueError, "dim must be >= 1, got 0"),
]


@pytest.mark.parametrize("args, exc, message", [case[1:] for case in BUILD_REJECTIONS],
                         ids=[case[0] for case in BUILD_REJECTIONS])
def test_build_rejection_messages_are_pinned(args, exc, message):
    with pytest.raises(exc) as info:
        build(*args)
    assert type(info.value) is exc
    assert str(info.value) == message


def test_build_accepts_ints_floats_and_numpy_reals():
    t = build(3, 2, {(1, 1, 1): 2, (1, 1, 2): -0.5, (1, 2, 2): np.float32(0.25),
                     (2, 2, 2): np.int64(3)})
    assert t.entries == {(1, 1, 1): 2.0, (1, 1, 2): -0.5, (1, 2, 2): 0.25, (2, 2, 2): 3.0}
    assert all(type(v) is float for v in t.entries.values())
    # the largest int that still rounds to a finite float is accepted
    assert build(3, 2, {(1, 1, 1): 2**1024 - 2**970 - 1}).get((1, 1, 1)) == sys.float_info.max
    with pytest.raises(ValueError, match="too large for a float"):
        build(3, 2, {(1, 1, 1): 2**1024 - 2**970})
