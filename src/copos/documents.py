"""JSON tensor documents.

A tensor travels as one JSON object::

    {"order": 3, "dim": 2, "entries": {"112": -0.5, "222": 1}}

Entry keys are the canonical sorted digit strings of multi-indices, so the
format only covers dimensions up to 9 (plenty here).  Keys must arrive
canonical: a key like "121" is rejected, not normalized, because silently
sorting it would hide conflicting values for the same permutation class.
Missing entries are zero; explicit zeros are kept and serialized back.
An order above 2**16 (``tensors._MAX_ORDER``) is refused before any key
is built, since an index, its key and a slice's row texts are order long.

parse_document decodes with one module-level decoder; bytes and a BOM take json.loads.
It checks each entry once: one pass looks every key up in the shape's index
table and keeps finite float values, and only if that drops an entry does a
per-entry loop check each one, raising its defect's message.  Either way the
checked entries reach ``tensors.build`` as read-only ``_Entries``, which it
takes without a second walk when every key is a canonical index of the shape.

serialize_document emits the fields in a fixed order with keys sorted and
numbers in shortest round-trip decimal form, so equal tensors produce
byte-identical documents.
"""

from __future__ import annotations

import json
import math

from .tensors import (Index, SymmetricTensor, _count, _Entries, _entry_value, _index_table,
                      build)

_TOP_KEYS = ("order", "dim", "entries")


def _pairs_rejecting_duplicates(pairs: list[tuple[str, object]]) -> dict:
    out = dict(pairs)
    if len(out) < len(pairs):  # a key repeats: name the first one that does
        out = {}
        for key, value in pairs:
            if key in out:
                raise KeyError(f"duplicate key {key!r} in document")
            out[key] = value
    return out


_DECODER = json.JSONDecoder(object_pairs_hook=_pairs_rejecting_duplicates)


def parse_document(text: str) -> SymmetricTensor:
    """Parse a JSON tensor document; raises ValueError on any defect,
    naming the offending key where there is one."""
    try:
        obj = (_DECODER.decode(text) if isinstance(text, str) and text[:1] != "\ufeff"
               else json.loads(text, object_pairs_hook=_pairs_rejecting_duplicates))
    except KeyError as exc:  # the hook's duplicate key, kept apart from bad JSON
        raise ValueError(*exc.args) from None
    except (ValueError, RecursionError) as exc:  # an int past the digit limit, too deep nesting
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"document must be a JSON object, got {type(obj).__name__}")
    for name in _TOP_KEYS:
        if name not in obj:
            raise ValueError(f"document is missing {name!r}")
    extra = set(obj) - set(_TOP_KEYS)
    if extra:
        raise ValueError(f"unexpected document key {sorted(extra)[0]!r}")
    order = _count("order", obj["order"], 1)
    dim = _count("dim", obj["dim"], 1)
    keys = _index_table(order, dim)  # refuses the order; only a key missing here is checked
    _digit_dim(dim)
    raw = obj["entries"]
    if not isinstance(raw, dict):
        raise ValueError(f"entries must be an object, got {type(raw).__name__}")
    try:  # the common case: every key in the table, every value a finite float
        entries = {keys[key]: value for key, value in raw.items()
                   if type(value) is float and math.isfinite(value)}
    except KeyError:
        entries = {}
    if len(entries) != len(raw):
        entries = _checked_entries(raw, keys, order, dim)
    return build(order, dim, _Entries(entries))


def _checked_entries(raw: dict, keys: dict, order: int, dim: int) -> dict[Index, float]:
    """Each entry checked on its own, raising the first defect's message."""
    entries: dict[Index, float] = {}
    for key, value in raw.items():
        idx = keys.get(key)
        if idx is None:
            if not (key.isascii() and key.isdigit()) or len(key) != order:
                raise ValueError(f"entry key {key!r} must be {order} digits")
            idx = tuple(int(c) for c in key)
            if any(not 1 <= i <= dim for i in idx):
                raise ValueError(f"entry key {key!r} has a digit outside 1..{dim}")
            if any(a > b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"non-canonical entry key {key!r}: digits must be"
                                 " sorted non-decreasing")
        if type(value) is not float or not math.isfinite(value):  # a finite float needs no checks
            value = _entry_value(key, value)
        entries[idx] = value
    return entries


def load_document(path: str) -> SymmetricTensor:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read())


def _digit_dim(dim: int) -> None:
    if dim > 9:  # index (1, 1, 10) would be key "1110"
        raise ValueError(f"digit-string keys support dim <= 9, got {dim}")


def entries_as_strings(tensor: SymmetricTensor) -> dict[str, float]:
    """Stored entries keyed by digit string, sorted, zeros included."""
    _digit_dim(tensor.dim)
    return {"".join(str(i) for i in idx): value
            for idx, value in sorted(tensor.entries.items())}


def serialize_document(tensor: SymmetricTensor) -> str:
    """Canonical document text for a tensor (no trailing newline).

    parse(serialize(t)) == t, and serialize is a fixpoint on its output.
    """
    doc = {"order": tensor.order, "dim": tensor.dim,
           "entries": entries_as_strings(tensor)}
    return json.dumps(doc, indent=2)
