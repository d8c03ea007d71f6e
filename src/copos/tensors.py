"""Canonical storage and evaluation of real symmetric tensors.

A symmetric tensor of order ``m`` and dimension ``n`` is stored as a map
from canonical multi-indices to float entries.  A multi-index is a 1-based
tuple ``(i_1, ..., i_m)``; its canonical form is sorted non-decreasing, so
the map holds one value per permutation class -- ``C(n+m-1, m)`` possible
keys.  Absent keys read as zero.  Evaluation weighs each stored entry by
the number of distinct permutations of its index, which makes

    T.evaluate(x) == sum over all ordered index tuples of T[idx] * prod(x_i)

without ever materialising the full ``n**m`` array.

:func:`build`, the one door into a tensor, and :meth:`SymmetricTensor.get`
look indices up in a table of the shape's canonical indices, built on first
use, and call :func:`canonicalize`, with its checks and messages, only on a
miss (a permutation, a list, 1.0 for 1; a string index, or a component such
as 1.5 or "1" that is not an integer, raises).  The lookup refuses an order
above ``_MAX_ORDER = 2**16`` before any index is made: an index, its digit
key and a slice's row texts are each order long.

Every public entry point checks its reals with :func:`_entry_value` (a
finite float, or a number read as the equal float; never a bool or a
string) and its counts with :func:`_count` (an ``int`` no smaller than a least value).

Tensors are immutable after construction: the raw ``SymmetricTensor(...)``
constructor raises TypeError unless :func:`build` calls it, and the stored
entries refuse every write.  ``scale`` and ``add`` return new objects, made
by :func:`build` and so held to its rules.  Dimensions
above 3 are supported generically (the closed-form criteria in
:mod:`copos.criteria` restrict shape themselves).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import InitVar, dataclass
from typing import Iterable, Iterator, Mapping, Sequence

Index = tuple[int, ...]
Vector = tuple[float, ...]
_MAX_ORDER = 2 ** 16  # an index, its digit key and a slice's row texts are each `order` long


def canonicalize(idx: Sequence[int], dim: int) -> Index:
    """Sorted (non-decreasing) form of a 1-based multi-index.

    Raises ValueError if ``idx`` is a string, or if a component is not equal
    to an integer or falls outside ``1..dim``.
    """
    if isinstance(idx, str):
        raise ValueError(f"index {idx!r} is a string, not a sequence of integers")
    given = tuple(idx)
    try:
        ints = tuple(map(int, given))
    except (TypeError, ValueError, OverflowError):  # None, a list, nan, inf
        ints = None
    if ints != given:  # int() truncates 1.5 and reads "1"
        raise ValueError(f"index {given} has a component that is not an integer")
    out = tuple(sorted(ints))
    if out and (out[0] < 1 or out[-1] > dim):
        raise ValueError(f"index {given} has components outside 1..{dim}")
    return out


def multiplicity(idx: Sequence[int]) -> int:
    """Number of distinct permutations of a multi-index.

    For an index with component counts ``c_1, ..., c_k`` this is the
    multinomial ``m! / (c_1! * ... * c_k!)``.
    """
    return _canonical_multiplicity(tuple(sorted(idx)))


@functools.lru_cache(maxsize=4096)
def _canonical_multiplicity(idx: Index) -> int:
    # cached per canonical index: evaluation loops call this once per entry
    return math.factorial(len(idx)) // math.prod(map(math.factorial, Counter(idx).values()))


def all_indices(order: int, dim: int) -> Iterator[Index]:
    """All canonical multi-indices of the given shape, lexicographically."""
    return itertools.combinations_with_replacement(range(1, dim + 1), order)


@functools.lru_cache(maxsize=32)
def _index_table(order: int, dim: int) -> dict[Index | str, Index]:
    # canonical indices and, for dim <= 9, their digit strings (document keys)
    if order > _MAX_ORDER:  # checked here, by build and parse_document alike
        raise ValueError(f"an order-{order} tensor is above the order limit of {_MAX_ORDER}")
    # a shape whose indices hold more than 2**14 components in all gets an empty
    # table: it would cost more to hold than it saves.  Above dim 1 there are at
    # least order + dim - 1 indices, so comb only sees small shapes
    if dim > 1 and (order + dim > 2**14 or math.comb(dim + order - 1, order) * order > 2**14):
        return {}
    table: dict[Index | str, Index] = {idx: idx for idx in all_indices(order, dim)}
    if dim <= 9:
        table.update({"".join(map(str, idx)): idx for idx in all_indices(order, dim)})
    return table


def _canonical(table: Mapping[object, Index], idx: Sequence[int], order: int, dim: int) -> Index:
    """Canonical form of an index with ``order`` components, or ValueError."""
    if not isinstance(idx, str):  # a digit string is a document key, not an index
        try:
            return table[idx]
        except (KeyError, TypeError):  # not canonical, or unhashable such as a list
            pass
    key = canonicalize(idx, dim)
    if len(key) != order:
        raise ValueError(f"index {tuple(idx)} has {len(key)} components, expected {order}")
    return key


class _Entries(dict):
    """A tensor's entries: a dict whose mutators raise, so that a built
    tensor keeps the values :func:`build` checked."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("a tensor's entries are read-only; make a new tensor with copos.build")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):  # copy and pickle rebuild it without the blocked mutators
        return _Entries, (dict(self),)


_DOOR = object()  # build's key to the constructor


@dataclass(frozen=True, eq=False)
class SymmetricTensor:
    """Immutable symmetric tensor in canonical-entry storage.

    ``entries`` maps canonical indices to floats and is read-only.  Only
    :func:`build` (which validates and canonicalizes) makes one: the raw
    constructor raises TypeError.
    """

    order: int
    dim: int
    entries: Mapping[Index, float]
    door: InitVar[object] = None

    def __post_init__(self, door: object) -> None:
        if door is not _DOOR:
            raise TypeError("SymmetricTensor(...) is not a constructor to call: make a tensor"
                            " with copos.build(order, dim, entries), which checks them")

    def get(self, idx: Sequence[int]) -> float:
        """Entry at ``idx`` (any permutation); absent entries are 0.  An
        index :func:`build` would reject raises the same ValueError."""
        table = _index_table(self.order, self.dim)
        return self.entries.get(_canonical(table, idx, self.order, self.dim), 0.0)

    def evaluate(self, x: Sequence[float]) -> float:
        """The homogeneous form ``T x^m`` at a point with ``dim`` components."""
        if len(x) != self.dim:
            raise ValueError(f"point has {len(x)} components, tensor dimension is {self.dim}")
        acc = 0.0
        for idx, coeff in self.weighted_terms():
            monom = x[idx[0] - 1]
            for j in idx[1:]:
                monom *= x[j - 1]
            acc += coeff * monom
        return acc

    def scale(self, c: float) -> "SymmetricTensor":
        """``c`` times this tensor; a factor or a product that is not a
        finite real raises ValueError, as :func:`build` does."""
        c = _entry_value(None, c, "scale factor")
        return build(self.order, self.dim, {k: c * v for k, v in self.entries.items()})

    def add(self, other: "SymmetricTensor") -> "SymmetricTensor":
        """The entrywise sum; a sum that overflows raises ValueError."""
        if (self.order, self.dim) != (other.order, other.dim):
            raise ValueError("shape mismatch: cannot add "
                             f"({self.order},{self.dim}) and ({other.order},{other.dim})")
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0.0) + v
        return build(self.order, self.dim, out)

    def max_abs_entry(self) -> float:
        return max((abs(v) for v in self.entries.values()), default=0.0)

    def weighted_terms(self) -> list[tuple[Index, float]]:
        """Sorted ``(index, multiplicity * value)`` pairs, for evaluation loops."""
        return [(idx, _canonical_multiplicity(idx) * value)
                for idx, value in sorted(self.entries.items())]

    def __eq__(self, other: object) -> bool:
        # semantic equality: absent keys count as zero, so only stored keys are compared
        if not isinstance(other, SymmetricTensor):
            return NotImplemented
        if (self.order, self.dim) != (other.order, other.dim):
            return False
        return all(self.entries.get(k, 0.0) == other.entries.get(k, 0.0)
                   for k in self.entries.keys() | other.entries.keys())

    def __repr__(self) -> str:
        return f"SymmetricTensor(order={self.order}, dim={self.dim}, {len(self.entries)} entries)"


def _entry_value(key: object, value: object, label: str = "entry {!r}") -> float:
    """``value`` as a finite float, or a ValueError naming it ``label.format(key)``."""
    if isinstance(value, (bool, str)):  # float() would read True as 1.0 and '1.5' as 1.5
        raise ValueError(f"{label.format(key)} must be a number, got {value!r}")
    try:
        value = float(value)
    except TypeError:  # None, a list
        raise ValueError(f"{label.format(key)} must be a number, got {value!r}") from None
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{label.format(key)} is too large for a float") from None
    if not math.isfinite(value):
        raise ValueError(f"{label.format(key)} is not finite: {value}")
    return value


def _count(name: str, value: object, least: int) -> int:
    """``value`` if it is an int no smaller than ``least``, or a ValueError naming it."""
    if type(value) is not int:  # True, 2.0, '3' and numpy ints are not counts
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def build(order: int, dim: int,
          entries: Mapping[Sequence[int], float] | Iterable[tuple[Sequence[int], float]],
          ) -> SymmetricTensor:
    """Construct a tensor from (index, value) pairs in any index order.

    Indices are canonicalized; two pairs may name the same permutation
    class only if their values are exactly equal.  An order above
    ``_MAX_ORDER`` raises ValueError before any entry is read.
    """
    table = _index_table(_count("order", order, 1), _count("dim", dim, 1))
    items = entries.items() if isinstance(entries, Mapping) else entries
    out: dict[Index, float] = {}
    for idx, value in items:
        key = _canonical(table, idx, order, dim)
        if type(value) is not float or not math.isfinite(value):  # a finite float needs no checks
            value = _entry_value(key, value)
        if key in out and out[key] != value:
            raise ValueError(f"conflicting values for entry {key}: {out[key]} vs {value}")
        out[key] = value
    return SymmetricTensor(order, dim, _Entries(out), _DOOR)


def zero(order: int, dim: int) -> SymmetricTensor:
    """The zero tensor of the given shape."""
    return build(order, dim, {})
