"""Closed-form copositivity criteria for symmetric tensors.

Each criterion inspects the canonical entries of an order-3 or order-4
tensor in dimension 2 or 3 (plus two generic strict tests that work for
any shape) and returns a :class:`Certificate`: a verdict together with
every inequality that was checked and its computed value.  Evaluation is
short-circuit free -- all conditions of all branches are computed and
reported even once the outcome is settled.

Verdict semantics.  ``CERTIFIED`` means the inequalities prove the tensor
copositive (strictly copositive for the two generic tests).  ``REFUTED``
is emitted only by the exact tests (the order-3 dimension-2
characterisation and diagonal necessity); for every other criterion a
failed condition list means ``UNKNOWN`` -- the test is sufficient, not
necessary.  A branch fires iff all its conditions are satisfied, that is
finite and meeting their bound (:func:`copos.halfline.row_holds`).  ``_read``
returns the entries through :func:`copos.halfline.power_scale`, so a square-root
row is inf or nan only where the entries span 2**128 or more; qi's and songqi's
sums over the raw entries may overflow too.  Such a row fails.  A discriminant
row on finite inputs carries its exact sign and saturates at
+-sys.float_info.max, so the rows of the two refuters are always finite.

Shared algebra.  Every row is built from the half-line primitives of
:mod:`copos.halfline`.  Each discriminant row (thm3.1, thm3.4, thm4.1,
thm4.3, thm4.5, and the remark through thm3.4) is
:func:`copos.halfline.cubic_disc_checked` at its coefficient factors and
divisor, and each square-root row is ``lhs - rhs`` against
:func:`copos.halfline.cubic_bounds` or :func:`copos.halfline.quad_bound`, at
scaled coefficients; ``quad_bound`` is the only code that takes a root.  thm3.3's two
rows, exact where the third coefficient is 0, take their value from
:func:`copos.halfline.quad_margin_checked`, which rechecks their sign in Fraction.  Roots
appear only over products whose signs are pinned by companion conditions in
the same system; radicands that come out negative (failed sign conditions,
or -0.0 style rounding) give a zero root, so every row is computable.

Work done once.  Texts that do not depend on entry values are constants:
the row tables of thm3.4, thm3.5 and thm4.5 (per ``strict`` flag), and the
cached per-shape diagonal rows and slice plan, which also hold their keys;
the ids that apply to a shape are cached too.  ``_read`` keeps the last tensor and its
named, scaled entries in one slot, shared (never written) by the criteria of its shape,
and ``_slice_values`` keeps each slice's entries for qi and songqi the same way; a tensor
is immutable, so the object is the key.  The remark splits its tensor once into
three name-keyed components and reads its six rows off their thm3.4/thm3.5
value lists, so a row costs its arithmetic and one tuple.

Dispatch.  One registry maps each criterion id to its shape (or any shape),
its function and whether it takes the ``strict`` flag, and is the only place
a shape is written: ``_read`` takes the id, and :func:`applicable_criteria`,
:func:`run_criterion` and :func:`certify_all` read it in its order.
``applicable_criteria`` leaves qi and songqi out of a shape whose slice plan
they refuse, so one refusal does not take the other verdicts down with it.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
from typing import Callable, Mapping, NamedTuple, Optional

from .halfline import (cubic_bounds, cubic_disc_checked, cubic_exact_rows, power_scale,
                       quad_bound, quad_margin_checked, row_holds)
from .tensors import Index, SymmetricTensor, all_indices, build, multiplicity


class Verdict(enum.Enum):
    CERTIFIED = "certified"
    REFUTED = "refuted"
    UNKNOWN = "unknown"


class Condition(NamedTuple):
    """One checked inequality: its text, the computed margin, and the outcome.

    ``value`` is the left-hand side brought to ``>= 0`` (or ``> 0``) form; it is
    ``satisfied`` iff finite and meeting that bound (:func:`copos.halfline.row_holds`).
    A remark row holds iff all rows of its component test do; it shows their least
    value, or the first failing one where the least value holds.
    """

    description: str
    value: float
    satisfied: bool


class Certificate(NamedTuple):
    criterion_id: str
    outcome: Verdict
    conditions: tuple[Condition, ...]
    branch: Optional[str] = None

    @property
    def certified(self) -> bool:
        return self.outcome is Verdict.CERTIFIED

    @property
    def margin(self) -> float:
        """Smallest condition value; the tightest inequality of the run."""
        return min(c.value for c in self.conditions)


_SATISFIED = operator.itemgetter(2)  # a Condition's flag


def _ge(desc: str, value: float, strict: bool = False) -> Condition:
    # tuple.__new__ skips the generated NamedTuple constructor's overhead
    return tuple.__new__(Condition, (desc, value, row_holds(value, strict)))


@functools.lru_cache(maxsize=None)
def _names(order: int, dim: int) -> tuple[tuple[str, Index], ...]:
    prefix = "g" if order == 3 else "a"
    return tuple((prefix + "".join(map(str, idx)), idx) for idx in all_indices(order, dim))


def _named(entries: Mapping[Index, float], criterion_id: str) -> dict[str, float]:
    """Every canonical entry of ``criterion_id``'s shape (absent ones 0.0), keyed by the
    name the condition text uses (``g112``, ``a1123``), in ``all_indices`` order."""
    get = entries.get
    return {key: get(idx, 0.0) for key, idx in _names(*_REGISTRY[criterion_id][0])}


def _entries(tensor: SymmetricTensor, criterion_id: str) -> dict[str, float]:
    """The tensor's entries, named by :func:`_named`, once its shape is the one
    registered for ``criterion_id``."""
    order, dim = _REGISTRY[criterion_id][0]
    if (tensor.order, tensor.dim) != (order, dim):
        raise ValueError(f"{criterion_id} applies to order-{order} dim-{dim} tensors, "
                         f"got order-{tensor.order} dim-{tensor.dim}")
    return _named(tensor.entries, criterion_id)


_last_read = _last_slices = (None, None)  # (the last tensor read, its reading): see _read


def _read(tensor: SymmetricTensor, criterion_id: str) -> dict[str, float]:
    """:func:`_entries` divided by :func:`copos.halfline.power_scale`'s power of two, read
    once per tensor: immutable, so its identity is a sound key (the slot holds it, so the id
    is not reused), and shared by the criteria of its shape, which must not write into it."""
    global _last_read
    last, a = _last_read  # one load: a store in between replaces both or neither
    if last is not tensor or (tensor.order, tensor.dim) != _REGISTRY[criterion_id][0]:
        a = _entries(tensor, criterion_id)  # raises on a shape other than the id's
        e, values = power_scale(a.values())
        a = dict(zip(a, values)) if e else a
        _last_read = (tensor, a)
    return a


def _verdict(criterion_id: str, conditions: list[Condition],
             branches: Optional[list[tuple[Optional[str], list[Condition]]]] = None,
             on_fail: Verdict = Verdict.UNKNOWN) -> Certificate:
    # without branches, all conditions form one sufficient test
    for name, conds in branches or ((None, conditions),):
        if all(map(_SATISFIED, conds)):  # every condition satisfied: the branch fires
            return Certificate(criterion_id, Verdict.CERTIFIED, tuple(conditions), name)
    return Certificate(criterion_id, on_fail, tuple(conditions), None)


def _row_certificate(values: list[float], rows: tuple[tuple[str, bool], ...],
                     criterion_id: str) -> Certificate:
    """A one-branch sufficient test: each (text, strict) row against its
    value, in row order; a failed list proves nothing."""
    return _verdict(criterion_id, [_ge(text, v, s) for (text, s), v in zip(rows, values)])


# ---------------------------------------------------------------------------
# diagonal necessity (any shape)

# what a plan builds: diag's dim * order index components (dim rows of an order-long key
# and text), and the slice plan's dim**order keys
_MAX_PLAN = 2 ** 17


@functools.lru_cache(maxsize=32)
def _diagonals(order: int, dim: int) -> tuple[tuple[Index, str], ...]:
    # the key (i,)*order and the row text of each diagonal entry
    if dim * order > _MAX_PLAN:
        raise ValueError(f"the diagonal of an order-{order} dim-{dim} tensor has {dim * order}"
                         f" index components, above the limit of {_MAX_PLAN}")
    return tuple(((i,) * order, f"g[{str(i) * order}] >= 0") for i in range(1, dim + 1))


def diag_necessity(tensor: SymmetricTensor) -> Certificate:
    """Necessary condition: every diagonal entry T[i,...,i] must be >= 0.

    A negative diagonal refutes copositivity outright (take x = e_i);
    otherwise the test says nothing.
    """
    get = tensor.entries.get
    conds = [_ge(text, get(diag, 0.0)) for diag, text in _diagonals(tensor.order, tensor.dim)]
    outcome = Verdict.REFUTED if not all(c.satisfied for c in conds) else Verdict.UNKNOWN
    return Certificate("diag", outcome, tuple(conds))


# ---------------------------------------------------------------------------
# order 3, dimension 2

def thm31_exact_c3d2(tensor: SymmetricTensor) -> Certificate:
    """Exact characterisation for order-3 dim-2: copositive iff (1) all four
    entries are nonnegative or (2) every row of the exact half-line test's system
    (:func:`copos.halfline.cubic_exact_rows`) holds at (g111, 3*g112, 3*g122, g222).
    Failure of both systems refutes.
    """
    g111, g112, g122, g222 = _read(tensor, "thm3.1").values()
    sys1 = [
        _ge("(1) g111 >= 0", g111),
        _ge("(1) g112 >= 0", g112),
        _ge("(1) g122 >= 0", g122),
        _ge("(1) g222 >= 0", g222),
    ]
    texts = ("(2) max(g111, g112) > 0", "(2) max(g122, g222) > 0", "(2) g111 >= 0",
             "(2) g222 >= 0", "(2) 4*g111*g122^3 + 4*g112^3*g222 + g111^2*g222^2"
             " - 6*g111*g112*g122*g222 - 3*g112^2*g122^2 >= 0")
    sys2 = [_ge(text, v, strict) for text, (v, strict) in zip(texts, cubic_exact_rows(
        g111, g112, g122, g222, (1.0, 3.0, 3.0, 1.0), 27.0))]
    return _verdict("thm3.1", sys1 + sys2, [("(1)", sys1), ("(2)", sys2)], Verdict.REFUTED)


def thm32_sqrt_c3d2(tensor: SymmetricTensor) -> Certificate:
    """Sufficient for order-3 dim-2: cubic_nonneg_sufficient at (g111, 3*g112, 3*g122, g222)."""
    g111, g112, g122, g222 = _read(tensor, "thm3.2").values()
    lo112, lo122 = cubic_bounds(g111, g222)
    conds = [
        _ge("g111 >= 0", g111),
        _ge("g222 >= 0", g222),
        _ge("g112 >= (g111 - 2*sqrt(g111*g222))/3", g112 - lo112 / 3.0),
        _ge("g122 >= (g222 - 2*sqrt(g111*g222))/3", g122 - lo122 / 3.0),
    ]
    return _verdict("thm3.2", conds)


def thm33_mixed_c3d2(tensor: SymmetricTensor) -> Certificate:
    """Sufficient mixed-sign test for order-3 dim-2: quad_nonneg at (g111, 3*g112, 3*g122)
    or at (3*g112, 3*g122, g222), whose middle entry may be negative."""
    g111, g112, g122, g222 = _read(tensor, "thm3.3").values()
    sys1 = [
        _ge("(1) g111 >= 0", g111),
        _ge("(1) g222 >= 0", g222),
        _ge("(1) g122 >= 0", g122),
        _ge("(1) g112 >= -(2/3)*sqrt(3*g122*g111)",
            quad_margin_checked(g112, g122, g111, 3.0, 3.0)),
    ]
    sys2 = [
        _ge("(2) g111 >= 0", g111),
        _ge("(2) g222 >= 0", g222),
        _ge("(2) g112 >= 0", g112),
        _ge("(2) g122 >= -(2/3)*sqrt(3*g112*g222)",
            quad_margin_checked(g122, g112, g222, 3.0, 3.0)),
    ]
    return _verdict("thm3.3", sys1 + sys2, [("(1)", sys1), ("(2)", sys2)])


# ---------------------------------------------------------------------------
# order 3, dimension 3

# the entries giii, giij, gijj, gjjj of each coordinate pair (i, j), and the
# (text, strict) rows of thm3.4 and thm3.5 in row order: all non-strict
_PAIRS = tuple((f"g{i}{i}{i}", f"g{i}{i}{j}", f"g{i}{j}{j}", f"g{j}{j}{j}")
               for i, j in ((1, 2), (1, 3), (2, 3)))
_SIGN_ROWS = tuple((f"{name} >= 0", False) for name in ("g111", "g222", "g333", "g123"))
_THM34_ROWS = _SIGN_ROWS + tuple(
    (f"32*{p}*{r}^3 + 32*{q}^3*{s} + {p}^2*{s}^2"
     f" - 24*{p}*{q}*{r}*{s} - 48*{q}^2*{r}^2 >= 0", False) for p, q, r, s in _PAIRS)
_THM35_ROWS = _SIGN_ROWS + tuple((text, False) for p, q, r, s in _PAIRS for text in (
    f"{q} >= ({p} - 2*sqrt({p}*{s}))/6", f"{r} >= ({s} - 2*sqrt({p}*{s}))/6"))


def _thm34_values(g: dict[str, float]) -> list[float]:
    return [g["g111"], g["g222"], g["g333"], g["g123"]] + [
        cubic_disc_checked(g[p], g[q], g[r], g[s], (1.0, 6.0, 6.0, 1.0), 27.0)
        for p, q, r, s in _PAIRS]


def _thm35_values(g: dict[str, float]) -> list[float]:
    values = [g["g111"], g["g222"], g["g333"], g["g123"]]
    for p, q, r, s in _PAIRS:
        lo_q, lo_r = cubic_bounds(g[p], g[s])
        values += (g[q] - lo_q / 6.0, g[r] - lo_r / 6.0)
    return values


def thm34_disc_c3d3(tensor: SymmetricTensor) -> Certificate:
    """Sufficient test for order-3 dim-3: nonnegative diagonals and g123,
    plus one discriminant inequality per coordinate pair."""
    return _row_certificate(_thm34_values(_read(tensor, "thm3.4")), _THM34_ROWS, "thm3.4")


def thm35_sqrt_c3d3(tensor: SymmetricTensor) -> Certificate:
    """Sufficient square-root bounds for order-3 dim-3, pair by pair."""
    return _row_certificate(_thm35_values(_read(tensor, "thm3.5")), _THM35_ROWS, "thm3.5")


# ---------------------------------------------------------------------------
# order 4, dimension 2

def thm41_disc_c4d2(tensor: SymmetricTensor) -> Certificate:
    """Sufficient discriminant test for order-4 dim-2 with positive diagonals."""
    a1111, a1112, a1122, a1222, a2222 = _read(tensor, "thm4.1").values()
    pre = [
        _ge("a1111 > 0", a1111, strict=True),
        _ge("a2222 > 0", a2222, strict=True),
    ]
    sys1 = [
        _ge("(1) a1222 >= 0", a1222),
        _ge("(1) 54*a1111*a1122^3 + 64*a1112^3*a1222 + 27*a1111^2*a1222^2"
            " - 108*a1111*a1112*a1122*a1222 - 36*a1112^2*a1122^2 >= 0",
            cubic_disc_checked(a1111, a1112, a1122, a1222, (1.0, 4.0, 6.0, 4.0), 16.0)),
    ]
    sys2 = [
        _ge("(2) a1112 >= 0", a1112),
        _ge("(2) 64*a1112*a1222^3 + 54*a1122^3*a2222 + 27*a1112^2*a2222^2"
            " - 108*a1112*a1122*a1222*a2222 - 36*a1122^2*a1222^2 >= 0",
            cubic_disc_checked(a1112, a1122, a1222, a2222, (4.0, 6.0, 4.0, 1.0), 16.0)),
    ]
    return _verdict("thm4.1", pre + sys1 + sys2, [("(1)", pre + sys1), ("(2)", pre + sys2)])


def thm42_sqrt_c4d2(tensor: SymmetricTensor) -> Certificate:
    """Sufficient square-root test for order-4 dim-2."""
    a1111, a1112, a1122, a1222, a2222 = _read(tensor, "thm4.2").values()
    pre = [
        _ge("a1111 >= 0", a1111),
        _ge("a2222 >= 0", a2222),
    ]
    # Each branch is the order-3 square-root test on one cubic cofactor of
    # Ax^4 = x1*f(x) + a2222*x2^4 = a1111*x1^4 + x2*g(x), halved so that its
    # radicand is a1111*a1222 (a1112*a2222) as rounded.  The a1122 rows carry
    # one radical; gamma122 = 2*a1122 with a doubled one over-certifies.
    lo1112, lo1122 = cubic_bounds(a1111 / 2.0, 2.0 * a1222)
    sys1 = [
        _ge("(1) a1222 >= 0", a1222),
        _ge("(1) a1112 >= a1111/4 - sqrt(a1111*a1222)", a1112 - lo1112 / 2.0),
        _ge("(1) a1122 >= (2/3)*(a1222 - sqrt(a1111*a1222))", a1122 - lo1122 / 3.0),
    ]
    lo1122, lo1222 = cubic_bounds(2.0 * a1112, a2222 / 2.0)
    sys2 = [
        _ge("(2) a1112 >= 0", a1112),
        _ge("(2) a1222 >= a2222/4 - sqrt(a1112*a2222)", a1222 - lo1222 / 2.0),
        _ge("(2) a1122 >= (2/3)*(a1112 - sqrt(a1112*a2222))", a1122 - lo1122 / 3.0),
    ]
    return _verdict("thm4.2", pre + sys1 + sys2, [("(1)", pre + sys1), ("(2)", pre + sys2)])


# ---------------------------------------------------------------------------
# order 4, dimension 3

# the diagonals and the x_i^3 x_j entries, nonnegative in thm4.3 and thm4.4,
# with the texts of their rows
_EDGES = tuple((name, f"{name} >= 0") for name in (
    "a1111", "a2222", "a3333", "a1112", "a1113", "a1222", "a2223", "a1333", "a2333"))

# the boundary cubics 4p t^3 + 6q t^2 + 6r t + 4s of thm4.3 and the text of
# each one's discriminant row
_THM43_CUBICS = tuple(
    (p, q, r, s, f"8*{p}*{r}^3 + 8*{q}^3*{s} + 16*{p}^2*{s}^2"
                 f" - 24*{p}*{q}*{r}*{s} - 3*{q}^2*{r}^2 >= 0")
    for p, q, r, s in (("a1222", "a1223", "a1233", "a1333"),
                       ("a1112", "a1123", "a1233", "a2333"),
                       ("a1113", "a1123", "a1223", "a2223")))


def thm43_disc_c4d3(tensor: SymmetricTensor) -> Certificate:
    """Sufficient test for order-4 dim-3 built from boundary-cubic
    discriminants and pairwise quadratic conditions."""
    a = _read(tensor, "thm4.3")
    a1111, a2222, a3333 = a["a1111"], a["a2222"], a["a3333"]
    conds = [_ge(text, a[name]) for name, text in _EDGES] + [
        _ge("max(a1222, a1333) > 0", max(a["a1222"], a["a1333"]), strict=True),
        _ge("max(a1112, a2333) > 0", max(a["a1112"], a["a2333"]), strict=True),
        _ge("max(a1113, a2223) > 0", max(a["a1113"], a["a2223"]), strict=True),
        _ge("6*a1122 + sqrt(a1111*a2222) >= 0", 6.0 * a["a1122"] - quad_bound(a1111, a2222) / 2.0),
        _ge("6*a1133 + sqrt(a1111*a3333) >= 0", 6.0 * a["a1133"] - quad_bound(a1111, a3333) / 2.0),
        _ge("6*a2233 + sqrt(a3333*a2222) >= 0", 6.0 * a["a2233"] - quad_bound(a3333, a2222) / 2.0),
    ]
    for p, q, r, s, text in _THM43_CUBICS:
        conds.append(_ge(text, cubic_disc_checked(a[p], a[q], a[r], a[s],
                                                  (4.0, 6.0, 6.0, 4.0), 432.0)))
    return _verdict("thm4.3", conds)


def thm44_sqrt_c4d3(tensor: SymmetricTensor) -> Certificate:
    """Sufficient square-root test for order-4 dim-3."""
    a = _read(tensor, "thm4.4")
    # each max pairs the bounds of the two cubic cofactors sharing the entry;
    # a1223 sits in the (x2,x3) cofactor of x1 and the (x1,x2) cofactor of
    # x3, so its second arm carries a1113, not a1112
    lo1222, lo1333 = cubic_bounds(a["a1222"], a["a1333"])
    lo1113, lo2223 = cubic_bounds(a["a1113"], a["a2223"])
    lo1112, lo2333 = cubic_bounds(a["a1112"], a["a2333"])
    a1111, a2222, a3333 = a["a1111"], a["a2222"], a["a3333"]
    conds = [_ge(text, a[name]) for name, text in _EDGES] + [
        _ge("a1122 >= -sqrt(a1111*a2222)/6", a["a1122"] - quad_bound(a1111, a2222) / 12.0),
        _ge("a1133 >= -sqrt(a1111*a3333)/6", a["a1133"] - quad_bound(a1111, a3333) / 12.0),
        _ge("a2233 >= -sqrt(a3333*a2222)/6", a["a2233"] - quad_bound(a3333, a2222) / 12.0),
        _ge("a1223 >= (2/3)*max(a1222 - 2*sqrt(a1222*a1333), a2223 - 2*sqrt(a1113*a2223))",
            a["a1223"] - 2.0 * max(lo1222, lo2223) / 3.0),
        _ge("a1233 >= (2/3)*max(a2333 - 2*sqrt(a1112*a2333), a1333 - 2*sqrt(a1222*a1333))",
            a["a1233"] - 2.0 * max(lo2333, lo1333) / 3.0),
        _ge("a1123 >= (2/3)*max(a1113 - 2*sqrt(a1113*a2223), a1112 - 2*sqrt(a1112*a2333))",
            a["a1123"] - 2.0 * max(lo1113, lo1112) / 3.0),
    ]
    return _verdict("thm4.4", conds)


# d1..d3 are the exact cubic discriminants of the three cofactors: the
# entry next to the strict diagonal is cubed (a1112, a2223, a1333) and the
# far corner enters linearly; the fourth term of each row's text names the
# two off-diagonal entries in index order
_COFACTORS = (("a1111", "a1112", "a1222", "q12"),
              ("a2222", "a2223", "a2333", "q23"),
              ("a3333", "a1333", "a1113", "q13"))


def _thm45_rows(strict: bool) -> tuple[tuple[str, bool], ...]:
    # (text, strict) of every thm4.5 row, in row order; the diagonal rows
    # are strict either way
    op = ">" if strict else ">="
    rows = [("a1111 > 0", True), ("a2222 > 0", True), ("a3333 > 0", True)]
    rows += [(f"{lhs} {op} 0", strict) for lhs in (
        "a1113", "a1222", "a2333", "9*a1122 + sqrt(a1111*a2222)",
        "9*a1133 + sqrt(a1111*a3333)", "9*a2233 + sqrt(a3333*a2222)",
        "27*a1123 + sqrt(q12*q13)", "27*a1223 + sqrt(q12*q23)", "27*a1233 + sqrt(q13*q23)")]
    for diag, near, far, qn in _COFACTORS:
        lo, hi = sorted((near, far))
        rows.append((f"2*{diag}*{qn}^3 + 3^7*4^3*{far}*{near}^3 + 3^8*{diag}^2*{far}^2"
                     f" - 3^6*4*{diag}*{lo}*{hi}*{qn} - 3^3*4*{near}^2*{qn}^2 {op} 0", strict))
    return tuple(rows)


_THM45_ROWS = {strict: _thm45_rows(strict) for strict in (False, True)}


def _thm45_values(a: dict[str, float]) -> list[float]:
    """The value of every thm4.5 row, in row order, from the named entries
    ``_read`` returns; the rho scan of :mod:`copos.vacuum` calls it too."""
    q = {"q12": 9.0 * a["a1122"] - quad_bound(a["a1111"], a["a2222"]) / 2.0,
         "q13": 9.0 * a["a1133"] - quad_bound(a["a1111"], a["a3333"]) / 2.0,
         "q23": 9.0 * a["a2233"] - quad_bound(a["a3333"], a["a2222"]) / 2.0}
    values = [a["a1111"], a["a2222"], a["a3333"], a["a1113"], a["a1222"], a["a2333"],
              q["q12"], q["q13"], q["q23"],
              27.0 * a["a1123"] - quad_bound(q["q12"], q["q13"]) / 2.0,
              27.0 * a["a1223"] - quad_bound(q["q12"], q["q23"]) / 2.0,
              27.0 * a["a1233"] - quad_bound(q["q13"], q["q23"]) / 2.0]
    values += [cubic_disc_checked(a[diag], a[near], q[qn], a[far], (1.0, 36.0, 6.0, 324.0), 432.0)
               for diag, near, far, qn in _COFACTORS]
    return values


def thm45_sos_c4d3(tensor: SymmetricTensor, strict: bool = False) -> Certificate:
    """Sufficient test for order-4 dim-3 via a sum-of-squares split.

    Writes A x^4 as a sum of three squares, three cubic cofactors
    x_i * F_i and three quadratic cofactors x_i^2 * p_i, then certifies
    every piece: the q conditions make the p_i copositive and the three
    large inequalities are the exact cubic discriminants of the F_i.

    With ``strict=True`` every non-strict inequality becomes strict and a
    certificate asserts strict copositivity.
    """
    return _row_certificate(_thm45_values(_read(tensor, "thm4.5")),
                            _THM45_ROWS[bool(strict)], "thm4.5")


def _split_rows() -> tuple[tuple[str, int, str, float, float], ...]:
    # (name, i, key, num, den) per component i and index beta in all_indices
    # order: the share of monomial alpha = beta + (i,) that goes to G_i at beta,
    # both named as _read names them.  Each monomial is shared equally over its
    # k distinct coordinates, rescaled by mult(alpha)/(k*mult(beta)).
    rows = []
    for i, (key, beta) in itertools.product((1, 2, 3), _names(3, 3)):
        alpha = tuple(sorted((i, *beta)))
        num, den = multiplicity(alpha), len(set(alpha)) * multiplicity(beta)
        g = math.gcd(num, den)
        rows.append(("a" + "".join(map(str, alpha)), i, key, float(num // g), float(den // g)))
    return tuple(rows)


_SPLIT = _split_rows()


def _components(a: dict[str, float]) -> tuple[dict[str, float], ...]:
    """G_1, G_2, G_3 of the x_i-split of entries named as ``_entries`` names them,
    keyed and ordered as ``_entries`` reads them."""
    parts: tuple[dict[str, float], ...] = ({}, {}, {})
    for name, i, key, num, den in _SPLIT:
        parts[i - 1][key] = num * a[name] / den
    return parts


_REMARK_TEXTS = tuple(tuple(f"component {i} passes thm3.{k}" for k in (4, 5)) for i in (1, 2, 3))


def thm4remark_decompose(tensor: SymmetricTensor) -> tuple[SymmetricTensor, ...]:
    """Split an order-4 dim-3 form as A x^4 = sum_i x_i * (G_i x^3).

    Returns the three order-3 dim-3 component tensors G_1, G_2, G_3.  The
    split distributes every monomial of A over the coordinate factors it
    contains, so the identity holds for all x (not just x >= 0).
    """
    return tuple(build(3, 3, {idx: g[key] for key, idx in _names(3, 3)})
                 for g in _components(_entries(tensor, "remark")))


def thm4remark_check(tensor: SymmetricTensor) -> Certificate:
    """Certify an order-4 dim-3 tensor by certifying each component of the
    x_i-split with one of the order-3 dim-3 tests.

    Copositivity of every G_i makes each x_i * (G_i x^3) nonnegative on the
    orthant, hence the sum.
    """
    conds, fired = [], []
    for texts, g in zip(_REMARK_TEXTS, _components(_read(tensor, "remark"))):
        for text, values in zip(texts, (_thm34_values(g), _thm35_values(g))):
            low = min(values)  # the rows are non-strict
            held = row_holds(low)
            if held and not all(map(row_holds, values)):  # min hid an inf or a later nan
                held, low = False, next(v for v in values if not row_holds(v))
            conds.append(tuple.__new__(Condition, (text, low, held)))
        if conds[-2].satisfied or conds[-1].satisfied:
            fired.append("thm3.4" if conds[-2].satisfied else "thm3.5")
    ok = len(fired) == 3
    outcome = Verdict.CERTIFIED if ok else Verdict.UNKNOWN
    branch = "(" + ",".join(fired) + ")" if ok else None
    return Certificate("remark", outcome, tuple(conds), branch)


# ---------------------------------------------------------------------------
# generic strict tests (any order, any dimension)

def _plan_within_limit(order: int, dim: int) -> bool:
    # dim**order <= _MAX_PLAN (order 17 at dim 2 passes, order 11 at dim 3 does not);
    # any dim >= 2 exceeds the limit by exponent 18: cap there
    return dim ** min(order, _MAX_PLAN.bit_length()) <= _MAX_PLAN


@functools.lru_cache(maxsize=32)
def _slices(order: int, dim: int) -> tuple[tuple[Index, tuple[Index, ...], tuple[str, ...]], ...]:
    # for slice i: the diagonal key, the canonical keys of (i, tail) over
    # ordered tails != (i,..,i), and the texts of the slice's qi, songqi sum
    # and songqi mean rows
    if not _plan_within_limit(order, dim):
        raise ValueError(f"the slice plan of an order-{order} dim-{dim} tensor has"
                         f" {dim}**{order} keys, above the limit of {_MAX_PLAN}")
    out = []
    canonical: dict[Index, Index] = {}  # one tuple per key: a cached plan holds each key once
    for i in range(1, dim + 1):
        diag = (i,) * order
        keys = tuple(canonical.setdefault(key := tuple(sorted((i, *tail))), key)
                     for tail in itertools.product(range(1, dim + 1), repeat=order - 1)
                     if tail != diag[1:])
        texts = (f"slice {i}: diagonal + sum of negative off-diagonal entries (ordered count) > 0",
                 f"slice {i}: ordered sum > 0",
                 f"slice {i}: mean of ordered sum exceeds every off-diagonal entry")
        out.append((diag, keys, texts))
    return tuple(out)


def _slice_values(tensor: SymmetricTensor) -> tuple[tuple, ...]:
    """Each slice's diagonal entry, off-diagonal entries and texts, read once as in _read."""
    global _last_slices
    last, out = _last_slices
    if last is not tensor:
        get = tensor.entries.get
        out = tuple((get(diag, 0.0), tuple(map(get, keys, itertools.repeat(0.0))), texts)
                    for diag, keys, texts in _slices(tensor.order, tensor.dim))
        _last_slices = (tensor, out)
    return out


def qi_strict_generic(tensor: SymmetricTensor) -> Certificate:
    """Strict copositivity if every diagonal entry dominates the negative
    mass of its slice, counted over ordered index tuples."""
    conds = []
    for value, values, (qi_text, _, _) in _slice_values(tensor):
        for v in values:
            value += 0.0 if v > 0.0 else v  # min(v, 0.0), -0.0 included
        conds.append(_ge(qi_text, value, strict=True))
    return _verdict("qi", conds)


def songqi_strict_generic(tensor: SymmetricTensor) -> Certificate:
    """Strict copositivity if every slice sum is positive and its ordered
    mean strictly exceeds every off-diagonal entry of the slice."""
    conds = []
    slices = _slice_values(tensor)  # refuses a shape before its count overflows
    count = float(tensor.dim ** (tensor.order - 1))
    for total, values, (_, sum_text, mean_text) in slices:
        for v in values:
            total += v
        conds.append(_ge(sum_text, total, strict=True))
        if values:  # order 1 and dim 1 have no off-diagonal entries to exceed
            conds.append(_ge(mean_text, total / count - max(values), strict=True))
    return _verdict("songqi", conds)


# ---------------------------------------------------------------------------
# dispatch

# id -> (shape it applies to, or None for any shape; function; takes strict)
_REGISTRY: dict[str, tuple[Optional[tuple[int, int]], Callable[..., Certificate], bool]] = {
    "diag": (None, diag_necessity, False),
    "thm3.1": ((3, 2), thm31_exact_c3d2, False),
    "thm3.2": ((3, 2), thm32_sqrt_c3d2, False),
    "thm3.3": ((3, 2), thm33_mixed_c3d2, False),
    "thm3.4": ((3, 3), thm34_disc_c3d3, False),
    "thm3.5": ((3, 3), thm35_sqrt_c3d3, False),
    "thm4.1": ((4, 2), thm41_disc_c4d2, False),
    "thm4.2": ((4, 2), thm42_sqrt_c4d2, False),
    "thm4.3": ((4, 3), thm43_disc_c4d3, False),
    "thm4.4": ((4, 3), thm44_sqrt_c4d3, False),
    "thm4.5": ((4, 3), thm45_sos_c4d3, True),
    "remark": ((4, 3), thm4remark_check, False),
    "qi": (None, qi_strict_generic, False),
    "songqi": (None, songqi_strict_generic, False),
}


@functools.lru_cache(maxsize=32)
def _registered(order: int, dim: int) -> tuple[str, ...]:
    """Criterion identifiers registered for this shape, in order."""
    return tuple(cid for cid, (shape, _, _) in _REGISTRY.items()
                 if shape is None or shape == (order, dim))


@functools.lru_cache(maxsize=32)
def applicable_criteria(order: int, dim: int) -> tuple[str, ...]:
    """Criterion identifiers certify_all runs for this shape, in order: those
    registered for it, less qi and songqi where they refuse its slice plan
    (:func:`run_criterion` still runs them there, and raises)."""
    sliced = _plan_within_limit(order, dim)
    return tuple(cid for cid in _registered(order, dim) if sliced or cid not in ("qi", "songqi"))


def run_criterion(criterion_id: str, tensor: SymmetricTensor, strict: bool = False) -> Certificate:
    """Run one criterion by identifier.  The strict flag only reaches the
    criteria registered as taking it (thm4.5)."""
    try:
        _, fn, takes_strict = _REGISTRY[criterion_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown criterion {criterion_id!r}; known: {known}") from None
    return fn(tensor, strict=strict) if takes_strict else fn(tensor)


def certify_all(tensor: SymmetricTensor, strict: bool = False) -> list[Certificate]:
    """Run every criterion applicable to the tensor's shape, in fixed order."""
    return [run_criterion(cid, tensor, strict=strict)
            for cid in applicable_criteria(tensor.order, tensor.dim)]


def aggregate(certificates: list[Certificate]) -> Verdict:
    """Combined verdict: any refutation wins, then any certification."""
    outcomes = {c.outcome for c in certificates}
    if Verdict.REFUTED in outcomes:
        return Verdict.REFUTED
    if Verdict.CERTIFIED in outcomes:
        return Verdict.CERTIFIED
    return Verdict.UNKNOWN
