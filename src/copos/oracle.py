"""Brute-force minimisation of a symmetric form over the unit simplex.

Because the form is homogeneous and the positive orthant is the cone over
the simplex ``{x >= 0, sum(x) = 1}``, the sign of the simplex minimum
decides copositivity.  The oracle scans the lattice of compositions
``k/N``, optionally adds uniform random simplex samples, then refines
locally around the incumbent.  It is deliberately independent of the
closed-form criteria: every certificate in :mod:`copos.criteria` is
validated against this module.

Screen, then exact survivors: the lattice and each refine box are product
grids over the free coordinates ``x_1..x_{d-1}``, with ``x_d = 1 - sum``.
In dimension 3 the form on that plane is expanded about a centre and
evaluated on the whole grid as one small product of ``np.vander`` columns.
With its constant term dropped, that approximation differs from the exact
value minus one common constant by at most a bound E, built from the forward
error bounds ``gamma_n = n*u/(1 - n*u)`` for sums of products (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed., sec. 3.1; the
rounding model of :mod:`copos.halfline`) and the rounding of ``x_d``.  Only
points whose approximation lies within 2E of the smallest one are evaluated
exactly, so every exact minimiser is among them and the result is the one
that evaluating every point exactly would give.  Where the bound cannot be
formed (another dimension, a clipped ``x_d``, a non-finite value) the points
are evaluated exactly; in dimension 2 that is also cheaper than the screen.
A call prepares the form once, and the lattice is cached with its screen
tables per shape and N.  Each refine box is built anew, and allocates over
its whole grid only ``x_d`` (summed, subtracted from 1 and clipped in place),
the distance to the centre's ``x_d`` with its mask (plus the mask
``x_d >= -1e-12`` where the far corner lies below it), the kept indices and,
in dimension 3, the screen's approximation and its gather at those indices.

Determinism: every exact value follows the rounding sequence of
:meth:`SymmetricTensor.evaluate`, ties in the argmin are broken by the
lexicographically smallest point, and the reported minimum is that exact
value at the reported argmin.  The screen may keep a few more or fewer
points when BLAS sums in another order, but never drops a minimiser, so
equal inputs give bit-equal results regardless of environment parallelism.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .halfline import _U, _UNDERFLOW, _gamma
from .tensors import SymmetricTensor, Vector, _count, _entry_value, all_indices


class Classification(enum.Enum):
    COPOSITIVE_UP_TO_BAND = "copositive-up-to-band"
    NOT_COPOSITIVE = "not-copositive"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class OracleConfig:
    """Scan parameters.

    ``resolution`` is the lattice denominator N; refinement re-grids the
    box of one spacing around the incumbent at the same resolution, each
    round shrinking the spacing by a factor N/2.  ``band`` is the relative
    classification tolerance (scaled by 1 + max|entry|).
    """

    resolution: int
    refine_rounds: int = 3
    band: float = 1e-8
    samples: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        _count("resolution", self.resolution, 1)
        for name in ("refine_rounds", "samples", "seed"):
            _count(name, getattr(self, name), 0)
        band = _entry_value("band", self.band, "{}")
        if band < 0:
            raise ValueError(f"band must be >= 0, got {band}")
        object.__setattr__(self, "band", band)


@dataclass(frozen=True)
class OracleResult:
    """Grid minimum, its argmin and the sign call.

    ``stages`` holds ``(points screened, points evaluated exactly)`` for the
    lattice pass (random samples included), then for each refine round.
    It is a diagnostic: equality and the JSON report ignore it.
    """

    min_value: float
    argmin: Vector
    resolution_used: int
    classification: Classification
    stages: tuple[tuple[int, int], ...] = field(default=(), compare=False)


def default_config(dim: int) -> OracleConfig:
    """Default scan: N=2000 for dim <= 2, N=120 above (count grows as N^(dim-1))."""
    return OracleConfig(resolution=2000 if dim <= 2 else 120)


_BLOCK = 8192  # points per block, so the terms-by-points scratch stays a few MB
# product-grid plus sampled points one call may hold; dim 4 at N = 120 is 1,771,561
_MAX_POINTS = 2 ** 24


class _Form(NamedTuple):
    """A tensor's terms, prepared once per call: the zero-based factor indices
    (a row per factor position), the weighted entries (a row per term) and, in
    dimension 3, ``R @ w``, ``|R| @ |w|`` and ``sum |w|`` (see _reduction)."""

    factors: np.ndarray
    coeffs: np.ndarray
    reduced: Optional[tuple[np.ndarray, np.ndarray, float]]


@np.errstate(over="ignore", invalid="ignore")  # as in _screen
def _prepare(tensor: SymmetricTensor) -> _Form:
    terms, m = tensor.weighted_terms(), tensor.order
    factors = np.array([idx for idx, _ in terms], dtype=np.intp).reshape(len(terms), m).T - 1
    coeffs = np.array([coeff for _, coeff in terms])[:, None]
    if tensor.dim != 3:
        return _Form(factors, coeffs, None)
    slots, r, abs_r = _reduction(m)[:3]
    w = np.zeros(len(slots))
    w[[slots[idx] for idx, _ in terms]] = coeffs[:, 0]
    rw, abs_rw = (r @ w).reshape(m + 1, m + 1), (abs_r @ np.abs(w)).reshape(m + 1, m + 1)
    return _Form(factors, coeffs, (rw, abs_rw, float(np.abs(w).sum())))


@np.errstate(over="ignore", invalid="ignore")  # as in _screen
def _evaluate_many(form: _Form, coords: np.ndarray) -> np.ndarray:
    # Same term order and multiplication order as SymmetricTensor.evaluate,
    # one gather and multiply per factor across all terms at once.
    # ``coords`` holds one row per coordinate and one column per point.
    acc = np.zeros(coords.shape[1])
    for start in range(0, coords.shape[1], _BLOCK):
        block = coords[:, start:start + _BLOCK]
        monoms = block[form.factors[0]]
        for factor in form.factors[1:]:
            monoms *= block[factor]
        monoms *= form.coeffs
        out = acc[start:start + _BLOCK]
        for term in monoms:
            out += term
    return acc


def _best_point(coords: np.ndarray, vals: np.ndarray) -> tuple[float, Vector]:
    m = vals.min()
    tied = np.flatnonzero(vals == m)
    if tied.size == 0:
        raise ValueError(f"the form is not finite on the grid (minimum {m})")
    # lexsort is stable and sorts by its last key first: the first of equal points wins
    first = tied[0] if tied.size == 1 else tied[np.lexsort(coords[::-1, tied])[0]]
    return float(m), tuple(coords[:, first].tolist())


def _random_simplex(dim: int, count: int, seed: int) -> np.ndarray:
    # sorted uniform spacings: gaps of sorted U[0,1] draws are uniform on the simplex
    rng = np.random.default_rng(seed)
    u = np.sort(rng.random((count, dim - 1)), axis=1)
    return np.diff(u, axis=1, prepend=0.0, append=1.0)


@dataclass(frozen=True)
class _Grid:
    """Product grid over the free coordinates, flattened in C order.

    ``kept`` holds the flat indices of the points in the pass (``slice(None)``
    for all), ``last`` the coordinate ``x_d`` of each point as the exact path
    sees it, and ``clipped`` marks the kept points whose ``x_d`` was clipped to
    0, which the screen's bound does not cover (None if none was).  ``centre``
    is where the screen expands the form, with the tables ``screen``.
    """

    axes: tuple[np.ndarray, ...]
    kept: np.ndarray | slice
    last: np.ndarray
    clipped: Optional[np.ndarray]
    centre: tuple[float, ...]
    screen: Optional[tuple[np.ndarray, ...]]

    def points(self, flat: np.ndarray | slice) -> np.ndarray:
        """Coordinates of the points at ``flat``, one row per coordinate."""
        shape = [len(a) for a in self.axes]
        idx = np.unravel_index(flat, shape) if len(shape) > 1 else (flat,) * len(shape)
        return np.array([a[i] for a, i in zip(self.axes, idx)] + [self.last[flat]])


@functools.lru_cache(maxsize=8)
def _lattice_grid(dim: int, resolution: int, order: int) -> _Grid:
    # compositions k/N: the triangle sum(k) <= N of the product grid
    ks = np.arange(resolution + 1)
    used = functools.reduce(np.add.outer, (ks,) * (dim - 1), np.zeros(())).ravel()
    axes, centre = (ks / resolution,) * (dim - 1), (0.5,) * (dim - 1)
    grid = _Grid(axes=axes, kept=np.flatnonzero(used <= resolution),
                 last=(resolution - used) / resolution, clipped=None, centre=centre,
                 screen=_expansion(axes, centre, order))
    for shared in (*grid.axes, grid.kept, grid.last, *(grid.screen or ())):
        shared.setflags(write=False)
    return grid


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    # np.linspace(lo, hi, n + 1) in its own arithmetic, without its per-call overhead;
    # like it, this scales by the span where the step underflows to 0
    step = (hi - lo) / n
    axis = np.arange(n + 1.0) * step if step else np.arange(n + 1.0) / n * (hi - lo)
    axis += lo
    axis[-1] = hi
    return axis


def _box_grid(centre: Vector, radius: float, resolution: int, order: int) -> _Grid:
    # l_inf box around the incumbent intersected with the simplex,
    # re-gridded at `resolution` points per free coordinate.
    axes = tuple(_axis(max(0.0, c - radius), min(1.0, c + radius), resolution)
                 for c in centre[:-1])
    # x_d = 1 - (x_1 + ... + x_{d-1}), summed left to right into a fresh array
    # (the zero start keeps a single axis from being its own sum)
    last = functools.reduce(np.add.outer, axes, np.zeros(())).ravel()
    np.subtract(1.0, last, out=last)
    # x_d falls along every axis: the first and the far corner hold its extremes
    top, low, c, r = last[0], last[-1], centre[-1], radius + 1e-12
    if len(axes) == 1 and low >= -1e-12 and abs(top - c) <= r and abs(low - c) <= r:
        kept = slice(None)
    else:
        dist = last - c
        near = np.abs(dist, out=dist) <= r
        if low < -1e-12:
            near &= last >= -1e-12
        kept = np.flatnonzero(near)
    clipped = None
    if low < 0.0:
        clipped = (last < 0.0)[kept]
        np.clip(last, 0.0, None, out=last)
    return _Grid(axes=axes, kept=kept, last=last, clipped=clipped, centre=tuple(centre[:-1]),
                 screen=_expansion(axes, centre[:-1], order))


@functools.lru_cache(maxsize=4)
def _reduction(order: int) -> tuple:
    """Tables for the screen of an order-``order``, dim-3 form.

    Returns the slot of each canonical index; the integer matrix R with

        f(a, b, 1 - a - b) = sum_ij (R @ w)[i, j] * a**i * b**j

    for the weighted entries ``w`` in slot order, and ``|R|``; the binomials
    ``comb(i, s)`` with the exponents ``max(i - s, 0)`` of the shift and ``s + t`` of the bound.
    """
    indices = list(all_indices(order, 3))
    r = np.zeros((order + 1, order + 1, len(indices)))
    for col, idx in enumerate(indices):
        i, j, n = idx.count(1), idx.count(2), idx.count(3)
        # (1 - a - b)**n = sum_pq n!/(p! q! (n-p-q)!) (-1)**(p+q) a**p b**q
        for p in range(n + 1):
            for q in range(n - p + 1):
                coeff = math.comb(n, p) * math.comb(n - p, q)
                r[i + p, j + q, col] += (-1) ** (p + q) * coeff
    steps = np.arange(order + 1)
    comb = np.array([[math.comb(i, s) for s in steps] for i in steps], dtype=float)
    r = r.reshape(-1, len(indices))
    return ({idx: k for k, idx in enumerate(indices)}, r, np.abs(r), comb,
            np.maximum(np.subtract.outer(steps, steps), 0), np.add.outer(steps, steps))


def _expansion(axes: tuple[np.ndarray, ...], centre: Vector,
               order: int) -> Optional[tuple[np.ndarray, ...]]:
    """The screen's tables for a grid over two free coordinates, else None:
    the shifts to the centre, their absolute values, the Vandermonde columns
    of the axes about the centre and the powers ``radius**(s + t)``."""
    if len(axes) != 2:
        return None
    comb, exps, sums = _reduction(order)[3:]
    (a, b), (ca, cb) = axes, centre
    # about the centre: a = ca + u, b = cb + v and a**i = sum_s ta[i, s] * u**s;
    # accumulate multiplies in sequence, as np.vander fills its columns
    ta, tb = (comb * np.multiply.accumulate([1.0] + [c] * order)[exps] for c in (ca, cb))
    # rounding is monotone, so |a - ca| is largest at an end of the axis
    radius = max(abs(a[0] - ca), abs(a[-1] - ca), abs(b[0] - cb), abs(b[-1] - cb))
    return (ta, tb, np.abs(ta), np.abs(tb), np.vander(a - ca, order + 1, increasing=True),
            np.vander(b - cb, order + 1, increasing=True),
            np.multiply.accumulate([1.0] + [radius] * (2 * order))[sums])


@np.errstate(over="ignore", invalid="ignore")  # non-finite values disable the screen
def _screen(form: _Form, grid: _Grid) -> tuple[np.ndarray, float]:
    """Approximate values of a dim-3 form over the whole product grid, and their error bound E.

    For every point with ``x_3`` unclipped, ``|approx - (exact - c)| <= E``,
    where ``exact`` is ``_evaluate_many`` at the point and ``c`` the form at
    the centre (the dropped constant term).
    """
    ta, tb, abs_ta, abs_tb, va, vb, radius_pow = grid.screen
    rw, abs_rw, total_w = form.reduced
    g = ta.T @ rw @ tb
    h = abs_ta.T @ abs_rw @ abs_tb
    g[0, 0] = h[0, 0] = 0.0  # the constant shifts every point alike
    approx = (va @ g @ vb.T).ravel()

    m, k = form.factors.shape
    h_r = float((h * radius_pow).sum())
    # the exact path (m roundings per term, k-1 in the sum, coordinates <= 1),
    # the chain R.w -> shift -> Vandermonde (at most k + 8m + 4 roundings),
    # and x_3 rounded within 2u against a slope of at most m * sum|w|
    window = (_gamma(m + k) * total_w + _gamma(k + 8 * m + 8) * h_r
              + 2.0 * _U * m * total_w)
    # 1.001 covers the rounding of the nonnegative sums above (< 200u each);
    # near overflow the exact sums themselves may overflow, so no bound holds
    window = 1.001 * window + _UNDERFLOW if math.isfinite(4.0 * total_w) else math.inf
    return approx, window


def _grid_minimum(form: _Form, grid: _Grid, extra: Optional[np.ndarray] = None
                  ) -> tuple[float, Vector, tuple[int, int]]:
    """Exact minimum and argmin over the kept points the screen cannot rule out, plus ``extra``."""
    kept = grid.kept
    if grid.screen is not None:
        approx, window = _screen(form, grid)
        near = approx[kept]
        unclipped = near if grid.clipped is None else near[~grid.clipped]
        low = unclipped.min() if unclipped.size else math.nan
        # every point survives unless the bound holds: finite approximations and window
        if math.isfinite(window) and math.isfinite(low) and math.isfinite(unclipped.max()):
            # rounding is monotone, so approx - low <= 2E holds in floats if it does in reals;
            # near is this call's own gather of approx, so it takes the difference in place
            survive = np.subtract(near, low, out=near) <= 2.0 * window
            kept = kept[survive if grid.clipped is None else survive | grid.clipped]
    coords = grid.points(kept)
    screened = len(grid.last) if isinstance(grid.kept, slice) else len(grid.kept)
    if extra is not None:
        coords = np.hstack([coords, extra.T])
        screened += len(extra)
    value, point = _best_point(coords, _evaluate_many(form, coords))
    return value, point, (screened, coords.shape[1])


def min_on_simplex(tensor: SymmetricTensor, config: Optional[OracleConfig] = None) -> OracleResult:
    """Grid minimum of ``T x^m`` over the unit simplex, with local refinement.

    The reported minimum is the exact value at the reported argmin, equal
    to evaluate() there and an upper bound on the true simplex minimum;
    more refinement rounds never increase it.
    """
    cfg = config if config is not None else default_config(tensor.dim)
    dim, order = tensor.dim, tensor.order
    points = (cfg.resolution + 1) ** (dim - 1) + cfg.samples  # each pass spans the product grid
    if points > _MAX_POINTS:
        raise ValueError(f"the oracle grid has {points} points, above the limit of {_MAX_POINTS};"
                         " lower the resolution (--grid)")
    form = _prepare(tensor)
    samples = None
    if cfg.samples > 0 and dim > 1:
        samples = _random_simplex(dim, cfg.samples, cfg.seed)
    best, point, stage = _grid_minimum(form, _lattice_grid(dim, cfg.resolution, order), samples)
    stages = [stage]

    spacing = 1.0 / cfg.resolution
    if dim > 1:
        for _ in range(cfg.refine_rounds):
            box = _box_grid(point, spacing, cfg.resolution, order)
            cand_val, cand, stage = _grid_minimum(form, box)
            stages.append(stage)
            if cand_val < best:
                best, point = cand_val, cand
            spacing = 2.0 * spacing / cfg.resolution

    scale = 1.0 + tensor.max_abs_entry()
    return OracleResult(
        min_value=best,
        argmin=point,
        resolution_used=cfg.resolution,
        classification=classify(best, cfg.band, scale),
        stages=tuple(stages),
    )


def classify(min_value: float, band: float, scale: float = 1.0) -> Classification:
    """Three-way sign call on a grid minimum.

    Below ``-band*scale`` the tensor is definitely not copositive (a
    negative value was evaluated).  Above ``+band*scale`` it is copositive
    up to the band.  An exact 0.0 -- the signature of a boundary form whose
    minimum sits on the lattice, or of the zero tensor -- counts as within
    any positive band, but with ``band == 0`` a zero minimum stays
    indeterminate: the grid alone cannot separate a boundary root from a
    sign change.  Anything else is too close to zero to call.
    """
    threshold = band * scale
    if min_value < -threshold:
        return Classification.NOT_COPOSITIVE
    if min_value > threshold or (min_value == 0.0 and threshold > 0):
        return Classification.COPOSITIVE_UP_TO_BAND
    return Classification.INDETERMINATE
