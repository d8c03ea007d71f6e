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
evaluated on the whole grid as one small Vandermonde product.  With
its constant term dropped, that approximation differs from the exact value
minus one common constant by at most a bound E, built from the forward
error bounds ``gamma_n = n*u/(1 - n*u)`` for sums of products (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed., sec. 3.1) and
the rounding of ``x_d``.  Only points whose approximation lies within 2E
of the smallest one are evaluated exactly, so every exact minimiser is
among them and the result is the one that evaluating every point exactly
would give.  Where the bound cannot be formed (another dimension, a
clipped ``x_d``, a non-finite value) the points are evaluated exactly;
in dimension 2 that is also cheaper than the screen.

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
from typing import Iterator, Optional

import numpy as np

from .tensors import Index, SymmetricTensor, Vector, all_indices


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
        if self.resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {self.resolution}")
        if self.refine_rounds < 0 or self.samples < 0:
            raise ValueError("refine_rounds and samples must be >= 0")
        if not (math.isfinite(self.band) and self.band >= 0):
            raise ValueError(f"band must be finite and >= 0, got {self.band}")


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


def simplex_grid(dim: int, resolution: int) -> Iterator[Vector]:
    """Lattice points k/N on the simplex, first coordinate decreasing.

    Yields C(N+dim-1, dim-1) points; for dim=2, N=2 the order is
    (1,0), (0.5,0.5), (0,1).
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    for comp in _compositions(resolution, dim):
        yield tuple(k / resolution for k in comp)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for k in range(total, -1, -1):
        for rest in _compositions(total - k, parts - 1):
            yield (k, *rest)


_BLOCK = 8192  # points per block, so the terms-by-points scratch stays a few MB


def _evaluate_many(terms: list[tuple[Index, float]], order: int, coords: np.ndarray) -> np.ndarray:
    # Same term order and multiplication order as SymmetricTensor.evaluate,
    # one gather and multiply per factor across all terms at once.
    # ``coords`` holds one row per coordinate and one column per point.
    factors = np.array([idx for idx, _ in terms], dtype=np.intp).reshape(len(terms), order) - 1
    coeffs = np.array([coeff for _, coeff in terms])[:, None]
    acc = np.zeros(coords.shape[1])
    for start in range(0, coords.shape[1], _BLOCK):
        block = coords[:, start:start + _BLOCK]
        monoms = block[factors[:, 0]]
        for j in range(1, order):
            monoms *= block[factors[:, j]]
        monoms *= coeffs
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
    first = tied[np.lexsort(coords[::-1, tied])[0]]
    return float(m), tuple(map(float, coords[:, first]))


def _random_simplex(dim: int, count: int, seed: int) -> np.ndarray:
    # sorted uniform spacings: gaps of sorted U[0,1] draws are uniform on the simplex
    rng = np.random.default_rng(seed)
    u = np.sort(rng.random((count, dim - 1)), axis=1)
    padded = np.hstack([np.zeros((count, 1)), u, np.ones((count, 1))])
    return np.diff(padded, axis=1)


@dataclass(frozen=True)
class _Grid:
    """Product grid over the free coordinates, flattened in C order.

    ``last`` is the coordinate ``x_d`` of each point as the exact path sees
    it, ``keep`` marks the points that belong to the pass, and ``clipped``
    those whose ``x_d`` was clipped to 0, which the screen's bound does not
    cover.  ``centre`` is where the screen expands the form.
    """

    axes: tuple[np.ndarray, ...]
    keep: np.ndarray
    last: np.ndarray
    clipped: np.ndarray
    centre: tuple[float, ...]

    def points(self, flat: np.ndarray) -> np.ndarray:
        """Coordinates of the points at ``flat``, one row per coordinate."""
        idx = np.unravel_index(flat, [len(a) for a in self.axes]) if self.axes else ()
        return np.array([a[i] for a, i in zip(self.axes, idx)] + [self.last[flat]])


def _free_sums(axes: tuple[np.ndarray, ...]) -> np.ndarray:
    # left to right, as a row sum over the free coordinates
    return functools.reduce(np.add.outer, axes, np.zeros(())).ravel()


@functools.lru_cache(maxsize=8)
def _lattice_grid(dim: int, resolution: int) -> _Grid:
    # compositions k/N: the triangle sum(k) <= N of the product grid
    ks = np.arange(resolution + 1)
    used = _free_sums((ks,) * (dim - 1))
    grid = _Grid(axes=(ks / resolution,) * (dim - 1), keep=used <= resolution,
                 last=(resolution - used) / resolution, clipped=np.zeros(used.shape, bool),
                 centre=(0.5,) * (dim - 1))
    for shared in (*grid.axes, grid.keep, grid.last, grid.clipped):
        shared.setflags(write=False)
    return grid


def _box_grid(centre: Vector, radius: float, resolution: int) -> _Grid:
    # l_inf box around the incumbent intersected with the simplex,
    # re-gridded at `resolution` points per free coordinate.
    axes = tuple(np.linspace(max(0.0, c - radius), min(1.0, c + radius), resolution + 1)
                 for c in centre[:-1])
    last = 1.0 - _free_sums(axes)
    keep = (last >= -1e-12) & (np.abs(last - centre[-1]) <= radius + 1e-12)
    return _Grid(axes=axes, keep=keep, last=np.clip(last, 0.0, None), clipped=last < 0.0,
                 centre=tuple(centre[:-1]))


_U = 2.0 ** -53            # unit roundoff of binary64
_UNDERFLOW = 2.0 ** -1000  # absolute error of gradual underflow anywhere in the products


def _gamma(n: int) -> float:
    return n * _U / (1.0 - n * _U)


def _powers(x: np.ndarray, degree: int) -> np.ndarray:
    # columns x**0 .. x**degree by repeated multiplication
    out = np.empty((len(x), degree + 1))
    out[:, 0] = 1.0
    for s in range(1, degree + 1):
        out[:, s] = out[:, s - 1] * x
    return out


@functools.lru_cache(maxsize=4)
def _reduction(order: int) -> tuple[dict[Index, int], np.ndarray, np.ndarray, np.ndarray]:
    """Tables for the screen of an order-``order``, dim-3 form.

    Returns the slot of each canonical index; the integer matrix R with

        f(a, b, 1 - a - b) = sum_ij (R @ w)[i, j] * a**i * b**j

    for the weighted entries ``w`` in slot order; and the binomials
    ``comb(i, s)`` with the exponents ``max(i - s, 0)`` of the shift.
    """
    indices = list(all_indices(order, 3))
    r = np.zeros((order + 1, order + 1, len(indices)))
    for col, idx in enumerate(indices):
        i, j, n = idx.count(1), idx.count(2), idx.count(3)
        # (1 - a - b)**n = sum_pq n!/(p! q! (n-p-q)!) (-1)**(p+q) a**p b**q
        for p in range(n + 1):
            for q in range(n - p + 1):
                coeff = math.factorial(n) // (math.factorial(p) * math.factorial(q)
                                              * math.factorial(n - p - q))
                r[i + p, j + q, col] += (-1) ** (p + q) * coeff
    steps = np.arange(order + 1)
    comb = np.array([[math.comb(i, s) for s in steps] for i in steps], dtype=float)
    return ({idx: k for k, idx in enumerate(indices)}, r.reshape(-1, len(indices)),
            comb, np.maximum(np.subtract.outer(steps, steps), 0))


@np.errstate(over="ignore", invalid="ignore")  # non-finite values disable the screen
def _screen(terms: list[tuple[Index, float]], order: int, grid: _Grid) -> tuple[np.ndarray, float]:
    """Approximate values of a dim-3 form over the whole product grid, and their error bound E.

    For every point with ``x_3`` unclipped, ``|approx - (exact - c)| <= E``,
    where ``exact`` is ``_evaluate_many`` at the point and ``c`` the form at
    the centre (the dropped constant term).
    """
    slots, r, comb, exps = _reduction(order)
    w = np.zeros(len(slots))
    for idx, coeff in terms:
        w[slots[idx]] = coeff
    abs_w = np.abs(w)
    (a, b), (ca, cb) = grid.axes, grid.centre

    # about the centre: a = ca + u, b = cb + v and a**i = sum_s ta[i, s] * u**s
    ta, tb = (comb * _powers(np.array([c]), order)[0][exps] for c in (ca, cb))
    va, vb = _powers(a - ca, order), _powers(b - cb, order)
    g = ta.T @ (r @ w).reshape(order + 1, order + 1) @ tb
    h = np.abs(ta).T @ (np.abs(r) @ abs_w).reshape(order + 1, order + 1) @ np.abs(tb)
    g[0, 0] = h[0, 0] = 0.0  # the constant shifts every point alike
    approx = (va @ g @ vb.T).ravel()

    m, k = order, len(terms)
    radius = max(np.abs(va[:, 1]).max(), np.abs(vb[:, 1]).max())
    radius_pow = _powers(np.array([radius]), 2 * m)[0]
    steps = np.arange(m + 1)
    h_r = float((h * radius_pow[np.add.outer(steps, steps)]).sum())
    total_w = float(abs_w.sum())
    # the exact path (m roundings per term, k-1 in the sum, coordinates <= 1),
    # the chain R.w -> shift -> Vandermonde (at most k + 8m + 4 roundings),
    # and x_3 rounded within 2u against a slope of at most m * sum|w|
    window = (_gamma(m + k) * total_w + _gamma(k + 8 * m + 8) * h_r
              + 2.0 * _U * m * total_w)
    # 1.001 covers the rounding of the nonnegative sums above (< 200u each);
    # near overflow the exact sums themselves may overflow, so no bound holds
    window = 1.001 * window + _UNDERFLOW if math.isfinite(4.0 * total_w) else math.inf
    return approx, window


def _candidates(terms: list[tuple[Index, float]], order: int, grid: _Grid) -> np.ndarray:
    """Flat indices of the kept points the screen cannot rule out, ascending.

    Only dim-3 grids are screened: in dim 2 the screen costs more than
    evaluating the 2,001 points of a default pass exactly.
    """
    keep = grid.keep
    if len(grid.axes) == 2:
        approx, window = _screen(terms, order, grid)
        near = approx[keep & ~grid.clipped]
        low = near.min() if near.size else math.nan
        # every point survives unless the bound holds: finite approximations and window
        if math.isfinite(window) and np.isfinite(low) and np.isfinite(near.max()):
            # rounding is monotone, so approx - low <= 2E holds in floats if it does in reals
            keep = keep & (grid.clipped | (approx - low <= 2.0 * window))
    return np.flatnonzero(keep)


def _grid_minimum(terms: list[tuple[Index, float]], order: int, grid: _Grid,
                  extra: Optional[np.ndarray] = None) -> tuple[float, Vector, tuple[int, int]]:
    """Exact minimum and argmin over the grid's kept points plus ``extra``."""
    coords = grid.points(_candidates(terms, order, grid))
    screened = int(grid.keep.sum())
    if extra is not None:
        coords = np.hstack([coords, extra.T])
        screened += len(extra)
    value, point = _best_point(coords, _evaluate_many(terms, order, coords))
    return value, point, (screened, coords.shape[1])


def min_on_simplex(tensor: SymmetricTensor, config: Optional[OracleConfig] = None) -> OracleResult:
    """Grid minimum of ``T x^m`` over the unit simplex, with local refinement.

    The reported minimum is the exact value at the reported argmin, equal
    to evaluate() there and an upper bound on the true simplex minimum;
    more refinement rounds never increase it.
    """
    cfg = config if config is not None else default_config(tensor.dim)
    dim, order = tensor.dim, tensor.order
    terms = tensor.weighted_terms()
    samples = None
    if cfg.samples > 0 and dim > 1:
        samples = _random_simplex(dim, cfg.samples, cfg.seed)
    best, point, stage = _grid_minimum(terms, order, _lattice_grid(dim, cfg.resolution), samples)
    stages = [stage]

    spacing = 1.0 / cfg.resolution
    if dim > 1:
        for _ in range(cfg.refine_rounds):
            box = _box_grid(point, spacing, cfg.resolution)
            cand_val, cand, stage = _grid_minimum(terms, order, box)
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
