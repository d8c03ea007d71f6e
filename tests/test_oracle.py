"""Simplex brute-force oracle: grids, refinement, classification."""

import dataclasses
import functools
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from copos import (Classification, OracleConfig, OracleResult, all_indices, build,
                   coupling_tensor, default_config, min_on_simplex,
                   simplex_grid, zero, Z3Params)
from conftest import SHAPES, random_tensor


def cubic2(g111, g112, g122, g222):
    return build(3, 2, {(1, 1, 1): g111, (1, 1, 2): g112,
                        (1, 2, 2): g122, (2, 2, 2): g222})


# ---------------------------------------------------------------------------
# grid generation

def test_grid_dim2_resolution2():
    assert list(simplex_grid(2, 2)) == [(1.0, 0.0), (0.5, 0.5), (0.0, 1.0)]


def test_grid_dim3_resolution2():
    pts = list(simplex_grid(3, 2))
    assert len(pts) == 6
    assert pts[0] == (1.0, 0.0, 0.0)
    assert pts[-1] == (0.0, 0.0, 1.0)


def test_grid_dim3_resolution60():
    # C(62, 2) compositions
    assert len(list(simplex_grid(3, 60))) == 1891


def test_grid_dim1():
    assert list(simplex_grid(1, 5)) == [(1.0,)]


def test_grid_points_lie_on_simplex():
    for pt in simplex_grid(3, 7):
        assert abs(sum(pt) - 1.0) <= 1e-12
        assert all(c >= 0.0 for c in pt)


def test_grid_first_coordinate_descends():
    firsts = [pt[0] for pt in simplex_grid(3, 5)]
    assert firsts == sorted(firsts, reverse=True)


def test_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        list(simplex_grid(0, 2))
    with pytest.raises(ValueError):
        list(simplex_grid(2, 0))


# ---------------------------------------------------------------------------
# configuration

def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(resolution=0)
    with pytest.raises(ValueError):
        OracleConfig(resolution=10, refine_rounds=-1)
    with pytest.raises(ValueError):
        OracleConfig(resolution=10, band=-1e-9)
    with pytest.raises(ValueError):
        OracleConfig(resolution=10, band=float("nan"))
    with pytest.raises(ValueError):
        OracleConfig(resolution=10, samples=-1)


def test_default_config_by_dim():
    assert default_config(1).resolution == 2000
    assert default_config(2).resolution == 2000
    assert default_config(3).resolution == 120
    assert default_config(2).refine_rounds == 3
    assert default_config(3).band == 1e-8


# ---------------------------------------------------------------------------
# known values (frozen)

def test_known_value_mixed_cubic():
    # analytic minimum of x1^3 - 3*x1*x2^2 + x2^3 on the simplex is
    # -(2/sqrt(27) ...) = -0.1547... at x1 = 1 - 1/sqrt(3)
    r = min_on_simplex(cubic2(1.0, 0.0, -1.0, 1.0))
    assert r.min_value == -0.15470053837925163
    assert r.argmin == (0.4226497315, 0.5773502685)
    assert r.resolution_used == 2000
    assert r.classification is Classification.NOT_COPOSITIVE
    assert abs(r.argmin[0] - (1.0 - 1.0 / math.sqrt(3.0))) < 1e-6
    assert abs(r.min_value - (-0.1547005383792514)) < 1e-9


def test_known_value_zero_tensor():
    r = min_on_simplex(zero(3, 3))
    assert r.min_value == 0.0
    assert r.argmin == (0.0, 0.0, 1.0)
    assert r.classification is Classification.COPOSITIVE_UP_TO_BAND


def test_known_value_unstable_coupling():
    p = Z3Params(lam1=1.0, lam2=1.0, lam_s=1.0, abs_lam_s12=4.0, rho=1.0)
    r = min_on_simplex(coupling_tensor(p))
    assert r.min_value == -0.016211437937827332
    assert r.min_value <= -1.0 / 81.0 + 1e-12
    assert r.classification is Classification.NOT_COPOSITIVE


def test_dim1_minimum_is_the_diagonal():
    r = min_on_simplex(build(3, 1, {(1, 1, 1): -0.75}))
    assert r.min_value == -0.75
    assert r.argmin == (1.0,)
    assert r.classification is Classification.NOT_COPOSITIVE


# ---------------------------------------------------------------------------
# classification rules

def test_classify_examples():
    from copos.oracle import classify
    assert classify(0.5, 1e-6) is Classification.COPOSITIVE_UP_TO_BAND
    assert classify(-0.5, 1e-6) is Classification.NOT_COPOSITIVE
    assert classify(1e-9, 1e-6) is Classification.INDETERMINATE
    assert classify(-1e-7, 1e-6) is Classification.INDETERMINATE


def test_classify_exact_zero():
    from copos.oracle import classify
    # an exact 0.0 only counts as copositive while the band is positive
    assert classify(0.0, 1e-8, scale=2.0) is Classification.COPOSITIVE_UP_TO_BAND
    assert classify(0.0, 0.0) is Classification.INDETERMINATE


def test_classify_scale_widens_the_band():
    from copos.oracle import classify
    assert classify(-5e-7, 1e-6, scale=0.1) is Classification.NOT_COPOSITIVE
    assert classify(-5e-7, 1e-6, scale=1.0) is Classification.INDETERMINATE


def test_not_copositive_means_below_band(rng):
    for _ in range(120):
        t = random_tensor(rng, 3, 2)
        r = min_on_simplex(t, OracleConfig(resolution=300, band=1e-7))
        if r.classification is Classification.NOT_COPOSITIVE:
            assert r.min_value < -1e-7 * (1.0 + t.max_abs_entry())


# ---------------------------------------------------------------------------
# structural invariants

def test_result_is_deterministic(rng):
    t = random_tensor(rng, 3, 3)
    cfg = OracleConfig(resolution=60, refine_rounds=2, samples=32, seed=11)
    a, b = min_on_simplex(t, cfg), min_on_simplex(t, cfg)
    assert a == b
    assert a.min_value == b.min_value and a.argmin == b.argmin


def test_argmin_invariants(rng):
    for order, dim in SHAPES:
        t = random_tensor(rng, order, dim)
        r = min_on_simplex(t, OracleConfig(resolution=120, refine_rounds=2))
        assert abs(sum(r.argmin) - 1.0) <= 1e-12
        assert all(c >= 0.0 for c in r.argmin)
        assert t.evaluate(r.argmin) == r.min_value


def test_reported_min_bounds_grid_min(rng):
    for _ in range(40):
        t = random_tensor(rng, 3, 2)
        r = min_on_simplex(t, OracleConfig(resolution=80, refine_rounds=3))
        lattice = min(t.evaluate(p) for p in simplex_grid(2, 80))
        assert r.min_value <= lattice


def test_refinement_never_hurts(rng):
    for _ in range(40):
        t = random_tensor(rng, 3, 2)
        coarse = min_on_simplex(t, OracleConfig(resolution=80, refine_rounds=0))
        fine = min_on_simplex(t, OracleConfig(resolution=80, refine_rounds=3))
        assert fine.min_value <= coarse.min_value


def test_nested_grids(rng):
    # the resolution-3N lattice contains the resolution-N lattice
    for _ in range(30):
        t = random_tensor(rng, 3, 3)
        lo = min_on_simplex(t, OracleConfig(resolution=40, refine_rounds=0))
        hi = min_on_simplex(t, OracleConfig(resolution=120, refine_rounds=0))
        assert hi.min_value <= lo.min_value


def test_entrywise_monotone(rng):
    # raising entries never lowers the reported minimum on a fixed grid
    cfg = OracleConfig(resolution=60, refine_rounds=0)
    for _ in range(40):
        t = random_tensor(rng, 3, 2)
        bumped = build(3, 2, {idx: v + abs(rng.uniform(0.0, 0.5))
                              for idx, v in t.entries.items()})
        assert min_on_simplex(t, cfg).min_value <= min_on_simplex(bumped, cfg).min_value


def test_extra_samples_only_help(rng):
    t = random_tensor(rng, 3, 2)
    base = min_on_simplex(t, OracleConfig(resolution=50, refine_rounds=0))
    extra = min_on_simplex(t, OracleConfig(resolution=50, refine_rounds=0,
                                           samples=64, seed=3))
    assert extra.min_value <= base.min_value
    assert abs(sum(extra.argmin) - 1.0) <= 1e-12


def test_result_type_fields(rng):
    r = min_on_simplex(random_tensor(rng, 3, 2), OracleConfig(resolution=40))
    assert isinstance(r, OracleResult)
    assert r.resolution_used == 40


# ---------------------------------------------------------------------------
# the screened oracle against the full-grid reference
#
# The reference evaluates every lattice and box point exactly, breaks
# argmin ties with one tuple per tied row, and re-evaluates the minimum
# with SymmetricTensor.evaluate.

def _reference_evaluate_many(tensor, pts):
    acc = np.zeros(len(pts))
    for idx, coeff in tensor.weighted_terms():
        monom = pts[:, idx[0] - 1].copy()
        for j in idx[1:]:
            monom *= pts[:, j - 1]
        acc += coeff * monom
    return acc


def _reference_best_point(pts, vals):
    m = vals.min()
    rows = np.flatnonzero(vals == m)
    point = min(tuple(map(float, pts[r])) for r in rows)
    return float(m), point


def _reference_box_lattice(center, radius, resolution):
    dim = len(center)
    axes = []
    for i in range(dim - 1):
        lo = max(0.0, center[i] - radius)
        hi = min(1.0, center[i] + radius)
        axes.append(np.linspace(lo, hi, resolution + 1))
    grids = np.meshgrid(*axes, indexing="ij") if axes else []
    free = np.column_stack([g.ravel() for g in grids]) if axes else np.zeros((1, 0))
    last = 1.0 - free.sum(axis=1)
    keep = (last >= -1e-12) & (np.abs(last - center[-1]) <= radius + 1e-12)
    return np.column_stack([free[keep], np.clip(last[keep], 0.0, None)])


@functools.lru_cache(maxsize=8)
def _reference_lattice(dim, resolution):
    pts = np.array(list(simplex_grid(dim, resolution)))
    pts.setflags(write=False)
    return pts


def reference_min_on_simplex(tensor, config=None):
    from copos.oracle import _random_simplex, classify
    cfg = config if config is not None else default_config(tensor.dim)
    dim = tensor.dim
    pts = _reference_lattice(dim, cfg.resolution)
    if cfg.samples > 0 and dim > 1:
        pts = np.vstack([pts, _random_simplex(dim, cfg.samples, cfg.seed)])
    _, point = _reference_best_point(pts, _reference_evaluate_many(tensor, pts))
    best = tensor.evaluate(point)
    spacing = 1.0 / cfg.resolution
    if dim > 1:
        for _ in range(cfg.refine_rounds):
            box = _reference_box_lattice(point, spacing, cfg.resolution)
            _, cand = _reference_best_point(box, _reference_evaluate_many(tensor, box))
            cand_val = tensor.evaluate(cand)
            if cand_val < best:
                best, point = cand_val, cand
            spacing = 2.0 * spacing / cfg.resolution
    return best, point, classify(best, cfg.band, 1.0 + tensor.max_abs_entry())


def assert_matches_reference(tensor, config=None):
    r = min_on_simplex(tensor, config)
    got = (r.min_value, r.argmin, r.classification)
    want = reference_min_on_simplex(tensor, config)
    # repr tells -0.0 from 0.0
    assert repr(got) == repr(want), (tensor.entries, config)


def mixed_tensor(rng, order, dim, family):
    """Uniform, diagonally biased, near-boundary or sparse entries."""
    t = random_tensor(rng, order, dim)
    if family == 1:
        t = t.add(build(order, dim, {(i,) * order: 1.5 for i in range(1, dim + 1)}))
    elif family == 2:
        # the all-ones form is constant on the simplex: shift the minimum near 0
        shift = -min_on_simplex(t, OracleConfig(resolution=8, refine_rounds=0)).min_value
        t = t.add(build(order, dim, {idx: shift + 1e-3 * rng.uniform(-1.0, 1.0)
                                     for idx in all_indices(order, dim)}))
    elif family == 3:
        t = build(order, dim, {idx: v for idx, v in t.entries.items() if rng.random() < 0.4})
    return t


@pytest.mark.parametrize("shape", SHAPES)
def test_default_config_matches_reference(shape):
    rng = np.random.default_rng(20261018)
    for i in range(1000):
        assert_matches_reference(mixed_tensor(rng, *shape, i % 4))


@pytest.mark.parametrize("config, count",
                         [(OracleConfig(resolution=37, refine_rounds=k), 60) for k in range(5)]
                         + [(OracleConfig(resolution=37, samples=64, seed=5), 60),
                            # boxes below one ulp: duplicate points tie
                            (OracleConfig(resolution=50, refine_rounds=12), 10)],
                         ids=[f"refine{k}" for k in range(5)] + ["samples64", "sub-ulp-boxes"])
def test_other_configs_match_reference(config, count):
    rng = np.random.default_rng(37)
    for order, dim in SHAPES:
        for i in range(count):
            assert_matches_reference(mixed_tensor(rng, order, dim, i % 4), config)


@pytest.mark.parametrize("shape", SHAPES)
def test_degenerate_tensors_match_reference(shape):
    order, dim = shape
    indices = list(all_indices(order, dim))
    assert_matches_reference(zero(order, dim))
    assert_matches_reference(build(order, dim, {idx: 1.0 for idx in indices}))
    for idx in indices:
        for value in (1.0, -1.0):
            assert_matches_reference(build(order, dim, {idx: value}))


def test_golden_corpus_matches_reference():
    from copos import load_document
    golden = pathlib.Path(__file__).parent / "data" / "golden"
    for path in sorted(golden.glob("*.json")):
        tensor = load_document(str(path))
        if tensor.dim > 1:
            assert_matches_reference(tensor)


@pytest.mark.parametrize("exponent", [-1074, -1040, -1000, -400, 400, 1000, 1015, 1020])
def test_scaled_tensors_match_reference(exponent):
    # at 2**1015 and above the weighted entries or the window overflow, and
    # below 2**-1000 the products underflow: every point must survive there
    rng = np.random.default_rng(400)
    for order, dim in SHAPES:
        for i in range(12):
            t = mixed_tensor(rng, order, dim, i % 4).scale(2.0 ** exponent)
            try:
                want = reference_min_on_simplex(t)
            except ValueError:
                # the form is not finite on the grid: both raise
                with pytest.raises(ValueError):
                    min_on_simplex(t)
                continue
            r = min_on_simplex(t)
            assert repr((r.min_value, r.argmin, r.classification)) == repr(want)


def _exact_form(tensor, x):
    # the form in rational arithmetic at rational coordinates
    acc = Fraction(0)
    for idx, coeff in tensor.weighted_terms():
        term = Fraction(coeff)
        for j in idx:
            term *= x[j - 1]
        acc += term
    return acc


def test_screen_window_is_sound():
    # |approx - (exact - c)| <= E at every unclipped point of random lattices
    # and boxes, c being the form at the expansion centre
    from copos.oracle import _box_grid, _evaluate_many, _lattice_grid, _screen
    rng = np.random.default_rng(2026)
    checked = 0
    for trial in range(120):
        order = (3, 4)[trial % 2]
        t = random_tensor(rng, order, 3)
        if trial % 3 == 1:
            # near-cancelling: a large all-ones part is constant on the simplex
            t = t.add(build(order, 3, {idx: 1e8 for idx in all_indices(order, 3)}))
        elif trial % 3 == 2:
            t = build(order, 3, {idx: v * 10.0 ** rng.integers(-6, 7)
                                 for idx, v in t.entries.items()})
        n = int(rng.integers(3, 40))
        if trial % 4 == 0:
            grid = _lattice_grid(3, n)
        else:
            center = tuple(rng.dirichlet(np.ones(3)))
            if trial % 4 == 3:
                center = (0.0, *center[1:]) if rng.random() < 0.5 else (center[0], 0.0, 1.0 - center[0])
            grid = _box_grid(center, float(10.0 ** rng.uniform(-8, 0)), n)
        approx, window = _screen(t.weighted_terms(), order, grid)
        assert math.isfinite(window)
        ca, cb = map(Fraction, grid.centre)
        constant = _exact_form(t, (ca, cb, 1 - ca - cb))
        flat = np.flatnonzero(grid.keep & ~grid.clipped)
        exact = _evaluate_many(t.weighted_terms(), order, grid.points(flat))
        bound = Fraction(window)
        for a, e in zip(approx[flat], exact):
            assert abs(Fraction(a) - (Fraction(e) - constant)) <= bound
        checked += len(flat)
    assert checked > 10000


def test_stages_count_screened_and_exact_points():
    rng = np.random.default_rng(7)
    r3 = min_on_simplex(random_tensor(rng, 4, 3))
    assert len(r3.stages) == 4
    assert r3.stages[0][0] == 7381
    assert all(screened <= 121 ** 2 for screened, _ in r3.stages[1:])
    assert all(1 <= exact <= screened for screened, exact in r3.stages)
    assert sum(exact for _, exact in r3.stages) < 1000
    # dim 2 is evaluated exactly throughout
    r2 = min_on_simplex(random_tensor(rng, 3, 2))
    assert r2.stages == ((2001, 2001),) * 4
    sampled = min_on_simplex(random_tensor(rng, 3, 3), OracleConfig(resolution=20, samples=64))
    assert sampled.stages[0][0] == 231 + 64
    # a diagnostic only: equality ignores it
    assert r3 == dataclasses.replace(r3, stages=())
