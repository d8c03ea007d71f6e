"""Simplex brute-force oracle: grids, refinement, classification."""

import dataclasses
import functools
import itertools
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from copos import (Classification, OracleConfig, OracleResult, all_indices, build,
                   coupling_tensor, default_config, min_on_simplex, zero, Z3Params)
from conftest import SHAPES, random_tensor


def cubic2(g111, g112, g122, g222):
    return build(3, 2, {(1, 1, 1): g111, (1, 1, 2): g112,
                        (1, 2, 2): g122, (2, 2, 2): g222})


# ---------------------------------------------------------------------------
# the lattice the reference scans

def simplex_lattice(dim, resolution):
    """The lattice points k/N on the simplex, in no particular order."""
    return [tuple(k / resolution for k in (*head, resolution - sum(head)))
            for head in itertools.product(range(resolution + 1), repeat=dim - 1)
            if sum(head) <= resolution]


def test_grid_dim3_resolution60():
    # C(62, 2) compositions
    assert len(simplex_lattice(3, 60)) == 1891


def test_grid_dim1():
    assert simplex_lattice(1, 5) == [(1.0,)]


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
    # bool is an int subclass, so True passed the finite >= 0 test as 1.0
    for flag in (True, False):
        with pytest.raises(ValueError, match="band must be a finite number"):
            OracleConfig(resolution=10, band=flag)


@pytest.mark.parametrize("field", ["resolution", "refine_rounds", "samples", "seed"])
@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2"])
def test_config_rejects_non_int_counts(field, bad):
    # a 2.5 lattice never reaches the vertex e1 of g111=-1, g112=g122=g222=1
    # (min -0.024 instead of -1.0), and True printed as "resolution": true
    with pytest.raises(ValueError, match=f"{field} must be an int"):
        OracleConfig(**{"resolution": 2, field: bad})


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
        lattice = min(t.evaluate(p) for p in simplex_lattice(2, 80))
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
    pts = np.array(simplex_lattice(dim, resolution))
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


def _first_box(tensor):
    # the first refine box of a default call, around the lattice argmin
    from copos.oracle import _box_grid
    n = default_config(tensor.dim).resolution
    lattice = min_on_simplex(tensor, OracleConfig(resolution=n, refine_rounds=0))
    return _box_grid(lattice.argmin, 1.0 / n, n, tensor.order)


@pytest.mark.parametrize("order", [3, 4])
def test_dim3_boxes_with_and_without_a_clipped_corner_match_reference(order):
    # a minimum at the vertex e1 puts the far corner of its box below x_3 = 0;
    # 1 - c*x1^(m-2)*x2*x3 has its minimum inside, where no corner is clipped
    ones = build(order, 3, {idx: 1.0 for idx in all_indices(order, 3)})
    interior = ones.add(build(order, 3, {(1,) * (order - 2) + (2, 3): -0.5}))
    vertex = build(order, 3, {(1,) * order: -1.0, (2,) * order: 1.0, (3,) * order: 1.0})
    assert _first_box(vertex).clipped is not None and _first_box(interior).clipped is None
    assert_matches_reference(vertex)
    assert_matches_reference(interior)


def test_dim2_boxes_with_all_or_some_points_kept_match_reference():
    from copos.oracle import _box_grid, _grid_minimum, _prepare
    t = cubic2(1.0, 0.0, -1.0, 1.0)
    # a centre on the simplex keeps every point of its box, the only case
    # min_on_simplex meets
    assert isinstance(_first_box(t).kept, slice)
    assert_matches_reference(t)
    # a centre off the simplex drops the points whose x_2 leaves the box
    box = _box_grid((0.3, 0.4), 0.5, 20, 3)
    assert not isinstance(box.kept, slice) and 0 < len(box.kept) < 21
    pts = _reference_box_lattice((0.3, 0.4), 0.5, 20)
    want = _reference_best_point(pts, _reference_evaluate_many(t, pts))
    value, point, stage = _grid_minimum(_prepare(t), box)
    assert repr((value, point)) == repr(want) and stage == (len(pts), len(pts))


def test_argmins_with_one_or_several_tied_points_match_reference():
    def lattice_ties(t):
        pts = _reference_lattice(t.dim, default_config(t.dim).resolution)
        vals = _reference_evaluate_many(t, pts)
        return int((vals == vals.min()).sum())

    single = cubic2(1.0, 0.0, -1.0, 1.0)
    several = build(3, 3, {(1, 1, 1): 1.0})  # x1^3 is 0 along the edge x1 = 0
    assert lattice_ties(single) == 1 and lattice_ties(several) > 1
    for t in (single, several, zero(3, 2)):
        assert_matches_reference(t)


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
    from copos.oracle import _box_grid, _evaluate_many, _lattice_grid, _prepare, _screen
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
            grid = _lattice_grid(3, n, order)
        else:
            center = tuple(rng.dirichlet(np.ones(3)))
            if trial % 4 == 3:
                center = (0.0, *center[1:]) if rng.random() < 0.5 else (center[0], 0.0, 1.0 - center[0])
            grid = _box_grid(center, float(10.0 ** rng.uniform(-8, 0)), n, order)
        approx, window = _screen(_prepare(t), grid)
        assert math.isfinite(window)
        ca, cb = map(Fraction, grid.centre)
        constant = _exact_form(t, (ca, cb, 1 - ca - cb))
        flat = np.arange(len(grid.last))[grid.kept]
        flat = flat if grid.clipped is None else flat[~grid.clipped]
        exact = _evaluate_many(_prepare(t), grid.points(flat))
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


# stages of every golden document and of ten seeded mixed tensors per shape
# under the default config, frozen from the oracle before its per-call
# set-up was hoisted out of the passes; regenerate only for a deliberate
# change to what the screen keeps, and say so
FROZEN_STAGES = pathlib.Path(__file__).parent / "data" / "oracle_stages.json"


def observed_stages():
    from copos import load_document
    golden = pathlib.Path(__file__).parent / "data" / "golden"
    out = {path.stem: min_on_simplex(load_document(str(path))).stages
           for path in sorted(golden.glob("*.json"))}
    rng = np.random.default_rng(909)
    for order, dim in SHAPES:
        for i in range(10):
            out[f"mixed-{order}-{dim}-{i}"] = min_on_simplex(mixed_tensor(rng, order, dim, i % 4)).stages
    return {name: [list(stage) for stage in stages] for name, stages in out.items()}


def test_stages_match_frozen_table():
    import json
    assert observed_stages() == json.loads(FROZEN_STAGES.read_text(encoding="utf-8"))
