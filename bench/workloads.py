"""The four benchmark workloads: inputs, the timed op, warm-up and checks.

Inputs come from ``random.Random(seed)``; copos only ever sees the built
tensors, document texts, documents on disk and coupling constants.  Each
workload cycles through a pool of inputs in a fixed order, so every run of
a given length sees the same mix of shapes and families.

An op returns a canonical result tuple.  The runner checks that repeated
inputs give equal results and asks :meth:`Workload.verify` to check the
results against an independent reference outside the timed region.
Importing this module imports copos, so the set-up probe times it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys

import numpy as np

import copos
import copos.cli as cli
import copos.criteria as criteria
import copos.documents as documents
import copos.oracle as oracle
import copos.tensors as tensors
import copos.vacuum as vacuum
import speed

SHAPES = ((3, 2), (3, 3), (4, 2), (4, 3))
BAND = 1e-6
RHO_STEPS = 100

CERTIFIED = "certified"
REFUTED = "refuted"
COPOSITIVE = "copositive-up-to-band"
NOT_COPOSITIVE = "not-copositive"


def contradicts(verdict: str, classification: str) -> bool:
    """A criteria verdict the oracle proves wrong."""
    return ((verdict == CERTIFIED and classification == NOT_COPOSITIVE)
            or (verdict == REFUTED and classification == COPOSITIVE))


def oracle_config(dim: int) -> oracle.OracleConfig:
    return dataclasses.replace(oracle.default_config(dim), band=BAND)


# ---------------------------------------------------------------------------
# input generators (stdlib random; no copos code involved except build)

def _indices(order: int, dim: int):
    return itertools.combinations_with_replacement(range(1, dim + 1), order)


def uniform_entries(rng, order, dim) -> dict:
    return {idx: rng.uniform(-1.0, 1.0) for idx in _indices(order, dim)}


def biased_entries(rng, order, dim) -> dict:
    """The mixture of acceptance gate 2: uniform, weakly and strongly
    diagonal-dominant, so every shape yields certified instances."""
    kind = rng.randrange(3)
    if kind == 0:
        return uniform_entries(rng, order, dim)
    diag, off = ((0.0, 1.0), (-0.3, 0.3)) if kind == 1 else ((0.5, 1.5), (-0.15, 0.05))
    return {idx: rng.uniform(*diag) if len(set(idx)) == 1 else rng.uniform(*off)
            for idx in _indices(order, dim)}


class _Grid:
    """Coarse simplex grid and monomial matrix for one shape, numpy only."""

    def __init__(self, order: int, dim: int) -> None:
        n = 400 if dim == 2 else 40
        comps = [c for c in itertools.product(range(n + 1), repeat=dim) if sum(c) == n]
        pts = np.array(comps, dtype=float) / n
        self.keys = list(_indices(order, dim))
        cols = []
        for idx in self.keys:
            mult = math.factorial(order)
            for count in (idx.count(i) for i in set(idx)):
                mult //= math.factorial(count)
            cols.append(mult * np.prod(pts[:, [i - 1 for i in idx]], axis=1))
        self.monomials = np.column_stack(cols)

    def minimum(self, entries: dict) -> float:
        w = np.array([entries[k] for k in self.keys])
        return float((self.monomials @ w).min())


def near_boundary_entries(rng, order, dim, grid: _Grid) -> dict:
    """A biased tensor shifted by a multiple of the all-ones tensor, whose
    form is (x1+..+xn)^m and so constant on the simplex, until its coarse
    grid minimum sits a small signed distance from zero."""
    entries = biased_entries(rng, order, dim)
    scale = 1.0 + max(abs(v) for v in entries.values())
    gap = rng.choice((-1.0, 1.0)) * scale * 10.0 ** rng.uniform(-4.0, -2.0)
    shift = grid.minimum(entries) - gap
    return {k: v - shift for k, v in entries.items()}


def document_text(order: int, dim: int, entries: dict) -> str:
    body = {"".join(map(str, k)): v for k, v in sorted(entries.items())}
    return json.dumps({"order": order, "dim": dim, "entries": body}, indent=2)


KINDS = ("uniform", "biased", "near-boundary")


def generated_documents(rng, count: int) -> list[str]:
    """Documents cycling through every (kind, shape) pair, shape fastest."""
    grids = {shape: _Grid(*shape) for shape in SHAPES}
    out = []
    for i in range(count):
        order, dim = SHAPES[i % 4]
        kind = KINDS[(i // 4) % 3]
        if kind == "uniform":
            entries = uniform_entries(rng, order, dim)
        elif kind == "biased":
            entries = biased_entries(rng, order, dim)
        else:
            entries = near_boundary_entries(rng, order, dim, grids[(order, dim)])
        out.append(document_text(order, dim, entries))
    return out


@dataclasses.dataclass(frozen=True)
class Couplings:
    params: vacuum.Z3Params
    # For the threshold family (unit-shaped diagonal d, only the mixed
    # coupling nonzero) the verdicts are known in closed form: over
    # rho in [0, 1] the theorem route certifies iff lam_s12 <= 4d/9 and the
    # printed route iff lam_s12 <= 8d/9.  None for the general family.
    expected: tuple[str, str] | None


def threshold_couplings(rng, rho: float) -> Couplings:
    d = rng.uniform(0.5, 2.0)
    threshold = rng.choice((4.0 / 9.0, 8.0 / 9.0))
    # stay at least 1e-3 relative away from the threshold itself
    offset = rng.choice((-1.0, 1.0)) * rng.uniform(1e-3, 0.25)
    s12 = d * threshold * (1.0 + offset)
    p = vacuum.Z3Params(lam1=d, lam2=d, lam_s=d, abs_lam_s12=s12, rho=rho)
    theorem, printed = (CERTIFIED if s12 <= limit * d else "unknown"
                        for limit in (4.0 / 9.0, 8.0 / 9.0))
    return Couplings(p, (theorem, printed))


def general_couplings(rng, rho: float) -> Couplings:
    p = vacuum.Z3Params(
        lam1=rng.uniform(0.5, 2.0), lam2=rng.uniform(0.5, 2.0), lam_s=rng.uniform(0.5, 2.0),
        lam3=rng.uniform(-0.3, 1.0), lam4=rng.uniform(-0.3, 0.3),
        lam_s1=rng.uniform(-0.2, 1.0), lam_s2=rng.uniform(-0.2, 1.0),
        abs_lam_s12=rng.uniform(0.0, 1.2), rho=rho)
    return Couplings(p, None)


def coupling_family(rng, count: int, rho=None) -> list[Couplings]:
    """Threshold and general couplings, alternating."""
    out = []
    for i in range(count):
        r = rng.uniform(0.0, 1.0) if rho is None else rho
        out.append((threshold_couplings if i % 2 == 0 else general_couplings)(rng, r))
    return out


def _subsample(rng, indices, count: int) -> list[int]:
    indices = sorted(indices)
    return indices if len(indices) <= count else sorted(rng.sample(indices, count))


# ---------------------------------------------------------------------------
# workloads

class Workload:
    name = ""
    # Large enough that a run's p90 rests on ~1,000 distinct inputs rather
    # than on a few passes over a small, seed-specific sample.
    pool_size = 1024
    digest_items = 64
    # host-speed calibration matched to where the op runs (see speed.py)
    speed = staticmethod(speed.in_process)

    def __init__(self, root: str, workdir: str) -> None:
        self.root = root
        self.workdir = workdir

    def make_pool(self, seed: int) -> list:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def op(self, item):
        raise NotImplementedError

    def traced_op(self, item):
        return self.op(item)

    def reference(self, item):
        """The op's result recomputed in-process, for the digest."""
        return self.op(item)

    def verify(self, rng, pool: list, results: dict) -> dict[int, str]:
        """Pool indices whose result is wrong, each with the reason."""
        raise NotImplementedError


def _unit_diagonal(order: int, dim: int) -> dict:
    return {(i,) * order: 1.0 for i in range(1, dim + 1)}


class Crosscheck(Workload):
    """certify_all, aggregate, then the oracle, on one tensor of each shape.

    An op covers all four shapes so that its latency is one unimodal
    distribution; one tensor per op would split it into dim-2 and dim-3
    clusters and put the median on the gap between them.
    """

    name = "crosscheck"

    def make_pool(self, seed):
        rng = random.Random(seed)
        return [tuple(tensors.build(*shape, biased_entries(rng, *shape)) for shape in SHAPES)
                for _ in range(self.pool_size)]

    def warmup(self):
        self.op([tensors.build(*shape, _unit_diagonal(*shape)) for shape in SHAPES])

    def op(self, round_):
        out = []
        for t in round_:
            verdict = criteria.aggregate(criteria.certify_all(t))
            r = oracle.min_on_simplex(t, oracle_config(t.dim))
            out.append((verdict.value, r.classification.value, r.min_value))
        return tuple(out)

    def verify(self, rng, pool, results):
        # the oracle inside the op is the check
        bad = {}
        for i, rs in results.items():
            for shape, (verdict, cls, _) in zip(SHAPES, rs):
                if contradicts(verdict, cls):
                    bad[i] = f"shape {shape}: aggregate {verdict} vs oracle {cls}"
        return bad


class Certify(Workload):
    """Document text through parse_document, certify_all and aggregate, for
    one document of every (kind, shape) pair: twelve documents per op, so
    that every op does the same mix (see Crosscheck)."""

    name = "certify"
    checked_items = 8
    per_op = len(KINDS) * len(SHAPES)

    def make_pool(self, seed):
        docs = generated_documents(random.Random(seed), self.per_op * self.pool_size)
        return [tuple(docs[self.per_op * j:self.per_op * (j + 1)])
                for j in range(self.pool_size)]

    def warmup(self):
        self.op([document_text(*shape, _unit_diagonal(*shape)) for shape in SHAPES])

    def op(self, round_):
        out = []
        for text in round_:
            t = documents.parse_document(text)
            certs = criteria.certify_all(t)
            verdict = criteria.aggregate(certs)
            out.append((verdict.value,) + tuple(c.outcome.value for c in certs))
        return tuple(out)

    def verify(self, rng, pool, results):
        bad = {}
        for i in _subsample(rng, results, self.checked_items):
            for text, r in zip(pool[i], results[i]):
                t = documents.parse_document(text)
                cls = oracle.min_on_simplex(t, oracle_config(t.dim)).classification.value
                if contradicts(r[0], cls):
                    bad[i] = f"shape ({t.order}, {t.dim}): aggregate {r[0]} vs oracle {cls}"
        return bad


class VacuumScan(Workload):
    """scan_rho over 101 rho points for one set of couplings."""

    name = "vacuum-scan"
    checked_items = 24

    def make_pool(self, seed):
        return coupling_family(random.Random(seed), self.pool_size, rho=0.0)

    def warmup(self):
        self.op(Couplings(vacuum.Z3Params(lam1=1.0, lam2=1.0, lam_s=1.0, abs_lam_s12=0.4),
                          None))

    def op(self, item):
        rep = vacuum.scan_rho(item.params, RHO_STEPS)
        return rep.theorem_verdict.value, rep.printed_verdict.value, rep.worst_rho

    def verify(self, rng, pool, results):
        bad = {}
        for i, (theorem, printed, _) in results.items():
            expected = pool[i].expected
            if expected is not None and expected != (theorem, printed):
                bad[i] = f"routes {theorem}/{printed}, thresholds give {expected}"
        for i in _subsample(rng, results, self.checked_items):
            theorem, _, worst_rho = results[i]
            t = vacuum.coupling_tensor(pool[i].params.with_rho(worst_rho))
            cls = oracle.min_on_simplex(t, oracle_config(3)).classification.value
            if contradicts(theorem, cls):
                bad[i] = f"theorem route {theorem} vs oracle {cls} at rho={worst_rho}"
        return bad


_EXIT_BY_VERDICT = {CERTIFIED: 0, REFUTED: 1, "unknown": 2}
_LAM_FLAGS = (("--l1", "lam1"), ("--l2", "lam2"), ("--l3", "lam3"), ("--l4", "lam4"),
              ("--ls", "lam_s"), ("--ls1", "lam_s1"), ("--ls2", "lam_s2"),
              ("--ls12", "abs_lam_s12"))


@dataclasses.dataclass(frozen=True)
class ReportInput:
    argv: tuple[str, ...]
    tensor_text: str | None = None
    couplings: Couplings | None = None


class CliReport(Workload):
    """One ``python -m copos.cli report`` child per op, run one at a time."""

    name = "cli-report"
    digest_items = 32
    speed = staticmethod(speed.interpreter_start)
    generated = 24
    vacuum_reports = 12

    def __init__(self, root, workdir):
        super().__init__(root, workdir)
        self.golden_dir = os.path.join(root, "tests", "data", "golden")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.child_peak_rss_kb = 0

    def _golden(self) -> list[str]:
        names = sorted(n for n in os.listdir(self.golden_dir) if n.endswith(".json"))
        return [os.path.join(self.golden_dir, n) for n in names]

    def make_pool(self, seed):
        rng = random.Random(seed)
        golden = []
        for path in self._golden():
            with open(path, encoding="utf-8") as fh:
                golden.append(ReportInput(("report", path), fh.read()))
        docs = []
        for k, text in enumerate(generated_documents(rng, self.generated)):
            path = os.path.join(self.workdir, f"doc-{k:03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            docs.append(ReportInput(("report", path), text))
        reports = []
        for c in coupling_family(rng, self.vacuum_reports):
            argv = ["report"]
            for flag, field in _LAM_FLAGS:
                argv += [flag, repr(getattr(c.params, field))]
            argv += ["--rho", repr(c.params.rho)]
            reports.append(ReportInput(tuple(argv), None, c))
        # round-robin over the three sources
        return [item for group in itertools.zip_longest(golden, docs, reports)
                for item in group if item is not None]

    def warmup(self):
        with contextlib.redirect_stdout(io.StringIO()):
            for name in ("cubics-quarter.json", "coupling-like.json"):
                cli.main(["report", os.path.join(self.golden_dir, name)])

    def _parse(self, code: int, out: str):
        doc = json.loads(out)
        return doc["aggregate"], doc["oracle"]["classification"], code

    def op(self, item):
        proc = subprocess.Popen([sys.executable, "-m", "copos.cli", *item.argv],
                                cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        out = proc.stdout.read()
        err = proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_rss_kb = max(self.child_peak_rss_kb, usage.ru_maxrss)
        if proc.returncode not in (0, 1, 2):
            raise RuntimeError(f"exit {proc.returncode}: {err.decode(errors='replace')}")
        return self._parse(proc.returncode, out.decode())

    def traced_op(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(item.argv))
        return self._parse(code, buf.getvalue())

    def reference(self, item):
        if item.couplings is not None:
            t = vacuum.coupling_tensor(item.couplings.params)
        else:
            t = documents.parse_document(item.tensor_text)
        verdict = criteria.aggregate(criteria.certify_all(t)).value
        cls = oracle.min_on_simplex(t, oracle.default_config(t.dim)).classification.value
        return verdict, cls, _EXIT_BY_VERDICT[verdict]

    def verify(self, rng, pool, results):
        bad = {}
        for i, got in results.items():
            want = self.reference(pool[i])
            if got != want:
                bad[i] = f"child gave {got}, in-process {want}"
            elif contradicts(got[0], got[1]):
                bad[i] = f"aggregate {got[0]} vs oracle {got[1]}"
        return bad


WORKLOADS = {w.name: w for w in (Crosscheck, Certify, VacuumScan, CliReport)}


def versions() -> dict:
    return {"copos": copos.__version__, "numpy": np.__version__}
