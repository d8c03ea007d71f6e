"""Span tracing of copos from the outside, for the benchmark's traced run.

Nothing in ``src/`` knows about tracing.  :class:`Instrumentation` swaps
the public callables of each layer for timing wrappers at the place where
their callers look them up (a module global, a class attribute, or a name
imported into another module), and puts the originals back afterwards.

Every wrapped call opens a span: name, start, end, parent span and op id.
Self time is a span's duration minus the durations of its direct children,
so the self times of all spans inside an op add up to the op's duration.
The op's own span (``op``) keeps whatever no layer claims: benchmark glue
and uninstrumented program code.  That remainder is reported as
unattributed rather than spread over the layers.

Bookkeeping that must not count as program time (for instance the extra
``refine_rounds=0`` oracle call that splits lattice from refine time) runs
inside :meth:`Tracer.paused`, which stops the clock all spans and op
timings read.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

# every criterion id certify_all can dispatch to, in registry order
CRITERION_IDS = ("diag", "thm3.1", "thm3.2", "thm3.3", "thm3.4", "thm3.5",
                 "thm4.1", "thm4.2", "thm4.3", "thm4.4", "thm4.5", "remark",
                 "qi", "songqi")

LAYERS = ("tensors", "criteria", "oracle", "documents", "vacuum", "cli")

# full span records are kept for this many spans; aggregates cover all
KEEP_SPANS = 20_000


class Tracer:
    """In-memory span recorder with per-name call counts and self times.

    Aggregates cover every span; full span records are kept for the first
    ``KEEP_SPANS`` spans only, so a long traced run stays small in memory.
    """

    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.values: defaultdict = defaultdict(float)
        self.spans: list = []
        self.spans_total = 0
        self._paused_total = 0.0
        # open spans: [name, start, child_time, record_index]
        self._stack: list[list] = []

    def now(self) -> float:
        """Clock for spans and traced op timing; excludes paused intervals."""
        return time.perf_counter() - self._paused_total

    @contextmanager
    def paused(self):
        was_active = self.active
        self.active = False
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused_total += time.perf_counter() - t0
            self.active = was_active

    def enter(self, name: str) -> None:
        index = -1
        if len(self.spans) < KEEP_SPANS:
            index = len(self.spans)
            self.spans.append(None)
        self._stack.append([name, self.now(), 0.0, index])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        end = self.now()
        name, start, child_time, index = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child_time
        self.spans_total += 1
        parent_index = -1
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_index = parent[3]
        if index >= 0:
            self.spans[index] = (name, start, end, parent_index, self.op)
        return duration

    def wrap(self, fn: Callable, name: str | Callable[..., str],
             after: Optional[Callable] = None) -> Callable:
        """A stand-in for ``fn`` that records a span while tracing is active.

        ``name`` is a span name or a function of the call's arguments.
        ``after(result, duration, *args, **kwargs)`` runs paused once the
        span has closed, to update counters from the result.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.enter(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.exit()
            if after is not None:
                with self.paused():
                    after(result, duration, *args, **kwargs)
            return result
        return traced

    def write(self, path: str, header: dict) -> None:
        """Write the header and the kept spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, spans_total=self.spans_total,
                                     spans_kept=len(self.spans))) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


class Instrumentation:
    """Wraps the layers of copos for one traced phase."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner: object, attr: str, name, after=None) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.tracer.wrap(original, name, after))

    def install(self) -> None:
        import copos.cli as cli
        import copos.criteria as criteria
        import copos.documents as documents
        import copos.oracle as oracle
        import copos.tensors as tensors
        import copos.vacuum as vacuum

        tr = self.tracer
        p = self._patch

        p(tensors.SymmetricTensor, "get", "tensors.get")
        p(tensors.SymmetricTensor, "evaluate", "tensors.evaluate")
        for mod in (tensors, documents, vacuum):
            p(mod, "build", "tensors.build")

        p(documents, "parse_document", "documents.parse")

        def criterion_name(criterion_id, *args, **kwargs):
            return "criteria." + criterion_id

        def count_useful(cert, duration, *args, **kwargs):
            tr.counters["criteria.run"] += 1
            if cert.outcome.value != "unknown":
                tr.counters["criteria.useful"] += 1

        def count_decided(verdict, duration, *args, **kwargs):
            if verdict.value != "unknown":
                tr.counters["criteria.decided"] += 1

        for mod in (criteria, cli):
            p(mod, "run_criterion", criterion_name, count_useful)
            p(mod, "aggregate", "criteria.aggregate", count_decided)
        p(criteria, "certify_all", "criteria.certify_all")
        p(vacuum, "thm45_sos_c4d3", "criteria.thm4.5", count_useful)

        original_min = oracle.min_on_simplex

        def oracle_name(tensor, *args, **kwargs):
            return f"oracle.d{tensor.dim}"

        def split_oracle(result, duration, tensor, config=None):
            # Re-run the same tensor with the lattice pass only; the rest of
            # the traced call is refinement.  Paused, so it costs no op time.
            cfg = config if config is not None else oracle.default_config(tensor.dim)
            points = math.comb(cfg.resolution + tensor.dim - 1, tensor.dim - 1)
            tr.counters["oracle.lattice_points"] += points + cfg.samples
            if result.classification.value == "indeterminate":
                tr.counters["oracle.indeterminate"] += 1
            if cfg.refine_rounds == 0 or tensor.dim == 1:
                tr.values["oracle.lattice_s"] += duration
                return
            t0 = time.perf_counter()
            lattice_only = original_min(tensor, dataclasses.replace(cfg, refine_rounds=0))
            lattice_s = time.perf_counter() - t0
            tr.values["oracle.lattice_s"] += lattice_s
            tr.values["oracle.refine_s"] += max(duration - lattice_s, 0.0)
            tr.counters["oracle.refined"] += 1
            if lattice_only.classification is not result.classification:
                tr.counters["oracle.refine_changed_class"] += 1

        for mod in (oracle, cli):
            p(mod, "min_on_simplex", oracle_name, split_oracle)

        def count_rho(report, duration, *args, **kwargs):
            tr.counters["vacuum.rho_points"] += len(report.rho_values)

        for mod in (vacuum, cli):
            p(mod, "scan_rho", "vacuum.scan_rho", count_rho)
            p(mod, "check_stability", "vacuum.check_stability", count_rho)
            p(mod, "coupling_tensor", "vacuum.coupling_tensor")
        p(vacuum, "theorem_certificate", "vacuum.theorem_certificate")
        p(vacuum, "printed_certificate", "vacuum.printed_certificate")

        p(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced phase as ``name -> (value, unit)``.

    Counts and times are per traced op, so that they compare across
    commits however many ops fit in the run; ``trace.ops`` is the base.
    """
    ops = tr.calls["op"]
    out: dict[str, tuple[float, str]] = {}

    def per_op(metric: str, total: float, unit: str) -> None:
        out[metric] = (_ratio(total, ops), unit + "/op")

    def span(metric: str, span_name: str) -> None:
        per_op(metric + ".calls", tr.calls[span_name], "count")
        per_op(metric + ".self_s", tr.self_s[span_name], "s")

    for part in ("build", "get", "evaluate"):
        span("tensors." + part, "tensors." + part)
    span("criteria.certify_all", "criteria.certify_all")
    span("criteria.aggregate", "criteria.aggregate")
    for cid in CRITERION_IDS:
        span("criteria." + cid, "criteria." + cid)
    c = tr.counters
    out["criteria.useful_ratio"] = (_ratio(c["criteria.useful"], c["criteria.run"]), "ratio")
    out["criteria.decided_ratio"] = (_ratio(c["criteria.decided"],
                                            tr.calls["criteria.aggregate"]), "ratio")

    oracle_calls = tr.calls["oracle.d2"] + tr.calls["oracle.d3"]
    per_op("oracle.min_on_simplex.calls", oracle_calls, "count")
    per_op("oracle.d2.self_s", tr.self_s["oracle.d2"], "s")
    per_op("oracle.d3.self_s", tr.self_s["oracle.d3"], "s")
    per_op("oracle.lattice_s", tr.values["oracle.lattice_s"], "s")
    per_op("oracle.refine_s", tr.values["oracle.refine_s"], "s")
    per_op("oracle.lattice_points", c["oracle.lattice_points"], "count")
    out["oracle.refine_changed_class_ratio"] = (
        _ratio(c["oracle.refine_changed_class"], c["oracle.refined"]), "ratio")
    out["oracle.indeterminate_ratio"] = (_ratio(c["oracle.indeterminate"], oracle_calls),
                                         "ratio")

    span("documents.parse", "documents.parse")

    for part in ("scan_rho", "check_stability", "coupling_tensor",
                 "theorem_certificate", "printed_certificate"):
        span("vacuum." + part, "vacuum." + part)
    per_op("vacuum.rho_points", c["vacuum.rho_points"], "count")

    span("cli.main", "cli.main")

    by_layer: defaultdict = defaultdict(float)
    for name, seconds in tr.self_s.items():
        by_layer[name.split(".")[0]] += seconds
    for layer in LAYERS:
        per_op(layer + ".self_s", by_layer[layer], "s")
    out["trace.ops"] = (ops, "count")
    per_op("trace.op_s", sum(tr.self_s.values()), "s")
    per_op("trace.unattributed_s", tr.self_s["op"], "s")
    return out
