#!/usr/bin/env python3
"""copos benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload crosscheck --seed 1 --seconds 25 --trace 0

Runs the workload's op back to back for ``--seconds`` (each op waits for
the previous one), then checks every result outside the timed region and
prints a verdict digest.  Op times are normalised by the host's speed,
measured between ops (see ``speed.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same op untraced for half the time and traced for the other half, and
reports the per-layer metrics (see ``tracing.py``) with the tracing
overhead.  The package is imported from ``src/`` of the checkout this file
sits in; without it the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import array
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 10
CAL_EVERY = 0.1  # seconds of ops between two host-speed calibrations
CLI_PROBES = 5
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _import_workloads():
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    return workloads


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def _child_seconds(argv: list[str], env=None) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def setup_probe(workload: str) -> None:
    """Child mode: time the import of copos plus the workload's warm-up."""
    t0 = time.perf_counter()
    workloads = _import_workloads()
    workloads.WORKLOADS[workload](ROOT, OUT_DIR).warmup()
    print(repr(time.perf_counter() - t0))


def setup_probe_seconds(workload: str) -> float:
    """One fresh-interpreter set-up, timed inside the child."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe", workload]
    proc = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True)
    return float(proc.stdout.strip().splitlines()[-1])


def cli_start_seconds() -> tuple[float, float]:
    """Median wall time of a bare interpreter, and of importing copos.cli
    beyond that."""
    bare = [_child_seconds([sys.executable, "-c", "pass"]) for _ in range(CLI_PROBES)]
    full = [_child_seconds([sys.executable, "-c", "import copos.cli"], _child_env())
            for _ in range(CLI_PROBES)]
    interpreter = statistics.median(bare)
    return interpreter, statistics.median(full) - interpreter


def provenance(workloads) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **workloads.versions(),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}, "cpu": cpu}


class Loop:
    """Closed loop over a pool: op k runs pool[k % len(pool)].

    Every ``CAL_EVERY`` seconds, between two ops, ``speed()`` measures the
    host's speed factor (see ``speed.py``); each op's wall time is kept raw
    and multiplied by the factor of the last two calibrations, which
    steadied p90 on a recorded series more than the last one alone.  Calibration time counts neither
    in op latency nor in ``elapsed``.

    Memory stays flat however many ops run, so that ``peak_rss_mb`` does not
    grow with speed: latencies go into arrays, and per pool input only the
    first result and the number of ops that repeated it or differed from it
    are kept.
    """

    def __init__(self, op, pool, speed, clock=time.perf_counter, tracer=None) -> None:
        self.op, self.pool, self.speed = op, pool, speed
        self.clock, self.tracer = clock, tracer
        self.latencies = array.array("d")
        self.scaled = array.array("d")
        self.first: dict = {}          # pool index -> first result
        self.agreed: Counter = Counter()
        self.differed: Counter = Counter()
        self.errors: list[str] = []
        self.elapsed = 0.0

    def run(self, seconds: float, between=None, times: int = 0) -> "Loop":
        """Run ops for ``seconds``.  ``between()`` is called ``times`` times,
        spread evenly over the run, each time between two ops; its time
        counts neither in op latency nor in ``elapsed``."""
        gc.collect()
        clock, tracer, n = self.clock, self.tracer, len(self.pool)
        last = self.speed()
        factor = last
        start = clock()
        deadline = start + seconds
        due = [start + seconds * (j + 0.5) / times for j in range(times)]
        calibrate_at = start + CAL_EVERY
        paused = 0.0
        end = start
        k = 0
        while k == 0 or end < deadline:
            i = k % n
            t0 = clock()
            if tracer is not None:
                tracer.op = k
                tracer.enter("op")
            try:
                result = self.op(self.pool[i])
            except Exception as exc:  # a failed op is counted, not fatal
                result = None
                self.errors.append(f"op {k} raised {type(exc).__name__}: {exc}")
            finally:
                if tracer is not None:
                    tracer.exit()
            end = clock()
            self.elapsed = end - start - paused
            self.latencies.append(end - t0)
            self.scaled.append((end - t0) * factor)
            if result is not None:
                if self.first.setdefault(i, result) == result:
                    self.agreed[i] += 1
                else:
                    self.differed[i] += 1
            k += 1
            if due and end >= due[0]:
                due.pop(0)
                between()
            if end >= calibrate_at:
                # the mean kernel time of the last two calibrations
                previous, last = last, self.speed()
                factor = statistics.harmonic_mean((previous, last))
                calibrate_at = clock() + CAL_EVERY
            paused += clock() - end
        while due:  # a run of a single long op
            due.pop(0)
            between()
        return self

    @property
    def throughput(self) -> float:
        """Ops per second of normalised op time."""
        return len(self.scaled) / sum(self.scaled)

    @property
    def wall_throughput(self) -> float:
        return len(self.latencies) / self.elapsed


def check(wl, pool, loops, seed) -> tuple[int, list[str], str]:
    """Number of failed ops, problem descriptions and the verdict digest.

    An op fails if it raised, if its result differs from the first result
    for the same input, or if the workload's check rejects that input.
    """
    problems = [e for lp in loops for e in lp.errors]
    failed = len(problems)
    first: dict = {}
    agreed: Counter = Counter()
    differed: Counter = Counter()
    for lp in loops:
        for i, r in lp.first.items():
            if first.setdefault(i, r) == r:
                agreed[i] += lp.agreed[i]
                differed[i] += lp.differed[i]
            else:
                differed[i] += lp.agreed[i] + lp.differed[i]
    problems += [f"input {i}: {n} ops differ from the first result"
                 for i, n in sorted(differed.items()) if n]
    bad = wl.verify(random.Random(seed), pool, first)
    problems += [f"input {i}: {why}" for i, why in sorted(bad.items())]
    failed += sum(agreed[i] + differed[i] if i in bad else differed[i] for i in first)
    digest = hashlib.sha256()
    for i in range(min(wl.digest_items, len(pool))):
        r = first[i] if i in first else wl.reference(pool[i])
        digest.update(repr((i, r)).encode())
    return failed, problems, digest.hexdigest()[:16]


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # The oracle band must be the default one everywhere: in-process calls,
    # CLI children and set-up probes alike, as the reference checks assume.
    os.environ.pop("COPOS_BAND", None)

    if not os.path.isfile(os.path.join(SRC, "copos", "__init__.py")):
        print(f"bench: no copos sources under {SRC}", file=sys.stderr)
        return 2
    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return run(workloads, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(workloads, args, workdir: str) -> int:
    import speed
    wl = workloads.WORKLOADS[args.workload](ROOT, workdir)
    pool = wl.make_pool(args.seed)
    wl.warmup()
    info = provenance(workloads)

    if args.trace == 0:
        setups: list[float] = []

        def set_up() -> None:
            # a set-up is mostly fresh-interpreter work: calibrate by a bare
            # interpreter start just before and just after it
            before = speed.interpreter_start()
            seconds = setup_probe_seconds(args.workload)
            after = speed.interpreter_start()
            setups.append(seconds * statistics.harmonic_mean((before, after)))

        loop = Loop(wl.op, pool, wl.speed).run(args.seconds, set_up, SETUP_PROBES)
        loops = [loop]
        if args.workload == "cli-report":
            rss_kb = wl.child_peak_rss_kb
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "throughput_per_s": (loop.throughput, "1/s"),
            "latency_p50_ms": (statistics.median(loop.scaled) * 1e3, "ms"),
            "latency_p90_ms": (percentile(loop.scaled, 90) * 1e3, "ms"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
    else:
        import tracing
        plain = Loop(wl.traced_op, pool, speed.in_process).run(args.seconds / 2)
        tracer = tracing.Tracer()
        with tracing.Instrumentation(tracer):
            tracer.active = True
            traced = Loop(wl.traced_op, pool, speed.in_process, tracer.now,
                          tracer).run(args.seconds / 2)
            tracer.active = False
        loops = [plain, traced]
        interpreter_s, import_s = cli_start_seconds()
        metrics = tracing.layer_metrics(tracer)
        metrics["cli.interpreter_s"] = (interpreter_s, "s")
        metrics["cli.import_s"] = (import_s, "s")
        metrics["trace.overhead_ratio"] = (plain.throughput / traced.throughput, "ratio")
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "provenance": info})

    failed, problems, digest = check(wl, pool, loops, args.seed)
    attempted = sum(len(lp.latencies) for lp in loops)
    for line in problems[:20]:
        print(f"# FAIL {line}")
    print(f"# provenance {json.dumps(info, sort_keys=True)}")
    print(f"# digest {args.workload} seed={args.seed}: {digest}")
    last = loops[-1]
    print(f"# samples {len(last.latencies)}; wall clock, not normalised: throughput"
          f" {last.wall_throughput:.4g}/s, latency p50"
          f" {statistics.median(last.latencies) * 1e3:.4g} ms, p90"
          f" {percentile(last.latencies, 90) * 1e3:.4g} ms;"
          f" failure_ratio {failed / attempted:.6g} ({failed} of {attempted})")
    result = {
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--setup-probe":
        setup_probe(sys.argv[2])
    else:
        sys.exit(main())
