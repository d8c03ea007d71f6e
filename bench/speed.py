"""Host-speed calibration for the benchmark's timed figures.

The machine the benchmark was built on switches between a fast and a slow
state for tens of seconds at a time; in the fast state an op runs up to
~40% faster.  Process CPU time tracks wall time in both states, so it does
not help.  What does: a fixed calibration kernel, independent of copos, run
between ops.  It slows down with the host as the ops do, so an op's wall
time divided by the kernel's time next to it barely moves with the state.

The runner multiplies every op's wall time by ``reference / kernel time``:
the op's time at the speed where the kernel takes its reference time.  The
references are about the kernel times on the build machine, so normalised
figures read as milliseconds there.  Because the kernels never call copos,
a change to copos moves the normalised figures as much as the raw ones.

Two kernels, each matched to the work it calibrates:

* :func:`in_process`: interpreter loops with float and dict work, small
  numpy products, and a sort plus dict build over short strings; for ops
  that run inside the runner.  Over 20 s windows of a 150 s series it cut
  the spread of median latency from ~20% to ~2%.
* :func:`interpreter_start`: one bare ``python -c pass`` child; for ops
  and set-ups that start a fresh interpreter, whose time is mostly
  process start and imports.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

import numpy as np

IN_PROCESS_REF_S = 0.003
INTERPRETER_REF_S = 0.07

_rng = random.Random(0)
_MATRIX = np.array([[_rng.random() for _ in range(10)] for _ in range(40)])
_FLOATS = [_rng.random() for _ in range(1000)]


def _loops() -> float:
    s = 0.0
    d: dict = {}
    for i in range(3000):
        x = (i * 0.37) % 5.0
        s += x * x - s * 1e-3
        d[i & 63] = d.get(i & 63, 0.0) + x
    return s


def _numpy() -> float:
    s = 0.0
    for i in range(60):
        v = _MATRIX[i % 40]
        s += float((_MATRIX @ v).min()) + float(np.sum(v * v))
    return s


def _alloc() -> int:
    pairs = sorted((x, str(i)) for i, x in enumerate(_FLOATS))
    return len({key: x for x, key in pairs})


def in_process() -> float:
    """Speed factor for in-process ops: reference time / kernel time."""
    t0 = time.perf_counter()
    _loops()
    _numpy()
    _alloc()
    return IN_PROCESS_REF_S / (time.perf_counter() - t0)


def interpreter_start() -> float:
    """Speed factor for fresh-interpreter work: reference / bare start."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return INTERPRETER_REF_S / (time.perf_counter() - t0)
