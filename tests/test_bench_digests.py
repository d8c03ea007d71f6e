"""The benchmark's verdict digests stay frozen, for every workload at seeds 1-4.

``bench/run.py`` prints ``# digest <workload> seed=<s>: <hex>``: a sha256 over
``repr((i, result))`` for the first ``digest_items`` pool inputs.  A change
that keeps every reported value keeps all sixteen.  Here each digest is
recomputed in process, as ``bench/run.py``'s ``check`` does for an input no op
reached, from ``bench/workloads.py`` loaded read-only (as
``tests/test_bench_contract.py`` loads ``bench/tracing.py``).
"""

import hashlib
import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

DIGESTS = {
    "crosscheck": ("f8385bc125b0c082", "d7606488eb6581aa", "4ab6def642083b33", "f087a78f6990bcdf"),
    "certify": ("e49bc82f0255fb90", "37e0527be422d8cc", "7d1303e9417f96f0", "fee3c7e504aa1ba4"),
    "vacuum-scan": ("de3852a13685ea1a", "5af11a6ec02ea1a1", "9421bd55beb49261",
                    "f7fc35f384f35462"),
    "cli-report": ("34dc37fdbef8ac58", "6e867465d1bb4fe6", "e70bf26338e7bbdc", "15306cabb332637e"),
}


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))  # workloads imports its sibling speed.py
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
        spec.loader.exec_module(module)
        yield module


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("name", list(DIGESTS))
def test_benchmark_digest_is_frozen(workloads, tmp_path, name, seed):
    wl = workloads.WORKLOADS[name](str(ROOT), str(tmp_path))
    pool = wl.make_pool(seed)
    digest = hashlib.sha256()
    for i in range(min(wl.digest_items, len(pool))):
        digest.update(repr((i, wl.reference(pool[i]))).encode())
    assert digest.hexdigest()[:16] == DIGESTS[name][seed - 1]
