"""The traced benchmark patches copos names from outside; keep them in place.

bench/tracing.py wraps module attributes such as criteria.run_criterion,
cli.aggregate, vacuum.thm45_sos_c4d3 and vacuum.build.  A refactor that
drops or moves one of them breaks the traced run, so install and
uninstall the instrumentation here.
"""

import importlib.util
import pathlib

import copos.cli as cli
import copos.criteria as criteria
import copos.vacuum as vacuum

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrumentation_installs_and_uninstalls():
    tracing = load_tracing()
    originals = (criteria.run_criterion, cli.run_criterion, cli.aggregate,
                 vacuum.thm45_sos_c4d3, vacuum.build)
    inst = tracing.Instrumentation(tracing.Tracer())
    inst.install()
    try:
        assert criteria.run_criterion is not originals[0]
    finally:
        inst.uninstall()
    assert (criteria.run_criterion, cli.run_criterion, cli.aggregate,
            vacuum.thm45_sos_c4d3, vacuum.build) == originals
