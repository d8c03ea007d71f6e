"""The traced benchmark patches copos names from outside; keep them in place.

bench/tracing.py wraps module attributes such as criteria.run_criterion,
cli.aggregate, vacuum.thm45_sos_c4d3 and vacuum.build.  A refactor that
drops or moves one of them breaks the traced run, and one that stores a
patched name where the wrapper cannot replace it (a table filled at import)
silently loses its spans.  So install and uninstall the instrumentation,
and check the spans that CLI runs record.
"""

import importlib.util
import pathlib

import pytest

import copos.cli as cli
import copos.criteria as criteria
import copos.documents as documents
import copos.vacuum as vacuum

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"
GOLDEN = ROOT / "tests" / "data" / "golden"


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


UNIT = ["--l1", "1", "--l2", "1", "--ls", "1"]
# scans read both certificates off their rho block; the CLI builds the
# coupling tensor itself for the oracle and for report's criteria
VACUUM_SPANS = {"vacuum.coupling_tensor"}
CRITERIA_32 = {"criteria." + cid for cid in
               ("diag", "thm3.1", "thm3.2", "thm3.3", "qi", "songqi", "aggregate")}
CRITERIA_43 = {"criteria." + cid for cid in
               ("diag", "thm4.3", "thm4.4", "thm4.5", "remark", "qi", "songqi",
                "aggregate")}


@pytest.mark.parametrize("argv, spans", [
    (["report", str(GOLDEN / "disc-zero.json")],
     {"cli.main", "documents.parse", "oracle.d2"} | CRITERIA_32),
    (["report", *UNIT, "--rho", "1"],
     {"cli.main", "vacuum.check_stability", "oracle.d3"} | VACUUM_SPANS | CRITERIA_43),
    (["vacuum", *UNIT, "--ls12", "4", "--rho-scan", "4", "--oracle"],
     {"cli.main", "vacuum.scan_rho", "oracle.d3"} | VACUUM_SPANS),
], ids=["report-file", "report-couplings", "vacuum-scan-oracle"])
def test_cli_runs_record_every_layer_span(capsys, argv, spans):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        tracer.active = True
        try:
            cli.main(argv)
        finally:
            tracer.active = False
    capsys.readouterr()
    layers = ("cli", "criteria", "oracle", "documents", "vacuum")
    assert {name for name in tracer.calls if name.split(".")[0] in layers} == spans


@pytest.mark.parametrize("name", ["disc-zero", "qi-slack", "quartic-pair", "cubics-quarter"])
def test_certify_path_records_every_span(name):
    # the path of the certify workload, in process: parse, certify_all and
    # aggregate through the module globals the benchmark calls.  Every
    # applicable criterion must open its own span once, through the
    # module-global run_criterion, and parse_document must still build
    # through documents.build.
    tracing = load_tracing()
    tracer = tracing.Tracer()
    text = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    with tracing.Instrumentation(tracer):
        tracer.active = True
        try:
            tensor = documents.parse_document(text)
            criteria.aggregate(criteria.certify_all(tensor))
        finally:
            tracer.active = False
    ids = criteria.applicable_criteria(tensor.order, tensor.dim)
    want = {"documents.parse", "tensors.build", "criteria.certify_all",
            "criteria.aggregate"} | {"criteria." + cid for cid in ids}
    # tensors.get is left out: whether a criterion reads through it is an
    # implementation detail, not a layer boundary
    assert set(tracer.calls) - {"tensors.get"} == want
    assert all(tracer.calls[span] == 1 for span in want)
