"""CLI subcommands run in process through main(argv), except where a run
needs a memory cap of its own or tests the process exit path, run()."""

import argparse
import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from copos.cli import build_parser, main


def write_doc(tmp_path, name, order, dim, entries):
    path = tmp_path / name
    path.write_text(json.dumps({"order": order, "dim": dim, "entries": entries}),
                    encoding="utf-8")
    return str(path)


@pytest.fixture
def pair_doc(tmp_path):
    return write_doc(tmp_path, "pair.json", 3, 2, {"111": 1, "222": 1})


@pytest.fixture
def refuted_doc(tmp_path):
    return write_doc(tmp_path, "refuted.json", 3, 2, {"111": 1, "122": -1, "222": 1})


@pytest.fixture
def zero33_doc(tmp_path):
    return write_doc(tmp_path, "zero33.json", 3, 3, {})


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check

def test_check_certified(capsys, pair_doc):
    code, out, _ = run(capsys, ["check", pair_doc])
    assert code == 0
    assert "thm3.1: certified  [branch (1)]" in out
    assert out.rstrip().endswith("aggregate: certified")


def test_check_refuted(capsys, refuted_doc):
    code, out, _ = run(capsys, ["check", refuted_doc])
    assert code == 1
    assert "thm3.1: refuted" in out
    assert "aggregate: refuted" in out


def test_check_criterion_filter(capsys, pair_doc):
    code, out, _ = run(capsys, ["check", pair_doc, "--criterion", "thm3.2"])
    assert code == 0
    heads = [l for l in out.splitlines() if l and not l.startswith((" ", "aggregate"))]
    assert heads == ["thm3.2: certified"]
    # repeated flags keep the fixed criterion order, not the flag order
    code, out, _ = run(capsys, ["check", pair_doc,
                                "--criterion", "thm3.2", "--criterion", "diag"])
    heads = [l.split(":")[0] for l in out.splitlines()
             if l and not l.startswith((" ", "aggregate"))]
    assert heads == ["diag", "thm3.2"]


def test_check_rejects_inapplicable_criterion(capsys, pair_doc):
    code, _, err = run(capsys, ["check", pair_doc, "--criterion", "thm4.5"])
    assert code == 3
    assert "does not apply to order-3 dim-2" in err


def test_check_rejects_bad_document(capsys, tmp_path):
    bad = write_doc(tmp_path, "bad.json", 3, 2, {"121": 1})
    code, _, err = run(capsys, ["check", bad])
    assert code == 3
    assert "non-canonical entry key '121'" in err


@pytest.mark.parametrize("command", ["check", "report"])
def test_huge_int_entry_names_the_key(capsys, tmp_path, command):
    # an int beyond the float range used to escape as OverflowError without the key
    path = tmp_path / "huge.json"
    path.write_text('{"order": 3, "dim": 2, "entries": {"111": 1%s}}' % ("0" * 400),
                    encoding="utf-8")
    code, out, err = run(capsys, [command, str(path)])
    assert code == 3
    assert out == ""
    assert err == "copos: error: entry '111' is too large for a float\n"


def test_check_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["check", str(tmp_path / "nope.json")])
    assert code == 3
    assert "copos: error:" in err


def test_check_deeply_nested_document(capsys, tmp_path):
    # json raises RecursionError here; it must not escape as exit 1 (refuted)
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, ["check", str(path)])
    assert code == 3
    assert out == ""
    assert err.startswith("copos: error: not valid JSON: ")


def test_report_out_of_memory(capsys, pair_doc, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("copos.cli.min_on_simplex", exhausted)
    code, out, err = run(capsys, ["report", pair_doc])
    assert (code, out, err) == (3, "", "copos: error: MemoryError\n")


def test_check_json_shape(capsys, pair_doc):
    code, out, _ = run(capsys, ["check", pair_doc, "--json"])
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == ["tool", "version", "command", "input", "config",
                         "certificates", "aggregate"]
    assert obj["command"] == "check"
    assert obj["aggregate"] == "certified"
    assert obj["config"]["criteria"] == ["diag", "thm3.1", "thm3.2", "thm3.3",
                                         "qi", "songqi"]
    assert [c["id"] for c in obj["certificates"]] == obj["config"]["criteria"]
    cert = obj["certificates"][1]
    assert list(cert) == ["id", "outcome", "branch", "conditions"]
    assert list(cert["conditions"][0]) == ["description", "value", "satisfied"]


# ---------------------------------------------------------------------------
# oracle

def test_oracle_refuted(capsys, refuted_doc):
    code, out, _ = run(capsys, ["oracle", refuted_doc])
    assert code == 1
    assert "not-copositive" in out
    assert "min=-0.15470053837925163" in out


def test_oracle_zero_tensor_band(capsys, zero33_doc):
    code, out, _ = run(capsys, ["oracle", zero33_doc])
    assert code == 0 and "copositive-up-to-band" in out
    # an exact zero minimum with no band cannot be called either way
    code, out, _ = run(capsys, ["oracle", zero33_doc, "--band", "0"])
    assert code == 2 and "indeterminate" in out


def test_oracle_band_environment(capsys, zero33_doc, monkeypatch):
    # only --band sets the band, whatever the environment holds
    monkeypatch.setenv("COPOS_BAND", "0")
    code, _, _ = run(capsys, ["oracle", zero33_doc, "--band", "0"])
    assert code == 2
    code, _, _ = run(capsys, ["oracle", zero33_doc])
    assert code == 0


def test_oracle_json_knobs(capsys, refuted_doc):
    code, out, _ = run(capsys, ["oracle", refuted_doc, "--json", "--grid", "40",
                                "--refine", "1", "--samples", "8", "--seed", "3"])
    assert code == 1
    obj = json.loads(out)
    assert list(obj) == ["tool", "version", "command", "input", "config",
                         "certificates", "oracle", "aggregate"]
    assert obj["config"]["oracle"] == {"resolution": 40, "refine_rounds": 1,
                                       "band": 1e-8, "samples": 8, "seed": 3}
    assert list(obj["oracle"]) == ["min_value", "argmin", "resolution_used",
                                   "classification"]
    assert obj["certificates"] == []
    assert obj["aggregate"] == "not-copositive"


# ---------------------------------------------------------------------------
# vacuum

UNIT = ["--l1", "1", "--l2", "1", "--ls", "1"]


def test_vacuum_certified(capsys):
    code, out, _ = run(capsys, ["vacuum", *UNIT, "--rho", "1"])
    assert code == 0
    assert "theorem route: certified" in out
    assert "aggregate (theorem route): certified" in out


def test_vacuum_route_discrepancy(capsys):
    argv = ["vacuum", *UNIT, "--ls12", "0.8", "--rho", "1"]
    code, out, _ = run(capsys, argv)
    assert code == 2
    assert "theorem route: unknown" in out
    assert "printed route: certified" in out
    code, out, _ = run(capsys, argv + ["--as-printed"])
    assert code == 0
    assert "aggregate (printed route): certified" in out


def test_vacuum_oracle_refutes(capsys):
    code, out, _ = run(capsys, ["vacuum", *UNIT, "--ls12", "4", "--rho", "1",
                                "--oracle"])
    assert code == 1
    assert "not-copositive" in out
    assert "min=-0.016211437937827332" in out


def test_vacuum_scan(capsys):
    code, out, _ = run(capsys, ["vacuum", *UNIT, "--ls12", "0.4",
                                "--rho-scan", "10"])
    assert code == 0
    assert out.splitlines()[0] == "rho scan: 11 points on [0, 1]"
    assert "worst rho: 1.0" in out


def test_vacuum_strict(capsys):
    # zero cubic entries can never pass the strict theorem conditions
    code, _, _ = run(capsys, ["vacuum", *UNIT, "--strict"])
    assert code == 2
    code, _, _ = run(capsys, ["vacuum", *UNIT, "--strict", "--as-printed"])
    assert code == 0


def test_vacuum_rejects_bad_rho(capsys):
    code, _, err = run(capsys, ["vacuum", "--rho", "1.5"])
    assert code == 3
    assert "rho must lie in [0, 1]" in err


def test_vacuum_rho_flags_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["vacuum", "--rho", "0.5", "--rho-scan", "10"])
    assert exc.value.code == 3


@pytest.mark.parametrize("command", ["vacuum", "report"])
@pytest.mark.parametrize("value", ["-1e-1", "-2.5E+0", "-.5e1"])
def test_negative_coupling_in_exponent_notation(capsys, command, value):
    # argparse's own negative-number pattern has no exponent and would take
    # the value for a flag; the spaced form must read as --l3=VALUE does
    argv = [command, *UNIT, "--rho", "1"] + (["--json"] if command == "vacuum" else [])
    spaced = run(capsys, argv + ["--l3", value])
    assert spaced == run(capsys, argv + [f"--l3={value}"])
    assert spaced[2] == ""
    assert json.loads(spaced[1])["input"]["params"]["l3"] == float(value)


def test_vacuum_json_shape(capsys):
    code, out, _ = run(capsys, ["vacuum", *UNIT, "--ls12", "0.4",
                                "--rho-scan", "10", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == ["tool", "version", "command", "input", "config",
                         "certificates", "vacuum", "aggregate"]
    assert list(obj["vacuum"]) == ["worst_rho", "rho_values", "theorem_verdict",
                                   "printed_verdict"]
    assert obj["vacuum"]["worst_rho"] == 1.0
    assert len(obj["vacuum"]["rho_values"]) == 11
    assert [c["id"] for c in obj["certificates"]] == ["thm4.5", "z3-printed"]
    assert list(obj["input"]["params"]) == ["l1", "l2", "l3", "l4", "ls",
                                            "ls1", "ls2", "ls12", "rho"]


# ---------------------------------------------------------------------------
# report

def test_report_on_tensor_file(capsys, tmp_path):
    doc = write_doc(tmp_path, "diag.json", 4, 3,
                    {"1111": 1, "2222": 1, "3333": 1})
    code, out, _ = run(capsys, ["report", doc])
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == ["tool", "version", "command", "input", "config",
                         "certificates", "oracle", "aggregate"]
    assert obj["aggregate"] == "certified"
    assert [c["id"] for c in obj["certificates"]] == [
        "diag", "thm4.3", "thm4.4", "thm4.5", "remark", "qi", "songqi"]
    # lattice point 40/120 hits the barycenter exactly
    assert obj["oracle"]["min_value"] == 0.037037037037037035
    assert obj["oracle"]["argmin"] == [0.3333333333333333] * 3
    code2, out2, _ = run(capsys, ["report", doc])
    assert out2 == out  # byte-identical rerun


def test_report_on_vacuum_params(capsys):
    code, out, _ = run(capsys, ["report", *UNIT, "--ls12", "0.8", "--rho", "1"])
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == ["tool", "version", "command", "input", "config",
                         "certificates", "vacuum", "oracle", "aggregate"]
    ids = [c["id"] for c in obj["certificates"]]
    assert ids[-1] == "z3-printed"
    assert obj["vacuum"] == {"worst_rho": 1.0, "rho_values": [1.0],
                             "theorem_verdict": "unknown",
                             "printed_verdict": "certified"}
    # the aggregate is certify_all's; the printed row is informational
    assert obj["aggregate"] == "certified"
    outcomes = {c["id"]: c["outcome"] for c in obj["certificates"]}
    assert outcomes["thm4.5"] == "unknown"
    assert outcomes["z3-printed"] == "certified"


GOLDEN_DIR = pathlib.Path(__file__).parent / "data" / "golden"
GOLDEN_NAMES = sorted(p.name for p in GOLDEN_DIR.glob("*.json"))


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_report_matches_frozen_golden(capsys, monkeypatch, name):
    # run from the golden directory so input.path is the bare file name;
    # regenerate expected/ with the loop in README "Tests" after an
    # intended change to the report
    monkeypatch.chdir(GOLDEN_DIR)
    code = main(["report", name])
    out = capsys.readouterr().out
    assert code in (0, 1, 2)
    assert out.encode("utf-8") == (GOLDEN_DIR / "expected" / name).read_bytes()


@pytest.mark.parametrize("command", ["check", "report"])
def test_overflow_is_an_error_not_a_verdict(capsys, tmp_path, command):
    # at this scale the discriminant's cubes overflow to inf; the criteria
    # that stay finite (qi) still certify this copositive tensor
    s = 1e160
    doc = write_doc(tmp_path, "huge.json", 3, 2,
                    {"111": s, "112": -0.1 * s, "122": 0.5 * s, "222": s})
    code, _, err = run(capsys, [command, doc])
    assert code == 0
    assert err == ""


def test_report_on_non_finite_form_is_one_error_line(capsys, tmp_path):
    # the weight 2 * 1e308 of x1*x2 is inf, and inf * 0 is nan at the
    # vertices; no numpy warning may precede the error line
    doc = write_doc(tmp_path, "inf.json", 2, 2, {"11": 1e308, "12": 1e308, "22": 1e308})
    assert run(capsys, ["report", doc]) == (
        3, "", "copos: error: the form is not finite on the grid (minimum nan)\n")


def child_env():
    """The environment of a copos child: src/ first on the path, one BLAS thread."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "OPENBLAS_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_child(argv, env=None, stdout=subprocess.PIPE):
    """``python -m copos.cli argv`` from the golden directory, through run()."""
    return subprocess.run([sys.executable, "-m", "copos.cli", *argv], cwd=GOLDEN_DIR,
                          env=env or child_env(), stdout=stdout, stderr=subprocess.PIPE,
                          timeout=60)


# a copos child under a 1 GiB address-space cap; one BLAS thread, since BLAS
# thread buffers count against the cap
CAPPED = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30));"
          " from copos.cli import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("dim, grid, code", [(5, None, 3), (6, None, 3), (5, 20, 0), (6, 12, 0)])
def test_oracle_grid_is_bounded_before_it_allocates(tmp_path, dim, grid, code):
    # the default N = 120 needs 121^4 product-grid points at dim 5: refused up
    # front with a hint, not left to fail (or succeed) in numpy's allocator
    doc = write_doc(tmp_path, "diag.json", 3, dim, {str(i) * 3: 1.0 for i in range(1, dim + 1)})
    argv = ["report", doc] + ([] if grid is None else ["--grid", str(grid)])
    proc = subprocess.run([sys.executable, "-c", CAPPED, *argv], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    if code == 3:
        assert "--grid" in proc.stderr, proc.stderr


@pytest.mark.parametrize("command", ["check", "report"])
def test_slice_plan_is_bounded_before_it_enumerates(tmp_path, command):
    # an order-20 dim-3 slice has 3**19 ordered tails: diag, qi and songqi
    # refuse the shape before the plan enumerates them, within seconds
    doc = write_doc(tmp_path, "long.json", 20, 3, {"1" * 20: 1.0})
    proc = subprocess.run([sys.executable, "-c", CAPPED, command, doc], env=child_env(),
                          capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", "copos: error: a slice of an order-20 dim-3 tensor has 3**19 ordered tails,"
               " above the limit of 65536\n")


# one golden document per shape: (3,2), (3,3), (4,2) and (4,3)
CHILD_GOLDEN = ["refuted-mixed.json", "pairs-sixth.json", "quartic-negative-pair.json",
                "diag-refuted.json"]


@pytest.mark.parametrize("name", CHILD_GOLDEN)
def test_child_report_matches_frozen_golden(capsys, monkeypatch, name):
    # the process path, run() and os._exit, loses no byte and keeps main's code
    proc = run_child(["report", name])
    monkeypatch.chdir(GOLDEN_DIR)
    code = main(["report", name])
    capsys.readouterr()
    assert (proc.returncode, proc.stderr) == (code, b"")
    assert proc.stdout == (GOLDEN_DIR / "expected" / name).read_bytes()


def test_child_help_and_usage_error_exit_as_in_process(capsys):
    proc = run_child(["--help"])
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.startswith(b"usage: copos")
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    err = capsys.readouterr().err
    proc = run_child(["frobnicate"])
    assert (exc.value.code, proc.returncode) == (3, 3)
    assert proc.stderr.decode() == err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", ["check cubics-quarter.json", "vacuum --l1 1 --l2 1 --ls 1",
                                  "report disc-zero.json", "--version"])
def test_failed_final_write_exits_3_with_one_error_line(argv):
    # with stdout buffered the write happens at the final flush, after main
    # has returned; it must not end in the interpreter's "Exception ignored"
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        proc = run_child(argv.split(), env=env, stdout=full)
    err = proc.stderr.decode()
    assert proc.returncode == 3, err
    assert re.fullmatch(r"copos: error: [^\n]*\n", err), err


# argv of every transcript run, from the golden directory; regenerate
# tests/data/cli_transcript.txt with the command in README "Tests" after an
# intended change to the output
TRANSCRIPT_CASES = [
    "check disc-zero.json",
    "check quartic-pair.json --strict",
    "check refuted-mixed.json --json",
    "check sos-boundary.json --json --strict",
    "check pairs-sixth.json --criterion thm3.4 --criterion thm3.4",
    "check qi-negative.json --criterion songqi --criterion diag --json",
    "check zero.json",
    "oracle refuted-mixed.json",
    "oracle mixed-sign-boundary.json --grid 40 --refine 1 --band 1e-6 --samples 8 --seed 3",
    "oracle qi-slack.json --json --grid 30 --refine 2 --band 1e-4 --samples 5 --seed 7",
    "oracle zero.json --band 0",
    "oracle quartic-zero.json --band 0 --json",
    "vacuum --l1 1 --l2 1 --ls 1 --rho 1",
    "vacuum --l1 1 --l2 1 --ls 1 --ls12 0.8 --rho 1",
    "vacuum --l1 1 --l2 1 --ls 1 --ls12 0.8 --rho 1 --as-printed",
    "vacuum --l1 1 --l2 1 --ls 1 --ls12 0.4 --rho-scan 10",
    "vacuum --l1 1 --l2 1 --ls 1 --ls12 4 --rho 1 --as-printed --oracle",
    "vacuum --l1 1 --l2 1 --ls 1 --ls12 0.4 --rho-scan 10 --json",
    "vacuum --l1 1 --l2 1 --ls 1 --ls12 4 --rho-scan 4 --oracle --json",
    "vacuum --l1 2 --l2 3 --l3 -1 --l4 0.5 --ls 1 --ls1 -0.5 --ls2 0.25 --ls12 0.3"
    " --rho 0.5 --strict --json",
    "vacuum --l1 -0.0 --l2 1 --ls 1 --json",
    "report --l1 1 --l2 1 --ls 1 --ls12 0.8 --rho 1",
    "report --l1 -0.0 --l2 1 --ls 1 --strict",
    "report quartic-single.json --strict --grid 40 --refine 1 --band 1e-6 --samples 8"
    " --seed 3",
    "check disc-zero.json --criterion thm4.5",
    "check nope.json",
    "vacuum --rho 1.5",
    "vacuum --l1 1 --rho-scan 0",
    "report disc-zero.json --l1 1",
    "report",
    "oracle disc-zero.json --grid 0",
    "report zero.json --grid 0",
]


def transcript() -> str:
    """Exit code, stdout and stderr of every TRANSCRIPT_CASES run, as text."""
    parts = []
    for case in TRANSCRIPT_CASES:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(case.split())
        parts.append(f"$ copos {case}\n[exit {code}]\n--- stdout\n{out.getvalue()}"
                     f"--- stderr\n{err.getvalue()}")
    return "".join(parts)


def test_cli_transcript_matches_frozen(monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    frozen = (GOLDEN_DIR.parent / "cli_transcript.txt").read_text(encoding="utf-8")
    assert transcript().split("$ copos ") == frozen.split("$ copos ")


@pytest.mark.parametrize("band", ["0", "abc"])
def test_band_environment_variable_changes_no_output(capsys, monkeypatch, band):
    # COPOS_BAND is not read: a zero band or a malformed one alters no byte
    monkeypatch.chdir(GOLDEN_DIR)
    monkeypatch.setenv("COPOS_BAND", band)
    for name in GOLDEN_NAMES:
        main(["report", name])
        out = capsys.readouterr().out
        assert out.encode("utf-8") == (GOLDEN_DIR / "expected" / name).read_bytes(), name
    frozen = (GOLDEN_DIR.parent / "cli_transcript.txt").read_text(encoding="utf-8")
    assert transcript().split("$ copos ") == frozen.split("$ copos ")


COUPLING_FLAGS = {"--l1", "--l2", "--l3", "--l4", "--ls", "--ls1", "--ls2", "--ls12"}
ORACLE_FLAGS = {"--grid", "--refine", "--band", "--samples", "--seed"}
SUBCOMMAND_FLAGS = {
    "check": {"--criterion", "--strict", "--json"},
    "oracle": ORACLE_FLAGS | {"--json"},
    "vacuum": COUPLING_FLAGS | {"--rho", "--rho-scan", "--strict", "--as-printed",
                                "--oracle", "--json"},
    "report": COUPLING_FLAGS | ORACLE_FLAGS | {"--rho", "--strict"},
}


def test_subcommand_flags_are_pinned():
    # flags may be reordered, never dropped or added
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    flags = {name: set(re.findall(r"--[a-z][a-z0-9-]*", p.format_usage()))
             for name, p in sub.choices.items()}
    assert flags == SUBCOMMAND_FLAGS


def test_report_requires_one_input_mode(capsys, pair_doc):
    code, _, err = run(capsys, ["report", pair_doc, "--l1", "1"])
    assert code == 3
    assert "not both" in err
    code, _, err = run(capsys, ["report"])
    assert code == 3
    assert "are required" in err


# ---------------------------------------------------------------------------
# top level

def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("copos ")


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 3
