"""Command line front end.

Four subcommands: ``check`` runs the closed-form criteria on a JSON tensor
document, ``oracle`` minimizes the form over the simplex by brute force,
``vacuum`` checks scalar-potential stability from coupling constants, and
``report`` bundles criteria plus oracle into one machine-readable JSON
document with a stable field order.

Two tables hold the flags.  ``_COUPLINGS`` pairs ``--l1 ... --ls12`` with
their ``Z3Params`` fields; it declares them for ``vacuum`` and ``report``,
builds the parameters and writes ``input.params``.  ``_ORACLE`` gives each
of ``--grid/--refine/--band/--samples/--seed`` its ``OracleConfig`` field,
type and help; it declares them for ``oracle`` and ``report``, builds the
scan and writes ``config.oracle``.

Exit codes: 0 certified / copositive up to band, 1 refuted / not
copositive, 2 unknown / indeterminate, 3 any failure: malformed input, a
usage error, overflow, running out of memory or a failed write.

The ``copos`` command and ``python -m copos.cli`` both end in :func:`run`,
which flushes the output and leaves through ``os._exit``, so no report waits
for the interpreter's teardown (clearing modules, the final garbage
collections over numpy's objects).  :func:`main` returns the exit code and
is what in-process callers use.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import re
import sys
from typing import NoReturn, Optional

from . import __version__
from .criteria import (Certificate, Verdict, _registered, aggregate, applicable_criteria,
                       certify_all, run_criterion)
from .documents import entries_as_strings, load_document
from .oracle import (Classification, OracleConfig, OracleResult, default_config,
                     min_on_simplex)
from .tensors import SymmetricTensor
from .vacuum import StabilityReport, Z3Params, check_stability, coupling_tensor, scan_rho

_EXIT_CODE = {Verdict.CERTIFIED: 0, Verdict.REFUTED: 1, Verdict.UNKNOWN: 2,
              Classification.COPOSITIVE_UP_TO_BAND: 0, Classification.NOT_COPOSITIVE: 1,
              Classification.INDETERMINATE: 2}

_COUPLINGS = (("l1", "lam1"), ("l2", "lam2"), ("l3", "lam3"), ("l4", "lam4"),
              ("ls", "lam_s"), ("ls1", "lam_s1"), ("ls2", "lam_s2"),
              ("ls12", "abs_lam_s12"))
_PARAMS = _COUPLINGS + (("rho", "rho"),)  # the keys of input.params

_ORACLE = (("grid", "resolution", int, "N", "lattice resolution"),
           ("refine", "refine_rounds", int, "R", "refinement rounds"),
           ("band", "band", float, "B", "classification band"),
           ("samples", "samples", int, "S", "extra random samples"),
           ("seed", "seed", int, None, "seed for the extra samples"))


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent, so it would read -1e-1 as a
        # flag; no copos flag looks like a number
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    # usage problems must exit 3, not argparse's default 2 (taken by Unknown)
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)

    # argparse ignores a failed write of --help or --version text; run() owns it
    def _print_message(self, message: str, file=None) -> None:
        file = file or sys.stderr
        if message and file is not None:  # argparse's tolerance of a closed stream
            file.write(message)


def _oracle_config(dim: int, args: argparse.Namespace) -> OracleConfig:
    """The default scan for dim, with the oracle flags given in args."""
    values = {field: getattr(args, flag, None) for flag, field, *_ in _ORACLE}
    return dataclasses.replace(default_config(dim), **{
        field: value for field, value in values.items() if value is not None})


def _params(args: argparse.Namespace) -> Z3Params:
    # `is None`, not `or`, so that an explicit -0.0 keeps its sign
    values = {field: getattr(args, flag) for flag, field in _PARAMS}
    return Z3Params(**{field: 0.0 if value is None else value
                       for field, value in values.items()})


# ---------------------------------------------------------------------------
# JSON shaping.  Field order is fixed; do not sort keys.

def _number(x: float) -> float | str:
    # JSON has no nan or inf: such a value is written as the repr the human output prints
    return x if math.isfinite(x) else repr(x)


def _certificate_json(c: Certificate) -> dict:
    return {"id": c.criterion_id, "outcome": c.outcome.value, "branch": c.branch,
            "conditions": [{"description": row.description, "value": _number(row.value),
                            "satisfied": row.satisfied} for row in c.conditions]}


def _config_json(cfg: OracleConfig) -> dict:
    return {field: getattr(cfg, field) for _, field, *_ in _ORACLE}


def _params_json(p: Z3Params) -> dict:
    return {flag: getattr(p, field) for flag, field in _PARAMS}


def _input_json(head: dict, tensor: SymmetricTensor) -> dict:
    return {**head, "order": tensor.order, "dim": tensor.dim,
            "entries": entries_as_strings(tensor)}


def _emit(command: str, input_section: dict, config_section: dict,
          certificates: list[Certificate], oracle_result: Optional[OracleResult],
          agg: str, stability: Optional[StabilityReport] = None) -> None:
    doc = {"tool": "copos", "version": __version__, "command": command,
           "input": input_section, "config": config_section,
           "certificates": [_certificate_json(c) for c in certificates]}
    if stability is not None:
        doc["vacuum"] = {"worst_rho": stability.worst_rho,
                         "rho_values": list(stability.rho_values),
                         "theorem_verdict": stability.theorem_verdict.value,
                         "printed_verdict": stability.printed_verdict.value}
    if oracle_result is not None:
        doc["oracle"] = {"min_value": _number(oracle_result.min_value),
                         "argmin": list(oracle_result.argmin),
                         "resolution_used": oracle_result.resolution_used,
                         "classification": oracle_result.classification.value}
    doc["aggregate"] = agg
    print(json.dumps(doc, indent=2, allow_nan=False))


# ---------------------------------------------------------------------------
# human output

def _print_certificate(cert: Certificate) -> None:
    head = f"{cert.criterion_id}: {cert.outcome.value}"
    if cert.branch is not None:
        head += f"  [branch {cert.branch}]"
    print(head)
    for row in cert.conditions:
        mark = " ok " if row.satisfied else "FAIL"
        print(f"  [{mark}] {row.description}  value={row.value!r}")


def _print_oracle(result: OracleResult) -> None:
    point = "(" + ", ".join(repr(x) for x in result.argmin) + ")"
    print(f"oracle: {result.classification.value}  min={result.min_value!r}"
          f" at {point}  resolution={result.resolution_used}")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_check(args: argparse.Namespace) -> int:
    tensor = load_document(args.file)
    ids = applicable_criteria(tensor.order, tensor.dim)
    if args.criterion:  # a named criterion runs where it is registered, and may refuse there
        registered = _registered(tensor.order, tensor.dim)
        for cid in args.criterion:
            if cid not in registered:
                raise ValueError(f"criterion {cid!r} does not apply to order-{tensor.order}"
                                 f" dim-{tensor.dim} tensors; applicable: {', '.join(registered)}")
        ids = [cid for cid in registered if cid in args.criterion]
    certs = [run_criterion(cid, tensor, strict=args.strict) for cid in ids]
    agg = aggregate(certs)
    if args.json:
        _emit("check", _input_json({"path": args.file}, tensor),
              {"strict": args.strict, "criteria": ids}, certs, None, agg.value)
    else:
        for cert in certs:
            _print_certificate(cert)
        print(f"aggregate: {agg.value}")
    return _EXIT_CODE[agg]


def _cmd_oracle(args: argparse.Namespace) -> int:
    tensor = load_document(args.file)
    cfg = _oracle_config(tensor.dim, args)
    result = min_on_simplex(tensor, cfg)
    if args.json:
        _emit("oracle", _input_json({"path": args.file}, tensor),
              {"oracle": _config_json(cfg)}, [], result, result.classification.value)
    else:
        _print_oracle(result)
    return _EXIT_CODE[result.classification]


def _cmd_vacuum(args: argparse.Namespace) -> int:
    params = _params(args)
    if args.rho_scan is not None:
        report = scan_rho(params, args.rho_scan, strict=args.strict)
    else:
        report = check_stability(params, strict=args.strict)
    config = {"strict": args.strict, "as_printed": args.as_printed,
              "rho_scan": args.rho_scan}
    result = None
    if args.oracle:
        tensor = coupling_tensor(params.with_rho(report.worst_rho))
        cfg = default_config(3)
        config["oracle"] = _config_json(cfg)
        result = min_on_simplex(tensor, cfg)
    agg = report.printed_verdict if args.as_printed else report.theorem_verdict
    if result is not None and result.classification is Classification.NOT_COPOSITIVE:
        agg = Verdict.REFUTED
    if args.json:
        _emit("vacuum", {"params": _params_json(params)}, config,
              [report.theorem_at_worst, report.printed_at_worst], result, agg.value, report)
    else:
        if len(report.rho_values) > 1:
            print(f"rho scan: {len(report.rho_values)} points on [0, 1]")
        else:
            print(f"rho = {report.rho_values[0]!r}")
        print(f"theorem route: {report.theorem_verdict.value}")
        print(f"printed route: {report.printed_verdict.value}")
        print(f"worst rho: {report.worst_rho!r}")
        print("theorem conditions at worst rho:")
        _print_certificate(report.theorem_at_worst)
        print("printed conditions at worst rho:")
        _print_certificate(report.printed_at_worst)
        if result is not None:
            _print_oracle(result)
        label = "printed" if args.as_printed else "theorem"
        print(f"aggregate ({label} route): {agg.value}")
    return _EXIT_CODE[agg]


def _cmd_report(args: argparse.Namespace) -> int:
    params_given = any(getattr(args, flag) is not None for flag, _ in _PARAMS)
    if args.file is not None and params_given:
        raise ValueError("give either a tensor file or vacuum parameters, not both")
    if args.file is None and not params_given:
        raise ValueError("a tensor file or vacuum parameters are required")
    stability = None
    if args.file is not None:
        tensor = load_document(args.file)
        head = {"path": args.file}
    else:
        params = _params(args)
        tensor = coupling_tensor(params)
        stability = check_stability(params, strict=args.strict)
        head = {"params": _params_json(params)}
    certs = certify_all(tensor, strict=args.strict)
    config = {"strict": args.strict, "criteria": [c.criterion_id for c in certs]}
    # the aggregate stays certify_all's; the opt-in printed route is shown
    # alongside but never certifies on its own
    agg = aggregate(certs)
    if stability is not None:
        certs = certs + [stability.printed_at_worst]
    cfg = _oracle_config(tensor.dim, args)
    result = min_on_simplex(tensor, cfg)
    _emit("report", _input_json(head, tensor), {**config, "oracle": _config_json(cfg)},
          certs, result, agg.value, stability)
    return _EXIT_CODE[agg]


# ---------------------------------------------------------------------------
# parser assembly

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="copos",
                     description="Copositivity certificates for symmetric tensors.")
    parser.add_argument("--version", action="version", version=f"copos {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    # flags shared between subcommands, added to each through parents=
    strict, as_json, oracle_flags, couplings = (_Parser(add_help=False) for _ in range(4))
    strict.add_argument("--strict", action="store_true",
                        help="strict-copositivity variants where available")
    as_json.add_argument("--json", action="store_true", help="emit a JSON report")
    for flag, _, kind, metavar, help_text in _ORACLE:
        oracle_flags.add_argument(f"--{flag}", type=kind, metavar=metavar, help=help_text)
    for flag, _ in _COUPLINGS:
        couplings.add_argument(f"--{flag}", type=float, metavar="X", help=f"coupling {flag}")

    check = sub.add_parser("check", parents=[strict, as_json],
                           help="run closed-form criteria on a tensor document")
    check.add_argument("file", help="JSON tensor document")
    check.add_argument("--criterion", action="append", metavar="ID",
                       help="run only this criterion (repeatable)")
    check.set_defaults(run=_cmd_check)

    oracle = sub.add_parser("oracle", parents=[oracle_flags, as_json],
                            help="brute-force simplex minimization")
    oracle.add_argument("file", help="JSON tensor document")
    oracle.set_defaults(run=_cmd_oracle)

    vacuum = sub.add_parser("vacuum", parents=[couplings, strict, as_json],
                            help="scalar-potential stability from couplings")
    rho_group = vacuum.add_mutually_exclusive_group()
    rho_group.add_argument("--rho", type=float, metavar="R",
                           help="orbit parameter in [0, 1] (default 0)")
    rho_group.add_argument("--rho-scan", type=int, metavar="STEPS", dest="rho_scan",
                           help="scan rho = k/STEPS for k = 0..STEPS")
    vacuum.add_argument("--as-printed", action="store_true", dest="as_printed",
                        help="exit by the quoted condition list instead of the theorem route")
    vacuum.add_argument("--oracle", action="store_true",
                        help="also minimize the coupling tensor at the worst rho")
    vacuum.set_defaults(run=_cmd_vacuum)

    report = sub.add_parser("report", parents=[couplings, strict, oracle_flags],
                            help="criteria plus oracle as one JSON document")
    report.add_argument("file", nargs="?", help="JSON tensor document")
    report.add_argument("--rho", type=float, metavar="R", help="orbit parameter in [0, 1]")
    report.set_defaults(run=_cmd_report)

    return parser


def _print_error(exc: BaseException) -> None:
    print(f"copos: error: {str(exc) or type(exc).__name__}", file=sys.stderr)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except Exception as exc:
        _print_error(exc)
        return 3


def run() -> NoReturn:
    """Run :func:`main` on the command line and end the process.

    Output is flushed first; a write that fails exits 3 with one error
    line.  The process then ends through ``os._exit``, without the
    interpreter's teardown, so ``atexit`` hooks do not run.
    """
    code = None
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse: --help, --version, usage errors
            code = exc.code or 0
        for stream in (sys.stdout, sys.stderr):  # None where the descriptor was closed
            if stream is not None:
                stream.flush()
    except OSError as exc:  # the output, argparse's text or an error line
        with contextlib.suppress(OSError):  # stderr may be what failed
            if code != 3:  # every exit 3 has printed its error line already
                _print_error(exc)
            if sys.stderr is not None:
                sys.stderr.flush()
        code = 3
    os._exit(code)


if __name__ == "__main__":
    run()
