"""Command line front end.

Four subcommands: ``check`` runs the closed-form criteria on a JSON tensor
document, ``oracle`` minimizes the form over the simplex by brute force,
``vacuum`` checks scalar-potential stability from coupling constants, and
``report`` bundles criteria plus oracle into one machine-readable JSON
document with a stable field order.

Exit codes: 0 certified / copositive up to band, 1 refuted / not
copositive, 2 unknown / indeterminate, 3 malformed input, usage error or
arithmetic overflow.

The oracle band can be set through the COPOS_BAND environment variable;
an explicit --band flag wins over the environment.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Callable, Optional

from . import __version__
from .criteria import Certificate, Verdict, aggregate, applicable_criteria, run_criterion
from .documents import entries_as_strings, load_document
from .oracle import (Classification, OracleConfig, OracleResult, default_config,
                     min_on_simplex)
from .tensors import SymmetricTensor
from .vacuum import StabilityReport, Z3Params, check_stability, coupling_tensor, scan_rho

_EXIT_BY_VERDICT = {Verdict.CERTIFIED: 0, Verdict.REFUTED: 1, Verdict.UNKNOWN: 2}
_EXIT_BY_CLASS = {Classification.COPOSITIVE_UP_TO_BAND: 0,
                  Classification.NOT_COPOSITIVE: 1,
                  Classification.INDETERMINATE: 2}

_LAM_FLAGS = ("l1", "l2", "l3", "l4", "ls", "ls1", "ls2", "ls12")


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 3, not argparse's default 2 (taken by Unknown)
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _resolve_band(flag_value: Optional[float]) -> Optional[float]:
    if flag_value is not None:
        return flag_value
    raw = os.environ.get("COPOS_BAND")
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"COPOS_BAND must be a decimal float, got {raw!r}") from None


def _oracle_config(dim: int, grid: Optional[int] = None, refine: Optional[int] = None,
                   band: Optional[float] = None, samples: Optional[int] = None,
                   seed: Optional[int] = None) -> OracleConfig:
    cfg = default_config(dim)
    overrides = {name: value for name, value in (
        ("resolution", grid), ("refine_rounds", refine), ("band", _resolve_band(band)),
        ("samples", samples), ("seed", seed)) if value is not None}
    return dataclasses.replace(cfg, **overrides)


# ---------------------------------------------------------------------------
# JSON shaping.  Field order is fixed; do not sort keys.

def _condition_json(c) -> dict:
    return {"description": c.description, "value": c.value, "satisfied": c.satisfied}


def _certificate_json(c: Certificate) -> dict:
    return {"id": c.criterion_id, "outcome": c.outcome.value, "branch": c.branch,
            "conditions": [_condition_json(row) for row in c.conditions]}


def _oracle_json(r: OracleResult) -> dict:
    return {"min_value": r.min_value, "argmin": list(r.argmin),
            "resolution_used": r.resolution_used,
            "classification": r.classification.value}


def _config_json(cfg: OracleConfig) -> dict:
    return {"resolution": cfg.resolution, "refine_rounds": cfg.refine_rounds,
            "band": cfg.band, "samples": cfg.samples, "seed": cfg.seed}


def _stability_json(rep: StabilityReport) -> dict:
    return {"worst_rho": rep.worst_rho,
            "rho_values": list(rep.rho_values),
            "theorem_verdict": rep.theorem_verdict.value,
            "printed_verdict": rep.printed_verdict.value}


def _params_json(p: Z3Params) -> dict:
    return {"l1": p.lam1, "l2": p.lam2, "l3": p.lam3, "l4": p.lam4,
            "ls": p.lam_s, "ls1": p.lam_s1, "ls2": p.lam_s2,
            "ls12": p.abs_lam_s12, "rho": p.rho}


def _report_doc(command: str, input_section: dict, config_section: dict,
                certificates: list[Certificate], oracle_result: Optional[OracleResult],
                agg: str, vacuum_section: Optional[dict] = None) -> dict:
    doc = {"tool": "copos", "version": __version__, "command": command,
           "input": input_section, "config": config_section,
           "certificates": [_certificate_json(c) for c in certificates]}
    if vacuum_section is not None:
        doc["vacuum"] = vacuum_section
    if oracle_result is not None:
        doc["oracle"] = _oracle_json(oracle_result)
    doc["aggregate"] = agg
    return doc


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


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
    if args.criterion:
        wanted = []
        for cid in args.criterion:
            if cid not in ids:
                raise ValueError(f"criterion {cid!r} does not apply to order-{tensor.order}"
                                 f" dim-{tensor.dim} tensors; applicable: {', '.join(ids)}")
            if cid not in wanted:
                wanted.append(cid)
        ids = tuple(cid for cid in ids if cid in wanted)
    certs = [run_criterion(cid, tensor, strict=args.strict) for cid in ids]
    agg = aggregate(certs)
    if args.json:
        _emit(_report_doc(
            "check",
            {"path": args.file, "order": tensor.order, "dim": tensor.dim,
             "entries": entries_as_strings(tensor)},
            {"strict": args.strict, "criteria": list(ids)},
            certs, None, agg.value))
    else:
        for cert in certs:
            _print_certificate(cert)
        print(f"aggregate: {agg.value}")
    return _EXIT_BY_VERDICT[agg]


def _cmd_oracle(args: argparse.Namespace) -> int:
    tensor = load_document(args.file)
    cfg = _oracle_config(tensor.dim, args.grid, args.refine, args.band,
                         args.samples, args.seed)
    result = min_on_simplex(tensor, cfg)
    if args.json:
        _emit(_report_doc(
            "oracle",
            {"path": args.file, "order": tensor.order, "dim": tensor.dim,
             "entries": entries_as_strings(tensor)},
            {"oracle": _config_json(cfg)},
            [], result, result.classification.value))
    else:
        _print_oracle(result)
    return _EXIT_BY_CLASS[result.classification]


def _params_from_args(args: argparse.Namespace, rho: float) -> Z3Params:
    def flag(name: str) -> float:
        value = getattr(args, name)
        return 0.0 if value is None else value
    return Z3Params(lam1=flag("l1"), lam2=flag("l2"), lam3=flag("l3"), lam4=flag("l4"),
                    lam_s=flag("ls"), lam_s1=flag("ls1"), lam_s2=flag("ls2"),
                    abs_lam_s12=flag("ls12"), rho=rho)


def _cmd_vacuum(args: argparse.Namespace) -> int:
    if args.rho_scan is not None:
        params = _params_from_args(args, 0.0)
        report = scan_rho(params, args.rho_scan, strict=args.strict)
    else:
        params = _params_from_args(args, args.rho if args.rho is not None else 0.0)
        report = check_stability(params, strict=args.strict)
    oracle_cfg = None
    if args.oracle:
        tensor = coupling_tensor(params.with_rho(report.worst_rho))
        oracle_cfg = _oracle_config(3)
        report = report.with_oracle(min_on_simplex(tensor, oracle_cfg))
    agg = report.printed_verdict if args.as_printed else report.theorem_verdict
    if report.oracle is not None and report.oracle.classification is Classification.NOT_COPOSITIVE:
        agg = Verdict.REFUTED
    if args.json:
        config = {"strict": args.strict, "as_printed": args.as_printed,
                  "rho_scan": args.rho_scan}
        if oracle_cfg is not None:
            config["oracle"] = _config_json(oracle_cfg)
        _emit(_report_doc(
            "vacuum", {"params": _params_json(report.params)}, config,
            [report.theorem_at_worst, report.printed_at_worst],
            report.oracle, agg.value, _stability_json(report)))
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
        if report.oracle is not None:
            _print_oracle(report.oracle)
        label = "printed" if args.as_printed else "theorem"
        print(f"aggregate ({label} route): {agg.value}")
    return _EXIT_BY_VERDICT[agg]


def _cmd_report(args: argparse.Namespace) -> int:
    params_given = any(getattr(args, name) is not None for name in _LAM_FLAGS)
    params_given = params_given or args.rho is not None
    if args.file is not None and params_given:
        raise ValueError("give either a tensor file or vacuum parameters, not both")
    if args.file is None and not params_given:
        raise ValueError("a tensor file or vacuum parameters are required")
    vacuum_section = None
    stability = None
    if args.file is not None:
        tensor = load_document(args.file)
        input_section = {"path": args.file, "order": tensor.order, "dim": tensor.dim,
                         "entries": entries_as_strings(tensor)}
    else:
        params = _params_from_args(args, args.rho if args.rho is not None else 0.0)
        tensor = coupling_tensor(params)
        stability = check_stability(params, strict=args.strict)
        vacuum_section = _stability_json(stability)
        input_section = {"params": _params_json(params), "order": tensor.order,
                         "dim": tensor.dim, "entries": entries_as_strings(tensor)}
    ids = applicable_criteria(tensor.order, tensor.dim)
    certs = [run_criterion(cid, tensor, strict=args.strict) for cid in ids]
    # the aggregate stays certify_all's; the opt-in printed route is shown
    # alongside but never certifies on its own
    agg = aggregate(certs)
    if stability is not None:
        certs = certs + [stability.printed_at_worst]
    cfg = _oracle_config(tensor.dim, args.grid, args.refine, args.band,
                         args.samples, args.seed)
    result = min_on_simplex(tensor, cfg)
    _emit(_report_doc(
        "report", input_section,
        {"strict": args.strict, "criteria": list(ids), "oracle": _config_json(cfg)},
        certs, result, agg.value, vacuum_section))
    return _EXIT_BY_VERDICT[agg]


# ---------------------------------------------------------------------------
# parser assembly

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="copos",
                     description="Copositivity certificates for symmetric tensors.")
    parser.add_argument("--version", action="version", version=f"copos {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    check = sub.add_parser("check", help="run closed-form criteria on a tensor document")
    check.add_argument("file", help="JSON tensor document")
    check.add_argument("--criterion", action="append", metavar="ID",
                       help="run only this criterion (repeatable)")
    check.add_argument("--strict", action="store_true",
                       help="strict-copositivity variants where available")
    check.add_argument("--json", action="store_true", help="emit a JSON report")

    oracle = sub.add_parser("oracle", help="brute-force simplex minimization")
    oracle.add_argument("file", help="JSON tensor document")
    oracle.add_argument("--grid", type=int, metavar="N", help="lattice resolution")
    oracle.add_argument("--refine", type=int, metavar="R", help="refinement rounds")
    oracle.add_argument("--band", type=float, metavar="B", help="classification band")
    oracle.add_argument("--samples", type=int, metavar="S", help="extra random samples")
    oracle.add_argument("--seed", type=int, help="seed for the extra samples")
    oracle.add_argument("--json", action="store_true", help="emit a JSON report")

    vacuum = sub.add_parser("vacuum", help="scalar-potential stability from couplings")
    for name in _LAM_FLAGS:
        vacuum.add_argument(f"--{name}", type=float, default=0.0, metavar="X",
                            help=f"coupling {name}")
    rho_group = vacuum.add_mutually_exclusive_group()
    rho_group.add_argument("--rho", type=float, metavar="R",
                           help="orbit parameter in [0, 1] (default 0)")
    rho_group.add_argument("--rho-scan", type=int, metavar="STEPS", dest="rho_scan",
                           help="scan rho = k/STEPS for k = 0..STEPS")
    vacuum.add_argument("--strict", action="store_true",
                        help="require strict inequalities")
    vacuum.add_argument("--as-printed", action="store_true", dest="as_printed",
                        help="exit by the quoted condition list instead of the theorem route")
    vacuum.add_argument("--oracle", action="store_true",
                        help="also minimize the coupling tensor at the worst rho")
    vacuum.add_argument("--json", action="store_true", help="emit a JSON report")

    report = sub.add_parser("report", help="criteria plus oracle as one JSON document")
    report.add_argument("file", nargs="?", help="JSON tensor document")
    for name in _LAM_FLAGS:
        report.add_argument(f"--{name}", type=float, default=None, metavar="X",
                            help=f"coupling {name} (instead of a file)")
    report.add_argument("--rho", type=float, default=None, metavar="R",
                        help="orbit parameter in [0, 1]")
    report.add_argument("--strict", action="store_true",
                        help="strict-copositivity variants where available")
    report.add_argument("--grid", type=int, metavar="N", help="lattice resolution")
    report.add_argument("--refine", type=int, metavar="R", help="refinement rounds")
    report.add_argument("--band", type=float, metavar="B", help="classification band")
    report.add_argument("--samples", type=int, metavar="S", help="extra random samples")
    report.add_argument("--seed", type=int, help="seed for the extra samples")

    return parser


_DISPATCH: dict[str, Callable[[argparse.Namespace], int]] = {
    "check": _cmd_check,
    "oracle": _cmd_oracle,
    "vacuum": _cmd_vacuum,
    "report": _cmd_report,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, OSError, ArithmeticError) as exc:
        # ArithmeticError: float overflow on huge entries, never a verdict
        print(f"copos: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
