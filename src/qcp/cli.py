"""Command-line interface.

Subcommands: compute, oracle, family, shi, linial, scan-central,
conjecture-scan, verify.  Output is JSON or plain text with identical
numeric content.  Exit codes: 0 success, 1 validation or budget failure,
2 internal-consistency failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arrangement import ArrangementInput, CountingFormula, collapse_report, q_zero
from .errors import BudgetExceededError, InternalConsistencyError, ValidationError
from .families import FAMILY_KINDS, FamilyParams, family_matrix
from .oracle import DEFAULT_BUDGET, brute_force_count, central_scan
from .quasipoly import QuasiPolynomial
from .rootsys import ROOT_TYPES, RootSubset, linial_matrix, positive_roots, shi_matrix

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route through our codes
        raise ValidationError(message)


def _load_arrangement(path: str) -> ArrangementInput:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read input file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"input file {path} is not valid JSON: {exc}") from exc
    return ArrangementInput.from_json_dict(data)


def _arrangement_lines(arr: ArrangementInput) -> list[str]:
    lines = [f"arrangement: m={arr.m} n={arr.n}", "C:"]
    for i in range(arr.m):
        lines.append("  " + " ".join(str(v) for v in arr.cmatrix.row(i)))
    lines.append("b: " + " ".join(str(b) for b in arr.offsets))
    return lines


def _quasi_lines(qp: QuasiPolynomial) -> list[str]:
    lines = [f"quasi-polynomial, period {qp.period}:"]
    for k in range(1, qp.period + 1):
        lines.append(f"  k={k}: {qp.constituent_for_class(k)}")
    return lines


def _report_lines(report) -> list[str]:
    return [
        f"lcm period: {report.lcm_period}",
        f"minimum period: {report.minimum_period}",
        f"period collapse: {'yes' if report.collapse else 'no'}",
        f"q0: {report.q0}",
        f"gcd property: {'yes' if report.gcd_property else 'no'}",
        *_quasi_lines(report.quasi_polynomial),
    ]


def _report_payload(arr: ArrangementInput):
    report = collapse_report(arr)
    payload = {"arrangement": arr.to_json_dict(), "report": report.to_json_dict()}
    lines = _arrangement_lines(arr) + _report_lines(report)
    return payload, lines, 0


def _cmd_compute(args):
    return _report_payload(_load_arrangement(args.input))


def _cmd_oracle(args):
    arr = _load_arrangement(args.input)
    count = brute_force_count(arr, args.q, budget=args.budget)
    payload = {"q": args.q, "count": count, "budget": args.budget}
    lines = _arrangement_lines(arr) + [f"q: {args.q}", f"count: {count}"]
    return payload, lines, 0


def _cmd_family(args):
    params = FamilyParams(kind=args.kind, m=args.m, p=args.p, s=args.s, a=args.a)
    arr = family_matrix(params)
    extra = {"kind": params.kind, "m": params.m, "p": params.p, "s": params.s, "a": params.a}
    payload, lines, code = _report_payload(arr)
    payload["family"] = extra
    lines = [f"family: kind={params.kind} m={params.m} p={params.p} s={params.s} a={params.a}"] + lines
    return payload, lines, code


def _parse_root_csv(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"--exclude-root expects comma-separated integers: {exc}") from exc


def _root_subset(args) -> RootSubset:
    system = positive_roots(args.type, args.rank)
    if args.exclude_root is None:
        return RootSubset.full(system)
    return RootSubset.excluding(system, _parse_root_csv(args.exclude_root))


def _cmd_shi(args):
    subset = _root_subset(args)
    arr = shi_matrix(subset, args.k)
    payload, lines, code = _report_payload(arr)
    payload["shi"] = {
        "type": args.type,
        "rank": args.rank,
        "k": args.k,
        "excluded_root": list(_parse_root_csv(args.exclude_root)) if args.exclude_root else None,
    }
    lines = [f"shi: type={args.type} rank={args.rank} k={args.k} "
             f"excluded={args.exclude_root or '-'}"] + lines
    return payload, lines, code


def _cmd_linial(args):
    subset = _root_subset(args)
    arr = linial_matrix(subset, args.n)
    payload, lines, code = _report_payload(arr)
    payload["linial"] = {
        "type": args.type,
        "rank": args.rank,
        "n": args.n,
        "excluded_root": list(_parse_root_csv(args.exclude_root)) if args.exclude_root else None,
    }
    lines = [f"linial: type={args.type} rank={args.rank} n={args.n} "
             f"excluded={args.exclude_root or '-'}"] + lines
    return payload, lines, code


def _cmd_scan_central(args):
    report = central_scan(
        m=args.m,
        n=args.n,
        entry_bound=args.entry_bound,
        trials=args.trials,
        seed=args.seed,
        budget=args.budget,
    )
    payload = report.to_json_dict()
    lines = [
        f"trials: {report.trials}",
        f"seed: {report.seed}",
        f"generator: {report.generator}",
        f"violations: {len(report.violations)}",
    ]
    for arr, lcm, minp in report.violations:
        lines.append(f"  violation: lcm={lcm} min={minp} arrangement={arr.to_json_dict()}")
    return payload, lines, 0


def _cmd_conjecture_scan(args):
    system = positive_roots(args.type, args.rank)
    rows = []
    all_consistent = True
    for idx, root in enumerate(system.positive_roots):
        subset = RootSubset(
            parent=system,
            included=tuple(i for i in range(len(system.positive_roots)) if i != idx),
        )
        for k in range(1, args.k + 1):
            report = collapse_report(shi_matrix(subset, k))
            consistent = report.minimum_period == 1 or report.collapse
            all_consistent = all_consistent and consistent
            rows.append(
                {
                    "excluded_root": list(root),
                    "k": k,
                    "lcm_period": report.lcm_period,
                    "minimum_period": report.minimum_period,
                    "collapse": report.collapse,
                    "consistent": consistent,
                }
            )
    payload = {
        "type": args.type,
        "rank": args.rank,
        "k_max": args.k,
        "rows": rows,
        "all_consistent": all_consistent,
    }
    lines = [f"conjecture scan: type={args.type} rank={args.rank} k=1..{args.k}"]
    for row in rows:
        lines.append(
            "  excluded={excluded_root} k={k}: lcm={lcm_period} min={minimum_period} "
            "collapse={collapse} consistent={consistent}".format(**row)
        )
    lines.append(f"all consistent: {all_consistent}")
    return payload, lines, 0


def _cmd_verify(args):
    if args.q_window < 1:
        raise ValidationError(f"--q-window must be at least 1, got {args.q_window}")
    arr = _load_arrangement(args.input)
    threshold = q_zero(arr)
    counting = CountingFormula.of(arr)
    results = []
    ok = True
    for q in range(threshold + 1, threshold + args.q_window + 1):
        formula = counting.count(q)
        brute = brute_force_count(arr, q, budget=args.budget)
        match = formula == brute
        ok = ok and match
        results.append({"q": q, "formula": formula, "brute_force": brute, "match": match})
    payload = {"q0": threshold, "window": args.q_window, "results": results, "pass": ok}
    lines = _arrangement_lines(arr) + [f"q0: {threshold}", f"window: {args.q_window}"]
    for row in results:
        lines.append(
            "  q={q}: formula={formula} brute_force={brute_force} match={match}".format(**row)
        )
    lines.append(f"pass: {ok}")
    return payload, lines, 0 if ok else 2


def _add_format(sub):
    sub.add_argument("--format", choices=("json", "text"), default="text",
                     help="output format (default: text)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="qcp", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = subs.add_parser("compute",
                        help="period analysis of an arrangement JSON file")
    p.add_argument("--input", required=True, help="arrangement JSON file")
    _add_format(p)
    p.set_defaults(handler=_cmd_compute)

    p = subs.add_parser("oracle",
                        help="brute-force complement count at one q")
    p.add_argument("--input", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    _add_format(p)
    p.set_defaults(handler=_cmd_oracle)

    p = subs.add_parser("family",
                        help="build a family arrangement and analyze it")
    p.add_argument("--kind", choices=FAMILY_KINDS, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--a", type=int, default=1)
    _add_format(p)
    p.set_defaults(handler=_cmd_family)

    p = subs.add_parser("shi",
                        help="extended Shi arrangement of a root subset")
    p.add_argument("--type", choices=ROOT_TYPES, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--exclude-root", default=None,
                   help="comma-separated coefficients of one positive root to drop")
    _add_format(p)
    p.set_defaults(handler=_cmd_shi)

    p = subs.add_parser("linial",
                        help="extended Linial arrangement of a root subset")
    p.add_argument("--type", choices=ROOT_TYPES, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--exclude-root", default=None)
    _add_format(p)
    p.set_defaults(handler=_cmd_linial)

    p = subs.add_parser("scan-central",
                        help="randomized minimum-vs-lcm period scan on central input")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--entry-bound", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    _add_format(p)
    p.set_defaults(handler=_cmd_scan_central)

    p = subs.add_parser("conjecture-scan",
                        help="drop each root in turn from the Shi arrangement and "
                             "report periods for k = 1..K")
    p.add_argument("--type", choices=ROOT_TYPES, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--k", type=int, required=True, help="largest k to scan")
    _add_format(p)
    p.set_defaults(handler=_cmd_conjecture_scan)

    p = subs.add_parser("verify",
                        help="formula vs brute force over a window above q0")
    p.add_argument("--input", required=True)
    p.add_argument("--q-window", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    _add_format(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def _emit_error(fmt: str, kind: str, exc: Exception) -> None:
    if fmt == "json":
        print(json.dumps({"error": str(exc), "kind": kind}))
    else:
        print(f"error ({kind}): {exc}")


def main(argv=None) -> int:
    parser = _build_parser()
    fmt = "text"
    try:
        args = parser.parse_args(argv)
        fmt = getattr(args, "format", "text")
        payload, lines, code = args.handler(args)
    except ValidationError as exc:
        _emit_error(fmt, "validation", exc)
        return 1
    except BudgetExceededError as exc:
        _emit_error(fmt, "budget", exc)
        return 1
    except InternalConsistencyError as exc:
        _emit_error(fmt, "internal", exc)
        return 2
    if fmt == "json":
        print(json.dumps(payload))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
