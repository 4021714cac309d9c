"""Command-line interface.

Subcommands: compute, oracle, family, shi, linial, scan-central,
conjecture-scan, verify.  Output is JSON or plain text with identical
numeric content.  Exit codes: 0 success, 1 validation or budget failure, or
standard output closed by its reader (``qcp ... | head``), 2
internal-consistency failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .arrangement import WALK_BUDGET, ArrangementInput, CountingFormula, collapse_report, q_zero
from .errors import BudgetExceededError, InternalConsistencyError, ValidationError
from .families import FAMILY_KINDS, FamilyParams, family_matrix
from .intlinalg import _require_int
from .oracle import (DEFAULT_BUDGET, _charge_point_tests, _count_window, brute_force_count,
                     central_scan)
from .quasipoly import QuasiPolynomial
from .rootsys import (ROOT_TYPES, RootSubset, _check_type_and_rank, linial_matrix,
                      positive_roots, shi_matrix)

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


def _report_payload(arr: ArrangementInput, fmt: str):
    """Payload and text lines of a report; the lines (one per residue class)
    are built for text output only."""
    report = collapse_report(arr)
    payload = {"arrangement": arr.to_json_dict(), "report": report.to_json_dict()}
    lines = _arrangement_lines(arr) + _report_lines(report) if fmt == "text" else []
    return payload, lines, 0


def _cmd_compute(args):
    return _report_payload(_load_arrangement(args.input), args.format)


def _cmd_oracle(args):
    arr = _load_arrangement(args.input)
    count = brute_force_count(arr, args.q, budget=args.budget)
    payload = {"q": args.q, "count": count, "budget": args.budget}
    lines = _arrangement_lines(arr) + [f"q: {args.q}", f"count: {count}"]
    return payload, lines, 0


def _refuse_wide_walk(rank: int, groups) -> None:
    """Exit on the walk's budget from the parameters alone, before building
    an arrangement too wide to walk.  ``groups`` holds (classes, offsets)
    pairs: that many distinct coefficient columns with that many distinct
    offsets each, at coefficient rank ``rank``.  Level 1 of the subset walk
    offers every stacked column once.  At rank 2 or more no single class is
    saturated, so level 2 offers every pair of stacked columns from two
    different classes.  Their sum is a lower bound on what the walk offers.
    A group with no class or no offset builds nothing to walk, or holds a
    parameter that the builder rejects."""
    if any(c < 1 or o < 1 for c, o in groups):
        return
    least = sum(c * o for c, o in groups)
    if rank >= 2:
        least += (least * least - sum(c * o * o for c, o in groups)) // 2
    if least > WALK_BUDGET:
        raise BudgetExceededError(
            f"the subset walk would offer at least {least} column subsets, over "
            f"WALK_BUDGET = {WALK_BUDGET}"
        )


def _root_classes(rank: int, deleted: int) -> int:
    """Fewest positive roots, each its own class, left after ``deleted`` are
    dropped: every type of rank n has at least n(n+1)/2."""
    return rank * (rank + 1) // 2 - deleted


def _cmd_family(args):
    params = FamilyParams(kind=args.kind, m=args.m, p=args.p, s=args.s, a=args.a)
    # m columns with offset 0 (e_1..e_(m-1) and s e_m) and one with p offsets
    _refuse_wide_walk(params.m, [(params.m, 1), (1, params.p)])
    arr = family_matrix(params)
    extra = {"kind": params.kind, "m": params.m, "p": params.p, "s": params.s, "a": params.a}
    payload, lines, code = _report_payload(arr, args.format)
    payload["family"] = extra
    lines = [f"family: kind={params.kind} m={params.m} p={params.p} s={params.s} a={params.a}"] + lines
    return payload, lines, code


_ROOT_ENTRY = re.compile(r"-?[0-9]+")


def _parse_root_csv(text: str) -> tuple[int, ...]:
    """Root coordinates from ``--exclude-root``: each part an optional ``-``
    and ASCII digits, nothing else (no sign ``+``, underscores, whitespace or
    non-ASCII digits, all of which ``int()`` would accept)."""
    parts = text.split(",")
    for part in parts:
        if not _ROOT_ENTRY.fullmatch(part):
            raise ValidationError(
                f"--exclude-root expects comma-separated integers, got {part!r}"
            )
    return tuple(int(part) for part in parts)


def _cmd_root_arrangement(args):
    """``shi`` or ``linial``: ``args.builder`` makes the arrangement from the
    root subset and ``args.param`` ("k" or "n") names its parameter."""
    _check_type_and_rank(args.type, args.rank)
    excluded = None if args.exclude_root is None else _parse_root_csv(args.exclude_root)
    value = getattr(args, args.param)
    # Shi has the 2k offsets 1-k..k per root, Linial the n offsets 1..n
    offsets = 2 * value if args.param == "k" else value
    _refuse_wide_walk(args.rank, [(_root_classes(args.rank, excluded is not None), offsets)])
    system = positive_roots(args.type, args.rank)
    if excluded is None:
        subset = RootSubset.full(system)
    else:
        subset = RootSubset.excluding(system, excluded)
    payload, lines, code = _report_payload(args.builder(subset, value), args.format)
    payload[args.command] = {
        "type": args.type,
        "rank": args.rank,
        args.param: value,
        "excluded_root": None if excluded is None else list(excluded),
    }
    lines = [f"{args.command}: type={args.type} rank={args.rank} {args.param}={value} "
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
    return payload, lines, 0


def _cmd_conjecture_scan(args):
    # a scan of no k checks nothing, so it may not report every row consistent
    if args.k < 1:
        raise ValidationError(f"--k must be at least 1, got {args.k}")
    _check_type_and_rank(args.type, args.rank)
    # the widest walk of the scan: one root deleted, k = args.k
    _refuse_wide_walk(args.rank, [(_root_classes(args.rank, 1), 2 * args.k)])
    system = positive_roots(args.type, args.rank)
    rows = []
    all_consistent = True
    for root in system.positive_roots:
        subset = RootSubset.excluding(system, root)
        for k in range(1, args.k + 1):
            # periods and collapse flag only: no q0 and no constituents
            formula = CountingFormula.of(shi_matrix(subset, k))
            collapse = formula.minimum_period < formula.period
            consistent = formula.minimum_period == 1 or collapse
            all_consistent = all_consistent and consistent
            rows.append(
                {
                    "excluded_root": list(root),
                    "k": k,
                    "lcm_period": formula.period,
                    "minimum_period": formula.minimum_period,
                    "collapse": collapse,
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
    _require_int("budget", args.budget, positive=True)
    arr = _load_arrangement(args.input)
    # The walk runs under WALK_BUDGET and q_zero under Q_ZERO_BUDGET; the walk
    # goes first, so a wide input stops there, before q_zero starts.
    counting = CountingFormula.of(arr)
    threshold = q_zero(arr)
    window = range(threshold + 1, threshold + args.q_window + 1)
    # --budget bounds the whole window: every grid is charged here, once,
    # before any count, and the window is counted uncharged
    _charge_point_tests(arr, window, args.budget, f"the window q={window[0]}..{window[-1]}")
    results = []
    ok = True
    for q, brute in zip(window, _count_window(arr, window)):
        formula = counting.count(q)
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
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="most point tests to run, q^m * n at each q")
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
    p.set_defaults(handler=_cmd_root_arrangement, builder=shi_matrix, param="k")

    p = subs.add_parser("linial",
                        help="extended Linial arrangement of a root subset")
    p.add_argument("--type", choices=ROOT_TYPES, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--exclude-root", default=None)
    _add_format(p)
    p.set_defaults(handler=_cmd_root_arrangement, builder=linial_matrix, param="n")

    p = subs.add_parser("scan-central",
                        help="randomized minimum-vs-lcm period scan on central input")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--entry-bound", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="most column subsets to offer, trials * (2^n - 1)")
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
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="most point tests in the whole window, q^m * n at each q")
    _add_format(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def _requested_format(argv: list[str]) -> str:
    """The last ``--format`` of a command line, read before parsing so that a
    parse error is reported in that format too.  Like argparse, it takes any
    prefix of ``--format`` from ``--f`` on, with the value after ``=`` or in
    the next token; no other option starts with ``--f``."""
    fmt = "text"
    for token, value in zip(argv, argv[1:] + [""]):
        name, eq, inline = token.partition("=")
        if len(name) >= 3 and "--format".startswith(name):
            fmt = inline if eq else value
    return "json" if fmt == "json" else "text"


def _join_exclude_root(argv: list[str]) -> list[str]:
    """``--exclude-root -1,1,1`` as ``--exclude-root=-1,1,1``: argparse takes
    a value that starts with ``-`` and a digit for an option, so it would
    never reach root validation.  Like argparse, it takes any prefix of
    ``--exclude-root`` from ``--e`` on, as ``_requested_format`` does."""
    out: list[str] = []
    for token in argv:
        name = out[-1] if out else ""
        if (len(name) >= 3 and "--exclude-root".startswith(name)
                and token[:1] == "-" and token[1:2].isdigit()):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _error_text(fmt: str, kind: str, exc: Exception) -> str:
    if fmt == "json":
        return json.dumps({"error": str(exc), "kind": kind})
    return f"error ({kind}): {exc}"


def _run(argv: list[str]) -> tuple[str, int]:
    """Standard output and exit code of one command line."""
    parser = _build_parser()
    fmt = _requested_format(argv)
    try:
        args = parser.parse_args(argv)
        fmt = getattr(args, "format", "text")
        payload, lines, code = args.handler(args)
    except ValidationError as exc:
        return _error_text(fmt, "validation", exc), 1
    except BudgetExceededError as exc:
        return _error_text(fmt, "budget", exc), 1
    except InternalConsistencyError as exc:
        return _error_text(fmt, "internal", exc), 2
    if fmt == "json":
        return json.dumps(payload), code
    return "\n".join(lines), code


def main(argv=None) -> int:
    argv = _join_exclude_root(sys.argv[1:] if argv is None else list(argv))
    out, code = _run(argv)
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed standard output (``qcp ... | head``).  Point it at
        # devnull so that the flush at exit cannot fail again, and exit 1 as
        # Python does on a broken pipe; see the ``signal`` module docs.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
