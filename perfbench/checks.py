"""Output checks: each compares one operation's JSON output with independent
computations (``reference``) or with properties the method must have.
None of them compares with a stored copy of an earlier output.

``check(op, payload, program)`` returns a list of error strings, empty when
the output is right.  ``program`` carries what the check needs from qcp
beyond the output itself: for a scan, the inputs qcp's generator drew and the
lcm period qcp computes for each.
"""

from __future__ import annotations

import json
from math import gcd

from . import reference as ref

GENERATOR = "python-random-mt19937"


def _constituents(report, m, errors):
    """The report's constituents as integer coefficient lists, after
    checking their shape and the report's own consistency."""
    qp = report["quasi_polynomial"]
    rho, minp = report["lcm_period"], report["minimum_period"]
    if qp["period"] != rho:
        errors.append(f"quasi-polynomial period {qp['period']} != lcm period {rho}")
    if [c["k"] for c in qp["constituents"]] != list(range(1, qp["period"] + 1)):
        errors.append("constituent classes are not 1..period")
        return []
    cons = [[int(x) for x in c["coeffs"]] for c in qp["constituents"]]
    for k, c in enumerate(cons, 1):
        if len(c) != m + 1 or c[-1] != 1:
            errors.append(f"class {k}: constituent is not monic of degree {m}")
            return []
    if rho % minp:
        errors.append(f"minimum period {minp} does not divide lcm period {rho}")
    if report["collapse"] != (minp < rho):
        errors.append("collapse flag disagrees with the periods")
    true_min = next(d for d in range(1, rho + 1)
                    if rho % d == 0 and all(cons[i] == cons[i % d] for i in range(rho)))
    if minp != true_min:
        errors.append(f"minimum period {minp}, but the constituents repeat with period {true_min}")
    by_gcd = {}
    gcd_ok = all(by_gcd.setdefault(gcd(k, rho), c) == c for k, c in enumerate(cons, 1))
    if report["gcd_property"] != gcd_ok:
        errors.append(f"gcd_property {report['gcd_property']}, constituents say {gcd_ok}")
    return cons


def _first_above(q0, k, rho):
    """Smallest q > q0 with q = k (mod rho)."""
    return q0 + 1 + (k - q0 - 1) % rho


def _columns(arrangement):
    cols = [tuple(col) for col in zip(*arrangement["C"])]
    return cols, list(arrangement["b"])


def check_shi(op, payload, program):
    errors = []
    p, report = op.params, payload["report"]
    echo = payload["shi"]
    excluded = list(p["excluded"]) if p["excluded"] is not None else None
    if (echo["type"], echo["rank"], echo["k"], echo["excluded_root"]) != (
            p["type"], p["rank"], p["k"], excluded):
        errors.append(f"shi echo {echo} does not match the request")
    cols, offs = _columns(payload["arrangement"])
    n_roots, h = ref.root_system_size(p["type"], p["rank"])
    k, ell = p["k"], p["rank"]
    by_root = {}
    for c, b in zip(cols, offs):
        by_root.setdefault(c, []).append(b)
    if len(by_root) != n_roots - (excluded is not None):
        errors.append(f"{len(by_root)} distinct roots, expected {n_roots - (excluded is not None)}")
    if any(sorted(bs) != list(range(1 - k, k + 1)) for bs in by_root.values()):
        errors.append(f"some root does not carry exactly the offsets {1 - k}..{k}")
    if excluded is not None and tuple(excluded) in by_root:
        errors.append(f"excluded root {excluded} is still present")
    cons = _constituents(report, ell, errors)
    if not cons:
        return errors
    if report["lcm_period"] != ref.lcm_period(list(by_root)):
        errors.append(f"lcm period {report['lcm_period']} != minors reference")
    if not report["gcd_property"]:
        errors.append("gcd property fails")
    if excluded is None:
        want = ref.linear_power(k * h, ell)
        if any(c != want for c in cons):
            errors.append(f"a constituent differs from (t - {k * h})^{ell}")
        if report["minimum_period"] != 1:
            errors.append(f"minimum period {report['minimum_period']}, expected 1")
    rho, q0 = report["lcm_period"], report["q0"]
    for cls, c in enumerate(cons, 1):
        q = _first_above(q0, cls, rho)
        got, want = ref.poly_eval(c, q), ref.complement_count(cols, offs, q)
        if got != want:
            errors.append(f"class {cls}: constituent gives {got} at q={q}, reference count {want}")
    return errors


def check_family(op, payload, program):
    errors = []
    p, report = op.params, payload["report"]
    if payload["family"] != {key: p[key] for key in ("kind", "m", "p", "s", "a")}:
        errors.append(f"family echo {payload['family']} does not match the request")
    cols, offs = _columns(payload["arrangement"])
    if (cols, offs) != ref.family_columns(p["kind"], p["m"], p["p"], p["s"], p["a"]):
        errors.append("echoed arrangement is not the family matrix")
    cons = _constituents(report, p["m"], errors)
    if not cons:
        return errors
    rho, q0 = report["lcm_period"], report["q0"]
    if p["kind"] == "A":
        if rho != p["p"]:
            errors.append(f"lcm period {rho}, expected p = {p['p']}")
        if report["minimum_period"] != p["s"]:
            errors.append(f"minimum period {report['minimum_period']}, expected s = {p['s']}")
        forms = {}
        for cls, c in enumerate(cons, 1):
            g = gcd(cls, p["s"])
            if c != forms.setdefault(g, ref.kind_a_constituent(p["m"], p["p"], g)):
                errors.append(f"class {cls}: constituent differs from the kind-A closed form")
        return errors
    want_rho = p["s"] * p["a"] // gcd(p["s"], p["a"])
    if rho != want_rho:
        errors.append(f"lcm period {rho}, expected lcm(s, a) = {want_rho}")
    for cls, c in enumerate(cons, 1):
        q = _first_above(q0, cls, rho)
        diff = ref.kind_a_count(p["m"], p["p"], p["s"], q) - ref.poly_eval(c, q)
        if diff != ref.aprime_difference(p["m"], p["p"], p["a"], q):
            errors.append(f"class {cls}: kind-A difference identity fails at q={q}")
    return errors


_lcm_cache: dict = {}


def check_scan(op, payload, program):
    errors = []
    p = op.params
    for key in ("trials", "seed"):
        if payload[key] != p[key]:
            errors.append(f"{key} echoed as {payload[key]}, requested {p[key]}")
    if payload["generator"] != GENERATOR:
        errors.append(f"generator {payload['generator']!r}, expected {GENERATOR!r}")
    if payload["violations"]:
        errors.append(f"{len(payload['violations'])} central arrangements collapse")
    drawn = ref.central_inputs(p["m"], p["n"], p["entry_bound"], p["trials"], p["seed"])
    if program["generated"] != drawn:
        errors.append("qcp's generator drew other inputs than the documented one")
    for cols, lcm in zip(drawn, program["lcm_periods"]):
        key = tuple(cols)
        if key not in _lcm_cache:
            _lcm_cache[key] = ref.lcm_period(cols)
        if lcm != _lcm_cache[key]:
            errors.append(f"lcm period {lcm} != minors reference {_lcm_cache[key]} on {cols}")
    return errors


_count_cache: dict = {}


def check_verify(op, payload, program):
    errors = []
    p = op.params
    cols, offs = _columns(json.loads(p["path"].read_text()))
    if (cols, offs) != ref.family_columns(p["kind"], p["m"], p["p"], p["s"], p["a"]):
        errors.append("input file is not the family matrix")
    q0 = ref.q_zero(cols, offs)
    if payload["q0"] != q0:
        errors.append(f"q0 {payload['q0']}, minors reference {q0}")
    rows = payload["results"]
    if payload["window"] != p["window"] or [r["q"] for r in rows] != list(
            range(q0 + 1, q0 + p["window"] + 1)):
        errors.append("rows do not cover the window above q0")
    if not payload["pass"]:
        errors.append("verify reports a failure")
    for r in rows:
        want = ref.kind_a_count(p["m"], p["p"], p["s"], r["q"])
        if not (r["match"] and r["formula"] == r["brute_force"] == want):
            errors.append(f"q={r['q']}: formula {r['formula']}, brute force {r['brute_force']}, "
                          f"closed form {want}")
    for r in rows[:: max(1, len(rows) // 3)]:
        key = (tuple(cols), tuple(offs), r["q"])
        if key not in _count_cache:
            _count_cache[key] = ref.complement_count(cols, offs, r["q"])
        if r["brute_force"] != _count_cache[key]:
            errors.append(f"q={r['q']}: brute force {r['brute_force']}, "
                          f"reference count {_count_cache[key]}")
    return errors


CHECKERS = {"shi": check_shi, "family": check_family, "scan": check_scan, "verify": check_verify}


def check(op, payload, program):
    """Errors found in one operation's parsed JSON output."""
    try:
        return CHECKERS[op.kind](op, payload, program)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]
