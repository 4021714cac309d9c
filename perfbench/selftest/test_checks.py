"""Self-test of the benchmark's checks and references.

Run from the repository root:

    python3 -m pytest perfbench/selftest -q

For the smallest operations of each workload, the real output must pass its
check and every corrupted copy of it must fail.  The reference counter and
the kind-A closed form are tested against plain enumeration.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

from perfbench import checks, reference as ref
from perfbench import workloads as wl


@pytest.fixture(scope="module")
def qcp_main():
    qcp, cli = wl.import_qcp()
    return qcp, cli.main


def pick(workload, label_prefix=""):
    """The workload's operation (seed 0) with the shortest label starting
    with ``label_prefix``, ready to run."""
    qcp, _ = wl.import_qcp()
    ops = [op for op in wl.make_ops(workload, 0, qcp.positive_roots)
           if op.label.startswith(label_prefix)]
    op = min(ops, key=lambda o: len(o.label))
    op.arrangements = wl.build_arrangements(qcp, op)
    if op.kind == "verify":
        op.params["path"].parent.mkdir(parents=True, exist_ok=True)
        op.params["path"].write_text(json.dumps(op.arrangements[0].to_json_dict()))
    return op


def run(qcp_main, op):
    qcp, main = qcp_main
    code, out = wl.run_cli(main, op.argv)
    assert code == 0, out
    return json.loads(out), wl.program_view(qcp, op)


def change_coefficient(payload):
    bad = copy.deepcopy(payload)
    coeffs = bad["report"]["quasi_polynomial"]["constituents"][-1]["coeffs"]
    coeffs[0] = str(int(coeffs[0]) + 1)
    return bad


def wrong_minimum_period(payload):
    bad = copy.deepcopy(payload)
    report = bad["report"]
    rho, minp = report["lcm_period"], report["minimum_period"]
    report["minimum_period"] = rho if minp != rho else (1 if rho > 1 else 2)
    report["collapse"] = report["minimum_period"] < rho
    return bad


def assert_checks(op, payload, program, corruptions):
    assert checks.check(op, payload, program) == []
    for corrupt in corruptions:
        assert checks.check(op, corrupt(payload), program), corrupt.__name__


REPORT_CORRUPTIONS = (change_coefficient, wrong_minimum_period)


@pytest.mark.parametrize("workload, prefix", [
    ("shi-deformations", "shi G2 k=2"),
    ("shi-deformations", "shi G2 k=2 -"),
    ("family-periods", "family A m=3 p=10"),
    ("family-periods", "family D"),
])
def test_report_checks(qcp_main, workload, prefix):
    op = pick(workload, prefix)
    payload, program = run(qcp_main, op)
    assert_checks(op, payload, program, REPORT_CORRUPTIONS)


def test_scan_check(qcp_main):
    op = pick("central-scan")
    payload, program = run(qcp_main, op)

    def add_violation(p):
        bad = copy.deepcopy(p)
        bad["violations"].append({"arrangement": {}, "lcm_period": 6, "minimum_period": 3})
        return bad

    def other_trial_count(p):
        return dict(p, trials=p["trials"] - 1)

    assert_checks(op, payload, program, (add_violation, other_trial_count))
    wrong_lcm = dict(program, lcm_periods=[2 * x for x in program["lcm_periods"]])
    assert checks.check(op, payload, wrong_lcm)


def test_verify_check(qcp_main):
    op = pick("verify-window")
    payload, program = run(qcp_main, op)

    def change_count(p):
        bad = copy.deepcopy(p)
        row = bad["results"][len(bad["results"]) // 2]
        row["formula"] = row["brute_force"] = row["brute_force"] + 1
        return bad

    def shift_q0(p):
        return dict(p, q0=p["q0"] + 1)

    def fail_row(p):
        bad = copy.deepcopy(p)
        bad["results"][0]["match"] = False
        return bad

    assert_checks(op, payload, program, (change_count, shift_q0, fail_row))


def test_counter_matches_plain_enumeration():
    rng = random.Random(5)
    for _ in range(40):
        m, n, q = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 9)
        cols = [tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(n)]
        cols = [c if any(c) else (1,) + c[1:] for c in cols]
        offs = [rng.randint(-5, 5) for _ in range(n)]
        assert ref.complement_count(cols, offs, q) == ref.complement_count_naive(cols, offs, q)


@pytest.mark.parametrize("m, p, s", [(1, 2, 2), (2, 4, 2), (3, 2, 1)])
def test_kind_a_closed_form_counts_points(m, p, s):
    cols, offs = ref.family_columns("A", m, p, s)
    q0 = ref.q_zero(cols, offs)
    for q in range(q0 + 1, q0 + 2 * p + 1):
        assert ref.kind_a_count(m, p, s, q) == ref.complement_count_naive(cols, offs, q)
