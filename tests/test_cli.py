"""End-to-end command-line behavior."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qcp
from qcp import (ArrangementInput, FamilyParams, RootSubset, collapse_report, family_matrix,
                 positive_roots, shi_matrix)
from qcp import cli as cli_module
from qcp import oracle as oracle_module
from qcp.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_family_subcommand_json(capsys):
    code, payload = run_json(
        capsys, "family", "--kind", "A", "--m", "2", "--p", "4", "--s", "2"
    )
    assert code == 0
    assert payload["report"]["lcm_period"] == 4
    assert payload["report"]["minimum_period"] == 2
    assert payload["report"]["collapse"] is True
    assert payload["arrangement"]["m"] == 2
    assert payload["arrangement"]["n"] == 6


def test_family_round_trip_through_compute(capsys, tmp_path):
    code, payload = run_json(
        capsys, "family", "--kind", "A", "--m", "1", "--p", "2", "--s", "2"
    )
    assert code == 0
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(payload["arrangement"]))
    code, recomputed = run_json(capsys, "compute", "--input", str(path))
    assert code == 0
    assert recomputed["report"] == payload["report"]
    assert recomputed["arrangement"] == payload["arrangement"]


def test_oracle_subcommand(capsys, tmp_path):
    arr = {"m": 2, "n": 4, "C": [[1, 0, 1, 1], [0, 1, 2, 2]], "b": [0, 0, 1, 2]}
    path = tmp_path / "d222.json"
    path.write_text(json.dumps(arr))
    code, payload = run_json(capsys, "oracle", "--input", str(path), "--q", "4")
    assert code == 0
    assert payload["count"] == 5


def test_shi_subcommand_with_excluded_root(capsys):
    code, payload = run_json(
        capsys, "shi", "--type", "B", "--rank", "2", "--k", "1",
        "--exclude-root", "1,0",
    )
    assert code == 0
    assert payload["report"]["lcm_period"] == 2
    assert payload["report"]["minimum_period"] == 1
    assert payload["report"]["collapse"] is True
    assert payload["shi"]["excluded_root"] == [1, 0]


@pytest.mark.parametrize("text", ["0_1,0", "1, 0", "+1,0", "１,0", "1,0,", "1,,0", ""])
def test_exclude_root_rejects_text_int_would_coerce(capsys, text):
    # int() reads "0_1", " 0", "+1" and "１" as integers, so the first four
    # would name root (1, 0)
    code, payload = run_json(
        capsys, "shi", "--type", "B", "--rank", "2", "--k", "1", f"--exclude-root={text}"
    )
    assert code == 1
    assert payload["kind"] == "validation"
    assert "--exclude-root expects comma-separated integers" in payload["error"]


def test_exclude_root_reads_negative_entries(capsys):
    # parsed as integers, then refused by the library as no positive root
    code, payload = run_json(
        capsys, "shi", "--type", "B", "--rank", "3", "--k", "1", "--exclude-root=-1,1,1"
    )
    assert code == 1
    assert payload["kind"] == "validation"
    assert "(-1, 1, 1) is not a positive root of B3" in payload["error"]


@pytest.mark.parametrize("command,param", [("shi", "--k"), ("linial", "--n")])
def test_exclude_root_takes_negative_value_after_space(capsys, command, param):
    # argparse alone reads "-1,1,1" as a second option with no value; like
    # argparse, the join takes any prefix of --exclude-root from --e on
    for option in ("--exclude-root", "--excl", "--e"):
        code, payload = run_json(
            capsys, command, "--type", "A", "--rank", "3", param, "1", option, "-1,1,1"
        )
        assert code == 1
        assert payload == {"error": "(-1, 1, 1) is not a positive root of A3",
                           "kind": "validation"}
        code, payload = run_json(
            capsys, command, "--type", "A", "--rank", "3", param, "1", option
        )
        assert code == 1
        assert "--exclude-root: expected one argument" in payload["error"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (("compute", "--format", "json"), "the following arguments are required: --input"),
        (("compute", "--format=json"), "the following arguments are required: --input"),
        (("family", "--kind", "A", "--m", "2", "--p", "x", "--format", "json"),
         "argument --p: invalid int value: 'x'"),
        # argparse takes an unambiguous prefix of --format, so the reader must too
        (("compute", "--form", "json"), "the following arguments are required: --input"),
        (("compute", "--fo=json"), "the following arguments are required: --input"),
    ],
    ids=["missing-input", "missing-input-equals-form", "bad-int", "abbreviated",
         "abbreviated-equals-form"],
)
def test_parse_errors_follow_format_json(capsys, argv, message):
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {"error": message, "kind": "validation"}


def test_import_loads_no_numpy_fractions_or_decimal():
    # numpy waits for the first brute-force count; the test-only oracles that
    # used fractions and decimal live in the tests; the value classes are
    # plain classes, not dataclasses.  -S keeps site hooks from preloading any.
    src = str(Path(qcp.__file__).resolve().parents[1])
    unwanted = {"numpy", "fractions", "decimal", "dataclasses", "inspect", "typing"}
    probe = f"import sys, qcp, qcp.cli; print(sorted({unwanted!r} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"


def test_closed_stdout_exits_1_without_traceback():
    # about 123 KB of JSON, more than a pipe holds, so the write meets the
    # closed pipe
    src = str(Path(qcp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["family", "--kind", "Aprime", "--m", "2", "--p", "3", "--s", "3",
            "--a", "997", "--format", "json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "qcp", *argv], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(80)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert head.startswith(b'{"arrangement": ')
    assert stderr == b""


def test_linial_subcommand(capsys):
    code, payload = run_json(
        capsys, "linial", "--type", "B", "--rank", "2", "--n", "2"
    )
    assert code == 0
    # even staircase height: the two constituents coincide
    assert payload["report"]["minimum_period"] == 1


def test_scan_central_subcommand(capsys):
    code, payload = run_json(
        capsys, "scan-central", "--m", "2", "--n", "3", "--entry-bound", "4",
        "--trials", "25", "--seed", "11",
    )
    assert code == 0
    assert payload["trials"] == 25
    assert payload["violations"] == []
    assert payload["seed"] == 11
    assert payload["generator"]


def test_scan_central_collapse_exits_internal(capsys, monkeypatch):
    from qcp import arrangement

    # every formula's minimum period becomes 1: the first draw with rho > 1 stops the scan
    monkeypatch.setattr(arrangement, "_indicator_weights", lambda pairs, spent: {1: 1})
    code, payload = run_json(
        capsys, "scan-central", "--m", "3", "--n", "6", "--entry-bound", "5",
        "--trials", "60", "--seed", "1",
    )
    assert code == 2
    assert payload["kind"] == "internal"
    assert re.search(r"central arrangement \{'m': 3, 'n': 6, .* collapses", payload["error"])


def test_compute_central_collapse_exits_internal(capsys, tmp_path, monkeypatch):
    from qcp import arrangement

    monkeypatch.setattr(arrangement, "_indicator_weights", lambda pairs, spent: {1: 1})
    path = tmp_path / "central.json"
    path.write_text(json.dumps({"m": 1, "n": 1, "C": [[2]], "b": [0]}))
    code, payload = run_json(capsys, "compute", "--input", str(path))
    assert code == 2
    assert payload == {
        "error": "central arrangement {'m': 1, 'n': 1, 'C': [[2]], 'b': [0]} collapses: "
                 "minimum period 1, lcm period 2",
        "kind": "internal",
    }


def test_scan_central_with_large_entries_finishes(capsys):
    # each draw's whole-matrix Smith form once grew its entries without bound
    code, payload = run_json(
        capsys, "scan-central", "--m", "3", "--n", "6", "--entry-bound", "1000",
        "--trials", "60", "--seed", "1",
    )
    assert code == 0
    assert payload["violations"] == []


def test_factoring_past_its_budget_exits_budget(capsys, tmp_path):
    # two primes near 10^11: factoring their product takes about 10^11 divisions
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"m": 2, "n": 2, "C": [[100000000003, 0], [0, 100000000019]],
                                "b": [0, 0]}))
    scan = ["scan-central", "--m", "3", "--n", "6", "--entry-bound", "1000000", "--trials", "1",
            "--seed", "1"]
    for command in (scan, ["compute", "--input", str(path)]):
        code, payload = run_json(capsys, *command)
        assert code == 1
        assert payload["kind"] == "budget"
        assert "by trial division tried 10000001 divisors" in payload["error"]


@pytest.mark.parametrize("n, kind", [("1000000000000000000", "budget"), ("-1", "validation")])
def test_scan_central_refuses_huge_or_negative_n(capsys, n, kind):
    # 2^n is never built: its bit length alone puts 10^18 over the budget
    code, payload = run_json(
        capsys, "scan-central", "--m", "2", "--n", n, "--entry-bound", "2",
        "--trials", "1", "--seed", "1",
    )
    assert code == 1
    assert payload["kind"] == kind


def test_conjecture_scan_subcommand(capsys):
    code, payload = run_json(
        capsys, "conjecture-scan", "--type", "B", "--rank", "2", "--k", "1"
    )
    assert code == 0
    assert len(payload["rows"]) == 4
    assert payload["all_consistent"] is True


@pytest.mark.parametrize("k", ["0", "-2"])
def test_conjecture_scan_rejects_empty_k_range(capsys, k):
    # a scan of no k checks no row, so it may not report them all consistent
    argv = ("conjecture-scan", "--type", "A", "--rank", "3", "--k", k)
    code, payload = run_json(capsys, *argv)
    assert code == 1
    assert payload == {"error": f"--k must be at least 1, got {k}", "kind": "validation"}
    code, out = run(capsys, *argv)
    assert code == 1
    assert out == f"error (validation): --k must be at least 1, got {k}\n"


@pytest.mark.parametrize("type_tag", ["G2", "B"])
def test_conjecture_scan_needs_no_q0_and_no_constituents(capsys, monkeypatch, type_tag):
    from qcp import arrangement, cli

    system = positive_roots(type_tag, 2)
    expected = []
    for root in system.positive_roots:
        for k in (1, 2):
            report = collapse_report(shi_matrix(RootSubset.excluding(system, root), k))
            expected.append({
                "excluded_root": list(root),
                "k": k,
                "lcm_period": report.lcm_period,
                "minimum_period": report.minimum_period,
                "collapse": report.collapse,
                "consistent": report.minimum_period == 1 or report.collapse,
            })

    def boom(*args):
        raise RuntimeError("conjecture-scan prints neither q0 nor constituents")

    monkeypatch.setattr(arrangement, "q_zero", boom)
    monkeypatch.setattr(cli, "q_zero", boom)
    monkeypatch.setattr(arrangement.CountingFormula, "quasi_polynomial", boom)
    code, payload = run_json(
        capsys, "conjecture-scan", "--type", type_tag, "--rank", "2", "--k", "2"
    )
    assert code == 0
    assert payload["rows"] == expected
    assert payload["all_consistent"] is all(row["consistent"] for row in expected)


def test_verify_subcommand_passes(capsys, tmp_path):
    arr = {"m": 1, "n": 3, "C": [[2, 2, 2]], "b": [0, 1, 2]}
    path = tmp_path / "a122.json"
    path.write_text(json.dumps(arr))
    code, payload = run_json(
        capsys, "verify", "--input", str(path), "--q-window", "8"
    )
    assert code == 0
    assert payload["pass"] is True
    assert payload["q0"] == 2
    assert [row["q"] for row in payload["results"]] == list(range(3, 11))
    assert all(row["match"] for row in payload["results"])


def test_verify_rejects_empty_window(capsys, tmp_path):
    path = tmp_path / "a122.json"
    path.write_text(json.dumps({"m": 1, "n": 3, "C": [[2, 2, 2]], "b": [0, 1, 2]}))
    for window in ("0", "-3"):
        code, payload = run_json(
            capsys, "verify", "--input", str(path), "--q-window", window
        )
        assert code == 1
        assert payload["kind"] == "validation"
        assert "--q-window" in payload["error"]


def test_verify_budget_bounds_the_whole_window(capsys, tmp_path):
    # q0 = 2, so the window is q = 3, 4, 5 at 3q point tests each: every
    # grid fits a budget of 15, their total of 36 does not
    path = tmp_path / "a122.json"
    path.write_text(json.dumps({"m": 1, "n": 3, "C": [[2, 2, 2]], "b": [0, 1, 2]}))
    argv = ["verify", "--input", str(path), "--q-window", "3"]
    code, payload = run_json(capsys, *argv, "--budget", "36")
    assert code == 0
    assert payload["pass"] is True
    code, payload = run_json(capsys, *argv, "--budget", "15")
    assert code == 1
    assert payload["kind"] == "budget"
    assert "q=3..5" in payload["error"]
    assert "budget of 15" in payload["error"]


def test_verify_charges_its_window_once(capsys, tmp_path, count_calls):
    # the whole window is charged up front, and no count charges its q again
    path = tmp_path / "a122.json"
    path.write_text(json.dumps({"m": 1, "n": 3, "C": [[2, 2, 2]], "b": [0, 1, 2]}))
    calls = count_calls(cli_module, "_charge_point_tests")
    count_calls(oracle_module, "_charge_point_tests")
    code, payload = run_json(capsys, "verify", "--input", str(path), "--q-window", "8")
    assert code == 0
    assert len(payload["results"]) == 8
    assert calls == {"_charge_point_tests": 1}


def test_text_and_json_numeric_parity(capsys):
    code, payload = run_json(
        capsys, "family", "--kind", "A", "--m", "2", "--p", "4", "--s", "2"
    )
    assert code == 0
    code, text = run(capsys, "family", "--kind", "A", "--m", "2", "--p", "4", "--s", "2")
    assert code == 0
    report = payload["report"]
    assert f"lcm period: {report['lcm_period']}" in text
    assert f"minimum period: {report['minimum_period']}" in text
    assert f"q0: {report['q0']}" in text
    assert "period collapse: yes" in text


def test_report_with_shared_constituents_round_trips(capsys):
    # lcm period 2991 = 3 * 997, so thousands of classes share a few
    # constituents and, in the JSON, their coefficient lists
    argv = ("family", "--kind", "Aprime", "--m", "2", "--p", "3", "--s", "3", "--a", "997")
    code, payload = run_json(capsys, *argv)
    assert code == 0
    assert payload["report"]["lcm_period"] == 2991
    report = collapse_report(ArrangementInput.from_json_dict(payload["arrangement"]))
    assert payload["report"] == report.to_json_dict()
    code, text = run(capsys, *argv)
    assert code == 0
    lines = text.splitlines()
    classes = [line for line in lines if line.startswith("  k=")]
    assert len(classes) == 2991
    assert classes[0] == f"  k=1: {report.quasi_polynomial.constituent_for_class(1)}"
    assert classes[-1] == f"  k=2991: {report.quasi_polynomial.constituent_for_class(2991)}"


def test_validation_errors_exit_one(capsys, tmp_path):
    code, out = run(capsys, "family", "--kind", "A", "--m", "1", "--p", "3", "--s", "2")
    assert code == 1
    assert "error (validation)" in out

    missing = tmp_path / "missing.json"
    code, out = run(capsys, "compute", "--input", str(missing))
    assert code == 1

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run(capsys, "compute", "--input", str(bad))
    assert code == 1

    code, out = run(capsys, "family", "--kind", "Z", "--m", "1", "--p", "1")
    assert code == 1


def test_validation_error_json_shape(capsys):
    code, payload = run_json(capsys, "shi", "--type", "B", "--rank", "2", "--k", "0")
    assert code == 1
    assert payload["kind"] == "validation"
    assert "k >= 1" in payload["error"]


def test_internal_error_exit_two(capsys, monkeypatch):
    from qcp import cli
    from qcp.errors import InternalConsistencyError

    def boom(arr):
        raise InternalConsistencyError("holdout sample mismatch (synthetic)")

    monkeypatch.setattr(cli, "collapse_report", boom)
    code, out = run(capsys, "family", "--kind", "A", "--m", "1", "--p", "1", "--s", "1")
    assert code == 2
    assert "error (internal)" in out


def test_budget_error_exit_one(capsys, tmp_path):
    arr = {"m": 2, "n": 1, "C": [[1], [1]], "b": [0]}
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(arr))
    code, out = run(
        capsys, "oracle", "--input", str(path), "--q", "100", "--budget", "10"
    )
    assert code == 1
    assert "error (budget)" in out
    code, payload = run_json(
        capsys, "oracle", "--input", str(path), "--q", "100", "--budget", "10"
    )
    assert code == 1
    assert payload["kind"] == "budget"
    assert "budget of 10" in payload["error"]


@pytest.mark.parametrize("argv", [
    ("oracle", "--q", "3", "--budget", "0"),
    ("verify", "--q-window", "2", "--budget", "-1"),
    ("verify", "--q-window", "2", "--budget", "0"),
    ("scan-central", "--m", "2", "--n", "3", "--entry-bound", "2", "--trials", "0",
     "--seed", "1", "--budget", "-5"),
    ("scan-central", "--m", "2", "--n", "3", "--entry-bound", "2", "--trials", "0",
     "--seed", "1", "--budget", "0"),
], ids=lambda argv: " ".join(argv))
def test_budget_below_one_is_invalid(capsys, tmp_path, monkeypatch, argv):
    from qcp import cli

    # a budget that allows no work is bad input, not an exhausted budget, and
    # is refused before any work: q_zero alone takes about half a second here
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(family_matrix(FamilyParams("A", 3, 40, 20)).to_json_dict()))

    def boom(*args):
        raise AssertionError("ran the walk or q_zero before checking --budget")

    monkeypatch.setattr(cli.CountingFormula, "of", boom)
    monkeypatch.setattr(cli, "q_zero", boom)
    if argv[0] != "scan-central":
        argv = (argv[0], "--input", str(path), *argv[1:])
    code, payload = run_json(capsys, *argv)
    assert code == 1
    assert payload["kind"] == "validation"
    assert "budget must be a positive integer" in payload["error"]


def test_compute_walk_budget_exit_one(capsys, tmp_path, monkeypatch):
    from qcp import arrangement

    # central with 12 distinct columns: no rank jumps, and every 2 x 2 minor
    # is even unless it uses (1, 3), the last class, so no class set reaches
    # the whole matrix's divisors before its last class joins and the walk
    # offers all 4,095 subsets
    cols = [(1, 2 * i) for i in range(11)] + [(1, 3)]
    arr = {"m": 2, "n": 12, "C": [[c[i] for c in cols] for i in range(2)], "b": [0] * 12}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(arr))
    monkeypatch.setattr(arrangement, "WALK_BUDGET", 1000)
    code, payload = run_json(capsys, "compute", "--input", str(path))
    assert code == 1
    assert payload["kind"] == "budget"
    assert "subset walk" in payload["error"]


def test_verify_walk_budget_stops_before_q_zero(capsys, tmp_path, monkeypatch):
    from qcp import arrangement, cli

    # non-central, so q_zero would search its subsets under its own budget;
    # the walk's budget stops the command first
    cols = [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, -1),
            (1, 3), (3, 1), (2, 3), (3, 2), (1, -2), (2, -1)]
    arr = {"m": 2, "n": 12, "C": [[c[i] for c in cols] for i in range(2)], "b": list(range(12))}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(arr))
    monkeypatch.setattr(arrangement, "WALK_BUDGET", 50)
    calls = []

    def spy(arg):
        calls.append(arg)
        return arrangement.q_zero(arg)

    monkeypatch.setattr(cli, "q_zero", spy)
    code, payload = run_json(capsys, "verify", "--input", str(path), "--q-window", "1")
    assert code == 1
    assert payload["kind"] == "budget"
    assert "subset walk" in payload["error"]
    assert calls == []


def test_shi_q_zero_budget_exit_one(capsys, monkeypatch):
    from qcp import arrangement

    # the walk fits its budget; q_zero offers more than 20 stacked subsets
    monkeypatch.setattr(arrangement, "Q_ZERO_BUDGET", 20)
    code, payload = run_json(capsys, "shi", "--type", "A", "--rank", "2", "--k", "1")
    assert code == 1
    assert payload["kind"] == "budget"
    assert "q_zero" in payload["error"]


WIDE = {
    "shi-rank": ("shi", "--type", "A", "--rank", "100000", "--k", "1"),
    "linial-n": ("linial", "--type", "A", "--rank", "2", "--n", "1000000000"),
    "family-m": ("family", "--kind", "A", "--m", "20000", "--p", "2"),
    "shi-k": ("shi", "--type", "A", "--rank", "2", "--k", "1000000"),
    "conjecture-scan-rank": ("conjecture-scan", "--type", "B", "--rank", "2000", "--k", "1"),
}


@pytest.mark.parametrize("argv", WIDE.values(), ids=WIDE.keys())
def test_wide_arrangements_refused_before_building(capsys, monkeypatch, argv):
    from qcp import cli

    # the walk's lower bound from the parameters alone passes WALK_BUDGET, so
    # neither the roots nor the arrangement may be built
    def never(*args):
        raise AssertionError("built an arrangement past the walk's budget")

    monkeypatch.setattr(cli, "positive_roots", never)
    monkeypatch.setattr(cli, "family_matrix", never)
    code, payload = run_json(capsys, *argv)
    assert code == 1
    assert payload["kind"] == "budget"
    assert "would offer at least" in payload["error"]


NARROW = [
    ("shi", "--type", "A", "--rank", "2", "--k", "1"),
    ("shi", "--type", "A", "--rank", "3", "--k", "1", "--exclude-root", "1,1,0"),
    ("shi", "--type", "B", "--rank", "2", "--k", "2"),
    ("shi", "--type", "C", "--rank", "3", "--k", "1"),
    ("shi", "--type", "D", "--rank", "4", "--k", "1"),
    ("shi", "--type", "G2", "--rank", "2", "--k", "2", "--exclude-root", "1,1"),
    ("shi", "--type", "B", "--rank", "1", "--k", "3"),
    ("linial", "--type", "A", "--rank", "3", "--n", "2"),
    ("linial", "--type", "G2", "--rank", "2", "--n", "1"),
    ("conjecture-scan", "--type", "B", "--rank", "3", "--k", "1"),
    ("conjecture-scan", "--type", "A", "--rank", "2", "--k", "2"),
    ("family", "--kind", "A", "--m", "3", "--p", "4", "--s", "2"),
    ("family", "--kind", "B", "--m", "2", "--p", "3"),
    ("family", "--kind", "Aprime", "--m", "2", "--p", "3", "--s", "3", "--a", "7"),
    ("family", "--kind", "D", "--m", "1", "--p", "3", "--a", "5"),
    ("family", "--kind", "A", "--m", "1", "--p", "2", "--s", "2"),
]


@pytest.mark.parametrize("argv", NARROW, ids=lambda argv: " ".join(argv))
def test_walk_offers_at_least_the_up_front_bound(capsys, monkeypatch, argv):
    from qcp import arrangement, cli

    # the bound the command refuses on, read off its refusal at a budget of 0
    monkeypatch.setattr(cli, "WALK_BUDGET", 0)
    code, payload = run_json(capsys, *argv)
    assert code == 1
    least = int(re.search(r"at least (\d+) column subsets", payload["error"])[1])
    assert least > 0
    # with that bound allowed up front, the walk itself stops one short of it
    monkeypatch.setattr(cli, "WALK_BUDGET", least)
    monkeypatch.setattr(arrangement, "WALK_BUDGET", least - 1)
    code, payload = run_json(capsys, *argv)
    assert code == 1
    assert payload["kind"] == "budget"
    assert "subset walk offered more than" in payload["error"]


def test_compute_rejects_non_integer_entries(capsys, tmp_path):
    # neither 1.9 nor "2" nor true nor 0.5 may be coerced to an integer
    arr = {"m": 1, "n": 2, "C": [[1.9, "2"]], "b": [True, 0.5]}
    path = tmp_path / "coerced.json"
    path.write_text(json.dumps(arr))
    code, payload = run_json(capsys, "compute", "--input", str(path))
    assert code == 1
    assert payload["kind"] == "validation"


def test_compute_refuses_unmaterializable_period(capsys, tmp_path):
    arr = {"m": 1, "n": 3, "C": [[251, 257, 263]], "b": [0, 0, 0]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(arr))
    code, out = run(capsys, "compute", "--input", str(path))
    assert code == 1
    assert "materialization budget" in out
