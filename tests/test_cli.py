"""End-to-end command-line behavior."""

import json

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


def test_conjecture_scan_subcommand(capsys):
    code, payload = run_json(
        capsys, "conjecture-scan", "--type", "B", "--rank", "2", "--k", "1"
    )
    assert code == 0
    assert len(payload["rows"]) == 4
    assert payload["all_consistent"] is True


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


def test_compute_walk_budget_exit_one(capsys, tmp_path, monkeypatch):
    from qcp import arrangement

    # central with 12 distinct columns: no rank jumps, 4,095 subsets offered
    cols = [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, -1),
            (1, 3), (3, 1), (2, 3), (3, 2), (1, -2), (2, -1)]
    arr = {"m": 2, "n": 12, "C": [[c[i] for c in cols] for i in range(2)], "b": [0] * 12}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(arr))
    monkeypatch.setattr(arrangement, "WALK_BUDGET", 1000)
    code, payload = run_json(capsys, "compute", "--input", str(path))
    assert code == 1
    assert payload["kind"] == "budget"
    assert "subset walk" in payload["error"]


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
