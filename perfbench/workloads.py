"""The benchmark's workloads: operations derived from a seed, and set-up.

An operation is one ``qcp`` command line run in-process through
``qcp.cli.main`` with ``--format json``.  The seed picks parameters that
change the input but not its cost (a divisor s of p, a deleted root among
roots of one system, the seed of a random scan, the order of operations), so
runs with different seeds stay comparable.  The large inputs are fixed, which
keeps the slowest operation of a workload the same in every run.

Importing this module does not import qcp: ``setup`` does, and its time is
the ``setup_s`` metric.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("shi-deformations", "family-periods", "central-scan", "verify-window")

# Passes are kept near 1.5 s so that a run times every operation a dozen
# times or more: on a shared machine single timings spread by 10-40%, and
# only the median of many samples is steady.
#
# Shi: full arrangements, plus one seed-chosen root deleted from A3 (k=2) and
# from G2 (k=2); neither deletion's cost depends much on the root.  The full
# G2 k=2 arrangement (15,624 subsets offered, almost all with a rank jump) is
# the slowest operation, the G2 deletion the median one.
SHI_FULL = (("G2", 2, 2), ("A", 3, 1), ("G2", 2, 1))
SHI_DELETED = (("A", 3, 2), ("G2", 2, 2))

SCAN_OPS = 5
SCAN_SHAPE = {"m": 3, "n": 6, "entry_bound": 5, "trials": 60}

# m = 2 keeps each brute-force grid under 0.5 MB.  With m = 3, p = 6 the
# grids reach 8 MB, and repeated calls on one window spread by 10% (CV).
VERIFY_OPS = 4
VERIFY_FAMILY = {"m": 2, "p": 10}
VERIFY_WINDOW = 120


# The machine-speed probe (calibrate.py) each workload's timings are scaled
# by: verify-window spends its time in numpy, the others in pure Python.
PROBE_KIND = {"shi-deformations": "python", "family-periods": "python",
              "central-scan": "python", "verify-window": "numpy"}


@dataclass
class Op:
    """One CLI call.  ``params`` say what the command asks for; the
    arrangements are built by qcp's builders during set-up."""

    kind: str
    label: str
    argv: list
    params: dict
    arrangements: list = field(default_factory=list)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _shi_op(type_tag, rank, k, excluded=None):
    argv = ["shi", "--type", type_tag, "--rank", str(rank), "--k", str(k)]
    label = f"shi {type_tag if type_tag == 'G2' else f'{type_tag}{rank}'} k={k}"
    if excluded is not None:
        argv += ["--exclude-root", ",".join(map(str, excluded))]
        label += " -" + ",".join(map(str, excluded))
    return Op("shi", label, argv, {"type": type_tag, "rank": rank, "k": k, "excluded": excluded})


def _family_op(kind, m, p, s=1, a=1):
    argv = ["family", "--kind", kind, "--m", str(m), "--p", str(p), "--s", str(s), "--a", str(a)]
    return Op("family", f"family {kind} m={m} p={p} s={s} a={a}", argv,
              {"kind": kind, "m": m, "p": p, "s": s, "a": a})


def _scan_op(seed):
    sh = SCAN_SHAPE
    argv = ["scan-central", "--m", str(sh["m"]), "--n", str(sh["n"]),
            "--entry-bound", str(sh["entry_bound"]), "--trials", str(sh["trials"]),
            "--seed", str(seed)]
    return Op("scan", f"scan-central seed={seed}", argv, dict(sh, seed=seed))


def _verify_op(s, window):
    m, p = VERIFY_FAMILY["m"], VERIFY_FAMILY["p"]
    path = OUT_DIR / "inputs" / f"family-A-m{m}-p{p}-s{s}.json"
    argv = ["verify", "--input", str(path), "--q-window", str(window)]
    return Op("verify", f"verify A m={m} p={p} s={s} window={window}", argv,
              {"kind": "A", "m": m, "p": p, "s": s, "a": 1, "window": window, "path": path})


def make_ops(workload, seed, positive_roots):
    """The operations of one pass, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "shi-deformations":
        ops = [_shi_op(*spec) for spec in SHI_FULL]
        for type_tag, rank, k in SHI_DELETED:
            root = rng.choice(positive_roots(type_tag, rank).positive_roots)
            ops.append(_shi_op(type_tag, rank, k, root))
    elif workload == "family-periods":
        # Kind A cost does not depend on s, nor Aprime/D cost on small p.
        # Aprime with a = 997 (rho = 2991) is the slowest; D is the median.
        ops = [
            _family_op("Aprime", 2, rng.choice((3, 4, 5)), 3, 997),
            _family_op("A", 3, 24, rng.choice(_divisors(24))),
            _family_op("D", 2, rng.choice((3, 4, 5)), 1, 1009),
            _family_op("A", 2, 20, rng.choice(_divisors(20))),
            _family_op("A", 3, 10, rng.choice(_divisors(10))),
        ]
    elif workload == "central-scan":
        ops = [_scan_op(rng.randrange(1 << 31)) for _ in range(SCAN_OPS)]
    elif workload == "verify-window":
        ops = [_verify_op(rng.choice(_divisors(VERIFY_FAMILY["p"])), VERIFY_WINDOW)
               for _ in range(VERIFY_OPS)]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(ops)
    return ops


def _warmup_argv(workload):
    """A tiny, untimed call of the workload's subcommand."""
    if workload == "shi-deformations":
        return ["shi", "--type", "A", "--rank", "2", "--k", "1"]
    if workload == "family-periods":
        return ["family", "--kind", "A", "--m", "2", "--p", "2", "--s", "1"]
    if workload == "central-scan":
        return ["scan-central", "--m", "2", "--n", "3", "--entry-bound", "2",
                "--trials", "2", "--seed", "0"]
    return ["verify", "--input", str(OUT_DIR / "inputs" / "warmup.json"), "--q-window", "2"]


def import_qcp():
    """Import qcp from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "qcp" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no qcp sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    qcp = importlib.import_module("qcp")
    cli = importlib.import_module("qcp.cli")
    if SRC not in Path(qcp.__file__).resolve().parents:
        raise SystemExit(f"perfbench: qcp was imported from {qcp.__file__}, not from {SRC}")
    return qcp, cli


def run_cli(main, argv):
    """(exit code, stdout) of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv) + ["--format", "json"])
    return code, buf.getvalue()


def build_arrangements(qcp, op):
    """The arrangements an operation works on, from qcp's own builders."""
    p = op.params
    if op.kind == "shi":
        system = qcp.positive_roots(p["type"], p["rank"])
        subset = (qcp.RootSubset.full(system) if p["excluded"] is None
                  else qcp.RootSubset.excluding(system, p["excluded"]))
        return [qcp.shi_matrix(subset, p["k"])]
    if op.kind == "scan":
        return qcp.generate_central_inputs(p["m"], p["n"], p["entry_bound"], p["trials"], p["seed"])
    params = qcp.FamilyParams(kind=p["kind"], m=p["m"], p=p["p"], s=p["s"], a=p["a"])
    return [qcp.family_matrix(params)]


def program_view(qcp, op):
    """What a check needs from qcp beyond the output: for a scan, the
    inputs qcp's generator drew and qcp's lcm period of each."""
    if op.kind != "scan":
        return {}
    return {
        "generated": [[tuple(c) for c in arr.cmatrix.columns()] for arr in op.arrangements],
        "lcm_periods": [qcp.lcm_period(arr.cmatrix) for arr in op.arrangements],
    }


def setup(workload, seed):
    """Import qcp, build every operation's arrangements, write the input
    files, and make one untimed warm-up call.  Returns (seconds, ops, main)."""
    t0 = time.perf_counter()
    qcp, cli = import_qcp()
    ops = make_ops(workload, seed, qcp.positive_roots)
    for op in ops:
        op.arrangements = build_arrangements(qcp, op)
    if workload == "verify-window":
        (OUT_DIR / "inputs").mkdir(parents=True, exist_ok=True)
        for op in ops:
            op.params["path"].write_text(json.dumps(op.arrangements[0].to_json_dict()))
        tiny = qcp.family_matrix(qcp.FamilyParams(kind="A", m=2, p=2, s=1))
        (OUT_DIR / "inputs" / "warmup.json").write_text(json.dumps(tiny.to_json_dict()))
    code, out = run_cli(cli.main, _warmup_argv(workload))
    if code != 0:
        raise SystemExit(f"perfbench: warm-up call failed with exit code {code}: {out.strip()}")
    return time.perf_counter() - t0, ops, cli.main
