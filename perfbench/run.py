#!/usr/bin/env python3
"""Benchmark for qcp: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each operation is one in-process ``qcp.cli.main(argv)`` call with
``--format json``, started with every qcp cache empty.  A run repeats whole
passes over the workload's operations for about S seconds, checks every
output (see checks.py), and prints the metrics by name and unit, then, as
its last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs rounds of an untraced pass, a traced pass and a per-layer pass
(layers.py) and reports the per-layer metrics.  ``--workload all`` runs every
workload with both settings, each in its own process.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import calibrate, checks, layers  # noqa: E402
from perfbench import workloads as wl  # noqa: E402

# set-up runs this many times per run: once here, the rest in child processes
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_max_s": "s",
                    "peak_rss_mib": "MiB"}


def scaled_setup(workload, seed):
    """(set-up seconds at the reference speed, ops, main) of this process."""
    seconds, ops, main = wl.setup(workload, seed)
    probe_s = statistics.median(calibrate.probe() for _ in range(3))
    return seconds * calibrate.scale(probe_s), ops, main


def probe_setup(workload, seed):
    """Set-up seconds of one fresh process at the reference speed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=wl.ROOT, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def run_pass(ops, main, modules, kind, library=None):
    """Run every operation once.  Returns one (seconds, exit code, stdout,
    library seconds, probe seconds) per operation; library seconds are
    counted only when ``library`` holds the totals of wrapped library
    functions.  The machine-speed probe runs just before each operation."""
    rows = []
    for op in ops:
        layers.clear_caches(modules)
        gc.collect()
        probe_s = calibrate.probe(kind)
        before = sum(library.values()) if library is not None else 0.0
        t0 = time.perf_counter()
        try:
            code, out = wl.run_cli(main, op.argv)
        except Exception as exc:  # a crash is a failed operation, not a stopped run
            code, out = None, repr(exc)
        elapsed = time.perf_counter() - t0
        lib = sum(library.values()) - before if library is not None else 0.0
        rows.append((elapsed, code, out, lib, probe_s))
    return rows


def verify_outputs(ops, passes, qcp):
    """Check the first successful output of each operation against the
    references; every later output must be identical to it."""
    errors = []
    for i, op in enumerate(ops):
        outs = [p[i][2] for p in passes if p[i][1] == 0]
        if not outs:
            continue
        program = wl.program_view(qcp, op)
        try:
            payload = json.loads(outs[0])
        except json.JSONDecodeError as exc:
            errors.append(f"{op.label}: output is not JSON: {exc}")
            continue
        errors += [f"{op.label}: {e}" for e in checks.check(op, payload, program)]
        if any(out != outs[0] for out in outs[1:]):
            errors.append(f"{op.label}: output changed between passes")
    return errors


def measure(ops, main, qcp, seconds, trace, kind):
    """Whole rounds until about ``seconds`` have passed.  A round is one
    untraced pass, plus a traced pass and a per-layer pass when tracing."""
    modules = [m for name, m in sys.modules.items() if name == "qcp" or name.startswith("qcp.")]
    by_name = {m.__name__: m for m in modules}
    cli = by_name["qcp.cli"]
    rounds = []
    start = time.perf_counter()
    while True:
        rnd = {"untraced": run_pass(ops, main, modules, kind)}
        if trace:
            with layers.timed_globals(cli, layers.cli_library_names(cli)) as library:
                rnd["traced"] = run_pass(ops, main, modules, kind, library)
            spans = layers.Spans()
            for op in ops:
                layers.profile_op(qcp, by_name, op, spans)
            rnd["spans"] = spans
        rounds.append(rnd)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) / 2 >= seconds:
            return rounds


def end_to_end(rounds, setup_times, rss_kib, kind):
    """Pass and operation times from each operation's median over the
    passes, every timing scaled by the probe run just before it: single
    timings on a shared machine carry bursts of +10-40%."""
    passes = [r["untraced"] for r in rounds]
    op_medians = [statistics.median(p[i][0] * calibrate.scale(p[i][4], kind) for p in passes)
                  for i in range(len(passes[0]))]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(op_medians),
        "op_p50_s": statistics.median(op_medians),
        "op_max_s": max(op_medians),
        "peak_rss_mib": rss_kib / 1024.0,
    }


def per_layer(rounds, kind):
    """Medians over the rounds; each round's times are scaled by the median
    probe of its two CLI passes."""
    def med(values):
        return statistics.median(list(values))

    def scale(r):
        probes = [row[4] for key in ("untraced", "traced") for row in r[key]]
        return calibrate.scale(med(probes), kind)

    metrics = {}
    for name in layers.TIME_LAYERS:
        metrics[f"{name}.s"] = (med(r["spans"].seconds[name] * scale(r) for r in rounds), "s")
    for name in layers.COUNTERS:
        metrics[name] = (rounds[0]["spans"].counts[name], "count")
    metrics["brute_force.rate"] = (med(
        r["spans"].counts["brute_force.point_tests"]
        / (r["spans"].seconds["brute_force"] * scale(r)) for r in rounds), "1/s")
    metrics["cli.self_s"] = (med(
        sum(row[0] - row[3] for row in r["traced"]) * scale(r) for r in rounds), "s")
    metrics["trace.overhead_s"] = (med(
        (sum(row[0] for row in r["traced"]) - sum(row[0] for row in r["untraced"])) * scale(r)
        for r in rounds), "s")
    return metrics


def run_workload(args):
    setup_s, ops, main = scaled_setup(args.workload, args.seed)
    qcp = sys.modules["qcp"]
    setup_times = [setup_s] + [probe_setup(args.workload, args.seed)
                               for _ in range(SETUP_SAMPLES - 1)]
    kind = wl.PROBE_KIND[args.workload]
    rounds = measure(ops, main, qcp, args.seconds, args.trace, kind)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    passes = [r[key] for r in rounds for key in ("untraced", "traced") if key in r]
    errors = verify_outputs(ops, passes, qcp)
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for row in p if row[1] != 0)
    if args.trace:
        metrics = per_layer(rounds, kind)
    else:
        metrics = {k: (v, END_TO_END_UNITS[k])
                   for k, v in end_to_end(rounds, setup_times, rss_kib, kind).items()}
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    wl.OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds), "setup_samples_s": setup_times,
        "errors": errors, "result": result,
        "ops": [{"label": op.label, "argv": op.argv,
                 "seconds": [p[i][0] for p in passes], "probe_s": [p[i][4] for p in passes],
                 "exit_codes": [p[i][1] for p in passes],
                 "failures": sorted({p[i][2].strip() for p in passes if p[i][1] != 0})}
                for i, op in enumerate(ops)],
    }
    if args.trace:
        detail["spans"] = [{"seconds": dict(r["spans"].seconds), "counts": dict(r["spans"].counts)}
                           for r in rounds]
    (wl.OUT_DIR / f"result-{stem}.json").write_text(json.dumps(detail, indent=1))
    for e in errors:
        print(f"CHECK FAILED {e}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(rounds)} rounds, "
          f"{attempted} operations attempted, {failed} failed, correct {not errors}")
    probes = [row[4] for p in passes for row in p]
    print(f"  {kind} probe: median {statistics.median(probes):.4g} s against "
          f"{calibrate.REFERENCE_S[kind]} s at the reference speed; times are scaled to it")
    for k, (v, u) in metrics.items():
        print(f"  {k} = {v:.6g} {u}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload, untraced and traced, each in its own process."""
    status = 0
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60, cwd=wl.ROOT,
                check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"workload {workload} trace {trace} failed:\n{proc.stderr}")
                status = 1
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        print(scaled_setup(args.workload, args.seed)[0])
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
