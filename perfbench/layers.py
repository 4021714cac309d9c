"""Per-layer measurements for the traced run.

Spans are timed from here, around calls into qcp's public functions; nothing
inside qcp is changed.  Two kinds of measurement:

* ``timed_globals`` over ``cli_library_names``: while a CLI call runs, every
  library function that ``qcp.cli`` imported is wrapped, so the call's time
  splits into library time and the CLI's own argparse and JSON work.
* ``profile_op``: the operation's arrangements are taken through each layer
  by direct calls, with every cache cleared first, so each layer's share of
  the work shows on its own.

Every layer opens its span for every arrangement; a layer the operation
does not use then records only the span's own cost.
"""

from __future__ import annotations

import contextlib
import json
import time
import types
from collections import defaultdict

from .workloads import build_arrangements

# central_scan re-runs trials whose lcm period is at most this through the
# full constituent pipeline.
SCAN_PIPELINE_PERIOD_CAP = 60

TIME_LAYERS = ("build", "lcm_period", "q_zero", "term_table", "formula_eval", "constituents",
               "minimum_period", "gcd_property", "central_summary", "brute_force")
COUNTERS = ("term_table.subsets", "formula_eval.calls", "constituents.classes",
            "minimum_period.candidates", "brute_force.point_tests")


def clear_caches(modules):
    """Empty every functools cache in qcp, as a fresh process would have."""
    for mod in modules:
        for obj in vars(mod).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


class Spans:
    """Accumulated span seconds and counters of one traced pass."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)

    @contextlib.contextmanager
    def span(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0


@contextlib.contextmanager
def timed_globals(module, names):
    """Wrap module-level functions so each call adds its time to the
    yielded dict; the originals are restored on exit."""
    totals = dict.fromkeys(names, 0.0)
    saved = {name: getattr(module, name) for name in names}

    def wrap(name, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[name] += time.perf_counter() - t0
        return timed

    for name, fn in saved.items():
        setattr(module, name, wrap(name, fn))
    try:
        yield totals
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def cli_library_names(cli):
    """Functions that qcp.cli imported from qcp's other modules."""
    return sorted(
        name for name, obj in vars(cli).items()
        if isinstance(obj, types.FunctionType)
        and obj.__module__.startswith("qcp.") and obj.__module__ != cli.__name__
    )


def grouped_subsets(arr):
    """Subsets the grouped walk offers: product over coefficient classes of
    (1 + distinct offsets in the class), minus 1."""
    classes = defaultdict(set)
    for j in range(arr.n):
        classes[arr.cmatrix.column(j)].add(arr.offsets[j])
    total = 1
    for offsets in classes.values():
        total *= 1 + len(offsets)
    return total - 1


def _divisors_up_to(n, limit):
    return sum(1 for d in range(1, limit + 1) if n % d == 0)


def profile_op(qcp, modules, op, spans):
    """Take one operation's arrangements through every layer."""
    arrangement = modules["qcp.arrangement"]
    p = op.params
    with spans.span("build"):
        if op.kind == "verify":
            arrs = [qcp.ArrangementInput.from_json_dict(json.loads(p["path"].read_text()))]
        else:
            arrs = build_arrangements(qcp, op)
    reports = op.kind in ("shi", "family")
    for arr in arrs:
        clear_caches(modules.values())
        with spans.span("lcm_period"):
            rho = qcp.lcm_period(arr.cmatrix) if op.kind != "verify" else None
        with spans.span("q_zero"):
            q0 = qcp.q_zero(arr)
        with spans.span("term_table"):
            qcp.divisor_formula_count(arr, q0 + 1)
        spans.counts["term_table.subsets"] += grouped_subsets(arr)
        with spans.span("formula_eval"):
            if op.kind == "verify":
                for q in range(q0 + 2, q0 + p["window"] + 1):
                    qcp.divisor_formula_count(arr, q)
                    spans.counts["formula_eval.calls"] += 1
        t0 = time.perf_counter()
        with timed_globals(arrangement, ("lcm_period",)) as inner:
            if op.kind == "scan":
                qcp.central_period_summary(arr)
        spans.seconds["central_summary"] += time.perf_counter() - t0 - inner["lcm_period"]
        t0 = time.perf_counter()
        with timed_globals(arrangement, ("lcm_period", "q_zero")) as inner:
            qp = None
            if reports or (op.kind == "scan" and rho <= SCAN_PIPELINE_PERIOD_CAP):
                qp = qcp.characteristic_quasi_polynomial(arr)
                spans.counts["constituents.classes"] += qp.period
        spans.seconds["constituents"] += time.perf_counter() - t0 - sum(inner.values())
        with spans.span("minimum_period"):
            minp = qcp.minimum_period(qp) if qp is not None else None
        if qp is not None:
            spans.counts["minimum_period.candidates"] += _divisors_up_to(qp.period, minp)
        with spans.span("gcd_property"):
            if qp is not None:
                qcp.has_gcd_property(qp)
        with spans.span("brute_force"):
            if op.kind == "verify":
                for q in range(q0 + 1, q0 + p["window"] + 1):
                    qcp.brute_force_count(arr, q)
                    spans.counts["brute_force.point_tests"] += q ** arr.m * arr.n
