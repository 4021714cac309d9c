"""The benchmark's per-layer pass still runs against the library.

``perfbench.layers.profile_op`` and ``perfbench.workloads.program_view``
call qcp's public functions by name.  Running them here, on the smallest
operation of each workload, makes a change that drops or renames one of
those names fail the tests, not the benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench import workloads as wl  # noqa: E402


def smallest_op(qcp, workload):
    """The seed-0 operation with the fewest hyperplanes, ties by label."""
    ops = wl.make_ops(workload, 0, qcp.positive_roots)
    for op in ops:
        op.arrangements = wl.build_arrangements(qcp, op)
    return min(ops, key=lambda op: (sum(arr.n for arr in op.arrangements), op.label))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_profile_op_runs_on_smallest_operation(workload, tmp_path):
    qcp, _ = wl.import_qcp()
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "qcp" or name.startswith("qcp.")}
    op = smallest_op(qcp, workload)
    if op.kind == "verify":
        op.params["path"] = tmp_path / "input.json"
        op.params["path"].write_text(json.dumps(op.arrangements[0].to_json_dict()))
    spans = layers.Spans()
    layers.profile_op(qcp, modules, op, spans)
    assert set(layers.TIME_LAYERS) <= set(spans.seconds), op.label
    view = wl.program_view(qcp, op)
    if op.kind == "scan":
        assert len(view["lcm_periods"]) == len(op.arrangements)
