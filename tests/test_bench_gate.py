"""The benchmark's seed-0 gate (perfbench/gate.py) run as a test: each
workload's default-seed operations go through ``rtoa.cli.dispatch`` and the
gate's library call, and the outputs must pass the gate's physics facts
and match the stored reference in perfbench/reference/.  The benchmark
modules are loaded read-only, without writing bytecode next to them, so a
pinned value that drifts fails here and not only in a benchmark run."""

import json
from pathlib import Path

import pytest

from rtoa import cli

from conftest import PERFBENCH, load_perfbench

gate, workloads = load_perfbench("gate"), load_perfbench("workloads")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_default_seed_passes_the_gate(workload, tmp_path):
    inputs = workloads.make_inputs(workload, workloads.DEFAULT_SEED)
    outputs = {}
    for op in workloads.operations(workload, inputs, str(tmp_path)):
        if op["kind"] == "call":
            result = gate.conjugacy_residuals(inputs["bump"], inputs["grids"])
            outputs[op["name"]] = json.dumps(result, sort_keys=True)
        else:
            assert cli.dispatch(op["argv"]) == 0, op["name"]
            outputs[op["name"]] = Path(op["out"]).read_text()
    reference = json.loads((PERFBENCH / "reference" / f"{workload}.json").read_text())
    fails = gate.check_pass(workload, inputs, outputs, reference)
    assert {name: reasons for name, reasons in fails.items() if reasons} == {}
