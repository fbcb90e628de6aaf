"""The benchmark's own tests, at tiny grid sizes.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import subprocess
import sys

import pytest

import compare
import gate
import tracing
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Every workload once, untraced then traced, through the real command."""
    tmp = tmp_path_factory.mktemp("runs")
    record, spans = tmp / "runs.jsonl", tmp / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--scale", "tiny",
         "--seconds", "0", "--trace", "1", "--record", str(record), "--spans", str(spans)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    runs = [json.loads(line) for line in record.read_text().splitlines()]
    return {r["workload"]: r for r in runs}, proc.stdout, spans


def test_every_workload_emits_every_named_metric(tiny_runs):
    runs, stdout, _ = tiny_runs
    assert set(runs) == set(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        run = runs[name]
        assert run["failed"] == 0, run["record"]["failures"]
        for metric in BENCHMARK["end_to_end"]:
            assert run["e2e"][metric["name"]] > 0.0, (name, metric["name"])
        assert run["e2e"]["error_rate"] == 0.0
        for metric in BENCHMARK["per_layer"]:
            assert metric["name"] in run["layer"], (name, metric["name"])
        assert run["record"]["src_lines"] > 0
        assert run["record"]["rtoa_threads_effective"] >= 1
    for name in ("wall_s", "op_p50_ms", "op_max_ms", "error_rate", "setup_s", "peak_rss_mb"):
        assert name in stdout.splitlines()[0]
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_traced_layers_are_attributed(tiny_runs):
    runs, _, _ = tiny_runs
    fig = runs["density-figure"]["layer"]
    assert fig["dynamics.cells"] == 2 * 9 * 9
    assert fig["quadrature.nodes"] > 0 and fig["dynamics.integrand_ms"] > 0
    assert 0.9 < fig["quadrature.kept_node_frac"] <= 1.0
    assert runs["density-ladder"]["layer"]["quadrature.extrapolations"] == 2 * 5 * 5
    assert runs["arrival-times"]["layer"]["toa.phase_evals"] == 6 * 201 * 4097
    assert runs["arrival-times"]["layer"]["dynamics.busy_ms"] == 0.0
    ops = runs["operator-checks"]["layer"]
    assert ops["spectral.completeness_phase_evals"] > 0 and ops["algebra.busy_ms"] > 0


def test_spans_are_written_when_the_run_ends(tiny_runs):
    _, _, spans = tiny_runs
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    names = {r["name"] for r in records}
    assert {"cli.dispatch", "dynamics.density_grid", "toa.distribution", "spectral.completeness"} <= names
    assert all(r["end"] >= r["start"] for r in records)
    assert any(r["parent"] is not None for r in records)


def test_pool_thread_spans_attach_to_density_grid(monkeypatch):
    monkeypatch.setenv("RTOA_THREADS", "2")
    tracer = tracing.Tracer()
    tracer.install(tracing.resolve_targets())
    try:
        from rtoa import cli

        with tracer.op("grid"):
            cli.density_grid(cli.Parity.NONNODAL, 1.0, (-4.0, 4.0), (0.0, 2.0), 17, 9)
    finally:
        _uninstall()
    spans = tracer.take()
    (grid,) = [s for s in spans if s.name == "dynamics.density_grid"]
    threads = set()
    for s in spans:
        if s.name in ("quadrature.integrate_sqrt_endpoint", "quadrature.adaptive", "dynamics.integrand"):
            top = s
            while top.parent is not None and top.parent is not grid:
                top = top.parent
            assert top.parent is grid
            threads.add(s.thread)
    assert len(threads) == 2
    metrics = tracing.layer_metrics(spans, 0)
    assert metrics["dynamics.workers"] == 2
    assert metrics["dynamics.span_overlap"] > 1.0


def _uninstall():
    import importlib

    for target in tracing.TARGETS:
        mod = importlib.import_module(target.module)
        fn = getattr(mod, target.attr)
        setattr(mod, target.attr, getattr(fn, "__wrapped__", fn))


def test_tracer_refuses_a_missing_target(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [tracing.Target("rtoa.dynamics", "renamed_kernel", "x.y")])
    with pytest.raises(tracing.TraceTargetMissing):
        tracing.resolve_targets()


def test_trace_refuses_a_layer_that_recorded_nothing():
    with pytest.raises(tracing.TraceTargetMissing):
        tracing.check_expected("density-ladder", [])


def test_seeded_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.make_inputs(name, 7) == workloads.make_inputs(name, 7)
        base, other = workloads.make_inputs(name, 0), workloads.make_inputs(name, 7)
        assert base != other
        assert len(workloads.operations(name, base, "d")) == len(workloads.operations(name, other, "d"))
    fig = workloads.make_inputs("density-figure", workloads.DEFAULT_SEED)
    assert fig["tau"] == 1.0 and fig["epsilon"] == 0.3 and fig["t_range"] == [0.0, 2.0]
    toa = workloads.make_inputs("arrival-times", workloads.DEFAULT_SEED)
    assert toa["x0"] == -7.0 and toa["p0"] == [0.1, 2.0, 3.0, 4.0, 5.0]
    assert workloads.make_inputs("density-ladder", 3)["nx"] == workloads.make_inputs("density-ladder", 0)["nx"]


def _density_outputs(tmp_path):
    from rtoa import cli

    inputs = workloads.make_inputs("density-figure", 0, "tiny")
    outputs = {}
    for op in workloads.operations("density-figure", inputs, str(tmp_path)):
        assert cli.dispatch(op["argv"]) == 0
        outputs[op["name"]] = open(op["out"]).read()
    return inputs, outputs


def _perturb_density(text, rel):
    lines = text.splitlines()
    idx = [i for i, line in enumerate(lines) if line and not line.startswith(("#", "x,"))]
    target = idx[len(idx) // 2 + 2]  # an off-axis cell of the middle time slice
    x, t, p = lines[target].split(",")
    lines[target] = f"{x},{t},{float(p) * (1.0 + rel)!r}"
    return "\n".join(lines) + "\n"


def test_gate_counts_a_perturbed_output(tmp_path):
    inputs, outputs = _density_outputs(tmp_path)
    assert not any(gate.check_pass("density-figure", inputs, outputs).values())
    bad = dict(outputs, nonnodal=_perturb_density(outputs["nonnodal"], 1e-3))
    verdict = gate.check_pass("density-figure", inputs, bad)
    assert verdict["nonnodal"] and not verdict["nodal"]


def test_reference_match_uses_quadrature_tolerances(tmp_path):
    inputs, outputs = _density_outputs(tmp_path)
    reference = gate.fingerprint("density-figure", inputs, outputs)
    within = dict(outputs, nonnodal=_perturb_density(outputs["nonnodal"], 1e-8))
    beyond = dict(outputs, nonnodal=_perturb_density(outputs["nonnodal"], 1e-4))
    assert not any(gate.check_pass("density-figure", inputs, within, reference).values())
    assert gate.check_pass("density-figure", inputs, beyond, reference)["nonnodal"]


def test_arrival_gate_catches_json_csv_mismatch(tmp_path):
    from rtoa import cli

    inputs = workloads.make_inputs("arrival-times", 0, "tiny")
    outputs = {}
    for op in workloads.operations("arrival-times", inputs, str(tmp_path)):
        assert cli.dispatch(op["argv"]) == 0
        outputs[op["name"]] = open(op["out"]).read()
    assert not any(gate.check_pass("arrival-times", inputs, outputs).values())
    doc = json.loads(outputs["json-2"])
    doc["pi_total"][100] *= 1.0 + 1e-12
    verdict = gate.check_pass("arrival-times", inputs, dict(outputs, **{"json-2": json.dumps(doc)}))
    assert verdict["json-2"]


def test_extrapolation_gain():
    assert gate.extrapolation_gain((0.3, 0.15, 0.075)) == pytest.approx(5.0)
    assert gate.extrapolation_gain((0.3,)) == 1.0


def _synthetic(values, workload="density-figure", failed=0, parent_first=True, side="parent"):
    runs = []
    for i, v in enumerate(values):
        first = (i % 2 == 0) == parent_first
        started = 2.0 * i + (0.0 if (side == "parent") == first else 1.0)
        e2e = {m["name"]: v for m in BENCHMARK["end_to_end"]}
        runs.append({"workload": workload, "attempted": 10, "failed": failed, "e2e": e2e,
                     "record": {"started": started}})
    return {workload: runs}


def _verdicts(parent, change):
    rows = compare.compare(parent, change, BENCHMARK)
    return {r["metric"]: r["verdict"] for r in rows}


NOISE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.02, 0.98]


def test_compare_flags_synthetic_regression_and_gain():
    parent = _synthetic(NOISE)
    slow = _synthetic([1.4 * v for v in NOISE], side="change")
    fast = _synthetic([0.7 * v for v in NOISE], side="change")
    same = _synthetic(NOISE[::-1], side="change")
    assert set(_verdicts(parent, slow)[m["name"]] for m in BENCHMARK["end_to_end"]) == {"regression"}
    assert set(_verdicts(parent, fast)[m["name"]] for m in BENCHMARK["end_to_end"]) == {"gain"}
    assert set(_verdicts(parent, same).values()) == {"unchanged"}


def test_compare_error_rate_is_a_failure_share_and_voids_gains():
    parent = _synthetic(NOISE)
    fast_but_failing = _synthetic([0.7 * v for v in NOISE], failed=1, side="change")
    verdicts = _verdicts(parent, fast_but_failing)
    assert verdicts["error_rate"] == "regression"
    assert verdicts["wall_s"] == "void gain (more failures)"


def test_compare_needs_ten_alternating_pairs():
    parent = _synthetic(NOISE[:5])
    fast = _synthetic([0.7 * v for v in NOISE[:5]], side="change")
    assert _verdicts(parent, fast)["wall_s"] == "insufficient"


def test_benchmark_json_matches_the_tracer():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        row[:3] for row in tracing.PER_LAYER
    ]
    assert any(m["name"] == "setup_s" for m in BENCHMARK["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_bare_directory_fails_without_a_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bare / "perfbench" / name).write_text(open(os.path.join(BENCH, name)).read())
    (bare / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "arrival-times", "--seed", "1", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
