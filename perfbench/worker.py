"""One fresh benchmark process: import rtoa from the checkout, then run one
workload closed-loop from a single caller until the time is up.

Started by run.py, never by hand:

    python3 perfbench/worker.py --probe ROOT     print when rtoa.cli is ready
    python3 perfbench/worker.py SPEC.json        run the workload in SPEC
"""

import os
import sys
import time


def _import_rtoa(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import rtoa.cli

    if not os.path.abspath(rtoa.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"rtoa was imported from {rtoa.cli.__file__}, not from {src}")


def main(argv):
    if argv[0] == "--probe":
        _import_rtoa(argv[1])
        print(repr(time.monotonic()))
        return 0

    import json

    with open(argv[0]) as fh:
        spec = json.load(fh)
    _import_rtoa(spec["root"])
    ready = time.monotonic()

    import hashlib
    import resource

    import numpy

    import gate
    import tracing
    import workloads
    from rtoa import cli, dynamics

    workload, inputs = spec["workload"], spec["inputs"]
    ops = workloads.operations(workload, inputs, spec["out_dir"])
    resolved = tracing.resolve_targets() if spec["trace"] else None
    tracer = tracing.Tracer()

    def run_op(op):
        """(exit status, seconds, output text); the clock covers the call only."""
        start = time.perf_counter()
        if op["kind"] == "call":
            text = json.dumps(gate.conjugacy_residuals(inputs["bump"], inputs["grids"]), sort_keys=True)
            return 0, time.perf_counter() - start, text
        rc = cli.dispatch(op["argv"])  # looked up per call so the traced run sees it
        elapsed = time.perf_counter() - start
        if rc != 0:
            return rc, elapsed, None
        with open(op["out"]) as fh:
            return rc, elapsed, fh.read()

    reference = spec.get("reference")
    first = {}  # digests of the first pass and the gate's verdict on them

    def run_pass(traced):
        outputs, timings, failed = {}, [], {}
        for op in ops:
            start = time.perf_counter()
            try:
                if traced:
                    with tracer.op(op["name"]):
                        rc, elapsed, text = run_op(op)
                else:
                    rc, elapsed, text = run_op(op)
            except Exception as exc:  # an op that raises is a failed op, not a dead run
                rc, elapsed, text = repr(exc), time.perf_counter() - start, None
            timings.append(elapsed)
            if rc != 0:
                failed[op["name"]] = [f"exit status {rc}"]
            else:
                outputs[op["name"]] = text
        if len(outputs) < len(ops):
            for name in outputs:
                failed[name] = ["not checked: another op of the pass failed"]
            return outputs, timings, failed
        digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in outputs.items()}
        if not first:
            first["digests"] = digests
            first["verdict"] = gate.check_pass(workload, inputs, outputs, reference)
        for name, reasons in first["verdict"].items():
            if reasons:
                failed[name] = list(reasons)
        for name, digest in digests.items():
            if digest != first["digests"][name]:
                failed.setdefault(name, []).append("output differs from the first pass")
        return outputs, timings, failed

    passes, layer, failures = [], [], []
    fingerprints = None
    budget = spec["seconds"] * (0.5 if spec["trace"] else 1.0)
    for traced in (False, True) if spec["trace"] else (False,):
        if traced:
            tracer.install(resolved)
        began = time.perf_counter()
        while True:
            outputs, timings, failed = run_pass(traced)
            passes.append({"traced": traced, "op_s": timings, "failed": len(failed)})
            failures.extend(f"{name}: {'; '.join(r)}" for name, r in failed.items())
            if traced:
                spans = tracer.take()
                tracing.check_expected(workload, spans)
                out_bytes = sum(len(t.encode()) for t in outputs.values())
                layer.append(tracing.layer_metrics(spans, out_bytes))
                if spec.get("spans_path"):
                    with open(spec["spans_path"], "a") as fh:
                        for rec in tracing.span_records(spans):
                            fh.write(json.dumps(rec) + "\n")
            elif spec.get("fingerprints") and fingerprints is None and len(outputs) == len(ops):
                fingerprints = gate.fingerprint(workload, inputs, outputs)
            if time.perf_counter() - began >= budget:
                break

    result = {
        "ready": ready,
        "passes": passes,
        "layer": layer,
        "failures": failures[:20],
        "fingerprints": fingerprints,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "rtoa_threads": dynamics.thread_count(),
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
