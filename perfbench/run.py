"""rtoa benchmark: what a user runs, timed end to end, with a traced run per layer.

    python3 perfbench/run.py --workload density-figure --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all              # every workload, one table
    python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl

Each run starts fresh worker processes from the checkout it sits in: a few
set-up probes (time from process start until ``rtoa.cli`` is imported and
ready), then one worker that calls ``rtoa.cli.dispatch(argv)`` in-process,
closed-loop from a single caller, pass after pass until ``--seconds`` have
passed.  A pass is all the workload's operations back to back on fixed inputs.
The program keeps its defaults; RTOA_THREADS is left unset and its effective
value recorded.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: wall_s, op_p50_ms
(median op of a pass) and op_max_ms (slowest op of a pass) as means over the
passes, setup_s as the median of ten fresh processes, peak_rss_mb of the
worker.  error_rate (failed / attempted) is printed in the table; it is not in
BENCHMARK.json because it is 0 when the program is correct.  --trace 1 spends
half the time untraced and half with every layer wrapped (see tracing.py) and
reports the per-layer metrics, as medians over the traced passes.  The last stdout line is the result object; the line
before it is the run record (inputs, machine, versions, commit, src lines).
Every operation goes through the correctness gate (gate.py); an operation that
exits non-zero, raises or fails the gate counts in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
REFERENCE_DIR = os.path.join(HERE, "reference")
SETUP_PROBES = 9
RUN_LIMIT_S = 170.0  # a run must end within 180 s
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("RTOA_THREADS", None)  # the program's default pool size is what users get
    return env


def probe_setup(env: dict, deadline: float) -> float:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, "--probe", ROOT],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=max(1.0, deadline - start),
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr.strip()[-2000:]}")
    return float(proc.stdout.split()[-1]) - start


def run_worker(spec: dict, work: str, env: dict, deadline: float) -> tuple[dict, float]:
    spec = dict(spec, out_dir=work, result=os.path.join(work, "result.json"))
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, spec_path],
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {exc.timeout:.0f} s") from None
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        raise BenchError(f"worker failed (status {proc.returncode}):\n{proc.stderr.strip()[-3000:]}")
    with open(spec["result"]) as fh:
        result = json.load(fh)
    return result, result["ready"] - start


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None when the
    checkout is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def src_lines(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
                 spans_path: str | None = None, write_reference: bool = False) -> dict:
    """One run: set-up probes, then the worker.  Returns the run summary."""
    deadline = time.monotonic() + RUN_LIMIT_S
    started = time.time()
    inputs = workloads.make_inputs(workload, seed, scale)
    reference = None
    ref_path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    if seed == workloads.DEFAULT_SEED and scale == "full" and not write_reference:
        if not os.path.exists(ref_path):
            raise BenchError(f"missing default-seed reference {ref_path}; create it with --write-reference")
        with open(ref_path) as fh:
            reference = json.load(fh)
    env = worker_env()
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        setups = [probe_setup(env, deadline) for _ in range(SETUP_PROBES)]
        spec = {
            "root": ROOT,
            "workload": workload,
            "inputs": inputs,
            "seconds": seconds,
            "trace": trace,
            "reference": reference,
            "fingerprints": write_reference,
            "spans_path": os.path.abspath(spans_path) if spans_path else None,
        }
        result, own_setup = run_worker(spec, work, env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(own_setup)
    if write_reference:
        if result["fingerprints"] is None:
            raise BenchError("no pass completed cleanly; reference not written")
        with open(ref_path, "w") as fh:
            json.dump(result["fingerprints"], fh, separators=(",", ":"))
            fh.write("\n")

    plain = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    n_ops = len(result["passes"][0]["op_s"])
    attempted = n_ops * len(result["passes"])
    failed = sum(p["failed"] for p in result["passes"])
    # Means over the passes: this machine's speed drifts between states that
    # last tens of seconds, and a mean weighs them by time where a median
    # snaps to whichever state held most of the run.
    walls = [sum(p["op_s"]) for p in plain]
    e2e = {
        "wall_s": statistics.mean(walls),
        "op_p50_ms": statistics.mean(statistics.median(p["op_s"]) for p in plain) * 1e3,
        "op_max_ms": statistics.mean(max(p["op_s"]) for p in plain) * 1e3,
        "error_rate": failed / attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    layer = {}
    if traced:
        layer = {name: statistics.median(m[name] for m in result["layer"]) for name in result["layer"][0]}
        layer["trace.overhead_frac"] = statistics.mean(sum(p["op_s"]) for p in traced) / e2e["wall_s"] - 1.0
    record = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "trace": trace,
        "inputs": inputs,
        "pass_wall_s": walls,
        "traced_pass_wall_s": [sum(p["op_s"]) for p in traced],
        "ops_per_pass": n_ops,
        "setup_samples_s": setups,
        "failures": result["failures"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "rtoa_threads_effective": result["rtoa_threads"],
        "rtoa_threads_env": None,
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "commit": git_commit(ROOT),
        "src_lines": src_lines(ROOT),
        "started": started,
        "finished": time.time(),
    }
    return {"attempted": attempted, "failed": failed, "e2e": e2e, "layer": layer, "record": record}


def result_line(run: dict, bench: dict, trace: bool) -> dict:
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    values = run["layer"] if trace else run["e2e"]
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        raise BenchError(f"run produced no value for {', '.join(missing)}")
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }


E2E_UNITS = {"error_rate": "fraction"}


def print_table(runs: dict, bench: dict) -> None:
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]} | E2E_UNITS
    names = ["wall_s", "op_p50_ms", "op_max_ms", "error_rate", "setup_s", "peak_rss_mb"]
    print(f"{'workload':<16}" + "".join(f"{n + ' [' + units[n] + ']':>22}" for n in names))
    for workload, run in runs.items():
        print(f"{workload:<16}" + "".join(f"{run['e2e'][n]:>22.6g}" for n in names))


def main(argv=None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny grids, for the benchmark's own tests")
    parser.add_argument("--record", help="append the run summary as one JSON line (input to --compare)")
    parser.add_argument("--spans", help="append the traced spans as JSON lines")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the default-seed outputs the gate compares against")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="apply the gain/regression rule to two --record files")
    args = parser.parse_args(argv)

    if args.compare:
        import compare

        return compare.main(args.compare, bench)
    if not args.workload:
        parser.error("--workload is required")
    if args.write_reference and args.seed != workloads.DEFAULT_SEED:
        parser.error("--write-reference needs the default seed")
    trace = bool(args.trace)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        runs = {
            w: run_workload(w, args.seed, args.seconds, trace, args.scale, args.spans, args.write_reference)
            for w in names
        }
        lines = {w: result_line(run, bench, trace) for w, run in runs.items()}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.record:
        with open(args.record, "a") as fh:
            for w, run in runs.items():
                fh.write(json.dumps(dict(run, workload=w)) + "\n")
    print_table(runs, bench)
    for w, run in runs.items():
        for line in run["record"]["failures"]:
            print(f"# failed {w}: {line}")
    if len(runs) == 1:
        (run,) = runs.values()
        print("# record " + json.dumps(run["record"], sort_keys=True))
        (line,) = lines.values()
        print(json.dumps(line))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in lines.values()),
            "attempted": sum(r["attempted"] for r in lines.values()),
            "failed": sum(r["failed"] for r in lines.values()),
            "metrics": {f"{w}/{k}": v for w, r in lines.items() for k, v in r["metrics"].items()},
        }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
