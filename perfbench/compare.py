"""Compare mode: parent against change, one row per (end-to-end metric, workload).

    python3 perfbench/compare.py pairs PARENT_ROOT CHANGE_ROOT --out DIR [--n 10] [--first-seed 1]
    python3 perfbench/run.py --compare DIR/parent.jsonl DIR/change.jsonl

``pairs`` runs the benchmark in two checkouts, alternating which side runs
first, with seed first-seed + i for pair i on both sides, and appends each
run to DIR/parent.jsonl and DIR/change.jsonl.  The report applies this rule
to every row:

- at least MIN_PAIRS pairs whose order alternates, or the row is
  "insufficient";
- "gain" when the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's inter-quartile
  spread;
- "regression" when the change's median is worse than the parent's by more
  than the metric's bound (a share of the parent's median);
- "unresolved" when either side's spread exceeds the bound, unless every
  change run reads better than every parent run;
- otherwise "unchanged".

error_rate is compared as a failure share (failed / attempted over all
runs): any rise is a regression, and it voids every gain on that workload.
Exits 1 when any row is a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> dict:
    """workload -> runs ordered by start time."""
    runs: dict[str, list] = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                run = json.loads(line)
                runs.setdefault(run["workload"], []).append(run)
    for seq in runs.values():
        seq.sort(key=lambda r: r["record"]["started"])
    return runs


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def judge(parent: list[float], change: list[float], better: str, bound: float, alternating: bool) -> dict:
    n = min(len(parent), len(change))
    parent, change = parent[:n], change[:n]
    row = {"pairs": n}
    if n < 2:
        return dict(row, verdict="insufficient")
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - parent) > 0 means worse
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = _spread(parent)
    c_q1, c_q3 = _spread(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    worse_by = sign * (c_med - p_med)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0, (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    row.update(
        parent_median=p_med,
        parent_q1=p_q1,
        parent_q3=p_q3,
        change_median=c_med,
        change_q1=c_q1,
        change_q3=c_q3,
        wins=wins,
        spread=spread,
    )
    if n < MIN_PAIRS or not alternating:
        verdict = "insufficient"
    elif wins >= WIN_SHARE * n and -worse_by > p_q3 - p_q1:
        verdict = "gain"
    elif worse_by > bound * abs(p_med):
        verdict = "regression"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return dict(row, verdict=verdict)


def compare(parent_runs: dict, change_runs: dict, bench: dict) -> list[dict]:
    rows = []
    for workload in sorted(set(parent_runs) & set(change_runs)):
        p_runs, c_runs = parent_runs[workload], change_runs[workload]
        n = min(len(p_runs), len(c_runs))
        firsts = [p["record"]["started"] < c["record"]["started"] for p, c in zip(p_runs, c_runs)]
        alternating = all(a != b for a, b in zip(firsts, firsts[1:]))
        workload_rows = []
        for metric in bench["end_to_end"]:
            name = metric["name"]
            row = judge(
                [r["e2e"][name] for r in p_runs],
                [r["e2e"][name] for r in c_runs],
                metric["better"],
                metric["bound"],
                alternating,
            )
            workload_rows.append(dict(row, workload=workload, metric=name))
        p_share = sum(r["failed"] for r in p_runs[:n]) / max(1, sum(r["attempted"] for r in p_runs[:n]))
        c_share = sum(r["failed"] for r in c_runs[:n]) / max(1, sum(r["attempted"] for r in c_runs[:n]))
        verdict = "regression" if c_share > p_share else "gain" if c_share < p_share else "unchanged"
        if verdict == "regression":
            for row in workload_rows:
                if row["verdict"] == "gain":
                    row["verdict"] = "void gain (more failures)"
        workload_rows.append(
            {"workload": workload, "metric": "error_rate", "pairs": n,
             "parent_median": p_share, "change_median": c_share, "verdict": verdict}
        )
        rows.extend(workload_rows)
    return rows


def print_rows(rows: list[dict]) -> None:
    print(f"{'workload':<16}{'metric':<13}{'parent median [q1, q3]':>36}{'change median [q1, q3]':>36}"
          f"{'wins':>8}  verdict")
    for r in rows:
        def side(prefix):
            med = r[f"{prefix}_median"]
            if f"{prefix}_q1" not in r:
                return f"{med:.6g}"
            return f"{med:.6g} [{r[f'{prefix}_q1']:.6g}, {r[f'{prefix}_q3']:.6g}]"

        wins = f"{r['wins']}/{r['pairs']}" if "wins" in r else f"-/{r['pairs']}"
        print(f"{r['workload']:<16}{r['metric']:<13}{side('parent'):>36}{side('change'):>36}{wins:>8}  {r['verdict']}")


def main(paths, bench: dict) -> int:
    rows = compare(load(paths[0]), load(paths[1]), bench)
    print_rows(rows)
    counts = {v: sum(1 for r in rows if r["verdict"] == v) for v in sorted({r["verdict"] for r in rows})}
    print(json.dumps({"rows": rows, "counts": counts}))
    return 1 if counts.get("regression") else 0


def run_pairs(parent_root: str, change_root: str, workloads: list[str], n: int, first_seed: int, out: str) -> None:
    os.makedirs(out, exist_ok=True)
    sides = {"parent": parent_root, "change": change_root}
    for i in range(n):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                record = os.path.abspath(os.path.join(out, f"{side}.jsonl"))
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(first_seed + i), "--trace", "0", "--record", record]
                proc = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True)
                status = "ok" if proc.returncode == 0 else f"FAILED\n{proc.stderr[-2000:]}"
                print(f"pair {i} {workload} {side}: {status}", flush=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="run parent/change pairs for compare mode")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("pairs")
    p.add_argument("parent_root")
    p.add_argument("change_root")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=MIN_PAIRS)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", help="comma-separated (default: those in BENCHMARK.json)")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")) as fh:
        names = args.workloads.split(",") if args.workloads else [w["name"] for w in json.load(fh)["workloads"]]
    run_pairs(args.parent_root, args.change_root, names, args.n, args.first_seed, args.out)
