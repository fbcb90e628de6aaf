"""Write the outputs of the benchmark's operations at one seed and print
their sha256 digests, to check that a change keeps every output byte for
byte.

    python3 tools/bench_outputs.py SEED DIR

Each operation of every workload in perfbench/workloads.py runs once, with
rtoa imported from this checkout's src/: a CLI operation through
``rtoa.cli.dispatch`` with its file under DIR/<workload>/, and the library
call through perfbench/gate.py, written as the benchmark's worker writes
it.  A density CSV embeds its --out path in its ``# config:`` line, so
compare two checkouts by running each with the same DIR in turn.  Prints
``<sha256>  <path>`` per file; exits 1 if an operation fails.  The
benchmark's modules are imported without writing bytecode next to them.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    seed, out_dir = int(argv[0]), Path(argv[1]).resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import gate
    import workloads
    from rtoa import cli

    failed = 0
    for workload in workloads.WORKLOADS:
        inputs = workloads.make_inputs(workload, seed)
        (out_dir / workload).mkdir(parents=True, exist_ok=True)
        for op in workloads.operations(workload, inputs, str(out_dir / workload)):
            if op["kind"] == "call":
                path = out_dir / workload / f"{op['name']}.json"
                path.write_text(json.dumps(gate.conjugacy_residuals(inputs["bump"], inputs["grids"]), sort_keys=True))
            elif (status := cli.dispatch(op["argv"])) == 0:
                path = Path(op["out"])
            else:
                print(f"{workload}/{op['name']}: exit status {status}", file=sys.stderr)
                failed += 1
                continue
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
