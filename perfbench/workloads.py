"""Workload definitions: seeded inputs and the operations each workload runs.

Pure standard library, so the benchmark's parent process can build inputs
without importing numpy or rtoa.

Workloads (why each exists is recorded in BENCHMARK.json):

    density-figure   rtoa density-grid, both branches, tau~1, x in [-4, 4],
                     t in [0, 2 tau], epsilon 0.3 (the criterion-7 figure)
    density-ladder   the same geometry with --extrapolate over the epsilon
                     ladder (0.3, 0.15, 0.075)
    arrival-times    rtoa toa-dist --x0 ~-7 for five p0 as CSV, plus one as
                     JSON (the criterion-8 sweep)
    operator-checks  rtoa verify-spectral --full, limits, verify-algebra and
                     the criterion-2 conjugacy residual as a library call

Seed DEFAULT_SEED gives the paper / acceptance-criteria settings.  Any other
seed perturbs the physical inputs uniformly within these half-widths, and
never the operation count or a grid size:

    tau                 1.0  +- 0.05   (both density workloads)
    x0                 -7.0  +- 0.5
    p0 (slow slot)      0.1  +- 0.05   (stays in the symmetric-window regime)
    p0 (other slots)    2, 3, 4, 5  +- 0.1 each
    bump coefficients   wave numbers 3, 1, -2 and weights 0.5, 0.2, each +- 10%

Grid sizes are scaled down from the 101 x 101 / 41 x 41 acceptance figures so
that one pass of every workload takes a few seconds; geometry, regulator
and mechanism are unchanged.  The "tiny" scale exists for the benchmark's own
tests.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0
WORKLOADS = ("density-figure", "density-ladder", "arrival-times", "operator-checks")

_SIZES = {
    #         figure n, ladder n, n_tau, conjugacy grids
    "full": (41, 21, 2001, (4097, 8193)),
    "tiny": (9, 5, 201, (1025, 2049)),
}


def make_inputs(workload: str, seed: int, scale: str = "full") -> dict:
    """The generated inputs of one workload; the same seed gives the same
    inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    fig_n, ladder_n, n_tau, conj_n = _SIZES[scale]
    rng = random.Random(f"{workload}/{seed}")
    perturb = seed != DEFAULT_SEED

    def jitter(value: float, half_width: float) -> float:
        return round(value + rng.uniform(-half_width, half_width), 6) if perturb else value

    if workload in ("density-figure", "density-ladder"):
        tau = jitter(1.0, 0.05)
        n = fig_n if workload == "density-figure" else ladder_n
        return {
            "tau": tau,
            "x_range": [-4.0, 4.0],
            "t_range": [0.0, 2.0 * tau],
            "nx": n,
            "nt": n,
            "epsilon": 0.3,
            "extrapolate": workload == "density-ladder",
        }
    if workload == "arrival-times":
        return {
            "x0": jitter(-7.0, 0.5),
            "p0": [jitter(0.1, 0.05)] + [jitter(p, 0.1) for p in (2.0, 3.0, 4.0, 5.0)],
            "json_slot": 2,
            "n_tau": n_tau,
        }
    return {
        "bump": {
            "k1": jitter(3.0, 0.3),
            "a1": jitter(0.5, 0.05),
            "k2": jitter(1.0, 0.1),
            "k3": jitter(-2.0, 0.2),
            "a3": jitter(0.2, 0.02),
        },
        "grids": list(conj_n),
    }


def _num(x: float) -> str:
    return repr(float(x))


def operations(workload: str, inputs: dict, out_dir: str) -> list[dict]:
    """The operations of one pass, in order.

    A "cli" operation is an argv for ``rtoa.cli.dispatch`` whose data goes to
    ``out``; a "call" operation names a library routine of the gate module.
    """
    ops = []
    if workload in ("density-figure", "density-ladder"):
        for branch in ("nonnodal", "nodal"):
            argv = [
                "density-grid",
                "--branch", branch,
                "--tau", _num(inputs["tau"]),
                "--xmin", _num(inputs["x_range"][0]),
                "--xmax", _num(inputs["x_range"][1]),
                "--nx", str(inputs["nx"]),
                "--tmin", _num(inputs["t_range"][0]),
                "--tmax", _num(inputs["t_range"][1]),
                "--nt", str(inputs["nt"]),
                "--epsilon", _num(inputs["epsilon"]),
            ]
            if inputs["extrapolate"]:
                argv.append("--extrapolate")
            ops.append(_cli(branch, f"{out_dir}/{branch}.csv", argv))
    elif workload == "arrival-times":
        for slot, p0 in enumerate(inputs["p0"]):
            ops.append(_toa_op(f"csv-{slot}", "csv", p0, inputs, out_dir))
        slot = inputs["json_slot"]
        ops.append(_toa_op(f"json-{slot}", "json", inputs["p0"][slot], inputs, out_dir))
    else:
        for name, argv in (
            ("verify-spectral", ["verify-spectral", "--full"]),
            ("limits", ["limits"]),
            ("verify-algebra", ["verify-algebra"]),
        ):
            ops.append(_cli(name, f"{out_dir}/{name}.out", argv))
        ops.append({"name": "conjugacy", "kind": "call", "out": None})
    return ops


def _cli(name: str, out: str, argv: list[str], fmt: str | None = None) -> dict:
    flags = ["--out", out] + (["--format", fmt] if fmt else [])
    return {"name": name, "kind": "cli", "argv": flags + argv, "out": out}


def _toa_op(name: str, fmt: str, p0: float, inputs: dict, out_dir: str) -> dict:
    argv = ["toa-dist", "--p0", _num(p0), "--x0", _num(inputs["x0"]), "--n-tau", str(inputs["n_tau"])]
    return _cli(name, f"{out_dir}/{name}.{fmt}", argv, fmt)
