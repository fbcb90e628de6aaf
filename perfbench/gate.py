"""Correctness gate and the benchmark's one library-call operation.

Runs inside the worker process (it needs numpy and rtoa).  For every pass the
gate checks the physics facts the acceptance criteria state; on the default
seed it also compares each output's fingerprint with the stored reference,
within a tolerance derived from the configured QuadratureConfig tolerances,
so a different but correct quadrature still passes.
"""

from __future__ import annotations

import json
import math

import numpy as np
from rtoa.quadrature import QuadratureConfig

# Two independently correct results each sit within the quadrature
# tolerance of the truth (x2), the density squares the integrals (x2), and
# the tolerance is an error *estimate* (x2.5).
GATE_SLACK = 10.0


# ---------------------------------------------------------------- library op
def bump(p: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """C-infinity bump supported on (lo, hi)."""
    u = (2.0 * p - (lo + hi)) / (hi - lo)
    out = np.zeros_like(p)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def conjugacy_residuals(bump_coeffs: dict, grids) -> dict:
    """Criterion 2 as a library call: the relative residual of
    [H, T] - i hbar on three bump states over linspace(0.45, 5.05, n) for each
    n in ``grids``, and the refinement order between the first two grids.

    Module attributes are looked up at call time so that a traced run sees
    the calls.
    """
    from rtoa import core, spectral

    k = core.PhysConstants()
    c = bump_coeffs
    residuals = []
    for n in grids:
        grid = np.linspace(0.45, 5.05, n)
        b = bump(grid, 0.5, 5.0)
        pairs = (
            (b, 0.0 * b),
            (b * np.exp(1j * c["k1"] * grid), c["a1"] * b * np.exp(1j * c["k2"] * grid)),
            (b * grid * np.exp(1j * c["k3"] * grid), c["a3"] * b),
        )
        worst = 0.0
        inner = slice(2, -2)
        for upper, lower in pairs:
            f = core.SpinorField(
                core.Representation.FESHBACH_VILLARS_PHI, core.Basis.MOMENTUM, grid, upper, lower
            )
            ht = spectral.apply_hamiltonian(spectral.apply_even_toa(f, k), k)
            th = spectral.apply_even_toa(spectral.apply_hamiltonian(f, k), k)
            num = math.hypot(
                np.linalg.norm(ht.upper[inner] - th.upper[inner] - 1j * k.hbar * f.upper[inner]),
                np.linalg.norm(ht.lower[inner] - th.lower[inner] - 1j * k.hbar * f.lower[inner]),
            )
            den = math.hypot(np.linalg.norm(f.upper[inner]), np.linalg.norm(f.lower[inner]))
            worst = max(worst, num / den)
        residuals.append(worst)
    r1, r2 = residuals[0], residuals[1]
    return {"residuals": residuals, "order": math.log2(r1 / r2) if r2 > 0 else math.inf}


# ------------------------------------------------------------------ parsing
def parse_density(text: str, nx: int, nt: int) -> dict:
    rows = []
    for line in text.splitlines():
        if line and not line.startswith("#") and line != "x,t,P":
            rows.append([float(v) for v in line.split(",")])
    data = np.asarray(rows, dtype=float)
    if data.shape != (nx * nt, 3):
        raise ValueError(f"density output has shape {data.shape}, expected {(nx * nt, 3)}")
    return {
        "x": data[:nx, 0],
        "t": data[::nx, 1],
        "P": data[:, 2].reshape(nt, nx),
    }


def parse_toa(text: str, fmt: str) -> dict:
    if fmt == "json":
        doc = json.loads(text)
        return {
            "tau": np.asarray(doc["tau"]),
            "pi": np.asarray(doc["pi_total"]),
            "tau_mp": doc["tau_mp"],
            "t_class": doc["t_class"],
            "t_ph": doc["t_ph"],
        }
    header, rows = {}, []
    for line in text.splitlines():
        if line.startswith("# p0:"):
            fields = line[2:].split("  ")
            header = {key: float(val) for key, val in (f.split(": ") for f in fields)}
        elif line.startswith("#") or line.startswith("tau,"):
            continue
        elif line:
            rows.append([float(v) for v in line.split(",")])
    data = np.asarray(rows, dtype=float)
    return {
        "tau": data[:, 0],
        "pi": data[:, 1],
        "tau_mp": header.get("tau_mp"),
        "t_class": header.get("t_class"),
        "t_ph": header["t_ph"],
    }


def _iqr(tau: np.ndarray, pi: np.ndarray) -> float:
    mass = np.cumsum(pi)
    mass = mass / mass[-1]
    return float(np.interp(0.75, mass, tau) - np.interp(0.25, mass, tau))


# --------------------------------------------------------------------- gate
def check_pass(workload: str, inputs: dict, outputs: dict, reference: dict | None = None) -> dict:
    """Physics facts of one pass, and on the default seed the match with the
    stored ``reference``.  ``outputs`` maps op name to its output text;
    returns op name -> list of failed checks (empty when all hold)."""
    fails = {name: [] for name in outputs}
    try:
        parsed = _parse(workload, inputs, outputs)
    except (ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
        for name in fails:
            fails[name].append(f"unparseable output: {exc}")
        return fails
    if workload in ("density-figure", "density-ladder"):
        _check_density(inputs, parsed, fails)
    elif workload == "arrival-times":
        _check_arrival(inputs, parsed, fails)
    else:
        _check_operators(parsed, fails)
    if reference is not None:
        q = QuadratureConfig()
        gain = extrapolation_gain(q.epsilon_ladder) if inputs.get("extrapolate") else 1.0
        mismatches = match_reference(_fingerprint(workload, parsed), reference, q.abs_tol, q.rel_tol, gain)
        for name, reasons in mismatches.items():
            fails.setdefault(name, []).extend(reasons)
    return fails


def _parse(workload: str, inputs: dict, outputs: dict) -> dict:
    parsed = {}
    for name, text in outputs.items():
        if workload in ("density-figure", "density-ladder"):
            parsed[name] = parse_density(text, inputs["nx"], inputs["nt"])
        elif workload == "arrival-times":
            parsed[name] = parse_toa(text, name.split("-")[0])
        elif name == "verify-algebra":
            parsed[name] = text
        else:
            parsed[name] = json.loads(text)
    return parsed


def _check_density(inputs: dict, parsed: dict, fails: dict) -> None:
    tau = inputs["tau"]
    for name, g in parsed.items():
        P, xs, ts = g["P"], g["x"], g["t"]
        if not np.all(np.isfinite(P)) or np.any(P < 0.0):
            fails[name].append("densities must be finite and nonnegative")
            continue
        if not np.allclose(P, P[:, ::-1], rtol=1e-7, atol=1e-12):
            fails[name].append("grid is not mirror-symmetric in x")
        if name == "nonnodal":
            i, j = np.unravel_index(np.argmax(P), P.shape)
            dx, dt = xs[1] - xs[0], ts[1] - ts[0]
            if abs(ts[i] - tau) > dt + 1e-12 or abs(xs[j]) > dx + 1e-12:
                fails[name].append(f"argmax at (x={xs[j]}, t={ts[i]}) not within one cell of (0, {tau})")
        else:
            zero = np.flatnonzero(xs == 0.0)
            if zero.size != 1 or np.any(P[:, zero[0]] != 0.0):
                fails[name].append("nodal x=0 column is not exactly zero")


def _check_arrival(inputs: dict, parsed: dict, fails: dict) -> None:
    slots = [f"csv-{i}" for i in range(len(inputs["p0"]))]
    for name, d in parsed.items():
        if not np.all(np.isfinite(d["pi"])) or np.any(d["pi"] < 0.0):
            fails[name].append("Pi must be finite and nonnegative")
    moving = slots[1:]  # p0 ~ 2, 3, 4, 5
    for name in moving:
        d = parsed[name]
        if d["tau_mp"] is None or not d["tau_mp"] > d["t_ph"]:
            fails[name].append(f"tau_mp {d['tau_mp']} not above the photon time {d['t_ph']}")
    for name in slots[2:]:  # p0 ~ 3, 4, 5
        d = parsed[name]
        if d["tau_mp"] is not None and not abs(d["tau_mp"] - d["t_class"]) / d["t_class"] < 0.05:
            fails[name].append(f"tau_mp {d['tau_mp']} deviates >5% from t_class {d['t_class']}")
    for a, b in zip(moving, moving[1:]):
        if not parsed[a]["pi"].max() < parsed[b]["pi"].max():
            fails[b].append("peak does not increase with p0")
        ta, tb = parsed[a]["tau_mp"], parsed[b]["tau_mp"]
        if ta is not None and tb is not None and not ta > tb:
            fails[b].append("tau_mp does not decrease with p0")
    slow, ref = parsed[slots[0]], parsed[slots[2]]
    if not _iqr(slow["tau"], slow["pi"]) >= 3.0 * _iqr(ref["tau"], ref["pi"]):
        fails[slots[0]].append("slow packet IQR is not 3x the p0~3 IQR")
    slot = inputs["json_slot"]
    js, csv = parsed[f"json-{slot}"], parsed[f"csv-{slot}"]
    if not (np.array_equal(js["pi"], csv["pi"]) and js["tau_mp"] == csv["tau_mp"]):
        fails[f"json-{slot}"].append("JSON and CSV carry different Pi")


def _check_operators(parsed: dict, fails: dict) -> None:
    if parsed["verify-spectral"].get("pass") is not True:
        fails["verify-spectral"].append("verify-spectral does not report pass: true")
    lim = parsed["limits"]
    if not (lim["decreasing"] and lim["t11_scales_as_inverse_c2"] and lim["tm11_equals_minus_m0"]):
        fails["limits"].append("non-relativistic limit facts do not hold")
    if "status: ok (exact)" not in parsed["verify-algebra"]:
        fails["verify-algebra"].append("exact commutator residual is not zero")
    conj = parsed["conjugacy"]
    if not (conj["residuals"][0] < 1e-4 and conj["order"] >= 3.0):
        fails["conjugacy"].append(f"conjugacy residual {conj['residuals'][0]:.3e}, order {conj['order']:.2f}")


# ------------------------------------------------------- default-seed match
def fingerprint(workload: str, inputs: dict, outputs: dict) -> dict:
    """The numbers of each output that the stored reference pins."""
    return _fingerprint(workload, _parse(workload, inputs, outputs))


def _fingerprint(workload: str, parsed: dict) -> dict:
    out = {}
    for name, p in parsed.items():
        if workload in ("density-figure", "density-ladder"):
            out[name] = p["P"].ravel().tolist()
        elif workload == "arrival-times":
            out[name] = [p["tau_mp"]] + p["pi"][::20].tolist()
        elif isinstance(p, str):
            out[name] = p
        else:
            out[name] = _numeric_leaves({k: v for k, v in p.items() if k != "config"})
    return out


def _numeric_leaves(doc, prefix: str = "") -> dict:
    leaves = {}
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        path = f"{prefix}/{key}"
        if isinstance(value, (dict, list)):
            leaves.update(_numeric_leaves(value, path))
        else:
            leaves[path] = value
    return leaves


def extrapolation_gain(ladder) -> float:
    """Sum of |Neville weights| when extrapolating ``ladder`` to zero: how
    much a per-rung error can grow in the extrapolated value."""
    gain = 0.0
    for i, xi in enumerate(ladder):
        w = 1.0
        for j, xj in enumerate(ladder):
            if j != i:
                w *= xj / (xj - xi)
        gain += abs(w)
    return gain


def match_reference(current: dict, reference: dict, abs_tol: float, rel_tol: float, gain: float) -> dict:
    """op name -> mismatch descriptions against the stored reference."""
    atol, rtol = GATE_SLACK * gain * abs_tol, GATE_SLACK * gain * rel_tol
    return {
        name: [f"differs from the default-seed reference beyond {rtol:.1e} rel + {atol:.1e} abs"]
        for name, ref in reference.items()
        if not _close(current.get(name), ref, atol, rtol)
    }


def _close(value, ref, atol: float, rtol: float) -> bool:
    if isinstance(ref, dict):
        return isinstance(value, dict) and value.keys() == ref.keys() and all(
            _close(value[k], ref[k], atol, rtol) for k in ref
        )
    if isinstance(ref, list):
        return isinstance(value, list) and len(value) == len(ref) and all(
            _close(v, r, atol, rtol) for v, r in zip(value, ref)
        )
    if isinstance(ref, bool) or not isinstance(ref, (int, float)) or not math.isfinite(ref):
        return value == ref
    return isinstance(value, (int, float)) and abs(value - ref) <= atol + rtol * abs(ref)
