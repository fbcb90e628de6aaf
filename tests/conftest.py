import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from rtoa.core import Basis, PhysConstants, Representation, SpinorField

# Property tests draw the same examples on every run and keep no example
# database, so a run is reproducible.  Hypothesis still caches the literals
# it reads from the source; that cache goes to a directory removed at exit,
# so a run leaves no .hypothesis/ behind.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="rtoa-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


# (hbar, c, m0) away from the unit values, for the covariance properties
constants = st.builds(PhysConstants, hbar=st.floats(0.3, 3.0), c=st.floats(0.3, 3.0), m0=st.floats(0.3, 3.0))


def bump(p, lo, hi):
    """C-infinity bump supported on (lo, hi)."""
    p = np.asarray(p, dtype=float)
    u = (2.0 * p - (lo + hi)) / (hi - lo)
    out = np.zeros_like(p)
    m = np.abs(u) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - u[m] ** 2))
    return out


def phi_field(grid, upper, lower=None) -> SpinorField:
    grid = np.asarray(grid, dtype=float)
    upper = np.asarray(upper, dtype=complex)
    lower = np.zeros_like(upper) if lower is None else np.asarray(lower, dtype=complex)
    return SpinorField(Representation.FESHBACH_VILLARS_PHI, Basis.MOMENTUM, grid, upper, lower)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str) -> types.ModuleType:
    """A fresh copy of the benchmark module perfbench/<name>.py, loaded
    read-only: no bytecode is written next to it."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
