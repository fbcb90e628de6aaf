import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from rtoa.core import Basis, Representation, SpinorField

# Property tests draw the same examples on every run and keep no example
# database, so a run is reproducible.  Hypothesis still caches the literals
# it reads from the source; that cache goes to a directory removed at exit,
# so a run leaves no .hypothesis/ behind.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="rtoa-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
