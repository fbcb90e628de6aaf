"""Exception types shared across the package.

Validation problems raise ``ValueError`` subclasses; numerical failures
(quadrature that cannot meet its tolerance) raise ``RuntimeError``
subclasses so callers can distinguish bad input from a computation that
gave up.
"""


class GridMismatchError(ValueError):
    """Two sampled fields do not share the same grid."""


class SingularPointError(ValueError):
    """A 1/p operator was applied on a grid node too close to p = 0
    where the field does not vanish."""


class WindowInfeasibleError(ValueError):
    """The requested index window cannot contain the conjugate-operator
    solution support."""


class DivergentOverlapError(ValueError):
    """Numeric eigenfunction overlap requested at equal eigenvalues,
    where only the distributional part exists."""


class StateTruncationError(ValueError):
    """A sampled state has not decayed below tolerance at its grid
    edges, so momentum integrals over the grid would be truncated."""


class PhaseOverflowError(ValueError):
    """A tau window so wide that the phases tau E_p / hbar of its
    arrival-time amplitudes overflow."""


class RangeBoundaryError(ValueError):
    """An extremum search hit the edge of the sampled range; the range
    is too small to bracket the feature."""


class ClassicalTimeUndefinedError(ValueError):
    """Classical arrival time is undefined at zero mean momentum.

    Carries the still well-defined photon arrival time as ``t_ph``.
    """

    def __init__(self, message: str, t_ph: float):
        super().__init__(message)
        self.t_ph = t_ph


class QuadratureConvergenceError(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget.

    ``estimate`` holds the best value reached and ``error`` the
    achieved error estimate.
    """

    def __init__(self, message: str, estimate, error: float):
        super().__init__(message)
        self.estimate = estimate
        self.error = error
