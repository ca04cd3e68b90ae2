"""Exception hierarchy.

All failures raised by this package derive from :class:`KreinError` so that
callers can distinguish library errors from built-in ones.
"""


class KreinError(Exception):
    """Base class for all errors raised by kreinspace."""


class NonFinite(KreinError):
    """A matrix or scalar contains NaN or Inf entries."""


class DimensionMismatch(KreinError):
    """Shapes of the supplied operands are inconsistent."""


class SingularShift(KreinError):
    """The shifted matrix M - mu*I is numerically singular.

    Signals that mu lies in (or too close to) the spectrum of M.
    """


class NotNonnegative(KreinError):
    """The subspace fails the nonnegativity classification."""


class NotMaximal(KreinError):
    """The subspace does not project onto the whole positive component."""


class NormExceeded(KreinError):
    """An angle operator has norm above the admissible bound."""


class ContourTooClose(KreinError):
    """An eigenvalue sits too close to the integration contour."""


class QuadratureNotConverged(KreinError):
    """Refining the quadrature up to its top rung still changes the projector."""


class BoundaryEigenvalue(KreinError):
    """An eigenvalue lies on the splitting boundary of the spectral region."""


class RankAmbiguous(KreinError):
    """Singular values of a projector show no gap at the expected rank."""


class NotDissipative(KreinError):
    """The operator is not dissipative in the indefinite metric."""


class NotUniformlyDissipative(KreinError):
    """The dissipativity margin is not strictly positive."""


class ConditionIFailed(KreinError):
    """-A22 is not dissipative on the negative component."""


class NoCauchyConvergence(KreinError):
    """The regularization tail of angle operators did not stabilize.

    The partial solve report is attached as ``report`` so that the
    convergence trace can still be inspected.
    """

    def __init__(self, msg, report=None):
        super().__init__(msg)
        self.report = report
