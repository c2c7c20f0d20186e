"""Exception types shared across the package.

Every failure mode carries a stable ``code`` string so that CLI consumers can
match on it without parsing messages.
"""


class AnnuflowError(Exception):
    """Base class; ``code`` is a stable machine-readable identifier."""

    code = "error"

    def __init__(self, message, **info):
        super().__init__(message)
        self.info = info


class InvalidGeometryError(AnnuflowError):
    code = "invalid-geometry"


class SingularSystemError(AnnuflowError):
    code = "singular-system"


class NoConvergenceError(AnnuflowError):
    code = "no-convergence"


class RangeEscapeError(AnnuflowError):
    """Newton iterate left the profile interval."""

    code = "range-escape"


class CriticalPointError(AnnuflowError):
    code = "critical-point-detected"


class NotInFplusError(AnnuflowError):
    """Field is not boundary-constant with increasing boundary values."""

    code = "not-in-fplus"


class TrajectoryExitError(AnnuflowError):
    code = "trajectory-exit"


class NotTangentError(AnnuflowError):
    code = "not-tangent"


class NonpositiveFprimeError(AnnuflowError):
    code = "nonpositive-fprime"


class NotMonotoneError(AnnuflowError):
    code = "not-monotone"


class DegenerateNormError(AnnuflowError):
    code = "degenerate-norm"


class DivergedError(AnnuflowError):
    """Inversion residual grew for several consecutive steps."""

    code = "diverged"


class InnerSolveFailureError(AnnuflowError):
    """A steady solve inside the inversion loop failed; carries iteration."""

    code = "inner-solve-failure"


class SingularIdPlusKError(AnnuflowError):
    code = "singular-id-plus-k"
