"""Exception types shared across the solver."""


class SolverError(Exception):
    """Base class for all rootbranch errors."""


class OutOfDomainError(SolverError):
    """Parameter value lies outside the declared domain."""


class NonFiniteError(SolverError):
    """Function evaluation produced inf or nan."""


class CertificateError(SolverError):
    """This circle or step does not certify; the caller tries another."""


class ZeroOnContourError(CertificateError):
    """A zero lies on (or numerically too close to) the integration contour."""


class NonIntegerWindingError(CertificateError):
    """Winding quadratures at M and 2M nodes did not settle on one integer."""


class NoZerosInDiskError(CertificateError):
    """Zero count inside the disk is 0, so no monic factor exists."""


class NoConvergenceError(CertificateError):
    """Polynomial root refinement did not meet the residual contract."""


class CofactorVanishesError(CertificateError):
    """F/P dropped below the nonvanishing floor inside the disk."""


class NoRadiusFoundError(SolverError):
    """Radius scan exhausted its halving budget without an admissible circle."""


class ProblemSyntaxError(SolverError):
    """Problem file or expression text failed to parse."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.reason = message  # without the position
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, col {col})"
        super().__init__(message)


class ProblemValidationError(SolverError):
    """Problem parsed but violates a structural constraint."""
