"""Exception types shared across the package."""

from __future__ import annotations


class NldsError(Exception):
    """Base class for all package errors."""


class InvalidDomainError(NldsError):
    """Bad interval or cell count when building a grid."""


class DimensionError(NldsError):
    """Array lengths or matrix shapes do not match."""


class ExprError(NldsError):
    """Base class for expression-language errors; carries a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExprSyntaxError(ExprError):
    pass


class ExprEvalError(ExprError):
    """Unbound variable or a domain fault (sqrt of a negative, division
    by zero, negative base with fractional exponent)."""


class ValidationGateError(NldsError):
    """Assembly refused because system validation failed and no force flag
    was given.  Carries the offending report."""

    def __init__(self, report):
        names = ", ".join(sorted({v.check for v in report.violations}))
        super().__init__(f"system validation failed: {names}")
        self.report = report


class ResolventDomainError(NldsError):
    """Resolvent parameter not strictly above the lower block's spectral
    bound."""


class NonConvergenceError(NldsError):
    """Iterative solver ran out of budget.  Carries the last iterate."""

    def __init__(self, message: str, estimate: float, residual: float):
        super().__init__(f"{message} (last estimate {estimate:.6g}, residual {residual:.3g})")
        self.estimate = estimate
        self.residual = residual


class ClassificationError(NldsError):
    """Threshold ladder behaved non-monotonically; carries the samples."""

    def __init__(self, message: str, samples):
        super().__init__(message)
        self.samples = list(samples)


class SizeCapError(NldsError):
    """Dense-spectrum request above the supported matrix size."""


class InvalidParametersError(NldsError):
    """Model parameters violate a precondition (for instance a
    non-dissipative linearization where one is required)."""


class CertificateInconsistencyError(NldsError):
    """A spectral gap was detected but the converged eigenvector is not
    strictly positive: a discretization artifact."""


class GridConsistencyError(NldsError):
    """A discrete quantity with a known exact value (such as the unit
    eigenvalue of the normalized kernel operator) deviated beyond the
    allowed bound; refine the grid."""


class ConfigError(NldsError):
    """Malformed run configuration."""
