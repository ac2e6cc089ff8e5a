"""Error taxonomy shared across the package.

Every failure mode that a caller can trigger through bad inputs or
exhausted budgets gets its own exception type, so scripts and the CLI
can map them to exit codes without string matching.
"""


class BesovLabError(Exception):
    """Base class for all package-specific errors."""

    def __init__(self, *args, param: str | None = None):
        super().__init__(*args)
        self.param = param  # the check parameter at fault, if a check's rule raised


class EmptyDomain(BesovLabError):
    """No lattice node fell strictly inside the domain at this spacing."""


class BudgetExceeded(BesovLabError):
    """A node or work budget was exceeded before any compute started."""


class InvalidExponent(BesovLabError):
    """An integrability or smoothness exponent is outside its legal range."""


class GridMismatch(BesovLabError):
    """Two grid functions (or a function and an operator) live on different grids."""


class ComplexPotential(BesovLabError):
    """Potential samples must be real valued."""


class UnsupportedDimension(BesovLabError):
    """Requested dimension is outside the supported range."""


class SolverFailure(BesovLabError):
    """A dense or sparse linear-algebra kernel did not converge."""


class DenseCapExceeded(BesovLabError):
    """Matrix order exceeds the configured dense-eigendecomposition cap."""


class MissingEigendata(BesovLabError):
    """Operation requires a spectral decomposition that was never computed."""


class ChebyshevToleranceUnmet(BesovLabError):
    """Adaptive Chebyshev degree hit its cap before reaching the target accuracy."""


class NegativeSpectrumComponent(BesovLabError):
    """Input has mass on the nonpositive spectrum where a fractional power is undefined."""


class ZeroEigenvaluePresent(BesovLabError):
    """Homogeneous decomposition refused: the spectrum touches zero."""


class NegativeShiftedEigenvalue(BesovLabError):
    """Shifted operator is not positive, so the fractional power is undefined."""


class InvalidSpectrumBounds(BesovLabError):
    """Spectral window bounds are empty or out of order."""


class IndexConstraintViolated(BesovLabError):
    """Exponent tuple violates the admissibility constraints of the statement being checked."""


class InvalidCheckParameter(BesovLabError, ValueError):
    """A check keyword argument is outside its domain (e.g. an empty time grid)."""


class AssumptionViolated(BesovLabError):
    """A check's standing assumption (smallness flag, positivity, ...) does not hold."""


class ConfigInvalid(BesovLabError):
    """Run configuration failed validation."""


class CheckFailed(BesovLabError):
    """At least one verification check failed in assert mode."""
