"""Exception types raised across the package.

Validation errors report which invariant failed and by how much (the
Hermiticity defect, the trace, the smallest eigenvalue), so a caller can
see how far outside the fixed tolerances of ``qmat`` an input lies.
"""

from contextlib import contextmanager


class RelatimeError(Exception):
    """Base class for all package-specific errors."""


@contextmanager
def _at(point: str):
    """Prefix a library error raised inside with the point it arose at."""
    try:
        yield
    except RelatimeError as exc:
        exc.args = (f"at {point}: {exc}",)
        raise


class QuantumStateError(RelatimeError, ValueError):
    """A matrix failed validation as a quantum state or operator."""


class NotHermitianError(QuantumStateError):
    def __init__(self, violation: float, what: str = "matrix"):
        self.violation = float(violation)
        super().__init__(
            f"{what} is not Hermitian: max |M - M^dag| = {violation:.3e}"
        )


class TraceNotOneError(QuantumStateError):
    def __init__(self, trace: complex):
        self.trace = complex(trace)
        super().__init__(
            f"density matrix trace is {trace.real:.12g} (|trace - 1| = "
            f"{abs(trace - 1):.3e}), expected 1"
        )


class NotPositiveError(QuantumStateError):
    def __init__(self, min_eigenvalue: float):
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(
            f"density matrix is not positive semidefinite: smallest "
            f"eigenvalue {min_eigenvalue:.3e}"
        )


class EigensolverError(RelatimeError):
    """The Hermitian eigensolver did not converge."""


class DimensionOverflowError(RelatimeError, ValueError):
    """A tensor product would exceed ``qmat.DIMENSION_CAP``."""


class DimensionMismatchError(RelatimeError, ValueError):
    """Operands have incompatible dimensions."""


class NonPositiveLambdaError(RelatimeError, ValueError):
    """The decoherence-rate parameter must be strictly positive."""


class EmptyTableError(RelatimeError, ValueError):
    """A tabulated kernel needs at least one row."""


class QuadratureDriftError(RelatimeError):
    """Kernel averaging lost more trace than the drift budget allows.

    Signals an inadequate quadrature rule, or a kernel whose characteristic
    function is not 1 at gap 0; the result is discarded rather than
    silently renormalized.
    """


class InvalidDimensionError(RelatimeError, ValueError):
    """A clock needs at least two pointer states and a positive tick."""


class NotPointerTimeError(RelatimeError, ValueError):
    """A conditioning time does not lie on the clock's pointer grid."""


class ZeroProbabilityError(RelatimeError):
    """Conditioning on a clock reading the state assigns no weight to."""


class KernelOffGridError(RelatimeError, ValueError):
    """Clock readout needs a kernel supported on the pointer grid."""


class ConsistencyError(RelatimeError):
    """Two routes that must agree analytically disagreed numerically."""


class ScenarioParseError(RelatimeError, ValueError):
    """Scenario text is syntactically malformed (message carries line info)."""


class ScenarioValidationError(RelatimeError, ValueError):
    """Scenario parsed but failed validation; lists every violation found."""

    def __init__(self, issues: list[str]):
        self.issues = list(issues)
        lines = "\n".join(f"  - {issue}" for issue in self.issues)
        super().__init__(f"{len(self.issues)} validation issue(s):\n{lines}")
