"""Exception types raised across the library."""


class MatrixSignalError(Exception):
    """Base class for all matsig errors."""


class DimensionMismatchError(MatrixSignalError, ValueError):
    """Operands have incompatible matrix dimension or coefficient count."""


class NonFiniteError(MatrixSignalError, ValueError):
    """Signal coefficients hold NaN or Infinity, in the real or the imaginary part."""


class NotHermitianError(MatrixSignalError, ValueError):
    """A matrix required to be Hermitian deviates beyond tolerance."""


class SingularMatrixError(MatrixSignalError, ValueError):
    """A matrix that must be invertible is singular at the configured rank tolerance.

    Raised by ``herm_inv_sqrt``; for a self-Gram <f, f> it means f is
    degenerate.  Orthonormalization inverts no Gram: it refuses a dependent
    family with DegenerateStepError.
    """


class NotIndependentError(MatrixSignalError, ValueError):
    """A linearly independent family was required; the attached report says why not."""

    def __init__(self, report, message):
        self.report = report
        super().__init__(message)


class DegenerateStepError(NotIndependentError):
    """Gram-Schmidt was given a family that is_linearly_independent's rule calls dependent.

    ``report`` is that rule's report, and ``step`` ends the first member prefix
    f_0 ... f_step that the rule calls dependent: the first degenerate residual.
    """

    def __init__(self, step, report):
        self.step = step
        message = f"Gram-Schmidt residual at step {step} is degenerate; the input family is not linearly independent"
        super().__init__(report, message)


class NotRealError(MatrixSignalError, ValueError):
    """A real signal family was required."""


class BasisNotOrthonormalError(MatrixSignalError, ValueError):
    """The supplied expansion basis does not pass the orthonormal-set test."""


class NonIntegerCoefficientError(MatrixSignalError, ValueError):
    """Lattice coefficients must be integer matrices."""


class EnumerationCapError(MatrixSignalError, ValueError):
    """A lattice enumeration would exceed the configured point cap."""


class InfeasibleParametersError(MatrixSignalError, ValueError):
    """Requested generator parameters cannot produce the requested family kind."""


class SchemaError(MatrixSignalError, ValueError):
    """A signal file violates the JSON schema; ``path`` locates the offending field."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")
