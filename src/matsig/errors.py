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
    degenerate.  Orthonormalization does not invert Grams: a degenerate step
    there raises DegenerateStepError.
    """


class DegenerateStepError(MatrixSignalError, ValueError):
    """Gram-Schmidt produced a degenerate residual at some step.

    This certifies that the input family is not linearly independent; the
    offending step index is stored in ``step``.
    """

    def __init__(self, step):
        self.step = step
        super().__init__(
            f"Gram-Schmidt residual at step {step} is degenerate; "
            "the input family is not linearly independent"
        )


class NotIndependentError(MatrixSignalError, ValueError):
    """A linearly independent family was required; the attached report says why not."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            f"family is not linearly independent: block Gram rank "
            f"{report.block_gram_rank} < {report.required_rank}"
        )


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
