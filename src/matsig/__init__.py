"""matsig: matrix-valued signal spaces with a matrix-valued inner product.

Signals take N x N matrix values; their inner product <f, g> = integral of
f(t) g(t)^H dt is itself an N x N matrix.  The package implements the two
induced norms and their equivalence, the matrix notion of orthogonality and
its trace/entrywise relatives, degeneracy and linear independence with
left-matrix coefficients, Gram-Schmidt with matrix-valued projection
coefficients, and lattices of integer-matrix combinations.
"""

from .core import (
    DEFAULT_TOLERANCES,
    MatrixSignal,
    SignalFamily,
    ToleranceConfig,
    add,
    inner_product,
    is_orthogonal_b,
    is_orthonormal_set,
    left_mul,
    linear_combination,
    norm_l2,
    norm_m,
    right_mul,
    scalar_inner_product,
    scale,
    sub,
    zero_signal,
)
from .errors import (
    BasisNotOrthonormalError,
    DegenerateStepError,
    DimensionMismatchError,
    EnumerationCapError,
    IndefiniteError,
    InfeasibleParametersError,
    MatrixSignalError,
    NonIntegerCoefficientError,
    NotHermitianError,
    NotIndependentError,
    NotRealError,
    SchemaError,
    SingularMatrixError,
)
from .fileio import (
    SampledSignals,
    ingest_sampled,
    load_family,
    load_sampled,
    quadrature_weights,
    save_family,
    save_sampled,
)
from .generate import FAMILY_KINDS, gen_random_family
from .gramschmidt import (
    GramSchmidtResult,
    expand,
    orthogonalize,
    orthonormalize,
    parseval_residual,
    reconstruct,
)
from .independence import (
    BlockGram,
    IndependenceReport,
    block_gram,
    dependent_witness_search,
    is_degenerate,
    is_linearly_independent,
    row_function_matrix,
    rows_linearly_dependent,
    verify_independence_witness,
)
from .lattice import (
    DEFAULT_ENUMERATION_CAP,
    LatticePoint,
    MatrixLattice,
    build_lattice,
    verify_gram_identity,
    verify_norm_inequality,
)
from .linalg import (
    herm_inv_sqrt,
    herm_sqrt,
    null_space_basis,
    null_space_included,
    rank_tol,
)

__version__ = "0.1.0"
