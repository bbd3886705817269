"""Hermitian-matrix utilities: inverse square roots, tolerant rank, null spaces.

Everything here is a thin, carefully-toleranced layer over numpy's Hermitian
eigendecomposition, and it holds the package's one rank rule
(``nonzero_eigenvalues``): an eigenvalue counts as nonzero exactly when it
exceeds rank_rel_tol * lambda_max, and none does when lambda_max <= 0.  Rank,
null spaces, invertibility, degeneracy and linear independence all take their
verdict from that mask, which ranks each matrix of a stack along the last axis
of its eigenvalues.  Every eigen-solve in the package goes through ``_eigh`` or
``_eigvalsh``, whose Hermitian gate turns an overflowed Gram (a NaN deviation)
into NonFiniteError, not a numpy error.
"""

from __future__ import annotations

import numpy as np

from .core import DEFAULT_TOLERANCES, HERMITIAN_TOL, ToleranceConfig
from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    NotHermitianError,
    SingularMatrixError,
)

__all__ = [
    "herm_inv_sqrt",
    "rank_tol",
    "null_space_basis",
    "null_space_included",
]


def _as_square(p) -> np.ndarray:
    arr = np.asarray(p)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _hermitian_part(arr: np.ndarray) -> np.ndarray:
    """(P + P^H) / 2 of each matrix in an (..., n, n) stack, after the Hermitian gate.

    Raises NotHermitianError unless ||P - P^H||_F <= HERMITIAN_TOL * max(1, ||P||_F)
    for every matrix: every eigen-solve in the package goes through this test.
    A non-finite deviation (inf - inf in an overflowed Gram) raises NonFiniteError.
    """
    adjoint = arr.conj().swapaxes(-1, -2)
    deviation = np.linalg.norm(arr - adjoint, axis=(-2, -1))
    bound = HERMITIAN_TOL * np.maximum(1.0, np.linalg.norm(arr, axis=(-2, -1)))
    # written so that a NaN deviation fails the test
    if not np.all(deviation <= bound):
        if not np.isfinite(deviation).all():
            raise NonFiniteError(f"matrix overflowed: ||P - P^H||_F = {np.max(deviation):.3e}")
        raise NotHermitianError(
            f"matrix is not Hermitian: ||P - P^H||_F = {np.max(deviation):.3e}"
        )
    return (arr + adjoint) / 2.0


def _eigh(p) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and unitary eigenvectors of a square Hermitian matrix."""
    return np.linalg.eigh(_hermitian_part(_as_square(p)))


def _eigvalsh(p) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or of each in an (..., n, n) stack."""
    return np.linalg.eigvalsh(_hermitian_part(np.asarray(p)))


def nonzero_eigenvalues(w: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """The rank rule: mask of ascending eigenvalues w above rank_rel_tol * lambda_max.

    Applied along the last axis, so an (..., n) stack is ranked matrix by matrix.
    All False where lambda_max <= 0, so the zero matrix has rank 0.
    """
    top = w[..., -1:]
    return (top > 0) & (w > cfg.rank_rel_tol * top)


def herm_inv_sqrt(p, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """T with T @ P @ T = I for Hermitian positive definite P.

    Raises SingularMatrixError unless every eigenvalue is nonzero under the
    rank rule; for a self-Gram <f, f> that means f is degenerate.
    """
    w, v = _eigh(p)
    if not nonzero_eigenvalues(w, cfg).all():
        raise SingularMatrixError(
            f"matrix is singular at rank tolerance: eigenvalue range "
            f"[{w[0]:.3e}, {w[-1]:.3e}]"
        )
    t = (v / np.sqrt(w)) @ v.conj().T
    return (t + t.conj().T) / 2.0


def rank_tol(p, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> int:
    """Count of eigenvalues above rank_rel_tol * lambda_max (0 for the zero matrix)."""
    return int(nonzero_eigenvalues(_eigvalsh(_as_square(p)), cfg).sum())


def null_space_basis(p, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Orthonormal columns spanning the (tolerant) null space of a Hermitian PSD matrix.

    Complementary to rank_tol: the returned column count is N - rank_tol(P).
    """
    w, v = _eigh(p)
    return v[:, ~nonzero_eigenvalues(w, cfg)]


def null_space_included(a, null_p, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """True when null(P) (given by its orthonormal basis) lies inside null(A^H).

    Tests ||A^H u||_2 <= rank_rel_tol * max(1, ||A||_F) for every basis column
    u.  An empty basis (full-rank P) is vacuously included; A = 0 absorbs
    everything.
    """
    arr = _as_square(a)
    basis = np.asarray(null_p)
    if basis.size == 0:
        return True
    if basis.ndim != 2 or basis.shape[0] != arr.shape[0]:
        raise DimensionMismatchError(
            f"null basis shape {basis.shape} incompatible with {arr.shape[0]}x{arr.shape[0]} matrix"
        )
    images = arr.conj().T @ basis
    bound = cfg.rank_rel_tol * max(1.0, np.linalg.norm(arr))
    return bool(np.all(np.linalg.norm(images, axis=0) <= bound))
