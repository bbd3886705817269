"""Hermitian-matrix utilities: inverse square roots, tolerant rank, null spaces.

A thin, carefully-toleranced layer over numpy's Hermitian eigendecomposition
that holds the package's one rank rule (``nonzero_eigenvalues``): an eigenvalue
counts as nonzero exactly when it exceeds rank_rel_tol * lambda_max, and none
does when lambda_max <= 0.  Each matrix is eigen-solved once, by ``_eigh``:
rank, null spaces, invertibility and degeneracy apply the rule to its values,
linear independence to the spectrum of the member-whitened block Gram
(``whitened_rank``, whitened by one ``_eigh`` of the members' self Grams).
Every solve passes one Hermitian gate, the package's only Hermitian test: it
measures ||P - P^H||_F, and turns an overflowed Gram (a NaN deviation) into
NonFiniteError, not a numpy error.
"""

from __future__ import annotations

import numpy as np

from .core import DEFAULT_TOLERANCES, HERMITIAN_TOL, ToleranceConfig, _square_matrix
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


def _hermitian_part(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P + P^H) / 2 and ||P - P^H||_F of each matrix in an (..., n, n) stack, after the Hermitian gate.

    Raises NotHermitianError unless ||P - P^H||_F <= HERMITIAN_TOL * max(1, ||P||_F)
    for every matrix: every eigen-solve in the package goes through this test.
    A non-finite deviation (inf - inf in an overflowed Gram) raises NonFiniteError.
    """
    adjoint = arr.conj().swapaxes(-1, -2)
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite deviation is raised below
        deviation = np.linalg.norm(arr - adjoint, axis=(-2, -1))
        bound = HERMITIAN_TOL * np.maximum(1.0, np.linalg.norm(arr, axis=(-2, -1)))
    # written so that a NaN deviation fails the test
    if not np.all(deviation <= bound):
        if not np.isfinite(deviation).all():
            raise NonFiniteError(f"matrix overflowed: ||P - P^H||_F = {np.max(deviation):.3e}")
        raise NotHermitianError(
            f"matrix is not Hermitian: ||P - P^H||_F = {np.max(deviation):.3e}"
        )
    return (arr + adjoint) / 2.0, deviation


def _eigh(p) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and unitary eigenvectors of a Hermitian matrix, or of each in a stack."""
    return np.linalg.eigh(_hermitian_part(np.asarray(p))[0])


def nonzero_eigenvalues(w: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """The rank rule: mask of ascending eigenvalues w above rank_rel_tol * lambda_max.

    Applied along the last axis, so an (..., n) stack is ranked matrix by matrix.
    All False where lambda_max <= 0, so the zero matrix has rank 0.
    """
    top = w[..., -1:]
    return (top > 0) & (w > cfg.rank_rel_tol * top)


def whitened_rank(gram: np.ndarray, self_grams: np.ndarray, cfg: ToleranceConfig):
    """The independence verdict: the rank rule on the member-whitened Gram W of a block Gram G.

    With G gated and the members' self Grams S_k = <f_k, f_k> (a (K, N, N) stack,
    formed as is_degenerate forms them) = U_k diag(lambda_k) U_k^H, W is the
    Hermitian part of T G T^H, T = blockdiag(diag(mask_k lambda_k^(-1/2)) U_k^H),
    mask_k the rule on lambda_k.  A member is_degenerate calls degenerate leaves a
    zero row in W; otherwise W has the spectrum of B^-1 G B^-H, B = blockdiag(chol S_k),
    a function of the angles between the members' row spaces only, which scaling a
    member or multiplying it on the left by an invertible matrix keeps.  W's leading
    principal submatrices are the whitened Grams of the member prefixes.  Returns the
    rank, W's ascending eigenvalues, W, the (K, N, N) stack U_k diag(lambda_k^(-1/2))
    (weight 1 off mask_k) mapping W's coordinates to G's, the gate's ||G - G^H||_F
    and the (K, N) lambda_k.
    """
    hermitian, deviation = _hermitian_part(np.asarray(gram))
    k, n = self_grams.shape[:2]
    lam, u = _eigh(self_grams)
    mask = nonzero_eigenvalues(lam, cfg)
    back = u / np.sqrt(np.where(mask, lam, 1.0))[:, None, :]
    t = (back * mask[:, None, :]).conj().swapaxes(-1, -2)
    rows = (t @ hermitian.reshape(k, n, k * n)).reshape(k * n, k, n)  # T G, columns split by member
    product = (rows.swapaxes(0, 1) @ t.conj().swapaxes(-1, -2)).swapaxes(0, 1).reshape(k * n, k * n)
    whitened = (product + product.conj().T) / 2.0
    w = np.linalg.eigvalsh(whitened)
    return int(nonzero_eigenvalues(w, cfg).sum()), w, whitened, back, deviation, lam


def herm_inv_sqrt(p, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """T with T @ P @ T = I for Hermitian positive definite P.

    Raises SingularMatrixError exactly when rank_tol(P) < N; for a self-Gram
    <f, f> that means f is degenerate.
    """
    w, v = _eigh(_square_matrix(p))
    if not nonzero_eigenvalues(w, cfg).all():
        raise SingularMatrixError(
            f"matrix is singular at rank tolerance: eigenvalue range "
            f"[{w[0]:.3e}, {w[-1]:.3e}]"
        )
    t = (v / np.sqrt(w)) @ v.conj().T
    return (t + t.conj().T) / 2.0


def rank_tol(p, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> int:
    """Count of eigenvalues above rank_rel_tol * lambda_max (0 for the zero matrix)."""
    return int(nonzero_eigenvalues(_eigh(_square_matrix(p))[0], cfg).sum())


def null_space_basis(p, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Orthonormal columns spanning the (tolerant) null space of a Hermitian PSD matrix:
    the eigenvectors of its N - rank_tol(P) smallest eigenvalues."""
    w, v = _eigh(_square_matrix(p))
    return v[:, ~nonzero_eigenvalues(w, cfg)]


def null_space_included(a, null_p, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """True when null(P) (given by its orthonormal basis) lies inside null(A^H).

    Tests ||A^H u||_2 <= rank_rel_tol * ||A||_F for every basis column u, a
    bound relative to A, so scaling A does not change the answer.  An empty
    basis (full-rank P) is vacuously included; A = 0 absorbs everything.
    """
    arr = _square_matrix(a)
    basis = np.asarray(null_p)
    if basis.size == 0:
        return True
    if basis.ndim != 2 or basis.shape[0] != arr.shape[0]:
        raise DimensionMismatchError(
            f"null basis shape {basis.shape} incompatible with {arr.shape[0]}x{arr.shape[0]} matrix"
        )
    images = arr.conj().T @ basis
    bound = cfg.rank_rel_tol * np.linalg.norm(arr)
    return bool(np.all(np.linalg.norm(images, axis=0) <= bound))
