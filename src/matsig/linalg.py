"""Hermitian-matrix utilities: principal square roots, tolerant rank, null spaces.

Everything here is a thin, carefully-toleranced layer over numpy's Hermitian
eigendecomposition, and it holds the package's one rank rule
(``nonzero_eigenvalues``): an eigenvalue counts as nonzero exactly when it
exceeds rank_rel_tol * lambda_max, and none does when lambda_max <= 0.  Rank,
null spaces, invertibility, degeneracy and linear independence all take their
verdict from that mask.  For the square root, eigenvalues in
[-psd_tol * ||P||_F, 0) are treated as roundoff from Gram assembly and clamped
to zero; anything more negative is rejected as indefinite.
"""

from __future__ import annotations

import numpy as np

from .core import DEFAULT_TOLERANCES, ToleranceConfig
from .errors import (
    DimensionMismatchError,
    IndefiniteError,
    NotHermitianError,
    SingularMatrixError,
)

__all__ = [
    "herm_sqrt",
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


def _eigh(p, cfg: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and unitary eigenvectors of a square Hermitian matrix."""
    arr = _as_square(p)
    deviation = np.linalg.norm(arr - arr.conj().T)
    if deviation > cfg.hermitian_tol * max(1.0, np.linalg.norm(arr)):
        raise NotHermitianError(
            f"matrix is not Hermitian: ||P - P^H||_F = {deviation:.3e}"
        )
    return np.linalg.eigh((arr + arr.conj().T) / 2.0)


def nonzero_eigenvalues(w: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """The rank rule: mask of ascending eigenvalues w above rank_rel_tol * lambda_max.

    All False when lambda_max <= 0, so the zero matrix has rank 0.
    """
    if w[-1] <= 0:
        return np.zeros(w.shape, dtype=bool)
    return w > cfg.rank_rel_tol * w[-1]


def herm_sqrt(p, cfg: ToleranceConfig | None = None) -> np.ndarray:
    """The principal PSD square root S of a Hermitian PSD matrix, S @ S = P."""
    cfg = cfg or DEFAULT_TOLERANCES
    w, v = _eigh(p, cfg)
    floor = -cfg.psd_tol * np.linalg.norm(np.asarray(p))
    if w[0] < floor:
        raise IndefiniteError(
            f"matrix is not PSD: min eigenvalue {w[0]:.3e} below {floor:.3e}"
        )
    w = np.clip(w, 0.0, None)
    s = (v * np.sqrt(w)) @ v.conj().T
    return (s + s.conj().T) / 2.0


def herm_inv_sqrt(p, cfg: ToleranceConfig | None = None) -> np.ndarray:
    """T with T @ P @ T = I for Hermitian positive definite P.

    Raises SingularMatrixError unless every eigenvalue is nonzero under the
    rank rule; for Gram matrices that means a degenerate signal reached an
    orthonormalization step.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    w, v = _eigh(p, cfg)
    if not nonzero_eigenvalues(w, cfg).all():
        raise SingularMatrixError(
            f"matrix is singular at rank tolerance: eigenvalue range "
            f"[{w[0]:.3e}, {w[-1]:.3e}]"
        )
    t = (v / np.sqrt(w)) @ v.conj().T
    return (t + t.conj().T) / 2.0


def rank_tol(p, cfg: ToleranceConfig | None = None) -> int:
    """Count of eigenvalues above rank_rel_tol * lambda_max (0 for the zero matrix)."""
    cfg = cfg or DEFAULT_TOLERANCES
    w, _ = _eigh(p, cfg)
    return int(nonzero_eigenvalues(w, cfg).sum())


def null_space_basis(p, cfg: ToleranceConfig | None = None) -> np.ndarray:
    """Orthonormal columns spanning the (tolerant) null space of a Hermitian PSD matrix.

    Complementary to rank_tol: the returned column count is N - rank_tol(P).
    """
    cfg = cfg or DEFAULT_TOLERANCES
    w, v = _eigh(p, cfg)
    return v[:, ~nonzero_eigenvalues(w, cfg)]


def null_space_included(a, null_p, cfg: ToleranceConfig | None = None) -> bool:
    """True when null(P) (given by its orthonormal basis) lies inside null(A^H).

    Tests ||A^H u||_2 <= rank_rel_tol * max(1, ||A||_F) for every basis column
    u.  An empty basis (full-rank P) is vacuously included; A = 0 absorbs
    everything.
    """
    cfg = cfg or DEFAULT_TOLERANCES
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
