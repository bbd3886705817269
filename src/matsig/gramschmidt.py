"""Gram-Schmidt with matrix-valued projection coefficients.

Matrix multiplication does not commute, so the projection coefficient always
multiplies from the left, both in the orthonormalizing recursion

    g_1 = <f_1, f_1>^{-1/2} f_1
    g_k = <g^_k, g^_k>^{-1/2} g^_k,   g^_k = f_k - sum_{l<k} <f_k, g_l> g_l

and in the plain orthogonalizing variant that keeps the un-normalized
residuals f^_k together with their mu coefficients

    f^_k = f_k - sum_{l<k} mu[l, k] f^_l,   mu[l, k] = <f_k, f^_l> <f^_l, f^_l>^{-1}.

Both come from one Householder QR factorisation of the family's KN x MN row
matrix R (row block k holds f_k), R = L Q with L lower block-triangular and Q
with orthonormal rows.  It is computed as R^T = Q^T L^T, the QR of the
transpose, a view of R, so no conjugate copy of R is made.  (Its factors are
the conjugates of those of R^H = Q^H L^H in almost every draw, but not bit for
bit in all: a signed zero can flip a reflector.)  Then f^_k = L_kk Q_k
(f^_1 = f_1 exactly), mu[l, k] = L_kl L_ll^{-1}, and g_k = polar(L_kk) Q_k
with polar(L) = U V^H from the SVD L = U S V^H: exactly the classical output,
with the backward stability of Householder QR, so no reorthogonalization pass
is needed.  The residuals inherit Q's orthogonality instead of cancelling f_k
against its predecessors.

A family is refused, with DegenerateStepError at the first member prefix that
is_linearly_independent's rule on L L^H = R R^H calls dependent, exactly when
the rule calls the whole family dependent: no non-orthonormal output escapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    MatrixSignal,
    SignalFamily,
    ToleranceConfig,
    _self_grams,
    check_same_shape,
    from_rows,
    inner_product,
    is_orthonormal_set,
    linear_combination,
    orthonormality_residual,
    to_rows,
)
from .errors import (
    BasisNotOrthonormalError,
    DegenerateStepError,
    MatrixSignalError,
)
from .independence import _independence_report
from .linalg import rank_tol

__all__ = [
    "GramSchmidtResult",
    "orthonormalize",
    "orthogonalize",
    "expand",
    "reconstruct",
    "parseval_residual",
]


@dataclass(frozen=True, eq=False)
class GramSchmidtResult:
    """Output family plus per-step bookkeeping.

    In "orthogonalize" mode ``mu`` holds the (K, K, N, N) coefficient table
    with mu[l, k] filled for l < k, and ``step_norms[k]`` is the signal norm of
    the k-th residual; both are None in "orthonormalize" mode.
    ``reorthogonalized`` is always False, as the QR construction needs no
    second pass; it stays for the callers and files that record it.
    """

    ortho: SignalFamily
    mu: np.ndarray | None
    step_norms: np.ndarray | None
    mode: str
    reorthogonalized: bool = False


def _factor(fam: SignalFamily, cfg: ToleranceConfig):
    """The (K, N, K, N) blocks of L, the L_kk, the rows of Q, and polar factors and singular values of L_kk.

    Refuses the family when is_linearly_independent's rule calls L L^H = R R^H
    dependent (with M < K, L is KN x MN), at the first member prefix it calls dependent.
    """
    k, n = fam.k, fam.n
    rows = to_rows(fam.coeffs_array)
    q, upper = np.linalg.qr(rows.T)
    self_grams = _self_grams(rows.reshape(k, n, -1))  # the bits is_degenerate forms, from the view QR factors
    report, whitened, *_ = _independence_report(upper.T @ upper.conj(), self_grams, cfg)
    if not report.independent:
        prefixes = (j for j in range(1, k + 1) if rank_tol(whitened[: j * n, : j * n], cfg) < j * n)
        raise DegenerateStepError(next(prefixes, k) - 1, report)  # the whole family is the last prefix
    lower = upper.T.reshape(k, n, k, n)
    diagonal = lower[np.arange(k), :, np.arange(k), :]
    u, s, vh = np.linalg.svd(diagonal)
    return lower, diagonal, q.T, u @ vh, s


def orthonormalize(fam: SignalFamily, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> GramSchmidtResult:
    """Turn a linearly independent family into an orthonormal one.

    Output k is polar(L_kk) Q_k, the classical g_k = <g^_k, g^_k>^{-1/2} g^_k.
    An output failing the orthonormal-set test at ortho_tol raises MatrixSignalError.
    """
    _, _, q, polar, _ = _factor(fam, cfg)
    rows = (polar @ q.reshape(fam.k, fam.n, -1)).reshape(q.shape)
    ortho = SignalFamily.from_coeffs(from_rows(rows, fam.n), field=fam.field)
    residual = orthonormality_residual(ortho)
    if not residual <= cfg.ortho_tol:
        raise MatrixSignalError(f"orthonormalization failed: residual {residual:.3e}")
    return GramSchmidtResult(ortho=ortho, mu=None, step_norms=None, mode="orthonormalize")


def orthogonalize(fam: SignalFamily, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> GramSchmidtResult:
    """Pairwise-orthogonalize without normalizing, returning the mu table."""
    lower, diagonal, q, _, s = _factor(fam, cfg)
    k, n = fam.k, fam.n
    residuals = diagonal @ q.reshape(k, n, -1)
    residuals[0] = to_rows(fam.coeffs_array[0])  # f^_1 = f_1 exactly, not L_11 Q_1 up to roundoff
    earlier = np.arange(k)[:, None] < np.arange(k)  # earlier[l, k]: step l precedes step k
    inverses = np.linalg.inv(diagonal)
    mu = np.where(earlier[:, :, None, None], lower.transpose(2, 0, 1, 3) @ inverses[:, None], 0.0)
    return GramSchmidtResult(
        ortho=SignalFamily.from_coeffs(from_rows(residuals.reshape(k * n, -1), n), field=fam.field),
        mu=mu,
        step_norms=np.sqrt(np.linalg.norm(s**2, axis=1)),
        mode="orthogonalize",
    )


def expand(
    f: MatrixSignal, basis: SignalFamily, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> np.ndarray:
    """Expansion coefficients F_k = <f, Phi_k> against an orthonormal basis."""
    check_same_shape(f, basis)
    if not is_orthonormal_set(basis, cfg.ortho_tol):
        raise BasisNotOrthonormalError("expansion basis fails the orthonormal-set test")
    # R_f R_basis^H is the N x KN row [<f, Phi_1> ... <f, Phi_K>]
    return from_rows(to_rows(f.coeffs) @ to_rows(basis.coeffs_array).conj().T, basis.n)[0]


def reconstruct(coeffs, basis: SignalFamily) -> MatrixSignal:
    """sum_k F_k Phi_k from expansion coefficients."""
    return linear_combination(basis, coeffs)


def parseval_residual(
    f: MatrixSignal, basis: SignalFamily, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> float:
    """|| <f, f> - sum_k F_k F_k^H ||_F; zero exactly when f lies in the span."""
    coeffs = expand(f, basis, cfg)
    total = np.einsum("kil,kjl->ij", coeffs, coeffs.conj())
    return float(np.linalg.norm(inner_product(f, f) - total))
