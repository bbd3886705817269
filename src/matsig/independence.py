"""Degeneracy and linear independence of matrix-valued signal families.

A signal f is degenerate when its self Gram <f, f> is rank deficient;
equivalently (and tested as such) when its N row functions are linearly
dependent as ordinary scalar L2 functions.

A family {f_k} is linearly independent when every left-matrix-coefficient
combination sum_k F_k f_k that comes out degenerate forces null(<f, f>) to sit
inside null(F_k^H) for all k.  That definition quantifies over all coefficient
choices, so it is checked through an equivalent operational form: the K*N row
functions of all members are conventionally independent, i.e. the assembled
KN x KN block Gram matrix has full rank.  verify_independence_witness probes
the definition directly for particular coefficient choices, and
dependent_witness_search reconstructs an explicit violating choice for any
rank-deficient family, so the equivalence is itself cross-validated by the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    MatrixSignal,
    SignalFamily,
    ToleranceConfig,
    inner_product,
    linear_combination,
    norm_m,
    to_rows,
)
from .errors import DimensionMismatchError
from .linalg import nonzero_eigenvalues, null_space_basis, null_space_included, rank_tol

__all__ = [
    "BlockGram",
    "IndependenceReport",
    "row_function_matrix",
    "is_degenerate",
    "rows_linearly_dependent",
    "block_gram",
    "is_linearly_independent",
    "verify_independence_witness",
    "dependent_witness_search",
]


@dataclass(frozen=True, eq=False)
class BlockGram:
    """All pairwise inner products of a family.

    blocks[k, l] = <f_k, f_l>; ``assembled`` is the same data as one Hermitian
    PSD KN x KN matrix whose rank characterizes linear independence.
    """

    blocks: np.ndarray
    assembled: np.ndarray


@dataclass(frozen=True)
class IndependenceReport:
    independent: bool
    block_gram_rank: int
    required_rank: int
    min_eigenvalue: float


def row_function_matrix(f: MatrixSignal) -> np.ndarray:
    """The N x (M*N) matrix whose row i concatenates row i of every coefficient.

    Row i is the coefficient vector of the i-th row function of f over the
    scalar basis, so <f, f> equals R @ R^H exactly.
    """
    return to_rows(f.coeffs)


def is_degenerate(f: MatrixSignal, cfg: ToleranceConfig | None = None) -> bool:
    """True when <f, f> is rank deficient at the configured tolerance."""
    cfg = cfg or DEFAULT_TOLERANCES
    return rank_tol(inner_product(f, f), cfg) < f.n


def rows_linearly_dependent(f: MatrixSignal, cfg: ToleranceConfig | None = None) -> bool:
    """True when the N row functions of f are linearly dependent.

    Decided by the singular values of the stacked row-coefficient matrix; the
    threshold sqrt(rank_rel_tol) * sigma_max matches the eigenvalue threshold
    used on <f, f> = R R^H, so this agrees with is_degenerate while taking an
    independent computational route (SVD of R instead of eigh of the Gram).
    """
    cfg = cfg or DEFAULT_TOLERANCES
    s = np.linalg.svd(row_function_matrix(f), compute_uv=False)
    if s[0] == 0.0:
        return True
    rank = int(np.sum(s > np.sqrt(cfg.rank_rel_tol) * s[0]))
    return rank < f.n


def block_gram(fam: SignalFamily) -> BlockGram:
    """All pairwise inner products, as the one product R R^H of the KN x MN row matrix."""
    rows = to_rows(fam.coeffs_array)
    assembled = rows @ rows.conj().T
    return BlockGram(assembled.reshape(fam.k, fam.n, fam.k, fam.n).swapaxes(1, 2), assembled)


def is_linearly_independent(
    fam: SignalFamily, cfg: ToleranceConfig | None = None
) -> IndependenceReport:
    """Rank test of the assembled block Gram matrix."""
    cfg = cfg or DEFAULT_TOLERANCES
    assembled = block_gram(fam).assembled
    w = np.linalg.eigvalsh((assembled + assembled.conj().T) / 2.0)
    rank = int(nonzero_eigenvalues(w, cfg).sum())
    required = fam.k * fam.n
    return IndependenceReport(rank == required, rank, required, float(w[0]))


def verify_independence_witness(
    fam: SignalFamily,
    coeffs: Sequence[np.ndarray] | np.ndarray,
    cfg: ToleranceConfig | None = None,
) -> bool:
    """Check the independence condition for one concrete coefficient choice.

    Forms f = sum_k F_k f_k.  If f is nondegenerate the condition is vacuous
    and the result is True; if f vanishes numerically the condition demands
    every F_k vanish; otherwise every null direction of <f, f> must be
    annihilated by every F_k^H.  A False result proves the family dependent.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    arr = np.asarray(coeffs)
    if arr.shape != (fam.k, fam.n, fam.n):
        raise DimensionMismatchError(
            f"expected witness coefficients of shape ({fam.k}, {fam.n}, {fam.n}), "
            f"got {arr.shape}"
        )
    f = linear_combination(fam, arr)

    # "f = 0" needs an external scale: the combination of O(1) inputs that
    # cancels to roundoff must count as zero even though its own largest
    # eigenvalue is positive.
    coeff_scale = max(float(np.linalg.norm(arr[k])) for k in range(fam.k))
    input_scale = max(norm_m(sig) for sig in fam)
    zero_scale = max(1.0, coeff_scale * input_scale)
    if norm_m(f) ** 2 <= cfg.rank_rel_tol * zero_scale**2:
        return coeff_scale <= cfg.rank_rel_tol * max(1.0, coeff_scale)

    # an empty null basis means <f, f> has full rank: the condition is vacuous
    null_b = null_space_basis(inner_product(f, f), cfg)
    return all(null_space_included(arr[k], null_b, cfg) for k in range(fam.k))


def dependent_witness_search(
    fam: SignalFamily, cfg: ToleranceConfig | None = None
) -> np.ndarray | None:
    """Construct coefficients that violate the independence condition, if any exist.

    A null vector w of the assembled block Gram encodes segment vectors
    v_k whose combination sum_k v_k^H f_k vanishes almost everywhere; the
    rank-one coefficients F_k = u v_k^H (u any unit vector) then sum to the
    zero signal while not all being zero, which is exactly a violating
    witness.  Returns the (K, N, N) coefficient stack, or None when the family
    is independent at tolerance.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    k, n = fam.k, fam.n
    assembled = block_gram(fam).assembled
    w, v = np.linalg.eigh((assembled + assembled.conj().T) / 2.0)
    if w[-1] <= 0:
        # every signal is zero: any single nonzero coefficient violates
        out = np.zeros((k, n, n), dtype=complex)
        out[0] = np.eye(n)
        return out
    if nonzero_eigenvalues(w, cfg).all():
        return None
    null_vec = v[:, 0]
    segments = null_vec.reshape(k, n)
    largest = int(np.argmax(np.linalg.norm(segments, axis=1)))
    u = segments[largest] / np.linalg.norm(segments[largest])
    return np.stack([np.outer(u, segments[j].conj()) for j in range(k)])
