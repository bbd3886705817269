"""Degeneracy and linear independence of matrix-valued signal families.

A signal f is degenerate when its self Gram <f, f> is rank deficient;
equivalently (and tested as such) when its N row functions are linearly
dependent as ordinary scalar L2 functions.

A family {f_k} is linearly independent when every left-matrix-coefficient
combination sum_k F_k f_k that comes out degenerate forces null(<f, f>) to sit
inside null(F_k^H) for all k.  That definition quantifies over all coefficient
choices, so it is checked through an equivalent operational form: the K*N row
functions of all members are conventionally independent, i.e. the assembled
KN x KN block Gram matrix has full rank, read off the member-whitened Gram
(``linalg.whitened_rank``), as Gram-Schmidt reads it.  verify_independence_witness
probes the definition directly for particular coefficient choices, and
dependent_witness_search reconstructs an explicit violating choice for any
rank-deficient family, so the equivalence is itself cross-validated by the
test suite.

analyze_family reads every family verdict off one block Gram R R^H, and every
member verdict and norm off one pass over the (K, N, MN) stack of the members'
row matrices; the single-signal functions are that pass at K = 1.  One
eigen-solve of the self Grams <f_k, f_k> decides degeneracy and whitens the
members for the independence verdict, so no family with a member called
degenerate is called independent.  Every rank verdict, the witness functions'
included, is the rank rule of ``linalg.nonzero_eigenvalues``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    PSD_TOL,
    MatrixSignal,
    SignalFamily,
    ToleranceConfig,
    _freeze,
    _member_rows,
    _norms_l2,
    _norms_m,
    _self_grams,
    gram_orthonormality_residual,
    linear_combination,
    to_rows,
)
from .linalg import (
    _eigh,
    nonzero_eigenvalues,
    null_space_basis,
    null_space_included,
    whitened_rank,
)

__all__ = [
    "BlockGram",
    "IndependenceReport",
    "FamilyAnalysis",
    "analyze_family",
    "is_degenerate",
    "rows_linearly_dependent",
    "block_gram",
    "is_linearly_independent",
    "verify_independence_witness",
    "dependent_witness_search",
]

NORM_EQUIV_SLACK = 1e-9  # relative slack of the norm-equivalence bounds


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
    """The rank rule on the member-whitened block Gram: its rank, the full rank KN, and its least eigenvalue."""

    independent: bool
    block_gram_rank: int
    required_rank: int
    min_eigenvalue: float


def _degenerate(w: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """Rank deficiency of each self Gram in a stack, from its ascending eigenvalues w."""
    return ~nonzero_eigenvalues(w, cfg).all(axis=-1)


def _rows_dependent(rows: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """Linear dependence of each member's N rows in a (K, N, MN) row stack: the singular
    values of R_k, read off the N x N factor T of R_k^T = Q T, against sqrt(rank_rel_tol) *
    sigma_max, the eigenvalue threshold of R_k R_k^H."""
    s = np.linalg.svd(np.linalg.qr(rows.swapaxes(-1, -2), mode="r"), compute_uv=False)
    return np.sum(s > np.sqrt(cfg.rank_rel_tol) * s[..., :1], axis=-1) < rows.shape[-2]


def is_degenerate(f: MatrixSignal, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """True when <f, f> is rank deficient at the configured tolerance."""
    return bool(_degenerate(_eigh(_self_grams(to_rows(f.coeffs)[None]))[0], cfg)[0])


def rows_linearly_dependent(f: MatrixSignal, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """True when the N row functions of f are linearly dependent: is_degenerate by QR and SVD of the rows."""
    return bool(_rows_dependent(to_rows(f.coeffs)[None], cfg)[0])


def block_gram(fam: SignalFamily) -> BlockGram:
    """All pairwise inner products, as the one product R R^H of the KN x MN row matrix."""
    rows = to_rows(fam.coeffs_array)
    assembled = rows @ rows.conj().T
    return BlockGram(assembled.reshape(fam.k, fam.n, fam.k, fam.n).swapaxes(1, 2), assembled)


def _independence_report(gram: np.ndarray, self_grams: np.ndarray, cfg: ToleranceConfig):
    """The report on a KN x KN block Gram, then the rest of ``whitened_rank``'s return."""
    rank, w, *rest = whitened_rank(gram, self_grams, cfg)
    return (IndependenceReport(rank == gram.shape[0], rank, gram.shape[0], float(w[0])), *rest)


def is_linearly_independent(
    fam: SignalFamily, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> IndependenceReport:
    """Rank test of the member-whitened block Gram matrix."""
    return _independence_report(block_gram(fam).assembled, _self_grams(_member_rows(fam)), cfg)[0]


@dataclass(frozen=True, eq=False)
class FamilyAnalysis:
    """Every verdict on a family, from one block Gram and one member pass; see ``analyze_family``.

    Per-member fields are read-only (K,) arrays.
    """

    gram: BlockGram
    independence: IndependenceReport
    hermitian_deviation: float  # ||G - G^H||_F, as the Hermitian gate of the rank test measured it
    psd_margin: float  # min over k of lambda_min(<f_k, f_k>) + PSD_TOL * max(1, ||<f_k, f_k>||_F)
    degenerate: np.ndarray  # is_degenerate of each member
    rows_dependent: np.ndarray  # rows_linearly_dependent of each member
    norm_m: np.ndarray
    norm_l2: np.ndarray
    norms_equivalent: bool  # N^(-1/4) ||f||_L2 <= ||f||_M <= N^(1/2) ||f||_L2, within NORM_EQUIV_SLACK
    orthonormality_residual: float
    orthonormal: bool  # orthonormality_residual <= ortho_tol


def analyze_family(fam: SignalFamily, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> FamilyAnalysis:
    """Every family verdict, from one product R R^H and one stacked pass over the members.

    The member pass takes the K self Grams, one eigen-solve of them (for
    degeneracy, the PSD margin and the independence verdict's whitening), one
    QR and SVD, and the norms, each stacked over K; ``is_degenerate``,
    ``rows_linearly_dependent``, ``norm_m`` and ``norm_l2`` are its K = 1 case.  ``gram``, ``independence`` and
    ``orthonormality_residual`` equal what ``block_gram``,
    ``is_linearly_independent`` and ``orthonormality_residual`` return.  A
    Gram that fails the Hermitian gate raises NotHermitianError.
    """
    gram = block_gram(fam)
    _freeze(gram.blocks)
    assembled = _freeze(gram.assembled)
    rows = _member_rows(fam)
    self_grams = _self_grams(rows)
    independence, _, _, deviation, w = _independence_report(assembled, self_grams, cfg)
    norms_m, norms_l2 = _freeze(_norms_m(self_grams)), _freeze(_norms_l2(rows))
    lower, upper = fam.n**-0.25 * norms_l2 * (1 - NORM_EQUIV_SLACK), fam.n**0.5 * norms_l2 * (1 + NORM_EQUIV_SLACK)
    residual = gram_orthonormality_residual(assembled, fam.k)
    return FamilyAnalysis(
        gram=gram,
        independence=independence,
        hermitian_deviation=float(deviation),
        psd_margin=float(np.min(w[:, 0] + PSD_TOL * np.maximum(1.0, norms_m**2))),
        degenerate=_freeze(_degenerate(w, cfg)),
        rows_dependent=_freeze(_rows_dependent(rows, cfg)),
        norm_m=norms_m,
        norm_l2=norms_l2,
        norms_equivalent=not np.any((norms_m < lower) | (norms_m > upper)),
        orthonormality_residual=residual,
        orthonormal=residual <= cfg.ortho_tol,
    )


def verify_independence_witness(
    fam: SignalFamily,
    coeffs: Sequence[np.ndarray] | np.ndarray,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> bool:
    """Check the independence condition for one concrete coefficient choice.

    Forms f = sum_k F_k f_k.  If f is nondegenerate the condition is vacuous
    and the result is True; if f vanishes numerically the condition demands
    every F_k vanish; otherwise every null direction of <f, f> must be
    annihilated by every F_k^H.  A False result proves the family dependent.
    """
    arr = np.asarray(coeffs)
    f = linear_combination(fam, arr)
    gram = _self_grams(to_rows(f.coeffs)[None])  # <f, f>, formed as is_degenerate forms it

    # "f = 0" is relative to the scale of its terms: a combination that cancels
    # to roundoff counts as zero even though its own largest eigenvalue is
    # positive, and it is the zero witness only when every F_k is exactly zero.
    coeff_scale = float(np.linalg.norm(arr, axis=(1, 2)).max())
    input_scale = float(_norms_m(_self_grams(_member_rows(fam))).max())
    if _norms_m(gram)[0] ** 2 <= cfg.rank_rel_tol * (coeff_scale * input_scale) ** 2:
        return coeff_scale == 0.0

    # an empty null basis means <f, f> has full rank: the condition is vacuous
    null_b = null_space_basis(gram[0], cfg)
    return all(null_space_included(arr[k], null_b, cfg) for k in range(fam.k))


def dependent_witness_search(
    fam: SignalFamily, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> np.ndarray | None:
    """Construct coefficients that violate the independence condition, if any exist.

    A null vector of the member-whitened block Gram, mapped back to the Gram's
    coordinates, encodes segment vectors v_k whose combination sum_k v_k^H f_k
    vanishes almost everywhere; the rank-one coefficients F_k = u v_k^H (u any
    unit vector) then sum to the zero signal while not all being zero, which is
    exactly a violating witness.  Returns the (K, N, N) coefficient stack, or
    None when is_linearly_independent says independent.
    """
    self_grams = _self_grams(_member_rows(fam))
    report, whitened, back, _, _ = _independence_report(block_gram(fam).assembled, self_grams, cfg)
    if report.independent:
        return None
    z = _eigh(whitened)[1][:, 0].reshape(fam.k, fam.n, 1)
    segments = (back @ z)[..., 0]
    u = segments[np.argmax(np.linalg.norm(segments, axis=1))]
    return (u / np.linalg.norm(u))[:, None] * segments.conj()[:, None, :]
