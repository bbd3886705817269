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

analyze_family reads every family verdict off one block Gram R R^H, and
each member's verdicts and norms from the single-signal functions above.
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
    _freeze,
    gram_orthonormality_residual,
    inner_product,
    linear_combination,
    norm_l2,
    norm_m,
    to_rows,
)
from .linalg import (
    _eigh,
    _eigvalsh,
    nonzero_eigenvalues,
    null_space_basis,
    null_space_included,
    rank_tol,
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
    independent: bool
    block_gram_rank: int
    required_rank: int
    min_eigenvalue: float


def is_degenerate(f: MatrixSignal, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """True when <f, f> is rank deficient at the configured tolerance."""
    return rank_tol(inner_product(f, f), cfg) < f.n


def rows_linearly_dependent(f: MatrixSignal, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """True when the N row functions of f are linearly dependent.

    Decided by the singular values of the N x MN row-coefficient matrix R,
    read off the N x N triangular factor T of the QR factorisation R^T = Q T,
    which has the same singular values as R and is cheaper to decompose; the
    threshold sqrt(rank_rel_tol) * sigma_max matches the eigenvalue
    threshold used on <f, f> = R R^H, so this agrees with is_degenerate while
    taking an independent computational route (QR and SVD of R instead of eigh
    of the Gram).
    """
    s = np.linalg.svd(np.linalg.qr(to_rows(f.coeffs).T, mode="r"), compute_uv=False)
    if s[0] == 0.0:
        return True
    rank = int(np.sum(s > np.sqrt(cfg.rank_rel_tol) * s[0]))
    return rank < f.n


def block_gram(fam: SignalFamily) -> BlockGram:
    """All pairwise inner products, as the one product R R^H of the KN x MN row matrix."""
    rows = to_rows(fam.coeffs_array)
    assembled = rows @ rows.conj().T
    return BlockGram(assembled.reshape(fam.k, fam.n, fam.k, fam.n).swapaxes(1, 2), assembled)


def _independence_report(assembled: np.ndarray, required: int, cfg: ToleranceConfig) -> IndependenceReport:
    """The rank rule on an assembled block Gram that full rank makes ``required``."""
    w = _eigvalsh(assembled, cfg)
    rank = int(nonzero_eigenvalues(w, cfg).sum())
    return IndependenceReport(rank == required, rank, required, float(w[0]))


def is_linearly_independent(
    fam: SignalFamily, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> IndependenceReport:
    """Rank test of the assembled block Gram matrix."""
    return _independence_report(block_gram(fam).assembled, fam.k * fam.n, cfg)


@dataclass(frozen=True, eq=False)
class FamilyAnalysis:
    """Every verdict on a family, from one block Gram; see ``analyze_family``.

    Per-member fields are read-only (K,) arrays.
    """

    gram: BlockGram
    independence: IndependenceReport
    hermitian_deviation: float  # max over k, l of ||<f_k, f_l> - <f_l, f_k>^H||_F
    hermitian: bool  # hermitian_deviation <= hermitian_tol * max(1, ||G||_F)
    psd_margin: float  # min over k of lambda_min(<f_k, f_k>) + psd_tol * max(1, ||<f_k, f_k>||_F)
    degenerate: np.ndarray  # is_degenerate of each member
    rows_dependent: np.ndarray  # rows_linearly_dependent of each member
    norm_m: np.ndarray
    norm_l2: np.ndarray
    norms_equivalent: bool  # N^(-1/4) ||f||_L2 <= ||f||_M <= N^(1/2) ||f||_L2, within NORM_EQUIV_SLACK
    orthonormality_residual: float
    orthonormal: bool  # orthonormality_residual <= ortho_tol


def analyze_family(fam: SignalFamily, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> FamilyAnalysis:
    """Every family verdict, from one product R R^H and the single-signal functions per member.

    The per-member fields are ``is_degenerate``, ``rows_linearly_dependent``,
    ``norm_m`` and ``norm_l2`` of each member; ``gram``, ``independence`` and
    ``orthonormality_residual`` equal what ``block_gram``,
    ``is_linearly_independent`` and ``orthonormality_residual`` return.
    """
    k = fam.k
    gram = block_gram(fam)
    blocks, assembled = _freeze(gram.blocks), _freeze(gram.assembled)
    deviation = float(np.linalg.norm(blocks - blocks.transpose(1, 0, 3, 2).conj(), axis=(2, 3)).max())
    self_grams = blocks[np.arange(k), np.arange(k)]  # <f_k, f_k>
    floors = cfg.psd_tol * np.maximum(1.0, np.linalg.norm(self_grams, axis=(1, 2)))
    members = [(is_degenerate(sig, cfg), rows_linearly_dependent(sig, cfg), norm_m(sig), norm_l2(sig)) for sig in fam]
    degenerate, rows_dependent, norms_m, norms_l2 = (_freeze(np.array(column)) for column in zip(*members))
    lower, upper = fam.n**-0.25 * norms_l2 * (1 - NORM_EQUIV_SLACK), fam.n**0.5 * norms_l2 * (1 + NORM_EQUIV_SLACK)
    residual = gram_orthonormality_residual(assembled, k)
    return FamilyAnalysis(
        gram=gram,
        independence=_independence_report(assembled, k * fam.n, cfg),
        hermitian_deviation=deviation,
        hermitian=deviation <= cfg.hermitian_tol * max(1.0, float(np.linalg.norm(assembled))),
        psd_margin=float(np.min(_eigvalsh(self_grams, cfg)[:, 0] + floors)),
        degenerate=degenerate,
        rows_dependent=rows_dependent,
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
    fam: SignalFamily, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> np.ndarray | None:
    """Construct coefficients that violate the independence condition, if any exist.

    A null vector w of the assembled block Gram encodes segment vectors
    v_k whose combination sum_k v_k^H f_k vanishes almost everywhere; the
    rank-one coefficients F_k = u v_k^H (u any unit vector) then sum to the
    zero signal while not all being zero, which is exactly a violating
    witness.  Returns the (K, N, N) coefficient stack, or None when the family
    is independent at tolerance.
    """
    k, n = fam.k, fam.n
    assembled = block_gram(fam).assembled
    w, v = _eigh(assembled, cfg)
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
