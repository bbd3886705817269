"""Matrix-valued lattices: integer-matrix combinations of a real independent family.

A lattice is the set { sum_k F_k f_k : F_k integer N x N matrices } for a
linearly independent real basis family.  A point is the combination's row
matrix [F_1 ... F_K] R, with R the basis's KN x MN row matrix.  The
determinant is the paper's product of the Gram-Schmidt residual signal norms:
for N = 1 it is sqrt(det R R^T), but for N > 1 it depends on the basis, even
on the order of its members, so it is not an invariant of the lattice.  No
basis reduction is provided, only desk-scale brute-force enumeration of the
coefficient box and closest-point search over it, scored on coefficient
stacks without building a signal per box point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    MatrixSignal,
    SignalFamily,
    ToleranceConfig,
    _member_rows,
    _self_grams,
    check_same_shape,
    linear_combination,
    to_rows,
)
from .errors import (
    EnumerationCapError,
    NonIntegerCoefficientError,
    NotRealError,
)
from .gramschmidt import GramSchmidtResult, orthogonalize

__all__ = [
    "LatticePoint",
    "MatrixLattice",
    "build_lattice",
    "verify_gram_identity",
    "verify_norm_inequality",
    "DEFAULT_ENUMERATION_CAP",
]

DEFAULT_ENUMERATION_CAP = 10_000_000


@dataclass(frozen=True, eq=False)
class LatticePoint:
    """Integer coefficient stack (exact) plus the synthesized signal."""

    coeffs: np.ndarray
    signal: MatrixSignal


@dataclass(frozen=True, eq=False)
class MatrixLattice:
    """A lattice with its cached orthogonalization and determinant."""

    basis: SignalFamily
    gs: GramSchmidtResult
    determinant: float

    @property
    def k(self) -> int:
        return self.basis.k

    @property
    def n(self) -> int:
        return self.basis.n

    def point(self, coeffs) -> LatticePoint:
        """The lattice point sum_k F_k f_k for integer coefficient matrices F_k."""
        arr = np.asarray(coeffs)
        if not np.issubdtype(arr.dtype, np.integer):
            rounded = np.round(arr)
            if not np.array_equal(rounded, arr):
                raise NonIntegerCoefficientError("lattice coefficients must be integers")
            arr = rounded
        exact = arr.astype(np.int64)
        exact.setflags(write=False)
        return LatticePoint(exact, linear_combination(self.basis, exact))

    def enumeration_size(self, bound: int) -> int:
        return (2 * bound + 1) ** (self.k * self.n * self.n)

    def _box(self, bound: int, cap: int) -> Iterator[np.ndarray]:
        """Every int64 (K, N, N) stack with entries in [-bound, bound], lexicographically.

        Ordered by the flattened (k, row, column) entries; raises before the
        first stack when the bound is negative or the box exceeds ``cap``.
        """
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        total = self.enumeration_size(bound)
        if total > cap:
            raise EnumerationCapError(
                f"enumeration of {total} points exceeds the cap of {cap}"
            )
        shape = (self.k, self.n, self.n)
        entries = itertools.product(range(-bound, bound + 1), repeat=self.k * self.n * self.n)
        yield from (np.array(flat, dtype=np.int64).reshape(shape) for flat in entries)

    def enumerate_points(
        self, bound: int, cap: int = DEFAULT_ENUMERATION_CAP
    ) -> Iterator[LatticePoint]:
        """Every point with coefficient entries in [-bound, bound], lexicographically.

        The stream visits each coefficient stack exactly once, ordered by the
        flattened (k, row, column) entries.
        """
        return map(self.point, self._box(bound, cap))

    def nearest_point(
        self, target: MatrixSignal, bound: int, cap: int = DEFAULT_ENUMERATION_CAP
    ) -> tuple[LatticePoint, float]:
        """Brute-force closest enumerated point to ``target`` in the signal norm.

        Each stack C is scored as ||(T - C R)(T - C R)^H||_F^(1/2), the signal
        norm of target minus point, with T the target's rows.  Ties keep the
        lexicographically earliest coefficient stack.
        """
        check_same_shape(target, self.basis)
        target_rows = to_rows(target.coeffs)
        basis_rows = to_rows(self.basis.coeffs_array)

        def distance(stack: np.ndarray) -> float:
            diff = target_rows - to_rows(stack) @ basis_rows
            return float(np.sqrt(np.linalg.norm(diff @ diff.conj().T)))

        best = min(self._box(bound, cap), key=distance)
        return self.point(best), distance(best)

    def gram_identity_residual(self) -> float:
        """Largest Frobenius residual of the Gram-splitting identity per step.

        For each k the input Gram must equal the residual Gram plus the
        mu-conjugated earlier residual Grams, sum_{l<k} mu[l,k] <f^_l, f^_l> mu[l,k]^H.
        """
        mu = self.gs.mu  # mu[l, k] is zero for l >= k
        hat = _self_grams(_member_rows(self.gs.ortho))
        rhs = hat + np.einsum("lkij,ljp,lkqp->kiq", mu, hat, mu.conj())
        return float(np.linalg.norm(_self_grams(_member_rows(self.basis)) - rhs, axis=(1, 2)).max())

    def norm_inequality_holds(self, slack: float = 1e-9) -> bool:
        """Check the norm bounds implied by the Gram-splitting identity.

        For each k: ||f_k||^2 <= ||f^_k||^2 + sum_l ||mu[l,k]||_F^2 ||f^_l||^2,
        and ||f_k|| >= ||f^_k||, both with relative slack.
        """
        hat_sq = self.gs.step_norms**2
        f_sq = np.linalg.norm(_self_grams(_member_rows(self.basis)), axis=(1, 2))
        bound = hat_sq + np.einsum("lk,l->k", np.linalg.norm(self.gs.mu, axis=(2, 3)) ** 2, hat_sq)
        margin = slack * np.maximum(1.0, f_sq)
        return bool(np.all(f_sq <= bound + margin) and np.all(f_sq >= hat_sq - margin))


def build_lattice(basis: SignalFamily, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> MatrixLattice:
    """Validate the basis (real; independent, as orthogonalize's verdict) and cache its orthogonalization."""
    if basis.field != "real":
        raise NotRealError("lattice basis signals must be real-valued")
    gs = orthogonalize(basis, cfg)
    determinant = float(np.prod(gs.step_norms))
    return MatrixLattice(basis=basis, gs=gs, determinant=determinant)


def verify_gram_identity(lattice: MatrixLattice) -> float:
    return lattice.gram_identity_residual()


def verify_norm_inequality(lattice: MatrixLattice, slack: float = 1e-9) -> bool:
    return lattice.norm_inequality_holds(slack)
