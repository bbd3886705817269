"""Matrix-valued lattices: integer-matrix combinations of a real independent family.

A lattice is the set { sum_k F_k f_k : F_k integer N x N matrices } for a
linearly independent real basis family.  A point is the combination's row
matrix [F_1 ... F_K] R, with R the basis's KN x MN row matrix.  The
determinant is the paper's product of the Gram-Schmidt residual signal norms:
for N = 1 it is sqrt(det R R^T), but for N > 1 it depends on the basis, even
on the order of its members, so it is not an invariant of the lattice.  No
basis reduction is provided, only brute-force enumeration of the coefficient
box and closest-point search over it, scored a block of stacks per batched
product (about 0.5 us per box point at (N, M, K) = (2, 4, 2) on one core of
a 2-vCPU x86-64 guest), in memory that does not grow with the bound.
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
    NonFiniteError,
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
_BLOCK_FLOATS = 1 << 15  # entries of a scored block's largest temporary, T - C R: 256 KiB


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

        Ordered by the flattened (k, row, column) entries, in (P, K, N, N) blocks that
        fix the leading entries and keep T - C R within _BLOCK_FLOATS whatever the bound;
        raises before the first block when the bound is negative or the box exceeds ``cap``.
        """
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        total = self.enumeration_size(bound)
        if total > cap:
            raise EnumerationCapError(
                f"enumeration of {total} points exceeds the cap of {cap}"
            )
        entries, width, size = self.k * self.n * self.n, 2 * bound + 1, self.n * self.basis.m * self.n
        inner = next((i for i in range(entries, 0, -1) if width**i * size <= _BLOCK_FLOATS), 0)
        tail = np.indices((width,) * inner, dtype=np.int64).reshape(inner, width**inner).T - bound
        for head in itertools.product(range(-bound, bound + 1), repeat=entries - inner):
            block = np.hstack((np.full((len(tail), len(head)), head, dtype=np.int64), tail))
            yield block.reshape(-1, self.k, self.n, self.n)

    def enumerate_points(
        self, bound: int, cap: int = DEFAULT_ENUMERATION_CAP
    ) -> Iterator[LatticePoint]:
        """Every point with coefficient entries in [-bound, bound], lexicographically.

        The stream visits each coefficient stack exactly once, ordered by the
        flattened (k, row, column) entries.
        """
        return (self.point(stack) for block in self._box(bound, cap) for stack in block)

    def nearest_point(
        self, target: MatrixSignal, bound: int, cap: int = DEFAULT_ENUMERATION_CAP
    ) -> tuple[LatticePoint, float]:
        """Brute-force closest enumerated point to ``target`` in the signal norm.

        Each stack C is scored as ||(T - C R)(T - C R)^H||_F^(1/2), the signal
        norm of target minus point, with T the target's rows, a block of stacks
        per batched product.  Ties keep the lexicographically earliest stack;
        NonFiniteError when every distance overflows.
        """
        check_same_shape(target, self.basis)
        target_rows = to_rows(target.coeffs)
        basis_rows = to_rows(self.basis.coeffs_array)
        best, best_distance = None, np.inf
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
            for block in self._box(bound, cap):
                diff = target_rows - to_rows(block).reshape(len(block), self.n, -1) @ basis_rows
                gram = (diff @ diff.conj().swapaxes(1, 2)).reshape(len(block), 1, -1)
                parts = (gram.real, gram.imag) if np.iscomplexobj(gram) else (gram,)  # as np.linalg.norm sums
                squares = sum(part @ part.swapaxes(1, 2) for part in parts).ravel()
                distances = np.fmin(np.sqrt(np.sqrt(squares)), np.inf)  # NaN (inf - inf) ranks as inf
                first = int(np.argmin(distances))
                if distances[first] < best_distance:
                    best, best_distance = block[first], float(distances[first])
        if best is None:
            raise NonFiniteError("distance to every box point overflowed")
        return self.point(best), best_distance

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
