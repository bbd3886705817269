"""Matrix-valued lattices: integer-matrix combinations of a real independent family.

A lattice is the set { sum_k F_k f_k : F_k integer N x N matrices } for a
linearly independent real basis family.  Its determinant is defined directly
from the Gram-Schmidt orthogonalization as the product of the residual signal
norms; no basis-reduction algorithm is provided, only desk-scale brute-force
enumeration and closest-point search for experimentation.
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
    inner_product,
    norm_m,
    sub,
)
from .errors import (
    DimensionMismatchError,
    EnumerationCapError,
    NonIntegerCoefficientError,
    NotIndependentError,
    NotRealError,
)
from .gramschmidt import GramSchmidtResult, orthogonalize
from .independence import is_linearly_independent

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
        if arr.shape != (self.k, self.n, self.n):
            raise DimensionMismatchError(
                f"expected coefficients of shape ({self.k}, {self.n}, {self.n}), "
                f"got {arr.shape}"
            )
        if not np.issubdtype(arr.dtype, np.integer):
            rounded = np.round(arr)
            if not np.array_equal(rounded, arr):
                raise NonIntegerCoefficientError("lattice coefficients must be integers")
            arr = rounded
        exact = arr.astype(np.int64)
        exact.setflags(write=False)
        synth = np.einsum("kij,kmjl->mil", exact.astype(np.float64), self.basis.coeffs_array)
        return LatticePoint(exact, MatrixSignal(synth))

    def enumeration_size(self, bound: int) -> int:
        return (2 * bound + 1) ** (self.k * self.n * self.n)

    def enumerate_points(
        self, bound: int, cap: int = DEFAULT_ENUMERATION_CAP
    ) -> Iterator[LatticePoint]:
        """Every point with coefficient entries in [-bound, bound], lexicographically.

        The stream visits each coefficient stack exactly once, ordered by the
        flattened (k, row, column) entries.
        """
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        total = self.enumeration_size(bound)
        if total > cap:
            raise EnumerationCapError(
                f"enumeration of {total} points exceeds the cap of {cap}"
            )
        entries = self.k * self.n * self.n
        for flat in itertools.product(range(-bound, bound + 1), repeat=entries):
            yield self.point(np.array(flat, dtype=np.int64).reshape(self.k, self.n, self.n))

    def nearest_point(
        self, target: MatrixSignal, bound: int, cap: int = DEFAULT_ENUMERATION_CAP
    ) -> tuple[LatticePoint, float]:
        """Brute-force closest enumerated point to ``target`` in the signal norm.

        Ties keep the lexicographically earliest coefficient stack.
        """
        if target.n != self.basis.n or target.m != self.basis.m:
            raise DimensionMismatchError(
                f"target (n={target.n}, m={target.m}) does not match basis "
                f"(n={self.basis.n}, m={self.basis.m})"
            )
        points = self.enumerate_points(bound, cap)
        best = next(points)  # the box always holds the origin, so it is never empty
        best_distance = norm_m(sub(target, best.signal))
        for candidate in points:
            distance = norm_m(sub(target, candidate.signal))
            if distance < best_distance:
                best, best_distance = candidate, distance
        return best, float(best_distance)

    def gram_identity_residual(self) -> float:
        """Largest Frobenius residual of the Gram-splitting identity per step.

        For each k the input Gram must equal the residual Gram plus the
        mu-conjugated earlier residual Grams.
        """
        mu = self.gs.mu
        residual_grams = [inner_product(h, h) for h in self.gs.ortho]
        worst = 0.0
        for k, f in enumerate(self.basis):
            rhs = residual_grams[k].astype(complex).copy()
            for l in range(k):
                rhs += mu[l, k] @ residual_grams[l] @ mu[l, k].conj().T
            worst = max(worst, float(np.linalg.norm(inner_product(f, f) - rhs)))
        return worst

    def norm_inequality_holds(self, slack: float = 1e-9) -> bool:
        """Check the norm bounds implied by the Gram-splitting identity.

        For each k: ||f_k||^2 <= ||f^_k||^2 + sum_l ||mu[l,k]||_F^2 ||f^_l||^2,
        and ||f_k|| >= ||f^_k||, both with relative slack.
        """
        mu = self.gs.mu
        hat_sq = np.asarray(self.gs.step_norms) ** 2
        for k, f in enumerate(self.basis):
            f_sq = norm_m(f) ** 2
            bound = hat_sq[k] + sum(
                np.linalg.norm(mu[l, k]) ** 2 * hat_sq[l] for l in range(k)
            )
            if f_sq > bound + slack * max(1.0, f_sq):
                return False
            if f_sq < hat_sq[k] - slack * max(1.0, f_sq):
                return False
        return True


def build_lattice(basis: SignalFamily, cfg: ToleranceConfig | None = None) -> MatrixLattice:
    """Validate the basis (real, linearly independent) and cache its orthogonalization."""
    cfg = cfg or DEFAULT_TOLERANCES
    if basis.field != "real":
        raise NotRealError("lattice basis signals must be real-valued")
    report = is_linearly_independent(basis, cfg)
    if not report.independent:
        raise NotIndependentError(report)
    gs = orthogonalize(basis, cfg)
    determinant = float(np.prod(gs.step_norms))
    return MatrixLattice(basis=basis, gs=gs, determinant=determinant)


def verify_gram_identity(lattice: MatrixLattice) -> float:
    return lattice.gram_identity_residual()


def verify_norm_inequality(lattice: MatrixLattice, slack: float = 1e-9) -> bool:
    return lattice.norm_inequality_holds(slack)
