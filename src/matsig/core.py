"""Matrix-valued signals and their matrix-valued inner product.

A signal is stored as a finite stack of N x N coefficient matrices over an
implicit orthonormal basis {phi_m} of scalar L2 functions on an interval:

    f(t) = sum_m coeffs[m] * phi_m(t).

Orthonormality of the scalar basis collapses the defining integral

    <f, g> = integral f(t) g(t)^H dt

to the exact finite sum  sum_m C_m D_m^H,  so every identity implemented here
holds to machine precision rather than quadrature precision.  The interval and
the concrete basis never enter a computation; they are carried only as file
metadata (see :mod:`matsig.fileio`).  The sum is one block of a product of row
matrices (``to_rows``), so family-level operations run on the KN x MN matrix R
of a family's stacked row functions, as one matrix product or factorisation.

All values are immutable after construction and every operation is a pure
function, so signals and families may be freely shared between threads.  A
family computes its orthonormality residual once, on first use, and keeps that
one float, so repeated expansions against one basis validate it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOLERANCES",
    "MatrixSignal",
    "SignalFamily",
    "zero_signal",
    "to_rows",
    "from_rows",
    "inner_product",
    "norm_m",
    "norm_l2",
    "scalar_inner_product",
    "left_mul",
    "right_mul",
    "add",
    "sub",
    "scale",
    "linear_combination",
    "is_orthogonal_b",
    "orthonormality_residual",
    "is_orthonormal_set",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """The two numerical tolerances a caller may set.

    rank_rel_tol  -- eigen/singular values below this fraction of the largest
                     one count as zero when ranking Gram matrices
    ortho_tol     -- Frobenius residual allowed by the orthogonality and
                     orthonormal-set predicates

    The Hermitian gate and the PSD margin use the fixed HERMITIAN_TOL and PSD_TOL.
    """

    rank_rel_tol: float = 1e-10
    ortho_tol: float = 1e-10

    def __post_init__(self):
        for name in ("rank_rel_tol", "ortho_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


DEFAULT_TOLERANCES = ToleranceConfig()
HERMITIAN_TOL = 1e-12  # relative deviation allowed between P and P^H before an eigen-solve
PSD_TOL = 1e-12  # how negative, relative to ||P||_F, a self Gram's eigenvalue may be


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MatrixSignal:
    """One matrix-valued signal: M coefficient matrices of shape N x N.

    ``field`` is "real" when every entry has exactly zero imaginary part
    (stored as float64) and "complex" otherwise.  Pass ``field=None`` to infer
    the tag from the values.  Every entry must be finite: NaN or Infinity
    raises NonFiniteError.
    """

    coeffs: np.ndarray
    field: str | None = None

    def __post_init__(self):
        arr = np.asarray(self.coeffs)
        if arr.ndim != 3:
            raise DimensionMismatchError(f"coeffs must have shape (M, N, N), got {arr.shape}")
        _check_member_shape(arr.shape)
        coeffs, field = _typed_copy(arr, self.field)
        object.__setattr__(self, "coeffs", _freeze(coeffs))
        object.__setattr__(self, "field", field)

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]

    @property
    def m(self) -> int:
        return self.coeffs.shape[0]

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __neg__(self):
        return scale(-1.0, self)

    def __repr__(self):
        return f"MatrixSignal(n={self.n}, m={self.m}, field={self.field!r})"


def _check_member_shape(shape: tuple[int, ...]) -> None:
    """Raise DimensionMismatchError unless ``shape`` is (M, N, N) with M, N >= 1."""
    if shape[1] != shape[2]:
        raise DimensionMismatchError(f"coeffs must have shape (M, N, N), got {shape}")
    if shape[0] < 1 or shape[1] < 1:
        raise DimensionMismatchError("M and N must both be at least 1")


def _typed_copy(arr: np.ndarray, field: str | None) -> tuple[np.ndarray, str]:
    """A finite float64 ("real") or complex128 ("complex") copy of ``arr`` in its memory order, and the field.

    ``field=None`` infers it: "complex" exactly when some imaginary part is nonzero.
    """
    if field is None:
        field = "complex" if (np.iscomplexobj(arr) and np.any(arr.imag)) else "real"
    if field == "real":
        if np.iscomplexobj(arr):
            if np.any(arr.imag):
                raise ValueError("field='real' but coefficients have imaginary parts")
            arr = arr.real
        arr = np.array(arr, dtype=np.float64)
    elif field == "complex":
        arr = np.array(arr, dtype=np.complex128)
    else:
        raise ValueError(f"field must be 'real' or 'complex', got {field!r}")
    if not np.isfinite(arr).all():
        raise NonFiniteError("coefficients hold NaN or Infinity")
    return arr, field


def zero_signal(n: int, m: int, field: str = "real") -> MatrixSignal:
    shape = (m, n, n)
    dtype = np.float64 if field == "real" else np.complex128
    return MatrixSignal(np.zeros(shape, dtype=dtype), field=field)


def _member(coeffs: np.ndarray, field: str) -> MatrixSignal:
    """A signal over an already-typed, read-only array, without the constructor's copy."""
    sig = object.__new__(MatrixSignal)
    object.__setattr__(sig, "coeffs", coeffs)
    object.__setattr__(sig, "field", field)
    return sig


@dataclass(frozen=True, eq=False)
class SignalFamily:
    """An ordered set of K signals sharing the same N, M and field.

    The coefficients are stored once, as one read-only (K, M, N, N) stack; the
    members are views into it and carry its field.  Signals of both fields make
    a complex family; a real signal enters its stack as x + 0j.
    """

    signals: tuple[MatrixSignal, ...]

    def __post_init__(self):
        signals = tuple(self.signals)
        if len(signals) < 1:
            raise DimensionMismatchError("a family needs at least one signal")
        n, m = signals[0].n, signals[0].m
        for idx, sig in enumerate(signals):
            if not isinstance(sig, MatrixSignal):
                raise TypeError(f"signals[{idx}] is not a MatrixSignal")
            if sig.n != n or sig.m != m:
                raise DimensionMismatchError(
                    f"signals[{idx}] has (n, m)=({sig.n}, {sig.m}), expected ({n}, {m})"
                )
        self._adopt(np.stack([sig.coeffs for sig in signals]))

    def _adopt(self, stack: np.ndarray) -> None:
        """Store ``stack`` read-only, with member k the view stack[k] tagged with the stack's field."""
        object.__setattr__(self, "_stack", _freeze(stack))
        object.__setattr__(self, "signals", tuple(_member(coeffs, self.field) for coeffs in stack))

    @classmethod
    def from_coeffs(cls, coeffs, field: str | None = None) -> "SignalFamily":
        """Build a family from an array of shape (K, M, N, N), with one copy of it.

        ``field=None`` infers one field for the whole stack, by ``MatrixSignal``'s
        rule.  The checks, the exceptions and the stored bytes and strides are
        those of ``SignalFamily(tuple(MatrixSignal(c, family.field) for c in coeffs))``.
        """
        arr = np.asarray(coeffs)
        if arr.ndim != 4:
            raise DimensionMismatchError(
                f"expected a (K, M, N, N) coefficient array, got shape {arr.shape}"
            )
        if arr.shape[0] < 1:
            raise DimensionMismatchError("a family needs at least one signal")
        _check_member_shape(arr.shape[1:])
        stack, _ = _typed_copy(arr, field)
        if stack.strides[0] * arr.shape[0] != stack.nbytes:
            stack = np.stack(list(stack))  # K is not the outermost axis, as in a Fortran-order input
        family = object.__new__(cls)
        family._adopt(stack)
        return family

    @property
    def k(self) -> int:
        return len(self.signals)

    @property
    def n(self) -> int:
        return self._stack.shape[2]

    @property
    def m(self) -> int:
        return self._stack.shape[1]

    @property
    def field(self) -> str:
        return "real" if self._stack.dtype == np.float64 else "complex"

    @property
    def coeffs_array(self) -> np.ndarray:
        """The family's read-only (K, M, N, N) coefficient stack."""
        return self._stack

    def __len__(self) -> int:
        return self.k

    def __iter__(self) -> Iterator[MatrixSignal]:
        return iter(self.signals)

    def __getitem__(self, index: int) -> MatrixSignal:
        return self.signals[index]

    def __repr__(self):
        return f"SignalFamily(k={self.k}, n={self.n}, m={self.m}, field={self.field!r})"

    @cached_property
    def _orthonormality_residual(self) -> float:
        # a pure function of the read-only stack; a race only stores the same float twice
        rows = to_rows(self._stack)
        return gram_orthonormality_residual(rows @ rows.conj().T, self.k)


def to_rows(coeffs: np.ndarray) -> np.ndarray:
    """N x MN rows of a (M, N, N) signal, or KN x MN rows R of a (K, M, N, N) stack.

    Row i of a signal concatenates row i of its M coefficients, so <f_k, f_l> = R_k R_l^H.
    """
    m, n = coeffs.shape[-3], coeffs.shape[-1]
    return coeffs.swapaxes(-3, -2).reshape(-1, m * n)


def from_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """Inverse of ``to_rows``: a KN x MN matrix back to its (K, M, N, N) stack."""
    return rows.reshape(-1, n, rows.shape[1] // n, n).swapaxes(1, 2)


def check_same_shape(f: MatrixSignal, g: MatrixSignal | SignalFamily) -> None:
    """Raise DimensionMismatchError unless ``g`` (a signal or a family) has f's N and M."""
    if f.n != g.n or f.m != g.m:
        raise DimensionMismatchError(
            f"signal shapes differ: (n={f.n}, m={f.m}) vs (n={g.n}, m={g.m})"
        )


def inner_product(f: MatrixSignal, g: MatrixSignal) -> np.ndarray:
    """The N x N matrix <f, g> = integral of f(t) g(t)^H dt.

    Evaluates exactly as sum_m C_m D_m^H.  For g = f the result is Hermitian
    positive semidefinite up to floating-point roundoff.
    """
    check_same_shape(f, g)
    return to_rows(f.coeffs) @ to_rows(g.coeffs).conj().T


def _member_rows(family: SignalFamily) -> np.ndarray:
    """The row matrix R of a family as a (K, N, MN) stack: block k holds f_k's N rows."""
    return to_rows(family.coeffs_array).reshape(family.k, family.n, -1)


def _self_grams(rows: np.ndarray) -> np.ndarray:
    """The (K, N, N) stack of <f_k, f_k> = R_k R_k^H from a (K, N, MN) row stack."""
    return rows @ rows.conj().swapaxes(-1, -2)


def _norms_m(grams: np.ndarray) -> np.ndarray:
    """||<f_k, f_k>||_F ** (1/2) of each self Gram in a (K, N, N) stack."""
    return np.sqrt(np.linalg.norm(grams, axis=(-2, -1)))


def _norms_l2(rows: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each member's rows in a (K, N, MN) row stack."""
    return np.linalg.norm(rows, axis=(-2, -1))


def norm_m(f: MatrixSignal) -> float:
    """Signal norm induced by the inner product: ||<f, f>||_F ** (1/2)."""
    return float(_norms_m(_self_grams(to_rows(f.coeffs)[None]))[0])


def norm_l2(f: MatrixSignal) -> float:
    """Entrywise energy norm (integral of ||f(t)||_F^2 dt) ** (1/2).

    By orthonormality of the scalar basis this equals the 2-norm of the coefficients.
    """
    return float(_norms_l2(to_rows(f.coeffs)[None])[0])


def scalar_inner_product(f: MatrixSignal, g: MatrixSignal) -> complex:
    """trace(<f, g>): the conventional scalar inner product of the two signals.

    Vanishes exactly when the concatenated row functions of f and g are
    orthogonal as long scalar vectors, a strictly weaker condition than
    <f, g> = 0.
    """
    return complex(np.trace(inner_product(f, g)))


def _square_matrix(a, n: int) -> np.ndarray:
    arr = np.asarray(a)
    if arr.shape != (n, n):
        raise DimensionMismatchError(f"expected a {n}x{n} matrix, got shape {arr.shape}")
    return arr


def left_mul(a, f: MatrixSignal) -> MatrixSignal:
    """The signal (A f)(t) = A f(t), i.e. A applied to every coefficient."""
    arr = _square_matrix(a, f.n)
    return MatrixSignal(np.einsum("ij,mjl->mil", arr, f.coeffs))


def right_mul(f: MatrixSignal, a) -> MatrixSignal:
    """The signal (f A)(t) = f(t) A."""
    arr = _square_matrix(a, f.n)
    return MatrixSignal(np.einsum("mij,jl->mil", f.coeffs, arr))


def add(f: MatrixSignal, g: MatrixSignal) -> MatrixSignal:
    check_same_shape(f, g)
    return MatrixSignal(f.coeffs + g.coeffs)


def sub(f: MatrixSignal, g: MatrixSignal) -> MatrixSignal:
    check_same_shape(f, g)
    return MatrixSignal(f.coeffs - g.coeffs)


def scale(c, f: MatrixSignal) -> MatrixSignal:
    return MatrixSignal(np.asarray(c) * f.coeffs)


def linear_combination(fam: SignalFamily, coeffs) -> MatrixSignal:
    """sum_k A_k f_k for a stack of K constant N x N matrices A_k."""
    arr = np.asarray(coeffs)
    if arr.shape != (fam.k, fam.n, fam.n):
        raise DimensionMismatchError(
            f"expected coefficient stack of shape ({fam.k}, {fam.n}, {fam.n}), "
            f"got {arr.shape}"
        )
    # [A_1 ... A_K] (N x KN) times R (KN x MN) is the combination's N x MN row matrix
    return MatrixSignal(from_rows(to_rows(arr) @ to_rows(fam.coeffs_array), fam.n)[0])


def is_orthogonal_b(f: MatrixSignal, g: MatrixSignal, tol: float = DEFAULT_TOLERANCES.ortho_tol) -> bool:
    """True when <f, g> vanishes as a matrix (every row of f against every row of g).

    The zero test is relative: ||<f, g>||_F <= tol * max(1, ||f||_M ||g||_M).
    """
    gram = inner_product(f, g)
    return bool(np.linalg.norm(gram) <= tol * max(1.0, norm_m(f) * norm_m(g)))


def gram_orthonormality_residual(gram: np.ndarray, k: int) -> float:
    """max over k <= l of ||G_kl - delta(k - l) I_N||_F for the assembled KN x KN block Gram G."""
    n = gram.shape[0] // k
    deviation = (gram - np.eye(k * n)).reshape(k, n, k, n)
    return float(np.triu(np.linalg.norm(deviation, axis=(1, 3))).max())


def orthonormality_residual(family: SignalFamily) -> float:
    """max over k <= l of ||<Phi_k, Phi_l> - delta(k - l) I_N||_F, from one product R R^H.

    Computed on the first call for a family and stored on it, so later calls
    (every ``is_orthonormal_set``, ``expand`` and ``parseval_residual`` against
    the same basis) cost nothing.
    """
    return family._orthonormality_residual


def is_orthonormal_set(family: SignalFamily, tol: float = DEFAULT_TOLERANCES.ortho_tol) -> bool:
    """True when <Phi_k, Phi_l> = delta(k - l) I_N for all pairs, within tol."""
    return orthonormality_residual(family) <= tol
