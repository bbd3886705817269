"""Independent numerical oracles used to cross-check the coefficient-space core.

The scalar basis is made concrete here: orthonormalized Legendre polynomials
on (-1, 1).  Signals are synthesized pointwise on a Gauss-Legendre grid and
integrated by quadrature.  The Gram-Schmidt oracle runs the classical block
recursion signal by signal, and the nearest-point oracle scores the lattice
box one coefficient stack at a time.  Nothing below shares code with the
package internals, so agreement is a genuine two-route check.
"""

import itertools
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre


@lru_cache(maxsize=4)
def _gauss_grid(points: int):
    t, w = legendre.leggauss(points)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def orthonormal_legendre_values(count: int, t: np.ndarray) -> np.ndarray:
    """phi_m(t) for the first `count` orthonormalized Legendre polynomials."""
    values = np.empty((count, t.size))
    for mm in range(count):
        c = np.zeros(mm + 1)
        c[mm] = 1.0
        values[mm] = np.sqrt((2 * mm + 1) / 2.0) * legendre.legval(t, c)
    return values


def synthesize(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Pointwise matrix values f(t) of the signal with the given coefficients."""
    coeffs = np.asarray(coeffs)
    phi = orthonormal_legendre_values(coeffs.shape[0], t)
    return np.einsum("mij,mp->pij", coeffs, phi)


def quadrature_inner_product(f_coeffs, g_coeffs, points: int = 4096) -> np.ndarray:
    """Integral of f(t) g(t)^H over (-1, 1) by Gauss-Legendre quadrature."""
    t, w = _gauss_grid(points)
    fv = synthesize(f_coeffs, t)
    gv = synthesize(g_coeffs, t)
    return np.einsum("p,pil,pjl->ij", w, fv, gv.conj())


def quadrature_norm_l2(f_coeffs, points: int = 4096) -> float:
    """(integral of ||f(t)||_F^2 dt) ** (1/2) by quadrature."""
    t, w = _gauss_grid(points)
    fv = synthesize(f_coeffs, t)
    return float(np.sqrt(np.einsum("p,pij,pij->", w, fv, fv.conj()).real))


def quadrature_block_gram(family_coeffs, points: int = 4096) -> np.ndarray:
    """KN x KN Gram matrix of all stacked row functions, by quadrature."""
    arr = np.asarray(family_coeffs)
    k, _, n, _ = arr.shape
    t, w = _gauss_grid(points)
    values = np.stack([synthesize(arr[j], t) for j in range(k)])
    rows = values.transpose(0, 2, 1, 3).reshape(k * n, t.size, n)
    return np.einsum("p,apl,bpl->ab", w, rows, rows.conj())


def classical_block_gram_schmidt(family_coeffs, rank_rel_tol: float = 1e-10):
    """Classical matrix-coefficient Gram-Schmidt of a (K, M, N, N) family.

    Runs f^_k = f_k - sum_{l<k} mu[l, k] f^_l with mu[l, k] = <f_k, f^_l>
    <f^_l, f^_l>^{-1}, and normalizes g_k = <f^_k, f^_k>^{-1/2} f^_k.  Step k is
    degenerate when the smallest eigenvalue of <f^_k, f^_k> is at most
    rank_rel_tol times the larger of its largest one and ||<f_k, f_k>||_F.
    Returns (ortho, residuals, mu, step_norms, None), or (None, None, None,
    None, k) when step k is the first degenerate one.
    """
    arr = np.asarray(family_coeffs, dtype=complex)
    k_total, _, n, _ = arr.shape

    def inner(f, g):
        return np.einsum("mil,mjl->ij", f, g.conj())

    ortho = np.empty_like(arr)
    residuals = np.empty_like(arr)
    mu = np.zeros((k_total, k_total, n, n), dtype=complex)
    step_norms = np.zeros(k_total)
    inverse_grams = []
    for k in range(k_total):
        hat = arr[k].copy()
        for l in range(k):
            mu[l, k] = inner(arr[k], residuals[l]) @ inverse_grams[l]
            hat -= np.einsum("ij,mjl->mil", mu[l, k], residuals[l])
        gram = inner(hat, hat)
        w, v = np.linalg.eigh((gram + gram.conj().T) / 2.0)
        anchor = np.linalg.norm(inner(arr[k], arr[k]))
        if not w[0] > rank_rel_tol * max(w[-1], anchor):
            return None, None, None, None, k
        residuals[k] = hat
        inverse_grams.append((v / w) @ v.conj().T)
        ortho[k] = np.einsum("ij,mjl->mil", (v / np.sqrt(w)) @ v.conj().T, hat)
        step_norms[k] = np.sqrt(np.linalg.norm(gram))
    return ortho, residuals, mu, step_norms, None


def _rows(coeffs: np.ndarray) -> np.ndarray:
    """N x MN rows of an (M, N, N) signal, KN x MN rows of a (K, M, N, N) stack."""
    m, n = coeffs.shape[-3], coeffs.shape[-1]
    return coeffs.swapaxes(-3, -2).reshape(-1, m * n)


def stack_distance(basis_coeffs, target_coeffs, stack) -> float:
    """||(T - C R)(T - C R)^H||_F^(1/2) for one integer (K, N, N) stack, C its N x KN rows."""
    diff = _rows(np.asarray(target_coeffs)) - _rows(np.asarray(stack)) @ _rows(np.asarray(basis_coeffs))
    return float(np.sqrt(np.linalg.norm(diff @ diff.conj().T)))


def box_stacks(k: int, n: int, bound: int):
    """Every int64 (K, N, N) stack with entries in [-bound, bound], lexicographically."""
    for flat in itertools.product(range(-bound, bound + 1), repeat=k * n * n):
        yield np.array(flat, dtype=np.int64).reshape(k, n, n)


def brute_force_nearest(basis_coeffs, target_coeffs, bound: int):
    """The box stack closest to the target, scored stack by stack, and its distance.

    ``min`` keeps the first of equal distances, so ties go to the
    lexicographically earliest stack.
    """
    k, _, n, _ = np.shape(basis_coeffs)
    best = min(box_stacks(k, n, bound), key=lambda stack: stack_distance(basis_coeffs, target_coeffs, stack))
    return best, stack_distance(basis_coeffs, target_coeffs, best)
