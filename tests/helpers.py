"""Seeded random construction helpers shared by the test modules."""

import numpy as np

from matsig import DEFAULT_TOLERANCES, MatrixSignal, SignalFamily


def random_coeffs(rng, m, n, field="complex", scale=1.0):
    out = rng.standard_normal((m, n, n)) * scale
    if field == "complex":
        out = out + 1j * rng.standard_normal((m, n, n)) * scale
    return out


def random_signal(rng, n, m, field="complex"):
    return MatrixSignal(random_coeffs(rng, m, n, field))


def random_family(rng, k, n, m, field="complex"):
    return SignalFamily(tuple(random_signal(rng, n, m, field) for _ in range(k)))


def random_matrix(rng, n, field="complex"):
    out = rng.standard_normal((n, n))
    if field == "complex":
        out = out + 1j * rng.standard_normal((n, n))
    return out


def random_unitary(rng, n, field="complex"):
    q, r = np.linalg.qr(random_matrix(rng, n, field))
    d = np.diag(r)
    return q * (d / np.abs(d))


def pinned_rows(rng, rows, cols, field="complex"):
    """A rows x cols matrix (rows <= cols) with singular values 1, draws from [0.1, 1),
    and last sqrt(rank_rel_tol) * (1 +- 1e-13): the smallest eigenvalue of its Gram
    sits on the default rank threshold to within roundoff."""
    s = rng.uniform(0.1, 1.0, rows)
    s[0] = 1.0
    s[-1] = np.sqrt(DEFAULT_TOLERANCES.rank_rel_tol) * (1.0 + rng.choice([-1e-13, 1e-13]))
    return (random_unitary(rng, rows, field) * s) @ random_unitary(rng, cols, field)[:rows]


def angle_pinned_rows(rng, n, m, delta, field="complex"):
    """The 2N x MN rows (M >= 2) of a K = 2 family whose member-whitened block Gram has
    lambda_min / lambda_max = t = rank_rel_tol * (1 + delta).

    Member 1's orthonormal rows are c_i times member 0's plus sqrt(1 - c_i^2) times
    orthonormal rows orthogonal to them, rotated by a random unitary, with c_0 = (1 - t) / (1 + t)
    and the other c_i uniform in [0.1, 0.9]; the whitened Gram's eigenvalues are 1 +- c_i.
    Each member is then multiplied on the left by a matrix with singular values in [1, 10],
    and the rows by 2^e, |e| <= 20.
    """
    t = DEFAULT_TOLERANCES.rank_rel_tol * (1.0 + delta)
    cos, sin = rng.uniform(0.1, 0.9, n), np.zeros(n)
    cos[0], sin[0] = (1.0 - t) / (1.0 + t), 2.0 * np.sqrt(t) / (1.0 + t)
    sin[1:] = np.sqrt(1.0 - cos[1:] ** 2)
    basis = random_unitary(rng, m * n, field)[: 2 * n]
    members = [basis[:n], random_unitary(rng, n, field) @ (cos[:, None] * basis[:n] + sin[:, None] * basis[n:])]
    scaled = [
        (random_unitary(rng, n, field) * rng.uniform(1.0, 10.0, n)) @ random_unitary(rng, n, field) @ rows
        for rows in members
    ]
    return 2.0 ** int(rng.integers(-20, 21)) * np.concatenate(scaled)


def random_psd(rng, n, eigenvalues=None):
    if eigenvalues is None:
        eigenvalues = rng.uniform(0.1, 10.0, size=n)
    q = random_unitary(rng, n)
    return (q * eigenvalues) @ q.conj().T


def rank_one(rng, n):
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return np.outer(u, v)


def random_probe_coeffs(rng, k, n):
    """Mixed witness coefficient draws: dense, shared-left-vector rank-one, or sparse."""
    kind = rng.integers(3)
    if kind == 0:
        out = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    elif kind == 1:
        # rank-one blocks u v_k^H: the combination is u times one row function,
        # degenerate whenever n >= 2, which exercises the non-vacuous branch
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        out = np.stack(
            [
                np.outer(u, (rng.standard_normal(n) + 1j * rng.standard_normal(n)).conj())
                for _ in range(k)
            ]
        )
    else:
        out = np.zeros((k, n, n), dtype=complex)
        out[rng.integers(k)] = rng.standard_normal((n, n))
    return out
