"""Hermitian inverse square roots, tolerant rank and null-space utilities."""

import numpy as np
import pytest

import matsig as ms
from matsig.linalg import _eigh
from helpers import pinned_rows, random_psd, random_unitary


def test_herm_inv_sqrt_identity_and_diagonal():
    np.testing.assert_allclose(ms.herm_inv_sqrt(np.eye(2)), np.eye(2))
    np.testing.assert_allclose(ms.herm_inv_sqrt(np.diag([4.0, 1.0])), np.diag([0.5, 1.0]))


def test_herm_inv_sqrt_defining_identity():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        p = random_psd(rng, n)
        t = ms.herm_inv_sqrt(p)
        assert np.linalg.norm(t @ p @ t - np.eye(n)) <= 1e-9


def test_herm_inv_sqrt_inverts_herm_sqrt():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = random_psd(rng, 5)
        w, v = np.linalg.eigh(p)
        s = (v * np.sqrt(w)) @ v.conj().T  # the principal square root, formed here
        t = ms.herm_inv_sqrt(p)
        assert np.linalg.norm(s @ t - np.eye(5)) <= 1e-8


def test_herm_inv_sqrt_rejects_singular():
    with pytest.raises(ms.SingularMatrixError):
        ms.herm_inv_sqrt(np.diag([1.0, 0.0]))
    with pytest.raises(ms.SingularMatrixError):
        ms.herm_inv_sqrt(np.zeros((3, 3)))


def test_rank_tol_basic_cases():
    assert ms.rank_tol(np.zeros((3, 3))) == 0
    assert ms.rank_tol(np.diag([1.0, 0.0])) == 1
    assert ms.rank_tol(np.eye(4)) == 4


def test_null_space_basis_basic_cases():
    basis = ms.null_space_basis(np.diag([1.0, 0.0]))
    assert basis.shape == (2, 1)
    np.testing.assert_allclose(np.abs(basis[:, 0]), [0.0, 1.0], atol=1e-14)
    full = ms.null_space_basis(np.zeros((3, 3)))
    assert full.shape == (3, 3)
    empty = ms.null_space_basis(np.eye(3))
    assert empty.shape == (3, 0)


def test_rank_of_gram_from_rank_deficient_rows():
    # a Gram assembled from r independent row functions has rank exactly r
    rng = np.random.default_rng(4)
    n, m = 4, 3
    for r in range(0, n + 1):
        rows = rng.standard_normal((r, m * n)) + 1j * rng.standard_normal((r, m * n))
        stacked = np.zeros((n, m * n), dtype=complex)
        stacked[:r] = rows
        gram = stacked @ stacked.conj().T
        assert ms.rank_tol(gram) == r
        assert ms.null_space_basis(gram).shape == (n, n - r)


def test_rank_tol_unitary_invariance():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(0, n + 1))
        eigenvalues = np.zeros(n)
        eigenvalues[:r] = rng.uniform(0.5, 5.0, size=r)
        p = random_psd(rng, n, eigenvalues=eigenvalues)
        u = random_unitary(rng, n)
        assert ms.rank_tol(p) == ms.rank_tol(u @ p @ u.conj().T) == r


def test_null_space_and_inverse_follow_rank_tol_on_the_threshold():
    # a Gram whose smallest eigenvalue is on the threshold to within roundoff, where a
    # second eigen-solve could rank it differently: both read rank_tol's verdict
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        rows = pinned_rows(rng, n, 12, ("real", "complex")[rng.integers(2)])
        p = rows @ rows.conj().T
        rank = ms.rank_tol(p)
        assert ms.null_space_basis(p).shape == (n, n - rank)
        if rank < n:
            with pytest.raises(ms.SingularMatrixError):
                ms.herm_inv_sqrt(p)
        else:
            ms.herm_inv_sqrt(p)


def test_null_space_basis_annihilates():
    rng = np.random.default_rng(6)
    cfg = ms.DEFAULT_TOLERANCES
    for _ in range(50):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(0, n))
        eigenvalues = np.zeros(n)
        eigenvalues[:r] = rng.uniform(0.5, 5.0, size=r)
        p = random_psd(rng, n, eigenvalues=eigenvalues)
        basis = ms.null_space_basis(p)
        lam_max = max(np.max(np.linalg.eigvalsh(p)), 0.0)
        for col in basis.T:
            assert np.linalg.norm(p @ col) <= cfg.rank_rel_tol * lam_max * np.sqrt(n) + 1e-14


def test_null_space_included_cases():
    assert ms.null_space_included(np.zeros((2, 2)), np.eye(2))
    assert ms.null_space_included(np.eye(2), np.zeros((2, 0)))
    e2 = np.array([[0.0], [1.0]])
    assert not ms.null_space_included(np.eye(2), e2)
    # A^H annihilates e2 exactly when A's second row vanishes
    a = np.array([[1.0, 2.0], [0.0, 0.0]])
    assert ms.null_space_included(a, e2)
    # the test is relative to ||A||_F: no scale of A turns a violation into an inclusion
    for exponent in range(-60, 61, 10):
        assert not ms.null_space_included(2.0**exponent * np.eye(2), e2), exponent
        assert ms.null_space_included(2.0**exponent * a, e2), exponent


def test_rank_tol_requires_hermitian():
    with pytest.raises(ms.NotHermitianError):
        ms.rank_tol(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_matrix_holding_infinity_is_not_hermitian():
    # ||P - P^H||_F is nan here (inf - inf); the Hermitian test must fail, not pass,
    # and name the overflow rather than an asymmetry
    with pytest.raises(ms.NonFiniteError, match="overflowed"):
        ms.rank_tol(np.diag([np.inf, 1.0]))


def test_stacked_eigenvalues_gate_each_matrix():
    rng = np.random.default_rng(5)
    stack = np.stack([random_psd(rng, 3), 1e6 * random_psd(rng, 3)])
    symmetrized = (stack + stack.conj().swapaxes(1, 2)) / 2
    # each matrix of the stack is solved as on its own, values and vectors bit for bit
    for w, v, p in zip(*_eigh(stack), symmetrized):
        expected_w, expected_v = np.linalg.eigh(p)
        np.testing.assert_array_equal(w, expected_w)
        np.testing.assert_array_equal(v, expected_v)
    # a skew part far below the large matrix's scale still fails its own, small matrix
    stack[0, 0, 1] += 1e-6
    with pytest.raises(ms.NotHermitianError):
        _eigh(stack)
