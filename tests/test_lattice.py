"""Lattice construction, determinant, enumeration and brute-force search."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

import matsig as ms
import matsig.lattice as lattice_module
from matsig.core import to_rows
from oracles import box_stacks, brute_force_nearest, stack_distance


def canonical_orthonormal_basis(k, n):
    coeffs = np.zeros((k, k, n, n))
    for j in range(k):
        coeffs[j, j] = np.eye(n)
    return ms.SignalFamily.from_coeffs(coeffs)


def real_basis(seed, k, n, m):
    return ms.gen_random_family(seed, n, m, k, "independent", field="real")


def test_orthonormal_basis_determinant():
    for k, n in [(1, 2), (3, 2), (2, 3)]:
        lattice = ms.build_lattice(canonical_orthonormal_basis(k, n))
        assert lattice.determinant == pytest.approx(n ** (k / 4), rel=1e-10)


def test_single_signal_determinant_is_its_norm():
    basis = real_basis(0, 1, 2, 3)
    lattice = ms.build_lattice(basis)
    assert lattice.determinant == pytest.approx(ms.norm_m(basis[0]), rel=1e-12)


def test_determinant_matches_recomputed_orthogonalization():
    basis = real_basis(1, 3, 2, 5)
    lattice = ms.build_lattice(basis)
    fresh = ms.orthogonalize(basis)
    expected = float(np.prod([ms.norm_m(h) for h in fresh.ortho]))
    assert lattice.determinant == pytest.approx(expected, rel=1e-10)
    assert lattice.determinant > 0.0
    assert lattice.determinant == pytest.approx(float(np.prod(lattice.gs.step_norms)), rel=1e-10)


def _permuted(basis, order):
    return ms.SignalFamily.from_coeffs(basis.coeffs_array[list(order)], field="real")


def _covolume(basis):
    rows = to_rows(basis.coeffs_array)
    return float(np.sqrt(np.linalg.det(rows @ rows.T)))


def test_determinant_depends_on_the_basis_when_n_exceeds_one():
    # the paper's determinant is a property of the basis, not of the lattice, once N > 1:
    # reordering the members changes it, while sqrt(det R R^T) stays put
    basis = real_basis(5, 3, 2, 8)
    orders = ([0, 1, 2], [2, 0, 1], [1, 2, 0])
    determinants = [ms.build_lattice(_permuted(basis, order)).determinant for order in orders]
    assert determinants == pytest.approx([76.72, 87.53, 84.72], abs=0.005)
    assert [_covolume(_permuted(basis, order)) for order in orders] == pytest.approx([1514.55] * 3, abs=0.005)
    # for N = 1 every order gives sqrt(det G)
    single = real_basis(5, 3, 1, 6)
    assert _covolume(single) == pytest.approx(10.7005, abs=1e-4)
    for order in itertools.permutations(range(3)):
        assert ms.build_lattice(_permuted(single, order)).determinant == pytest.approx(_covolume(single), abs=1e-10)


def test_build_rejects_complex_basis():
    family = ms.gen_random_family(2, 2, 3, 2, "independent", field="complex")
    with pytest.raises(ms.NotRealError):
        ms.build_lattice(family)


def test_build_rejects_dependent_basis():
    family = ms.gen_random_family(3, 2, 3, 2, "dependent", field="real")
    with pytest.raises(ms.NotIndependentError) as err:
        ms.build_lattice(family)
    assert err.value.report.block_gram_rank < err.value.report.required_rank


def test_zero_point_and_basis_points():
    basis = real_basis(4, 2, 2, 3)
    lattice = ms.build_lattice(basis)
    zero = lattice.point(np.zeros((2, 2, 2), dtype=int))
    assert ms.norm_m(zero.signal) == 0.0
    stack = np.zeros((2, 2, 2), dtype=int)
    stack[0] = np.eye(2, dtype=int)
    first = lattice.point(stack)
    assert ms.norm_m(ms.sub(first.signal, basis[0])) <= 1e-12


def test_point_group_laws():
    rng = np.random.default_rng(5)
    basis = real_basis(5, 2, 2, 3)
    lattice = ms.build_lattice(basis)
    a = rng.integers(-4, 5, size=(2, 2, 2))
    b = rng.integers(-4, 5, size=(2, 2, 2))
    pa, pb, pab = lattice.point(a), lattice.point(b), lattice.point(a + b)
    np.testing.assert_array_equal(pa.coeffs + pb.coeffs, pab.coeffs)
    assert ms.norm_m(ms.sub(ms.add(pa.signal, pb.signal), pab.signal)) <= 1e-12
    neg = lattice.point(-a)
    assert ms.norm_m(ms.add(pa.signal, neg.signal)) <= 1e-12


def test_point_rejects_non_integer():
    lattice = ms.build_lattice(real_basis(6, 1, 2, 2))
    with pytest.raises(ms.NonIntegerCoefficientError):
        lattice.point(np.array([[[0.5, 0.0], [0.0, 0.0]]]))
    with pytest.raises(ms.DimensionMismatchError):
        lattice.point(np.zeros((2, 2, 2), dtype=int))


def test_point_reconstructs_from_coeffs():
    lattice = ms.build_lattice(real_basis(7, 2, 2, 4))
    stack = np.array([[[2, -1], [0, 3]], [[1, 1], [-2, 0]]])
    point = lattice.point(stack)
    manual = ms.linear_combination(lattice.basis, stack.astype(float))
    assert ms.norm_m(ms.sub(point.signal, manual)) <= 1e-10


def test_enumeration_counts_and_uniqueness():
    cases = [(1, 1, 3), (2, 1, 2), (1, 2, 1)]
    for k, n, bound in cases:
        lattice = ms.build_lattice(real_basis(8 + k + n, k, n, k + 1))
        points = list(lattice.enumerate_points(bound))
        assert len(points) == (2 * bound + 1) ** (k * n * n)
        keys = {tuple(p.coeffs.ravel()) for p in points}
        assert len(keys) == len(points)


def test_enumeration_bound_zero_single_point():
    lattice = ms.build_lattice(real_basis(9, 2, 1, 2))
    points = list(lattice.enumerate_points(0))
    assert len(points) == 1
    assert ms.norm_m(points[0].signal) == 0.0


def test_enumeration_is_lexicographic():
    lattice = ms.build_lattice(real_basis(10, 1, 1, 2))
    flat = [int(p.coeffs.ravel()[0]) for p in lattice.enumerate_points(2)]
    assert flat == [-2, -1, 0, 1, 2]


def test_enumeration_distinct_signals_for_independent_basis():
    lattice = ms.build_lattice(real_basis(11, 2, 1, 3))
    signals = [p.signal for p in lattice.enumerate_points(1)]
    assert len(signals) == 9
    for i in range(len(signals)):
        for j in range(i + 1, len(signals)):
            assert ms.norm_m(ms.sub(signals[i], signals[j])) > 1e-8


def test_enumeration_cap():
    lattice = ms.build_lattice(real_basis(12, 2, 2, 3))
    with pytest.raises(ms.EnumerationCapError):
        list(lattice.enumerate_points(10))
    with pytest.raises(ms.EnumerationCapError):
        lattice.nearest_point(lattice.basis[0], 10)


def _scan_oracle(lattice, target, bound):
    """Second, independent enumeration: nested ndindex over shifted entries."""
    k, n = lattice.k, lattice.n
    entries = k * n * n
    best_key, best_distance = None, np.inf
    for idx in np.ndindex(*([2 * bound + 1] * entries)):
        stack = (np.array(idx, dtype=np.int64) - bound).reshape(k, n, n)
        synth = np.einsum("kij,kmjl->mil", stack.astype(float), lattice.basis.coeffs_array)
        diff = target.coeffs - synth
        gram = np.einsum("mil,mjl->ij", diff, diff.conj())
        distance = float(np.sqrt(np.linalg.norm(gram)))
        if distance < best_distance:
            best_key, best_distance = stack, distance
    return best_key, best_distance


def test_nearest_point_recovers_lattice_points():
    lattice = ms.build_lattice(real_basis(13, 2, 1, 3))
    for p in lattice.enumerate_points(1):
        found, distance = lattice.nearest_point(p.signal, 2)
        np.testing.assert_array_equal(found.coeffs, p.coeffs)
        assert distance <= 1e-10


def test_nearest_point_zero_target():
    lattice = ms.build_lattice(real_basis(14, 2, 1, 2))
    point, distance = lattice.nearest_point(ms.zero_signal(1, 2), 2)
    assert distance == 0.0
    assert np.all(point.coeffs == 0)


def test_nearest_point_matches_scan_oracle():
    rng = np.random.default_rng(15)
    lattice = ms.build_lattice(real_basis(15, 2, 1, 3))
    for _ in range(5):
        target = ms.MatrixSignal(rng.standard_normal((3, 1, 1)) * 2.0)
        point, distance = lattice.nearest_point(target, 3)
        oracle_key, oracle_distance = _scan_oracle(lattice, target, 3)
        assert distance == pytest.approx(oracle_distance, rel=1e-12)
        np.testing.assert_array_equal(point.coeffs, oracle_key)


def test_gram_identity_residual_orthogonal_basis():
    lattice = ms.build_lattice(canonical_orthonormal_basis(3, 2))
    assert lattice.gram_identity_residual() <= 1e-12
    assert np.abs(lattice.gs.mu).max() <= 1e-12


def test_gram_identity_residual_random_basis():
    for seed in range(20):
        lattice = ms.build_lattice(real_basis(seed, 4, 2, 6))
        scale = max(np.linalg.norm(ms.inner_product(f, f)) for f in lattice.basis)
        assert lattice.gram_identity_residual() <= 1e-9 * scale
        assert lattice.norm_inequality_holds()


def test_module_level_wrappers():
    lattice = ms.build_lattice(real_basis(16, 2, 2, 4))
    assert ms.verify_gram_identity(lattice) == lattice.gram_identity_residual()
    assert ms.verify_norm_inequality(lattice) is True


def _loop_gram_identity_residual(lattice):
    """Reference: the Gram-splitting identity checked member by member."""
    mu = lattice.gs.mu
    residual_grams = [ms.inner_product(h, h) for h in lattice.gs.ortho]
    worst = 0.0
    for k, f in enumerate(lattice.basis):
        rhs = residual_grams[k].astype(complex).copy()
        for l in range(k):
            rhs += mu[l, k] @ residual_grams[l] @ mu[l, k].conj().T
        worst = max(worst, float(np.linalg.norm(ms.inner_product(f, f) - rhs)))
    return worst


def _loop_norm_inequality_slack(lattice):
    """Reference: the smallest slack at which the member-by-member norm bounds hold."""
    mu = lattice.gs.mu
    hat_sq = np.asarray(lattice.gs.step_norms) ** 2
    worst = -np.inf
    for k, f in enumerate(lattice.basis):
        f_sq = ms.norm_m(f) ** 2
        bound = hat_sq[k] + sum(np.linalg.norm(mu[l, k]) ** 2 * hat_sq[l] for l in range(k))
        worst = max(worst, (f_sq - bound) / max(1.0, f_sq), (hat_sq[k] - f_sq) / max(1.0, f_sq))
    return worst


def _perturbed(lattice, rng):
    """The lattice with a complex-perturbed mu table (l < k only) and rescaled step norms."""
    k, n = lattice.k, lattice.n
    earlier = (np.arange(k)[:, None] < np.arange(k))[:, :, None, None]
    noise = rng.standard_normal((k, k, n, n)) + 1j * rng.standard_normal((k, k, n, n))
    gs = dataclasses.replace(
        lattice.gs,
        mu=lattice.gs.mu + np.where(earlier, 0.1 * noise, 0.0),
        step_norms=lattice.gs.step_norms * rng.uniform(0.8, 1.2, size=k),
    )
    return dataclasses.replace(lattice, gs=gs)


@pytest.mark.parametrize("k", range(1, 7))
def test_identity_checks_match_member_loops(k):
    rng = np.random.default_rng(40 + k)
    for seed in range(3):
        built = ms.build_lattice(real_basis(100 * k + seed, k, 2, k + 1))
        scale = max(np.linalg.norm(ms.inner_product(f, f)) for f in built.basis)
        for lattice in (built, _perturbed(built, rng)):
            reference = _loop_gram_identity_residual(lattice)
            assert abs(lattice.gram_identity_residual() - reference) <= 1e-12 * scale
            slack = _loop_norm_inequality_slack(lattice)
            assert lattice.norm_inequality_holds(slack + 1e-12) is True
            assert lattice.norm_inequality_holds(slack - 1e-12) is False


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_nearest_distance_is_norm_of_difference(seed):
    rng = np.random.default_rng(seed)
    lattice = ms.build_lattice(real_basis(seed, 2, 2, 4))
    ints = rng.integers(-1, 2, size=(2, 2, 2))
    near = lattice.point(ints).signal.coeffs + 0.05 * rng.standard_normal((4, 2, 2))
    far = 5.0 * rng.standard_normal((4, 2, 2))
    for coeffs in (near, far):
        target = ms.MatrixSignal(coeffs)
        point, distance = lattice.nearest_point(target, 1)
        assert distance == ms.norm_m(ms.sub(target, point.signal))


def test_nearest_point_matches_scan_oracle_matrix_coefficients():
    rng = np.random.default_rng(34)
    lattice = ms.build_lattice(real_basis(34, 2, 2, 4))
    for scale in (0.5, 3.0):
        target = ms.MatrixSignal(scale * rng.standard_normal((4, 2, 2)))
        point, distance = lattice.nearest_point(target, 1)
        oracle_key, oracle_distance = _scan_oracle(lattice, target, 1)
        assert distance == pytest.approx(oracle_distance, rel=1e-12)
        np.testing.assert_array_equal(point.coeffs, oracle_key)


def _unit_basis(k, n):
    """The integer basis f_j = e_j I_N (M = K), whose row matrix R is the identity."""
    return ms.SignalFamily.from_coeffs(np.einsum("jm,ab->jmab", np.eye(k), np.eye(n)), field="real")


def _oracle_cases():
    """(basis, target coefficients, bound, whether several stacks tie exactly at the minimum)."""
    rng = np.random.default_rng(50)
    for n, m, k, bound in [(1, 3, 2, 2), (1, 4, 3, 1), (2, 4, 2, 1), (3, 2, 1, 1)]:
        basis = real_basis(50 + n, k, n, m)
        for scale in (0.5, 3.0):
            yield basis, scale * rng.standard_normal((m, n, n)), bound, False
    for n, k in [(1, 3), (2, 1), (2, 2), (3, 1)]:
        # T - C R has entries +-1/2 at every stack of zeros and ones: exact distances, many equal
        yield _unit_basis(k, n), np.full((k, n, n), 0.5), 1, True


@pytest.mark.parametrize("case", range(12))
def test_chunked_scan_matches_per_stack_oracle(monkeypatch, case):
    basis, target_coeffs, bound, tied = list(_oracle_cases())[case]
    lattice = ms.build_lattice(basis)
    target = ms.MatrixSignal(target_coeffs)
    oracle_key, oracle_distance = brute_force_nearest(basis.coeffs_array, target_coeffs, bound)
    ties = [
        index
        for index, stack in enumerate(box_stacks(lattice.k, lattice.n, bound))
        if tied and stack_distance(basis.coeffs_array, target_coeffs, stack) == oracle_distance
    ]
    width, size = 2 * bound + 1, lattice.n * basis.m * lattice.n
    for trailing in (0, 1, 2, None):  # blocks of width^trailing stacks, or the default size
        if trailing is not None:
            monkeypatch.setattr(lattice_module, "_BLOCK_FLOATS", size * width**trailing)
            assert not tied or len({index // width**trailing for index in ties}) > 1  # ties straddle blocks
        point, distance = lattice.nearest_point(target, bound)
        np.testing.assert_array_equal(point.coeffs, oracle_key)
        assert distance == oracle_distance


def test_chunked_enumeration_is_the_lexicographic_box(monkeypatch):
    lattice = ms.build_lattice(real_basis(51, 2, 1, 3))
    expected = [stack.tolist() for stack in box_stacks(2, 1, 2)]
    for block_floats in (1, 3 * 5, 3 * 25):  # 3 floats of T - C R per stack: blocks of 1, 5 and 25 stacks
        monkeypatch.setattr(lattice_module, "_BLOCK_FLOATS", block_floats)
        assert [p.coeffs.tolist() for p in lattice.enumerate_points(2)] == expected


def test_nearest_point_memory_is_bounded_by_the_block():
    # bound 2 at (N, M, K) = (2, 4, 2) scores 5^8 = 390,625 stacks; bound 1 scores 6,561
    rng = np.random.default_rng(52)
    lattice = ms.build_lattice(real_basis(52, 2, 2, 4))
    target = ms.MatrixSignal(3.0 * rng.standard_normal((4, 2, 2)))
    peaks = []
    for bound in (1, 2):
        tracemalloc.start()
        try:
            lattice.nearest_point(target, bound)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 4 * 2**20
    assert peaks[1] <= 2 * peaks[0]


def test_overflowing_nearest_distance_raises():
    # ||(T - C R)(T - C R)^T||_F ~ 1e320 at every box point: no finite distance to report
    lattice = ms.build_lattice(real_basis(53, 2, 2, 4))
    with pytest.raises(ms.NonFiniteError, match="overflowed"):
        lattice.nearest_point(ms.MatrixSignal(1e160 * np.ones((4, 2, 2))), 1)
