"""Degeneracy, the block-Gram independence test, and witness cross-validation."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import matsig as ms
from matsig.core import from_rows, orthonormality_residual, to_rows
from helpers import pinned_rows, random_family, random_matrix, random_probe_coeffs, random_signal, rank_one
from oracles import quadrature_block_gram


def duplicated_row_signal(rng, n, m, factor=3.0):
    coeffs = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    coeffs[:, 1, :] = factor * coeffs[:, 0, :]
    return ms.MatrixSignal(coeffs)


def test_zero_signal_is_degenerate():
    assert ms.is_degenerate(ms.zero_signal(3, 2))


def test_identity_coefficient_signal_is_nondegenerate():
    f = ms.MatrixSignal(np.eye(3)[None, :, :])
    assert not ms.is_degenerate(f)


def test_duplicated_row_signal_is_degenerate():
    f = duplicated_row_signal(np.random.default_rng(0), 2, 2)
    assert ms.is_degenerate(f)
    assert ms.rank_tol(ms.inner_product(f, f)) == 1


def test_zero_row_makes_rows_dependent():
    coeffs = np.random.default_rng(1).standard_normal((3, 3, 3))
    coeffs[:, 2, :] = 0.0
    assert ms.rows_linearly_dependent(ms.MatrixSignal(coeffs))


def test_block_identity_rows_independent():
    f = ms.MatrixSignal(np.stack([np.eye(2), np.zeros((2, 2))]))
    assert not ms.rows_linearly_dependent(f)


def test_degeneracy_equals_row_dependence():
    # the eigh-of-Gram route and the SVD-of-rows route must agree
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        style = rng.integers(3)
        if style == 0:
            f = random_signal(rng, n, m)
        elif style == 1 and n >= 2:
            f = duplicated_row_signal(rng, n, m, factor=float(rng.normal()))
        else:
            coeffs = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
            coeffs[:, rng.integers(n), :] = 0.0
            f = ms.MatrixSignal(coeffs)
        assert ms.is_degenerate(f) == ms.rows_linearly_dependent(f)


def test_block_gram_of_orthonormal_family_is_identity():
    k, n = 3, 2
    coeffs = np.zeros((k, k, n, n))
    for j in range(k):
        coeffs[j, j] = np.eye(n)
    family = ms.SignalFamily.from_coeffs(coeffs)
    bg = ms.block_gram(family)
    np.testing.assert_allclose(bg.assembled, np.eye(k * n), atol=1e-14)


def test_block_gram_single_signal():
    f = random_signal(np.random.default_rng(3), 2, 3)
    bg = ms.block_gram(ms.SignalFamily((f,)))
    np.testing.assert_allclose(bg.assembled, ms.inner_product(f, f))


def test_block_gram_matches_quadrature_oracle():
    rng = np.random.default_rng(4)
    family = random_family(rng, 3, 2, 4)
    expected = quadrature_block_gram(family.coeffs_array)
    np.testing.assert_allclose(ms.block_gram(family).assembled, expected, atol=1e-8)


def test_block_gram_blocks_pair_hermitian():
    rng = np.random.default_rng(5)
    family = random_family(rng, 4, 3, 5)
    bg = ms.block_gram(family)
    for k in range(4):
        for l in range(4):
            np.testing.assert_allclose(bg.blocks[k, l], bg.blocks[l, k].conj().T, atol=1e-12)
    assert np.linalg.norm(bg.assembled - bg.assembled.conj().T) <= 1e-12


def test_orthonormal_family_is_independent():
    family = ms.gen_random_family(10, 2, 5, 3, "orthonormal")
    report = ms.is_linearly_independent(family)
    assert report.independent
    assert report.block_gram_rank == report.required_rank == 6


def test_family_with_degenerate_member_is_dependent():
    rng = np.random.default_rng(6)
    members = [duplicated_row_signal(rng, 2, 3), random_signal(rng, 2, 3)]
    report = ms.is_linearly_independent(ms.SignalFamily(tuple(members)))
    assert not report.independent


def test_scaled_copies_are_dependent():
    rng = np.random.default_rng(7)
    f = random_signal(rng, 2, 3)
    a, b = random_matrix(rng, 2), random_matrix(rng, 2)
    family = ms.SignalFamily((ms.left_mul(a, f), ms.left_mul(b, f)))
    assert not ms.is_linearly_independent(family).independent


def test_witness_all_zero_coefficients():
    family = random_family(np.random.default_rng(8), 2, 2, 3)
    assert ms.verify_independence_witness(family, np.zeros((2, 2, 2)))


def test_witness_on_independent_family_with_full_rank_lead():
    rng = np.random.default_rng(9)
    family = ms.gen_random_family(9, 2, 4, 3, "independent")
    coeffs = np.stack([random_matrix(rng, 2) for _ in range(3)])
    assert ms.verify_independence_witness(family, coeffs)
    assert not ms.is_degenerate(ms.linear_combination(family, coeffs))


def test_analytic_witness_defeats_scaled_copies():
    # F_1 = B A^{-1}, F_2 = -I gives F_1 (A f) + F_2 (B f) = 0 with F != 0
    rng = np.random.default_rng(10)
    f = random_signal(rng, 2, 3)
    a, b = random_matrix(rng, 2), random_matrix(rng, 2)
    family = ms.SignalFamily((ms.left_mul(a, f), ms.left_mul(b, f)))
    coeffs = np.stack([b @ np.linalg.inv(a), -np.eye(2, dtype=complex)])
    combo = ms.linear_combination(family, coeffs)
    assert ms.norm_m(combo) <= 1e-10
    assert not ms.verify_independence_witness(family, coeffs)


def test_probes_agree_with_rank_verdict():
    rng = np.random.default_rng(11)
    total = 0
    for seed in range(4):
        family = ms.gen_random_family(seed, 2, 4, 3, "independent")
        assert ms.is_linearly_independent(family).independent
        for _ in range(60):
            assert ms.verify_independence_witness(family, random_probe_coeffs(rng, family.k, family.n))
            total += 1
    assert total >= 200


@pytest.mark.parametrize(
    "tol, on_threshold_is_zero", [(2.0**-20, True), (2.0**-21, False)], ids=["tol_2^-20", "tol_2^-21"]
)
def test_rank_rule_boundary_is_shared(tol, on_threshold_is_zero):
    # powers of two keep every eigenvalue exact; at tol 2**-20 the eigenvalue 2**-20
    # of diag(2**-20, 1) sits exactly on the threshold rank_rel_tol * lambda_max
    cfg = ms.ToleranceConfig(rank_rel_tol=tol)
    rank = 1 if on_threshold_is_zero else 2
    p = np.diag([2.0**-20, 1.0])
    assert ms.rank_tol(p, cfg) == rank
    assert ms.null_space_basis(p, cfg).shape == (2, 2 - rank)
    if on_threshold_is_zero:
        with pytest.raises(ms.SingularMatrixError):
            ms.herm_inv_sqrt(p, cfg)
    else:
        np.testing.assert_allclose(ms.herm_inv_sqrt(p, cfg), np.diag([2.0**10, 1.0]))

    # one member with <f, f> = diag(1, 2**-20), which is also its block Gram
    family = ms.SignalFamily.from_coeffs(np.array([[np.diag([1.0, 2.0**-10]), np.zeros((2, 2))]]))
    f = family[0]
    assert ms.is_degenerate(f, cfg) == on_threshold_is_zero
    assert ms.rows_linearly_dependent(f, cfg) == on_threshold_is_zero
    report = ms.is_linearly_independent(family, cfg)
    assert (report.block_gram_rank, report.required_rank) == (rank, 2)
    assert report.independent != on_threshold_is_zero
    witness = ms.dependent_witness_search(family, cfg)
    if on_threshold_is_zero:
        assert not ms.verify_independence_witness(family, witness, cfg)
    else:
        assert witness is None


def _pinned_family(rng, k, n, m):
    """A family whose block Gram has its smallest eigenvalue on the default rank threshold."""
    rows = pinned_rows(rng, k * n, m * n, ("real", "complex")[rng.integers(2)])
    return ms.SignalFamily.from_coeffs(from_rows(rows, n))


def test_witness_search_follows_the_independence_verdict_on_the_threshold():
    rng = np.random.default_rng(42)
    for _ in range(200):
        k, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        family = _pinned_family(rng, k, n, int(rng.integers(k, k + 3)))
        assert (ms.dependent_witness_search(family) is None) == ms.is_linearly_independent(family).independent


def test_witness_check_follows_is_degenerate_on_the_threshold():
    # f = I f_1: the condition is vacuous exactly when <f, f> has an empty null space,
    # and otherwise fails, since I^H annihilates no null direction
    rng = np.random.default_rng(43)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        family = _pinned_family(rng, 1, n, int(rng.integers(1, 4)))
        assert ms.verify_independence_witness(family, np.eye(n)[None]) == (not ms.is_degenerate(family[0]))


def test_null_space_aligned_search_finds_witnesses():
    rng = np.random.default_rng(12)
    found = 0
    cases = 0
    for seed in range(40):
        if seed % 2 == 0:
            family = ms.gen_random_family(seed, 2, 3, 3, "dependent")
        else:
            members = [duplicated_row_signal(rng, 2, 3), random_signal(rng, 2, 3)]
            family = ms.SignalFamily(tuple(members))
        cases += 1
        witness = ms.dependent_witness_search(family)
        if witness is not None and not ms.verify_independence_witness(family, witness):
            found += 1
    assert found >= 0.95 * cases


def test_search_returns_none_for_independent_family():
    family = ms.gen_random_family(13, 2, 4, 3, "independent")
    assert ms.dependent_witness_search(family) is None


def test_search_handles_all_zero_family():
    family = ms.SignalFamily((ms.zero_signal(2, 3), ms.zero_signal(2, 3)))
    witness = ms.dependent_witness_search(family)
    assert witness is not None
    assert not ms.verify_independence_witness(family, witness)


def test_independent_members_are_nondegenerate():
    for seed in range(30):
        family = ms.gen_random_family(seed, 3, 4, 3, "independent")
        assert all(not ms.is_degenerate(sig) for sig in family)


def test_full_rank_scaling_preserves_independence():
    rng = np.random.default_rng(14)
    for seed in range(30):
        family = ms.gen_random_family(seed, 2, 4, 3, "independent")
        scaled = ms.SignalFamily(
            tuple(ms.left_mul(random_matrix(rng, 2), sig) for sig in family)
        )
        assert ms.is_linearly_independent(scaled).independent


def test_partitioned_combinations_stay_independent():
    rng = np.random.default_rng(15)
    for seed in range(30):
        k = int(rng.integers(2, 7))
        family = ms.gen_random_family(seed, 2, k + 2, k, "independent")
        p = int(rng.integers(1, k + 1))
        order = rng.permutation(k)
        cuts = sorted(rng.choice(np.arange(1, k), size=p - 1, replace=False)) if p > 1 else []
        blocks = np.split(order, cuts)
        combined = []
        for block in blocks:
            stack = np.zeros((k, 2, 2), dtype=complex)
            full_rank_at = rng.integers(len(block))
            for pos, idx in enumerate(block):
                stack[idx] = (
                    random_matrix(rng, 2) if pos == full_rank_at else rank_one(rng, 2)
                )
            combined.append(ms.linear_combination(family, stack))
        assert ms.is_linearly_independent(ms.SignalFamily(tuple(combined))).independent


def test_orthogonal_nondegenerate_set_normalizes_to_orthonormal():
    rng = np.random.default_rng(16)
    for seed in range(30):
        base = ms.gen_random_family(seed, 2, 5, 3, "orthonormal")
        scaled = ms.SignalFamily(
            tuple(ms.left_mul(random_matrix(rng, 2), phi) for phi in base)
        )
        assert all(not ms.is_degenerate(sig) for sig in scaled)
        normalized = ms.SignalFamily(
            tuple(
                ms.left_mul(ms.herm_inv_sqrt(ms.inner_product(sig, sig)), sig)
                for sig in scaled
            )
        )
        assert ms.is_orthonormal_set(normalized)
        assert ms.is_linearly_independent(scaled).independent


def test_orthogonal_set_with_degenerate_member_is_dependent():
    # orthogonality alone does not buy independence here
    base = ms.gen_random_family(17, 2, 4, 2, "orthonormal")
    projector = np.diag([1.0, 0.0])
    deg = ms.left_mul(projector, base[0])
    family = ms.SignalFamily((deg, base[1]))
    assert ms.norm_m(deg) > 0.1
    assert ms.is_degenerate(deg)
    assert ms.is_orthogonal_b(family[0], family[1])
    assert not ms.is_linearly_independent(family).independent


def test_witness_shape_validation():
    family = random_family(np.random.default_rng(18), 2, 2, 3)
    with pytest.raises(ms.DimensionMismatchError):
        ms.verify_independence_witness(family, np.zeros((3, 2, 2)))


def test_report_counts_near_dependence():
    rng = np.random.default_rng(19)
    f = random_signal(rng, 2, 3)
    g = ms.add(f, ms.scale(1e-13, random_signal(rng, 2, 3)))
    report = ms.is_linearly_independent(ms.SignalFamily((f, g)))
    assert not report.independent
    assert report.min_eigenvalue < 1e-10


def test_witness_search_rejects_overflowing_gram():
    # R R^H of a family scaled by 1e160 overflows; the Hermitian gate reports the overflow
    family = ms.gen_random_family(1, 2, 8, 3, "independent", field="real")
    huge = ms.SignalFamily.from_coeffs(1e160 * family.coeffs_array, field="real")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ms.NonFiniteError, match="overflowed"):
            ms.dependent_witness_search(huge)
        with pytest.raises(ms.NonFiniteError, match="overflowed"):
            ms.is_linearly_independent(huge)


@st.composite
def _row_signals(draw):
    field = draw(st.sampled_from(["real", "complex"]))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    # dyadic entries, so a 2**e scaling stays exact and in the normal range
    parts = draw(arrays(np.float64, (2, m, n, n), elements=st.integers(-64, 64).map(lambda v: v / 8)))
    coeffs = parts[0] + 1j * parts[1] if field == "complex" else parts[0]
    shape = draw(st.sampled_from(["random", "repeated_row", "scaled"]))
    if shape == "repeated_row" and n > 1:
        coeffs[:, draw(st.integers(1, n - 1)), :] = coeffs[:, 0, :]
    if shape == "scaled":
        coeffs = coeffs * 2.0 ** draw(st.integers(-900, 900))
    return ms.MatrixSignal(coeffs, field=field)


@settings(max_examples=120, deadline=None)
@given(f=_row_signals())
def test_row_svd_route_matches_plain_svd_hypothesis(f):
    cfg = ms.DEFAULT_TOLERANCES
    rows = to_rows(f.coeffs)
    s = np.linalg.svd(rows, compute_uv=False)
    # the route rows_linearly_dependent takes: singular values of the N x N factor of R^H = Q T
    t = np.linalg.svd(np.linalg.qr(rows.conj().T, mode="r"), compute_uv=False)
    assert np.all(np.abs(t - s) <= 1e-12 * s[0])
    threshold = np.sqrt(cfg.rank_rel_tol) * s[0]
    # a singular value within roundoff of the threshold may fall either way on either route
    if np.all(np.abs(s - threshold) > 1e-12 * s[0]):
        expected = bool(s[0] == 0.0 or np.sum(s > threshold) < f.n)
        assert ms.rows_linearly_dependent(f, cfg) == expected


@st.composite
def _generated_families(draw):
    kind = draw(st.sampled_from(ms.FAMILY_KINDS))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    assume(kind != "dependent" or m >= 2)
    k = draw(st.integers(2 if kind == "dependent" else 1, min(m, 8)))
    field = draw(st.sampled_from(["real", "complex"]))
    return ms.gen_random_family(draw(st.integers(0, 2**32 - 1)), n, m, k, kind, field=field)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


# rank_rel_tol 0 puts every degenerate member's roundoff eigenvalue on the threshold
@settings(max_examples=150, deadline=None)
@given(family=_generated_families(), tol=st.sampled_from([1e-10, 0.0]))
def test_analysis_matches_single_signal_functions(family, tol):
    cfg = ms.ToleranceConfig(rank_rel_tol=tol)
    analysis = ms.analyze_family(family, cfg)
    gram = ms.block_gram(family)
    assert analysis.gram.blocks.tobytes() == gram.blocks.tobytes()
    assert analysis.gram.assembled.tobytes() == gram.assembled.tobytes()
    assert analysis.independence == ms.is_linearly_independent(family, cfg)
    assert analysis.degenerate.tolist() == [ms.is_degenerate(f, cfg) for f in family]
    assert analysis.rows_dependent.tolist() == [ms.rows_linearly_dependent(f, cfg) for f in family]
    assert _bits(analysis.norm_m) == _bits([ms.norm_m(f) for f in family])
    assert _bits(analysis.norm_l2) == _bits([ms.norm_l2(f) for f in family])
    assert _bits(analysis.orthonormality_residual) == _bits(orthonormality_residual(family))
    assert analysis.orthonormal == ms.is_orthonormal_set(family, cfg.ortho_tol)
    # invariants of every family (else the Hermitian gate raised): a PSD Gram, the norm equivalence of criterion 1
    assert analysis.psd_margin >= 0.0 and analysis.norms_equivalent
    for array in (analysis.gram.blocks, analysis.degenerate, analysis.rows_dependent, analysis.norm_m):
        assert not array.flags.writeable


def test_a_family_of_both_fields_is_one_complex_field():
    rng = np.random.default_rng(12)
    n, m = 1, 15
    real = ms.MatrixSignal(10.0 ** rng.uniform(-3, 3) * rng.standard_normal((m, n, n)))
    cplx = ms.MatrixSignal(rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n)))
    stack = np.stack([real.coeffs, cplx.coeffs])
    for fam in (ms.SignalFamily((real, cplx)), ms.SignalFamily.from_coeffs(stack, field=None)):
        assert fam.field == "complex"
        assert [f.field for f in fam] == [fam.field] * fam.k
        # the real member's self Gram runs in the family's complex arithmetic on both paths
        assert _bits(ms.analyze_family(fam).norm_m) == _bits([ms.norm_m(f) for f in fam])
