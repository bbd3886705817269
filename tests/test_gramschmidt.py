"""Matrix-coefficient Gram-Schmidt, expansion and the Parseval identity."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import matsig as ms
from matsig import core
from matsig.core import from_rows, orthonormality_residual, to_rows
from helpers import angle_pinned_rows, random_family, random_matrix, random_signal
from oracles import classical_block_gram_schmidt


def test_single_signal_normalization():
    f = random_signal(np.random.default_rng(0), 2, 3)
    result = ms.orthonormalize(ms.SignalFamily((f,)))
    g = result.ortho[0]
    expected = ms.left_mul(ms.herm_inv_sqrt(ms.inner_product(f, f)), f)
    np.testing.assert_allclose(g.coeffs, expected.coeffs, atol=1e-12)
    np.testing.assert_allclose(ms.inner_product(g, g), np.eye(2), atol=1e-12)


def test_orthonormal_input_passes_through():
    family = ms.gen_random_family(1, 2, 5, 3, "orthonormal")
    result = ms.orthonormalize(family)
    assert not result.reorthogonalized
    for original, output in zip(family, result.ortho):
        assert ms.norm_m(ms.sub(original, output)) <= 1e-12


def test_random_independent_family_orthonormalizes():
    family = ms.gen_random_family(2, 2, 4, 3, "independent")
    result = ms.orthonormalize(family)
    assert ms.is_orthonormal_set(result.ortho)
    assert ms.is_linearly_independent(result.ortho).independent
    assert result.mu is None and result.step_norms is None
    assert result.mode == "orthonormalize"


def test_span_preserved_triangularly():
    # f_k must reconstruct from the first k output signals only
    family = ms.gen_random_family(3, 2, 6, 4, "independent")
    basis = ms.orthonormalize(family).ortho
    for k, f in enumerate(family):
        coeffs = ms.expand(f, basis)
        for l in range(k + 1, basis.k):
            assert np.linalg.norm(coeffs[l]) <= 1e-8
        rebuilt = ms.reconstruct(coeffs, basis)
        assert ms.norm_m(ms.sub(f, rebuilt)) <= 1e-8


def test_dependent_family_raises_degenerate_step():
    rng = np.random.default_rng(4)
    f = random_signal(rng, 2, 3)
    family = ms.SignalFamily(
        (ms.left_mul(random_matrix(rng, 2), f), ms.left_mul(random_matrix(rng, 2), f))
    )
    with pytest.raises(ms.DegenerateStepError) as err:
        ms.orthonormalize(family)
    assert err.value.step == 1
    with pytest.raises(ms.DegenerateStepError):
        ms.orthogonalize(family)


def test_degenerate_first_signal_raises_at_step_zero():
    family = ms.SignalFamily((ms.zero_signal(2, 3), random_signal(np.random.default_rng(5), 2, 3)))
    with pytest.raises(ms.DegenerateStepError) as err:
        ms.orthonormalize(family)
    assert err.value.step == 0


def test_orthogonalize_keeps_orthogonal_input():
    rng = np.random.default_rng(6)
    base = ms.gen_random_family(6, 2, 5, 3, "orthonormal")
    scaled = ms.SignalFamily(tuple(ms.left_mul(random_matrix(rng, 2), phi) for phi in base))
    result = ms.orthogonalize(scaled)
    assert np.abs(result.mu).max() <= 1e-10
    for original, hat in zip(scaled, result.ortho):
        assert ms.norm_m(ms.sub(original, hat)) <= 1e-9


def test_two_signal_orthogonalization_formula():
    rng = np.random.default_rng(7)
    family = ms.gen_random_family(7, 2, 4, 2, "independent")
    result = ms.orthogonalize(family)
    f1, f2 = family
    hat1 = result.ortho[0]
    np.testing.assert_array_equal(hat1.coeffs, f1.coeffs)
    gram1 = ms.inner_product(hat1, hat1)
    mu = ms.inner_product(f2, hat1) @ np.linalg.inv(gram1)
    np.testing.assert_allclose(result.mu[0, 1], mu, atol=1e-10)
    expected_hat2 = ms.sub(f2, ms.left_mul(mu, hat1))
    np.testing.assert_allclose(result.ortho[1].coeffs, expected_hat2.coeffs, atol=1e-10)
    cross = ms.inner_product(result.ortho[1], result.ortho[0])
    assert np.linalg.norm(cross) <= 1e-10


def test_orthogonalize_outputs_pairwise_orthogonal():
    cfg = ms.DEFAULT_TOLERANCES
    for seed in range(20):
        family = ms.gen_random_family(seed, 2, 5, 4, "independent")
        hats = ms.orthogonalize(family).ortho
        for k in range(4):
            for l in range(k + 1, 4):
                cross = np.linalg.norm(ms.inner_product(hats[k], hats[l]))
                assert cross <= cfg.ortho_tol * ms.norm_m(hats[k]) * ms.norm_m(hats[l])


def test_gram_splitting_identity():
    # <f_k, f_k> = <f^_k, f^_k> + sum_l mu[l,k] <f^_l, f^_l> mu[l,k]^H
    for seed in range(20):
        family = ms.gen_random_family(seed, 2, 6, 4, "independent")
        result = ms.orthogonalize(family)
        hat_grams = [ms.inner_product(h, h) for h in result.ortho]
        for k, f in enumerate(family):
            rhs = hat_grams[k].astype(complex).copy()
            for l in range(k):
                rhs += result.mu[l, k] @ hat_grams[l] @ result.mu[l, k].conj().T
            lhs = ms.inner_product(f, f)
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1.0, np.linalg.norm(lhs))


def test_step_norm_bounds():
    for seed in range(20):
        family = ms.gen_random_family(seed, 3, 6, 4, "independent")
        result = ms.orthogonalize(family)
        hat_sq = np.asarray(result.step_norms) ** 2
        for k, f in enumerate(family):
            f_sq = ms.norm_m(f) ** 2
            bound = hat_sq[k] + sum(
                np.linalg.norm(result.mu[l, k]) ** 2 * hat_sq[l] for l in range(k)
            )
            assert f_sq <= bound + 1e-9 * max(1.0, f_sq)
            assert f_sq >= hat_sq[k] - 1e-9 * max(1.0, f_sq)


def test_step_norms_match_definition():
    family = ms.gen_random_family(8, 2, 5, 3, "independent")
    result = ms.orthogonalize(family)
    for value, hat in zip(result.step_norms, result.ortho):
        assert value == pytest.approx(ms.norm_m(hat), rel=1e-12)


def test_expand_recovers_basis_coefficients():
    basis = ms.gen_random_family(9, 2, 5, 3, "orthonormal")
    coeffs = ms.expand(basis[1], basis)
    for l in range(3):
        target = np.eye(2) if l == 1 else np.zeros((2, 2))
        np.testing.assert_allclose(coeffs[l], target, atol=1e-12)


def test_expand_round_trip():
    rng = np.random.default_rng(10)
    basis = ms.gen_random_family(10, 2, 5, 3, "orthonormal")
    stack = np.stack([random_matrix(rng, 2) for _ in range(3)])
    f = ms.reconstruct(stack, basis)
    recovered = ms.expand(f, basis)
    np.testing.assert_allclose(recovered, stack, atol=1e-10)


def test_expand_of_orthogonal_signal_is_zero():
    k, n = 2, 2
    coeffs = np.zeros((k, 4, n, n))
    for j in range(k):
        coeffs[j, j] = np.eye(n)
    basis = ms.SignalFamily.from_coeffs(coeffs)
    outside = np.zeros((4, n, n))
    outside[3] = np.random.default_rng(11).standard_normal((n, n))
    f = ms.MatrixSignal(outside)
    assert np.abs(ms.expand(f, basis)).max() <= 1e-12


def test_expand_rejects_non_orthonormal_basis():
    family = ms.gen_random_family(12, 2, 4, 3, "independent")
    f = family[0]
    with pytest.raises(ms.BasisNotOrthonormalError):
        ms.expand(f, family)


def test_expand_and_reconstruct_shape_checks():
    basis = ms.gen_random_family(18, 2, 4, 3, "orthonormal")
    with pytest.raises(ms.DimensionMismatchError):
        ms.expand(random_signal(np.random.default_rng(0), 3, 4), basis)
    with pytest.raises(ms.DimensionMismatchError):
        ms.reconstruct(np.zeros((2, 2, 2)), basis)


def test_parseval_in_span():
    rng = np.random.default_rng(13)
    basis = ms.gen_random_family(13, 2, 5, 3, "orthonormal")
    stack = np.stack([random_matrix(rng, 2) for _ in range(3)])
    f = ms.reconstruct(stack, basis)
    assert ms.parseval_residual(f, basis) <= 1e-10
    assert ms.parseval_residual(ms.zero_signal(2, 5), basis) == pytest.approx(0.0, abs=1e-14)


def test_parseval_residual_equals_remainder_gram():
    # the residual of an out-of-span signal is the Gram norm of its remainder
    rng = np.random.default_rng(14)
    basis = ms.gen_random_family(14, 2, 6, 3, "orthonormal")
    f = random_signal(rng, 2, 6)
    coeffs = ms.expand(f, basis)
    remainder = ms.sub(f, ms.reconstruct(coeffs, basis))
    expected = np.linalg.norm(ms.inner_product(remainder, remainder))
    assert ms.parseval_residual(f, basis) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_real_family_keeps_real_output():
    family = ms.gen_random_family(15, 2, 4, 3, "independent", field="real")
    ortho = ms.orthonormalize(family).ortho
    assert ortho.field == "real"
    hats = ms.orthogonalize(family).ortho
    assert hats.field == "real"


def test_reorthogonalization_recovers_ill_conditioned_family():
    # nearly parallel signals lose orthogonality under one classical pass;
    # tightened tolerances let them through the degeneracy gate, and the
    # Householder QR construction reaches the tight tolerance in one pass
    rng = np.random.default_rng(17)
    f1 = ms.MatrixSignal(rng.standard_normal((4, 2, 2)))
    bump = ms.MatrixSignal(rng.standard_normal((4, 2, 2)))
    f2 = ms.add(f1, ms.scale(1e-6, bump))
    f3 = ms.MatrixSignal(rng.standard_normal((4, 2, 2)))
    family = ms.SignalFamily((f1, f2, f3))
    cfg = ms.ToleranceConfig(rank_rel_tol=1e-15, ortho_tol=1e-13)
    result = ms.orthonormalize(family, cfg)
    assert not result.reorthogonalized
    assert ms.is_orthonormal_set(result.ortho, tol=1e-13)
    for f in family:
        rebuilt = ms.reconstruct(ms.expand(f, result.ortho, cfg), result.ortho)
        assert ms.norm_m(ms.sub(f, rebuilt)) <= 1e-12 * ms.norm_m(f)


def test_orthonormalize_500_random_families():
    rng = np.random.default_rng(16)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 7))
        family = ms.gen_random_family(int(rng.integers(10_000)), n, k + 2, k, "independent")
        result = ms.orthonormalize(family)
        assert ms.is_orthonormal_set(result.ortho, tol=1e-9)


def _relative_error(value, reference):
    return np.linalg.norm(np.asarray(value) - reference) / np.linalg.norm(reference)


def test_matches_classical_gram_schmidt_oracle():
    worst = 0.0
    for field in ("real", "complex"):
        for n in (1, 2, 4):
            for m, k in [(1, 1), (3, 3), (4, 2), (5, 5), (6, 3)]:
                seed = 100 * n + 10 * m + k
                family = ms.gen_random_family(seed, n, m, k, "independent", field=field)
                ortho, residuals, mu, step_norms, bad = classical_block_gram_schmidt(
                    family.coeffs_array
                )
                assert bad is None
                on = ms.orthonormalize(family)
                og = ms.orthogonalize(family)
                errors = [
                    _relative_error(on.ortho.coeffs_array, ortho),
                    _relative_error(og.ortho.coeffs_array, residuals),
                    _relative_error(og.step_norms, step_norms),
                ]
                if k > 1:
                    errors.append(_relative_error(og.mu, mu))
                worst = max(worst, *errors)
    assert worst <= 1e-10


def test_degenerate_step_matches_classical_oracle():
    rng = np.random.default_rng(19)
    families = []
    for field in ("real", "complex"):
        for n in (1, 2, 4):
            seed, other = (int(x) for x in rng.integers(10_000, size=2))
            families.append((ms.gen_random_family(seed, n, 4, 3, "dependent", field=field), 1))
            base = ms.gen_random_family(other, n, 5, 4, "independent", field=field)
            third = ms.linear_combination(
                ms.SignalFamily(base.signals[:2]),
                np.stack([random_matrix(rng, n, field) for _ in range(2)]),
            )
            families.append((ms.SignalFamily((base[0], base[1], third, base[3])), 2))
    # more members than coefficients: step M is the first degenerate one
    families.append((ms.SignalFamily.from_coeffs(rng.standard_normal((4, 2, 2, 2))), 2))
    for family, step in families:
        expected = classical_block_gram_schmidt(family.coeffs_array)[4]
        assert expected == step
        for algorithm in (ms.orthonormalize, ms.orthogonalize):
            with pytest.raises(ms.DegenerateStepError) as err:
                algorithm(family)
            assert err.value.step == expected


def test_memoized_residual_is_the_fresh_residual():
    basis = ms.gen_random_family(31, 3, 6, 4, "orthonormal")
    first = orthonormality_residual(basis)
    assert orthonormality_residual(basis) == first
    assert orthonormality_residual(ms.SignalFamily.from_coeffs(basis.coeffs_array.copy())) == first
    # the defining formula, evaluated outside the library
    rows = to_rows(basis.coeffs_array)
    deviation = (rows @ rows.conj().T - np.eye(12)).reshape(4, 3, 4, 3)
    assert first == float(np.triu(np.linalg.norm(deviation, axis=(1, 3))).max())


def test_memoized_residual_keeps_every_tolerance_verdict():
    family = ms.gen_random_family(32, 2, 4, 3, "independent")
    residual = orthonormality_residual(family)
    assert residual > 0.0
    for _ in range(2):
        assert not ms.is_orthonormal_set(family, np.nextafter(residual, 0.0))
        assert ms.is_orthonormal_set(family, residual)
        assert not ms.is_orthonormal_set(family, residual / 2)
        assert ms.is_orthonormal_set(family, 2 * residual)


def test_expand_rejects_non_orthonormal_basis_on_every_call():
    family = ms.gen_random_family(33, 2, 4, 3, "independent")
    for _ in range(3):
        with pytest.raises(ms.BasisNotOrthonormalError):
            ms.expand(family[0], family)
    # the stored value is the residual, not a verdict: a looser tolerance accepts the basis
    loose = ms.ToleranceConfig(ortho_tol=2 * orthonormality_residual(family))
    assert ms.expand(family[0], family, loose).shape == (3, 2, 2)


def test_one_gram_per_basis_across_the_pipeline(monkeypatch):
    # in core, only the orthonormality residual turns a whole (K, M, N, N) stack into R
    families = [ms.gen_random_family(seed, 2, 5, 3, "independent") for seed in (34, 35)]
    stacks = []
    original = core.to_rows

    def counting(coeffs):
        if coeffs.ndim == 4:
            stacks.append(coeffs.shape)
        return original(coeffs)

    monkeypatch.setattr(core, "to_rows", counting)
    for family in families:
        basis = ms.orthonormalize(family).ortho
        assert ms.is_orthonormal_set(basis)
        ms.expand(family[0], basis)
        ms.parseval_residual(family[1], basis)
    assert stacks == [(3, 5, 2, 2), (3, 5, 2, 2)]


def _chained_family(seed, n, m, k, delta, field):
    # f_1 = g_1 and f_k = f_{k-1} + delta g_k: each member nearly repeats the one before it
    rng = np.random.default_rng(seed)
    steps = rng.standard_normal((k, m, n, n))
    if field == "complex":
        steps = steps + 1j * rng.standard_normal((k, m, n, n))
    steps[1:] *= delta
    return ms.SignalFamily.from_coeffs(np.cumsum(steps, axis=0), field=field)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_orthogonalize_residuals_of_a_near_dependent_chain(field):
    # f^_k = L_kk Q_k inherits Q's orthogonality; the subtractive form
    # f_k - sum_l mu[l, k] f^_l cancels f_k against its predecessors and reaches 5.6e-12 here
    family = _chained_family(3, 3, 24, 6, 1e-4, field)
    result = ms.orthogonalize(family)
    hat = result.ortho
    np.testing.assert_array_equal(hat[0].coeffs, family[0].coeffs)
    cross = max(
        np.linalg.norm(ms.inner_product(hat[a], hat[b])) / (ms.norm_m(hat[a]) * ms.norm_m(hat[b]))
        for a in range(family.k)
        for b in range(a)
    )
    assert cross <= 1e-14
    for k in range(family.k):
        # Gram splitting: <f_k, f_k> = <f^_k, f^_k> + sum_{l<k} mu[l, k] <f^_l, f^_l> mu[l, k]^H
        split = ms.inner_product(hat[k], hat[k]) + sum(
            result.mu[l, k] @ ms.inner_product(hat[l], hat[l]) @ result.mu[l, k].conj().T
            for l in range(k)
        )
        gram = ms.inner_product(family[k], family[k])
        assert np.linalg.norm(gram - split) <= 1e-12 * np.linalg.norm(gram)


@st.composite
def _factored_matrices(draw):
    # R^T of a family's row matrix: MN x KN with MN >= KN, square or tall
    cols = draw(st.integers(1, 12))
    rows = draw(st.integers(cols, 40))
    parts = arrays(np.float64, (rows, cols), elements=st.floats(-1e4, 1e4, allow_subnormal=False))
    if draw(st.booleans()):
        return draw(parts) + 1j * draw(parts)
    return draw(parts)


def _rank_one_counterexample():
    # hypothesis found it: rank 1, and Q of it and conj(Q) of its conjugate differ by 1.69
    transposed = np.full((16, 5), 2.65647018e-133j)
    transposed[5, 0] = -1 + 2.65647018e-133j
    return transposed


def _signed_zero_counterexample():
    # full rank with condition number 8.3, yet Q differs by 1.37: the zeros are -0 + 0j, and the
    # second reflector's sign follows a signed zero
    transposed = np.full((16, 3), complex(-0.0, 0.0))
    transposed[[7, 12], 0] = 2.140154354815433e3, -6.791507709666374e-159
    transposed[[0, 3, 6, 14], 1] = 9.999999999999998e3, 0.5, -3.504879707432210e3, -1e4
    transposed[[0, 1, 2, 3, 13, 14], 2] = (
        3.322522755079389e-188, -1e4, -4.049346457430779e3, -1.128408654320745e3, 2.136609671045374e-97, 1e4
    )
    transposed[transposed != 0] *= 1 + 1j
    return transposed


@settings(max_examples=150, deadline=None)
@given(transposed=_factored_matrices())
@example(transposed=_rank_one_counterexample())
@example(transposed=_signed_zero_counterexample())
def test_qr_of_the_transpose_is_the_conjugate_of_qr_of_the_adjoint(transposed):
    # _factor and rows_linearly_dependent factor R^T in place of R^H = conj(R^T).  Neither needs
    # the two factorisations to be conjugates bit for bit, and they are not always (see the
    # examples): R^T = Q^T L^T is R = L Q by itself, and the singular values of the triangular
    # factor, all that rows_linearly_dependent reads, agree to roundoff on every input.  On
    # well-conditioned input the factors agree to roundoff up to the phase of each column of Q.
    adjoint = transposed.conj()
    s = np.linalg.svd(np.linalg.qr(transposed, mode="r"), compute_uv=False)
    s_adjoint = np.linalg.svd(np.linalg.qr(adjoint, mode="r"), compute_uv=False)
    np.testing.assert_allclose(s_adjoint, s, rtol=0, atol=1e-13 * s[0])
    if s[-1] > 1e-6 * s[0]:
        q, upper = np.linalg.qr(transposed)
        q_adjoint, upper_adjoint = np.linalg.qr(adjoint)
        phases = np.sum(q.conj() * q_adjoint.conj(), axis=0)  # unit modulus
        np.testing.assert_allclose(q * phases, q_adjoint.conj(), rtol=0, atol=1e-10)
        np.testing.assert_allclose(phases.conj()[:, None] * upper, upper_adjoint.conj(), rtol=0, atol=1e-10 * s[0])


def test_rank_one_counterexample_is_refused():
    # the N = 1 family whose rows are the counterexample's columns: members 1-4 are equal
    family = ms.SignalFamily.from_coeffs(from_rows(_rank_one_counterexample().T, 1))
    with pytest.raises(ms.DegenerateStepError) as err:
        ms.orthonormalize(family)
    assert err.value.step == 2


@pytest.mark.parametrize("seed, delta", [(1, 1e-4), (2, -1e-4), (3, 1e-2), (4, -1e-2)])
def test_orthonormalize_refuses_exactly_what_the_verdict_calls_dependent(seed, delta):
    # whitened lambda_min / lambda_max = rank_rel_tol * (1 + delta), under member scaling,
    # left factors and a global 2^e; at delta = +-1e-13 roundoff decides, so it is not asserted
    rng = np.random.default_rng(seed)
    for draw in range(300):
        rows = angle_pinned_rows(rng, 2, 4, delta, ("real", "complex")[draw % 2])
        family = ms.SignalFamily.from_coeffs(from_rows(rows, 2))
        report = ms.is_linearly_independent(family)
        assert report.independent == (delta > 0)
        if report.independent:
            assert ms.is_orthonormal_set(ms.orthonormalize(family).ortho)
        else:
            with pytest.raises(ms.DegenerateStepError) as err:
                ms.orthonormalize(family)
            assert err.value.step == 1 and not err.value.report.independent
