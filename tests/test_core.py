"""Inner product, norms, orthogonality predicates and signal algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import matsig as ms
from matsig.core import from_rows, to_rows
from matsig.fileio import family_from_doc
from helpers import random_family, random_matrix, random_signal
from oracles import quadrature_inner_product, quadrature_norm_l2


def test_inner_product_identity_coefficient():
    f = ms.MatrixSignal(np.eye(3)[None, :, :])
    np.testing.assert_allclose(ms.inner_product(f, f), np.eye(3))


def test_inner_product_disjoint_supports():
    f = ms.MatrixSignal(np.stack([np.eye(2), np.zeros((2, 2))]))
    g = ms.MatrixSignal(np.stack([np.zeros((2, 2)), np.eye(2)]))
    np.testing.assert_allclose(ms.inner_product(f, g), np.zeros((2, 2)))


def test_inner_product_matches_quadrature_oracle():
    rng = np.random.default_rng(42)
    f = random_signal(rng, 2, 3)
    g = random_signal(rng, 2, 3)
    expected = quadrature_inner_product(f.coeffs, g.coeffs)
    np.testing.assert_allclose(ms.inner_product(f, g), expected, atol=1e-8)


def test_inner_product_shape_mismatch():
    f = random_signal(np.random.default_rng(0), 2, 3)
    g = random_signal(np.random.default_rng(1), 3, 3)
    h = random_signal(np.random.default_rng(2), 2, 4)
    with pytest.raises(ms.DimensionMismatchError):
        ms.inner_product(f, g)
    with pytest.raises(ms.DimensionMismatchError):
        ms.inner_product(f, h)


def test_norm_m_trivial_values():
    assert ms.norm_m(ms.zero_signal(3, 2)) == 0.0
    f = ms.MatrixSignal(np.eye(4)[None, :, :])
    assert ms.norm_m(f) == pytest.approx(4 ** 0.25, rel=1e-14)


def test_norm_m_composes_from_inner_product():
    rng = np.random.default_rng(7)
    f = random_signal(rng, 3, 4)
    expected = np.sqrt(np.linalg.norm(ms.inner_product(f, f)))
    assert ms.norm_m(f) == pytest.approx(expected, rel=1e-13)


def test_norm_l2_trivial_values():
    assert ms.norm_l2(ms.zero_signal(2, 5)) == 0.0
    f = ms.MatrixSignal(np.eye(3)[None, :, :])
    assert ms.norm_l2(f) == pytest.approx(np.sqrt(3), rel=1e-14)


def test_norm_l2_matches_quadrature_oracle():
    rng = np.random.default_rng(11)
    f = random_signal(rng, 2, 3)
    assert ms.norm_l2(f) == pytest.approx(quadrature_norm_l2(f.coeffs), abs=1e-8)


def test_scalar_inner_product_identity():
    f = ms.MatrixSignal(np.eye(5)[None, :, :])
    assert ms.scalar_inner_product(f, f) == pytest.approx(5.0)


def test_scalar_inner_product_zero_for_matrix_orthogonal_pair():
    # disjoint coefficient supports give <f, g> = 0 exactly
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    b = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    f = ms.MatrixSignal(np.concatenate([a, np.zeros_like(b)]))
    g = ms.MatrixSignal(np.concatenate([np.zeros_like(a), b]))
    assert ms.is_orthogonal_b(f, g)
    assert abs(ms.scalar_inner_product(f, g)) == 0.0


def test_trace_orthogonal_but_not_matrix_orthogonal():
    # rows live on the same scalar function but in different slots: the full
    # matrix inner product sees them, the trace does not
    f = ms.MatrixSignal(np.array([[[1.0, 0.0], [0.0, 0.0]]]))
    g = ms.MatrixSignal(np.array([[[0.0, 0.0], [1.0, 0.0]]]))
    gram = ms.inner_product(f, g)
    np.testing.assert_allclose(gram, np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert abs(ms.scalar_inner_product(f, g)) == 0.0
    assert not ms.is_orthogonal_b(f, g)


def test_matrix_orthogonality_implies_trace_orthogonality():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        b = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        f = ms.MatrixSignal(np.concatenate([a, np.zeros_like(b)]))
        g = ms.MatrixSignal(np.concatenate([np.zeros_like(a), b]))
        assert ms.is_orthogonal_b(f, g)
        assert abs(ms.scalar_inner_product(f, g)) <= 1e-12


def test_left_mul_identity_is_noop():
    rng = np.random.default_rng(23)
    f = random_signal(rng, 3, 2)
    g = ms.left_mul(np.eye(3), f)
    np.testing.assert_array_equal(g.coeffs, f.coeffs)


def test_left_right_factorization():
    rng = np.random.default_rng(29)
    for _ in range(25):
        f = random_signal(rng, 3, 4)
        g = random_signal(rng, 3, 4)
        a = random_matrix(rng, 3)
        b = random_matrix(rng, 3)
        lhs = ms.inner_product(ms.left_mul(a, f), ms.left_mul(b, g))
        rhs = a @ ms.inner_product(f, g) @ b.conj().T
        scale = max(1.0, np.linalg.norm(lhs), np.linalg.norm(rhs))
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale


def test_add_scale_cancellation():
    rng = np.random.default_rng(31)
    f = random_signal(rng, 2, 3)
    z = ms.add(f, ms.scale(-1.0, f))
    assert ms.norm_l2(z) == 0.0


def test_right_mul_acts_on_columns():
    f = ms.MatrixSignal(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(ms.right_mul(f, a).coeffs[0], np.array([[2.0, 1.0], [4.0, 3.0]]))


def test_operator_sugar_matches_functions():
    rng = np.random.default_rng(37)
    f = random_signal(rng, 2, 2)
    g = random_signal(rng, 2, 2)
    np.testing.assert_array_equal((f + g).coeffs, ms.add(f, g).coeffs)
    np.testing.assert_array_equal((f - g).coeffs, ms.sub(f, g).coeffs)
    np.testing.assert_array_equal((-f).coeffs, ms.scale(-1.0, f).coeffs)


def test_canonical_family_is_orthonormal():
    k, n = 4, 3
    coeffs = np.zeros((k, k, n, n))
    for j in range(k):
        coeffs[j, j] = np.eye(n)
    family = ms.SignalFamily.from_coeffs(coeffs)
    assert ms.is_orthonormal_set(family)


def test_scaled_signal_not_orthogonal_to_itself():
    rng = np.random.default_rng(41)
    f = random_signal(rng, 2, 3)
    assert not ms.is_degenerate(f)
    a = random_matrix(rng, 2)
    assert not ms.is_orthogonal_b(f, ms.left_mul(a, f))


def test_degenerate_nonzero_signal_not_self_orthogonal():
    coeffs = np.zeros((2, 2, 2))
    coeffs[:, 0, 0] = [1.0, 2.0]  # second row identically zero
    f = ms.MatrixSignal(coeffs)
    assert ms.is_degenerate(f)
    assert not ms.is_orthogonal_b(f, f)


def test_gram_is_hermitian_psd():
    rng = np.random.default_rng(43)
    for _ in range(25):
        f = random_signal(rng, 3, 4)
        gram = ms.inner_product(f, f)
        assert np.linalg.norm(gram - gram.conj().T) <= 1e-12 * max(1.0, np.linalg.norm(gram))
        w = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
        assert w[0] >= -1e-12 * max(1.0, np.linalg.norm(gram))


def test_gram_vanishes_only_at_zero():
    assert np.linalg.norm(ms.inner_product(ms.zero_signal(2, 3), ms.zero_signal(2, 3))) == 0.0
    rng = np.random.default_rng(47)
    for _ in range(50):
        f = random_signal(rng, 2, 3)
        assert np.linalg.norm(ms.inner_product(f, f)) > 0.0


def test_bilinearity_in_first_argument():
    rng = np.random.default_rng(53)
    for _ in range(25):
        f, g, h = (random_signal(rng, 3, 3) for _ in range(3))
        lhs = ms.inner_product(ms.add(f, g), h)
        rhs = ms.inner_product(f, h) + ms.inner_product(g, h)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(lhs))


def test_norm_equivalence_sampled():
    rng = np.random.default_rng(59)
    for n in (1, 2, 3, 4, 8):
        for _ in range(100):
            f = random_signal(rng, n, int(rng.integers(1, 5)))
            flat = ms.norm_l2(f)
            value = ms.norm_m(f)
            assert value >= n ** -0.25 * flat * (1 - 1e-9)
            assert value <= n ** 0.5 * flat * (1 + 1e-9)


def test_norms_coincide_for_scalar_signals():
    rng = np.random.default_rng(61)
    for _ in range(50):
        f = random_signal(rng, 1, int(rng.integers(1, 6)))
        assert ms.norm_m(f) == pytest.approx(ms.norm_l2(f), rel=1e-12)


def test_signal_validation():
    with pytest.raises(ms.DimensionMismatchError):
        ms.MatrixSignal(np.zeros((2, 3)))
    with pytest.raises(ms.DimensionMismatchError):
        ms.MatrixSignal(np.zeros((2, 3, 2)))
    with pytest.raises(ValueError):
        ms.MatrixSignal(np.zeros((1, 2, 2)) + 1j, field="real")
    with pytest.raises(ValueError):
        ms.MatrixSignal(np.zeros((1, 2, 2)), field="rational")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "field, imaginary",
    [("real", False), (None, False), ("complex", False), ("complex", True), (None, True)],
    ids=["real", "inferred-real", "complex-re", "complex-im", "inferred-im"],
)
def test_signal_rejects_non_finite_coefficients(value, field, imaginary):
    coeffs = np.ones((2, 2, 2), dtype=complex)
    coeffs[1, 0, 1] = complex(0.0, value) if imaginary else value
    with pytest.raises(ms.NonFiniteError, match="NaN or Infinity"):
        ms.MatrixSignal(coeffs, field=field)
    with pytest.raises(ms.NonFiniteError, match="NaN or Infinity"):
        ms.SignalFamily.from_coeffs(np.stack([np.ones_like(coeffs), coeffs]), field=field)


def test_field_inference_and_storage():
    real = ms.MatrixSignal(np.ones((1, 2, 2), dtype=complex))
    assert real.field == "real"
    assert not np.iscomplexobj(real.coeffs)
    cplx = ms.MatrixSignal(np.ones((1, 2, 2)) * (1 + 1j))
    assert cplx.field == "complex"


def test_signals_are_immutable():
    f = random_signal(np.random.default_rng(2), 2, 2)
    with pytest.raises(ValueError):
        f.coeffs[0, 0, 0] = 5.0


def test_family_validation():
    rng = np.random.default_rng(67)
    with pytest.raises(ms.DimensionMismatchError):
        ms.SignalFamily(())
    with pytest.raises(ms.DimensionMismatchError):
        ms.SignalFamily((random_signal(rng, 2, 3), random_signal(rng, 3, 3)))
    fam = random_family(rng, 3, 2, 4)
    assert (fam.k, fam.n, fam.m) == (3, 2, 4)
    assert fam.coeffs_array.shape == (3, 4, 2, 2)


def test_tolerance_config_validation():
    cfg = ms.ToleranceConfig(rank_rel_tol=1e-8)
    assert cfg.rank_rel_tol == 1e-8
    with pytest.raises(ValueError):
        ms.ToleranceConfig(rank_rel_tol=-1.0)
    with pytest.raises(ValueError):
        ms.ToleranceConfig(ortho_tol=float("nan"))
    with pytest.raises(ValueError):
        ms.ToleranceConfig(ortho_tol=float("inf"))
    with pytest.raises(TypeError):
        ms.ToleranceConfig(psd_tol=1e-12)


def test_linear_combination_shape_check():
    fam = random_family(np.random.default_rng(71), 2, 2, 3)
    with pytest.raises(ms.DimensionMismatchError):
        ms.linear_combination(fam, np.zeros((3, 2, 2)))
    combo = ms.linear_combination(fam, np.zeros((2, 2, 2)))
    assert ms.norm_l2(combo) == 0.0


def _coeff_pairs(m, n):
    shape = (m, n, n)
    parts = arrays(np.float64, shape, elements=st.floats(-5, 5, allow_nan=False))
    return st.tuples(parts, parts).map(lambda pair: pair[0] + 1j * pair[1])


@settings(max_examples=60, deadline=None)
@given(fc=_coeff_pairs(3, 2), gc=_coeff_pairs(3, 2))
def test_conjugate_symmetry_hypothesis(fc, gc):
    f, g = ms.MatrixSignal(fc), ms.MatrixSignal(gc)
    lhs = ms.inner_product(f, g)
    rhs = ms.inner_product(g, f).conj().T
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(lhs))


@settings(max_examples=60, deadline=None)
@given(
    fc=_coeff_pairs(2, 2),
    gc=_coeff_pairs(2, 2),
    ac=st.tuples(
        arrays(np.float64, (2, 2), elements=st.floats(-3, 3, allow_nan=False)),
        arrays(np.float64, (2, 2), elements=st.floats(-3, 3, allow_nan=False)),
    ).map(lambda pair: pair[0] + 1j * pair[1]),
)
def test_left_factor_pullout_hypothesis(fc, gc, ac):
    f, g = ms.MatrixSignal(fc), ms.MatrixSignal(gc)
    lhs = ms.inner_product(ms.left_mul(ac, f), g)
    rhs = ac @ ms.inner_product(f, g)
    assert np.linalg.norm(lhs - rhs) <= 1e-11 * max(1.0, np.linalg.norm(rhs))


def _per_member_family(coeffs, field):
    return ms.SignalFamily(tuple(ms.MatrixSignal(c, field=field) for c in coeffs))


@pytest.mark.parametrize("field", [None, "real", "complex"])
def test_from_coeffs_matches_the_per_member_construction(field):
    rng = np.random.default_rng(81)
    stack = rng.standard_normal((3, 5, 2, 2)) + 1j * rng.standard_normal((3, 5, 2, 2))
    stack.imag[1] = -0.0  # a real member of a complex stack, with negative zeros
    pairs = rng.standard_normal((3, 5, 2, 2, 2))
    inputs = {
        "C-order stack": stack,
        "real C-order stack": stack.real.copy(),
        "from_rows view": from_rows(to_rows(stack), 2),
        "decoded pairs": pairs.view(np.complex128)[..., 0],
        "Fortran-order stack": np.asfortranarray(stack),
    }
    for name, coeffs in inputs.items():
        if field == "real" and np.iscomplexobj(coeffs):
            coeffs = coeffs.real
        family = ms.SignalFamily.from_coeffs(coeffs, field=field)
        reference = _per_member_family(coeffs, family.field)
        for got, want in [(family.coeffs_array, reference.coeffs_array)] + [
            (a.coeffs, b.coeffs) for a, b in zip(family, reference)
        ]:
            assert got.dtype == want.dtype, name
            assert got.strides == want.strides, name
            assert got.tobytes() == want.tobytes(), name
            assert not got.flags.writeable, name
        assert [sig.field for sig in family] == [family.field] * family.k, name


def test_every_stored_family_and_signal_is_row_ordered(tmp_path):
    # to_rows of every stored stack is a view, whichever constructor made it
    rng = np.random.default_rng(90)
    stack = rng.standard_normal((3, 4, 2, 2)) + 1j * rng.standard_normal((3, 4, 2, 2))
    generated = ms.gen_random_family(1, 2, 4, 3, "independent")
    ms.save_family(tmp_path / "f.json", generated)
    families = {
        "gen_random_family": generated,
        "load_family": ms.load_family(tmp_path / "f.json")[0],
        "from_coeffs C-order": ms.SignalFamily.from_coeffs(stack),
        "from_coeffs Fortran-order": ms.SignalFamily.from_coeffs(np.asfortranarray(stack)),
        "SignalFamily(tuple)": ms.SignalFamily(tuple(ms.MatrixSignal(c) for c in stack)),
        "orthonormalize": ms.orthonormalize(generated).ortho,
        "orthogonalize": ms.orthogonalize(generated).ortho,
    }
    for name, family in families.items():
        assert np.shares_memory(to_rows(family.coeffs_array), family.coeffs_array), name
        assert all(np.shares_memory(to_rows(f.coeffs), f.coeffs) for f in family), name
    signal = ms.MatrixSignal(stack[0])
    assert np.shares_memory(to_rows(signal.coeffs), signal.coeffs)


def _lattice_point_of_integral_floats():
    lattice = ms.build_lattice(ms.gen_random_family(2, 1, 2, 2, "independent", field="real"))
    return lattice.point(np.array([[[2.0]], [[-1.0]]])).coeffs


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: ms.MatrixSignal(np.zeros((0, 2, 2))), ms.DimensionMismatchError),
        (lambda: ms.MatrixSignal(np.zeros((1, 0, 0))), ms.DimensionMismatchError),
        (lambda: ms.SignalFamily((ms.zero_signal(1, 1), np.zeros((1, 1, 1)))), TypeError),
        (lambda: ms.SignalFamily((np.zeros((1, 1, 1)), ms.zero_signal(1, 1))), TypeError),
        (lambda: ms.SignalFamily.from_coeffs(np.zeros((1, 2, 2))), ms.DimensionMismatchError),
        (lambda: ms.SignalFamily.from_coeffs(np.zeros((0, 1, 2, 2))), ms.DimensionMismatchError),
        (lambda: ms.left_mul(np.eye(3), ms.zero_signal(2, 1)), ms.DimensionMismatchError),
        (lambda: ms.rank_tol(np.zeros((2, 3))), ms.DimensionMismatchError),
        (lambda: ms.null_space_included(np.eye(2), np.zeros((3, 1))), ms.DimensionMismatchError),
        (lambda: family_from_doc([]), ms.SchemaError),
        (lambda: ms.SampledSignals(grid=[0.0], samples=np.zeros((1, 1, 1, 1)), rule="trapezoid"), ms.SchemaError),
        (_lattice_point_of_integral_floats, None),
    ],
    ids=["m-zero", "n-zero", "member-not-a-signal", "first-member-not-a-signal", "from-coeffs-3d", "from-coeffs-k-zero",
         "left-mul-wrong-size", "rank-of-non-square", "null-basis-wrong-height", "top-level-list",
         "one-sample-grid", "point-of-integral-floats"],
)
def test_malformed_input_raises_its_documented_error(build, error):
    if error is None:
        assert build().tolist() == [[[2]], [[-1]]]
    else:
        with pytest.raises(error):
            build()
