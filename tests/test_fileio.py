"""JSON round trips, schema validation, and quadrature ingestion."""

import json

import numpy as np
import pytest
from numpy.polynomial import legendre, polynomial

import matsig as ms
from helpers import random_family


def test_round_trip_is_bit_exact(tmp_path):
    family = ms.gen_random_family(0, 2, 3, 2, "independent")
    path = tmp_path / "family.json"
    ms.save_family(path, family, metadata={"interval": [0.0, 1.0], "basis": "legendre"})
    loaded, metadata = ms.load_family(path)
    assert metadata["interval"] == [0.0, 1.0]
    for original, copy in zip(family, loaded):
        np.testing.assert_array_equal(original.coeffs, copy.coeffs)
        assert original.field == copy.field


def test_round_trip_real_family(tmp_path):
    family = ms.gen_random_family(1, 2, 3, 2, "independent", field="real")
    path = tmp_path / "real.json"
    ms.save_family(path, family)
    loaded, _ = ms.load_family(path)
    assert loaded.field == "real"
    np.testing.assert_array_equal(loaded.coeffs_array, family.coeffs_array)


def test_unknown_top_level_keys_are_ignored(tmp_path):
    family = ms.gen_random_family(2, 2, 2, 1, "independent")
    path = tmp_path / "extra.json"
    doc = ms.fileio.family_to_doc(family)
    doc["report"] = {"anything": True}
    path.write_text(json.dumps(doc))
    loaded, _ = ms.load_family(path)
    np.testing.assert_array_equal(loaded.coeffs_array, family.coeffs_array)


@pytest.mark.parametrize(
    "mutate, path_fragment",
    [
        (lambda doc: doc.pop("m"), "m"),
        (lambda doc: doc.update(schema_version="9"), "schema_version"),
        (lambda doc: doc.update(field="rational"), "field"),
        (lambda doc: doc["signals"].pop(), "signals"),
        (lambda doc: doc["signals"][0].pop(), "signals[0]"),
        (lambda doc: doc["signals"][0][0][0].pop(), "signals[0][0][0]"),
        (lambda doc: doc["signals"][0][0][0].__setitem__(0, [1.0]), "signals[0][0][0][0]"),
        (lambda doc: doc.update(metadata=7), "metadata"),
        (lambda doc: doc.update(n=0), "n"),
    ],
)
def test_schema_errors_carry_paths(tmp_path, mutate, path_fragment):
    family = ms.gen_random_family(3, 2, 2, 2, "independent")
    doc = ms.fileio.family_to_doc(family)
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ms.SchemaError) as err:
        ms.load_family(path)
    assert path_fragment in err.value.path


def test_real_file_with_imaginary_parts_rejected(tmp_path):
    family = ms.gen_random_family(4, 2, 2, 1, "independent", field="real")
    doc = ms.fileio.family_to_doc(family)
    doc["signals"][0][0][0][0][1] = 0.5
    path = tmp_path / "bad_real.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ms.SchemaError):
        ms.load_family(path)


def test_invalid_json_is_schema_error(tmp_path):
    path = tmp_path / "not.json"
    path.write_text("{nope")
    with pytest.raises(ms.SchemaError):
        ms.load_family(path)


def test_trapezoid_weights_sum_to_interval_length():
    grid = np.sort(np.concatenate([[0.0, 1.0], np.random.default_rng(5).uniform(0, 1, 7)]))
    sampled = ms.SampledSignals(
        grid=grid, samples=np.ones((1, grid.size, 1, 1)), rule="trapezoid"
    )
    assert ms.quadrature_weights(sampled).sum() == pytest.approx(1.0, rel=1e-14)


def test_constant_identity_signal_ingests_to_identity_gram():
    grid = np.linspace(0.0, 1.0, 9)
    samples = np.broadcast_to(np.eye(3), (1, 9, 3, 3)).copy()
    family = ms.ingest_sampled(
        ms.SampledSignals(grid=grid, samples=samples, rule="trapezoid")
    )
    np.testing.assert_allclose(ms.inner_product(family[0], family[0]), np.eye(3), atol=1e-12)


def test_gauss_legendre_ingestion_matches_analytic_gram():
    # entries are Legendre polynomials; integral of P_a P_b = 2/(2a+1) delta_ab
    points = 6
    nodes, _ = legendre.leggauss(points)
    degrees = np.array([[0, 1], [2, 3]])
    samples = np.empty((1, points, 2, 2))
    for i in range(2):
        for j in range(2):
            c = np.zeros(degrees[i, j] + 1)
            c[degrees[i, j]] = 1.0
            samples[0, :, i, j] = legendre.legval(nodes, c)
    family = ms.ingest_sampled(
        ms.SampledSignals(grid=nodes, samples=samples, rule="gauss-legendre", interval=(-1.0, 1.0))
    )
    expected = np.diag([2.0 + 2.0 / 3.0, 2.0 / 5.0 + 2.0 / 7.0])
    np.testing.assert_allclose(ms.inner_product(family[0], family[0]), expected, atol=1e-8)


def _poly_entry_signal(grid):
    """Polynomial 2x2 signal sampled on a grid, plus its analytic Gram on (0, 1)."""
    entries = [
        [np.array([0.0, 0.0, 1.0]), np.array([0.0, -1.0, 0.0, 1.0])],
        [np.array([1.0, 1.0]), np.array([0.0, 0.0, 0.0, 0.0, 1.0])],
    ]
    samples = np.empty((1, grid.size, 2, 2))
    for i in range(2):
        for j in range(2):
            samples[0, :, i, j] = polynomial.polyval(grid, entries[i][j])
    gram = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            total = 0.0
            for l in range(2):
                prod = polynomial.polymul(entries[i][l], entries[j][l])
                anti = polynomial.polyint(prod)
                total += polynomial.polyval(1.0, anti) - polynomial.polyval(0.0, anti)
            gram[i, j] = total
    return samples, gram


def test_trapezoid_ingestion_converges_quadratically():
    errors = []
    for points in (65, 129):
        grid = np.linspace(0.0, 1.0, points)
        samples, exact = _poly_entry_signal(grid)
        family = ms.ingest_sampled(
            ms.SampledSignals(grid=grid, samples=samples, rule="trapezoid")
        )
        errors.append(np.linalg.norm(ms.inner_product(family[0], family[0]) - exact))
    ratio = errors[0] / errors[1]
    assert 3.5 <= ratio <= 4.5


def test_sampled_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    grid = np.linspace(0.0, 2.0, 5)
    samples = rng.standard_normal((2, 5, 2, 2)) + 1j * rng.standard_normal((2, 5, 2, 2))
    sampled = ms.SampledSignals(grid=grid, samples=samples, rule="trapezoid", interval=(0.0, 2.0))
    path = tmp_path / "sampled.json"
    ms.save_sampled(path, sampled)
    loaded = ms.load_sampled(path)
    np.testing.assert_array_equal(loaded.grid, grid)
    np.testing.assert_array_equal(loaded.samples, samples)
    assert loaded.rule == "trapezoid"
    assert loaded.interval == (0.0, 2.0)


def test_sampled_validation_errors():
    with pytest.raises(ms.SchemaError):
        ms.SampledSignals(grid=np.array([0.0, 0.0, 1.0]), samples=np.ones((1, 3, 1, 1)), rule="trapezoid")
    with pytest.raises(ms.SchemaError):
        ms.SampledSignals(grid=np.array([0.0, 1.0]), samples=np.ones((1, 3, 1, 1)), rule="trapezoid")
    with pytest.raises(ms.SchemaError):
        ms.SampledSignals(grid=np.array([0.0, 1.0]), samples=np.ones((1, 2, 1, 1)), rule="simpson")
    with pytest.raises(ms.SchemaError):
        ms.SampledSignals(grid=np.array([0.0, 1.0]), samples=np.ones((1, 2, 1, 1)), rule="gauss-legendre")


@pytest.mark.parametrize(
    "grid", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0]], ids=["nan", "inf", "-inf"]
)
def test_sampled_signals_reject_non_finite_grid(grid):
    with pytest.raises(ms.SchemaError) as info:
        ms.SampledSignals(grid=np.array(grid), samples=np.ones((1, 3, 1, 1)), rule="trapezoid")
    assert info.value.path == "grid"


def test_gauss_legendre_grid_must_match_nodes():
    sampled = ms.SampledSignals(
        grid=np.array([-0.5, 0.5]),
        samples=np.ones((1, 2, 1, 1)),
        rule="gauss-legendre",
        interval=(-1.0, 1.0),
    )
    with pytest.raises(ms.SchemaError):
        ms.quadrature_weights(sampled)


def test_family_doc_helpers_round_trip():
    family = random_family(np.random.default_rng(7), 2, 2, 3)
    doc = ms.fileio.family_to_doc(family, metadata={"note": "x"})
    rebuilt, metadata = ms.fileio.family_from_doc(doc)
    np.testing.assert_array_equal(rebuilt.coeffs_array, family.coeffs_array)
    assert metadata == {"note": "x"}


GOLDEN_REAL = """{
 "schema_version": "1",
 "n": 1,
 "m": 2,
 "k": 1,
 "field": "real",
 "signals": [
  [
   [
    [
     [
      -0.0,
      0.0
     ]
    ]
   ],
   [
    [
     [
      0.3333333333333333,
      0.0
     ]
    ]
   ]
  ]
 ]
}
"""

GOLDEN_COMPLEX = """{
 "schema_version": "1",
 "n": 1,
 "m": 2,
 "k": 1,
 "field": "complex",
 "signals": [
  [
   [
    [
     [
      -0.0,
      5e-324
     ]
    ]
   ],
   [
    [
     [
      1.7976931348623157e+308,
      0.3333333333333333
     ]
    ]
   ]
  ]
 ]
}
"""


@pytest.mark.parametrize(
    "coeffs, expected",
    [
        ([-0.0, 1 / 3], GOLDEN_REAL),
        ([complex(-0.0, 5e-324), complex(1.7976931348623157e308, 1 / 3)], GOLDEN_COMPLEX),
    ],
    ids=["real", "complex"],
)
def test_saved_text_is_golden(tmp_path, coeffs, expected):
    family = ms.SignalFamily.from_coeffs(np.array(coeffs).reshape(1, 2, 1, 1))
    path = tmp_path / "golden.json"
    ms.save_family(path, family)
    assert path.read_text() == expected
    loaded, _ = ms.load_family(path)
    assert loaded.field == family.field
    np.testing.assert_array_equal(loaded.coeffs_array, family.coeffs_array)
    assert np.signbit(loaded.coeffs_array.real.ravel()[0])


SENTINEL = 12345.25  # a value whose JSON text is replaced by the token under test


def _set_part(doc_path, value):
    """Mutation that sets one field of a document, addressed by a key/index path."""

    def mutate(doc):
        node = doc
        for key in doc_path[:-1]:
            node = node[key]
        node[doc_path[-1]] = value

    return mutate


def _write_with_token(path, doc, token):
    text = json.dumps(doc)
    if token is not None:
        assert text.count(repr(SENTINEL)) == 1
        text = text.replace(repr(SENTINEL), token)
    path.write_text(text)


@pytest.mark.parametrize(
    "where, value, token, expected_path",
    [
        (("signals", 1, 0, 1, 0, 1), True, None, "signals[1][0][1][0]"),
        (("signals", 0, 1, 1, 1, 0), "1.0", None, "signals[0][1][1][1]"),
        (("signals", 0, 0, 0, 1, 1), None, None, "signals[0][0][0][1]"),
        (("signals", 1, 1, 0, 0), [1.0, 2.0, 3.0], None, "signals[1][1][0][0]"),
        (("signals", 0, 1, 0, 1, 0), SENTINEL, "NaN", "signals[0][1][0][1]"),
        (("signals", 1, 0, 0, 0, 1), SENTINEL, "Infinity", "signals[1][0][0][0]"),
        (("signals", 0, 0, 1, 0, 0), SENTINEL, "-Infinity", "signals[0][0][1][0]"),
        (("signals", 1, 1, 1, 1, 1), SENTINEL, "1e999", "signals[1][1][1][1]"),
        (("signals", 0, 0, 0, 0, 0), 10**400, None, "signals[0][0][0][0]"),
    ],
    ids=["bool", "string", "null", "triple", "nan", "inf", "-inf", "1e999", "huge-int"],
)
def test_bad_entries_carry_exact_paths(tmp_path, where, value, token, expected_path):
    family = ms.gen_random_family(3, 2, 2, 2, "independent")
    doc = ms.fileio.family_to_doc(family)
    _set_part(where, value)(doc)
    path = tmp_path / "bad.json"
    _write_with_token(path, doc, token)
    with pytest.raises(ms.SchemaError) as err:
        ms.load_family(path)
    assert err.value.path == expected_path


def _sampled_doc(tmp_path):
    grid = np.linspace(0.0, 1.0, 3)
    samples = np.arange(2 * 3 * 2 * 2, dtype=float).reshape(2, 3, 2, 2) * (1 + 0.5j)
    path = tmp_path / "sampled.json"
    ms.save_sampled(path, ms.SampledSignals(grid=grid, samples=samples, rule="trapezoid", interval=(0.0, 1.0)))
    return json.loads(path.read_text())


@pytest.mark.parametrize(
    "mutate, token, expected_path",
    [
        (lambda doc: doc.update(schema_version="2"), None, "schema_version"),
        (lambda doc: doc.update(k=True), None, "k"),
        (lambda doc: doc.pop("rule"), None, "rule"),
        (lambda doc: doc["samples"].pop(), None, "samples"),
        (lambda doc: doc["samples"][1].pop(), None, "samples[1]"),
        (lambda doc: doc["samples"][0][2][1].pop(), None, "samples[0][2][1]"),
        (_set_part(("samples", 1, 2, 0, 1, 1), False), None, "samples[1][2][0][1]"),
        (_set_part(("samples", 0, 1, 1, 0, 0), SENTINEL), "NaN", "samples[0][1][1][0]"),
        (_set_part(("grid", 1), "0.5"), None, "grid"),
        (_set_part(("grid", 2), SENTINEL), "NaN", "grid"),
        (_set_part(("grid", 0), SENTINEL), "-1e999", "grid"),
        (lambda doc: doc.update(grid=0.5), None, "grid"),
        (lambda doc: doc["interval"].pop(), None, "interval"),
        (_set_part(("interval", 1), SENTINEL), "Infinity", "interval"),
        (lambda doc: doc.update(interval=[1.0, 0.0]), None, "interval"),
    ],
    ids=[
        "version", "k-bool", "rule-missing", "samples-short", "signal-short", "row-short",
        "bool-entry", "nan-entry", "grid-string", "grid-nan", "grid-inf", "grid-scalar",
        "interval-short", "interval-inf", "interval-order",
    ],
)
def test_sampled_schema_errors_carry_paths(tmp_path, mutate, token, expected_path):
    doc = _sampled_doc(tmp_path)
    mutate(doc)
    path = tmp_path / "bad.json"
    _write_with_token(path, doc, token)
    with pytest.raises(ms.SchemaError) as err:
        ms.load_sampled(path)
    assert err.value.path == expected_path


def test_sampled_invalid_json_is_schema_error(tmp_path):
    path = tmp_path / "not.json"
    path.write_text('{"schema_version": "1",')
    with pytest.raises(ms.SchemaError):
        ms.load_sampled(path)


def test_save_refuses_non_finite_values(tmp_path):
    coeffs = np.ones((1, 2, 1, 1))
    coeffs[0, 1, 0, 0] = np.nan
    path = tmp_path / "nan.json"
    with pytest.raises(ValueError, match="NaN or Infinity"):
        ms.save_family(path, ms.SignalFamily.from_coeffs(coeffs))
    grid = np.linspace(0.0, 1.0, 3)
    samples = np.ones((1, 3, 1, 1)) * np.array([1.0, np.inf, 1.0])[None, :, None, None]
    with pytest.raises(ValueError, match="NaN or Infinity"):
        ms.save_sampled(path, ms.SampledSignals(grid=grid, samples=samples, rule="trapezoid"))
    assert not path.exists()
