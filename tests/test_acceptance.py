"""Acceptance suite.

Each test runs one criterion at its stated tolerance and prints one pass/fail
line (run with ``pytest -s`` to see them); the assertions carry the same
conditions, so the suite is green exactly when every line reads PASS.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import matsig as ms
from helpers import random_matrix, random_signal, rank_one
from oracles import quadrature_inner_product

NORM_SLACK = 1e-9


def _report(number, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status} - {label}{suffix}")


def test_criterion_1_norm_equivalence():
    start = time.perf_counter()
    violations = 0
    scalar_disagreement = 0.0
    for n in (1, 2, 3, 4, 8):
        rng = np.random.default_rng(1000 + n)
        for _ in range(1000):
            f = random_signal(rng, n, int(rng.integers(1, 6)))
            flat = ms.norm_l2(f)
            value = ms.norm_m(f)
            if value < n ** -0.25 * flat * (1 - NORM_SLACK):
                violations += 1
            if value > n ** 0.5 * flat * (1 + NORM_SLACK):
                violations += 1
            if n == 1:
                scalar_disagreement = max(
                    scalar_disagreement, abs(value - flat) / max(value, flat, 1e-300)
                )
    elapsed = time.perf_counter() - start
    ok = violations == 0 and scalar_disagreement <= 1e-12 and elapsed < 10.0
    _report(
        1,
        "norm equivalence over 5000 signals",
        ok,
        f"violations={violations}, n=1 rel dev={scalar_disagreement:.2e}, {elapsed:.2f}s",
    )
    assert violations == 0
    assert scalar_disagreement <= 1e-12
    assert elapsed < 10.0


def test_criterion_2_inner_product_axioms():
    start = time.perf_counter()
    rng = np.random.default_rng(2000)
    worst = 0.0
    zero_gram_norm = np.linalg.norm(
        ms.inner_product(ms.zero_signal(3, 2), ms.zero_signal(3, 2))
    )
    positive_failures = 0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        f, g = random_signal(rng, n, m), random_signal(rng, n, m)
        a, b = random_matrix(rng, n), random_matrix(rng, n)

        fg = ms.inner_product(f, g)
        dev = np.linalg.norm(fg - ms.inner_product(g, f).conj().T)
        worst = max(worst, dev / max(1.0, np.linalg.norm(fg)))

        ff = ms.inner_product(f, f)
        if np.linalg.norm(ff) <= 0.0:
            positive_failures += 1

        dev = abs(ms.norm_m(f) ** 2 - np.linalg.norm(ff))
        worst = max(worst, dev / max(1.0, np.linalg.norm(ff)))

        lhs = ms.inner_product(ms.left_mul(a, f), ms.left_mul(b, g))
        rhs = a @ fg @ b.conj().T
        dev = np.linalg.norm(lhs - rhs)
        worst = max(worst, dev / max(1.0, np.linalg.norm(rhs)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and zero_gram_norm == 0.0 and positive_failures == 0 and elapsed < 10.0
    _report(
        2,
        "inner-product axioms on 1000 instances",
        ok,
        f"worst rel dev={worst:.2e}, {elapsed:.2f}s",
    )
    assert worst <= 1e-12
    assert zero_gram_norm == 0.0
    assert positive_failures == 0
    assert elapsed < 10.0


def test_criterion_3_degeneracy_equals_row_dependence():
    rng = np.random.default_rng(3000)
    disagreements = 0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        style = rng.integers(3)
        coeffs = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
        if style == 1 and n >= 2:
            coeffs[:, 1, :] = float(rng.normal()) * coeffs[:, 0, :]
        elif style == 2:
            coeffs[:, rng.integers(n), :] = 0.0
        f = ms.MatrixSignal(coeffs)
        if ms.is_degenerate(f) != ms.rows_linearly_dependent(f):
            disagreements += 1
    ok = disagreements == 0
    _report(3, "rank route vs row route on 1000 signals", ok, f"disagreements={disagreements}")
    assert disagreements == 0


_GS_CORPUS = None
_GS_BUILD_SECONDS = None


def _gs_corpus():
    """500 independent families (N <= 4, K <= 6, M = K + 2) with their bases."""
    global _GS_CORPUS, _GS_BUILD_SECONDS
    if _GS_CORPUS is None:
        rng = np.random.default_rng(4000)
        start = time.perf_counter()
        corpus = []
        for seed in range(500):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 7))
            family = ms.gen_random_family(seed, n, k + 2, k, "independent")
            corpus.append((family, ms.orthonormalize(family).ortho))
        _GS_BUILD_SECONDS = time.perf_counter() - start
        _GS_CORPUS = corpus
    return _GS_CORPUS


def test_criterion_4_gram_schmidt():
    corpus = _gs_corpus()
    worst_ortho = 0.0
    worst_span = 0.0
    for family, basis in corpus:
        eye = np.eye(basis.n)
        for i in range(basis.k):
            for j in range(i, basis.k):
                gram = ms.inner_product(basis[i], basis[j])
                target = eye if i == j else 0.0
                worst_ortho = max(worst_ortho, float(np.linalg.norm(gram - target)))
        for f in family:
            rebuilt = ms.reconstruct(ms.expand(f, basis), basis)
            worst_span = max(worst_span, ms.norm_m(ms.sub(f, rebuilt)))
    elapsed = _GS_BUILD_SECONDS
    ok = worst_ortho <= 1e-9 and worst_span <= 1e-8 and elapsed < 60.0
    _report(
        4,
        "Gram-Schmidt on 500 independent families",
        ok,
        f"ortho residual={worst_ortho:.2e}, span residual={worst_span:.2e}, build {elapsed:.2f}s",
    )
    assert worst_ortho <= 1e-9
    assert worst_span <= 1e-8
    assert elapsed < 60.0


def test_criterion_5_parseval():
    rng = np.random.default_rng(5000)
    worst = 0.0
    for _, basis in _gs_corpus():
        stack = np.stack([random_matrix(rng, basis.n) for _ in range(basis.k)])
        f = ms.reconstruct(stack, basis)
        gram_scale = np.linalg.norm(ms.inner_product(f, f))
        worst = max(worst, ms.parseval_residual(f, basis) / max(gram_scale, 1e-300))
    ok = worst <= 1e-9
    _report(5, "Parseval identity in every basis span", ok, f"worst rel residual={worst:.2e}")
    assert worst <= 1e-9


def _duplicated_row_family(rng, k, n, m):
    coeffs = rng.standard_normal((k, m, n, n)) + 1j * rng.standard_normal((k, m, n, n))
    if n == 1:
        coeffs[0] = 0.0
    else:
        coeffs[0, :, 1, :] = float(rng.normal()) * coeffs[0, :, 0, :]
    return ms.SignalFamily.from_coeffs(coeffs)


def test_criterion_6_independence_theorems():
    rng = np.random.default_rng(6000)
    counterexamples = {}

    # independent families have only nondegenerate members; a family with a
    # degenerate member is dependent and must yield an explicit witness
    bad = 0
    for seed in range(200):
        family = ms.gen_random_family(seed, int(rng.integers(1, 5)), 6, 3, "independent")
        if any(ms.is_degenerate(sig) for sig in family):
            bad += 1
        degenerate = _duplicated_row_family(rng, 3, int(rng.integers(2, 5)), 4)
        if ms.is_linearly_independent(degenerate).independent:
            bad += 1
        witness = ms.dependent_witness_search(degenerate)
        if witness is None or ms.verify_independence_witness(degenerate, witness):
            bad += 1
    counterexamples["members nondegenerate"] = bad

    # one full-rank coefficient makes the combination nondegenerate
    bad = 0
    for seed in range(200):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        family = ms.gen_random_family(seed, n, k + 2, k, "independent")
        stack = np.stack([rank_one(rng, n) for _ in range(k)])
        stack[rng.integers(k)] = random_matrix(rng, n)
        if ms.is_degenerate(ms.linear_combination(family, stack)):
            bad += 1
    counterexamples["full-rank combination nondegenerate"] = bad

    # full-rank per-member scaling preserves independence
    bad = 0
    for seed in range(200):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 5))
        family = ms.gen_random_family(seed, n, k + 2, k, "independent")
        scaled = ms.SignalFamily(
            tuple(ms.left_mul(random_matrix(rng, n), sig) for sig in family)
        )
        if not ms.is_linearly_independent(scaled).independent:
            bad += 1
    counterexamples["full-rank scaling"] = bad

    # scaled copies of one signal are dependent, with an explicit witness
    bad = 0
    witnessless = 0
    for seed in range(200):
        n = int(rng.integers(1, 5))
        f = random_signal(rng, n, 3)
        family = ms.SignalFamily(
            (ms.left_mul(random_matrix(rng, n), f), ms.left_mul(random_matrix(rng, n), f))
        )
        if ms.is_linearly_independent(family).independent:
            bad += 1
            continue
        witness = ms.dependent_witness_search(family)
        if witness is None or ms.verify_independence_witness(family, witness):
            witnessless += 1
    counterexamples["scaled copies dependent"] = bad
    counterexamples["dependent without witness"] = witnessless

    # combining over any partition with one full-rank coefficient per block
    bad = 0
    for seed in range(200):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(2, 7))
        family = ms.gen_random_family(seed, n, k + 2, k, "independent")
        p = int(rng.integers(1, k + 1))
        order = rng.permutation(k)
        cuts = sorted(rng.choice(np.arange(1, k), size=p - 1, replace=False)) if p > 1 else []
        combined = []
        for block in np.split(order, cuts):
            stack = np.zeros((k, n, n), dtype=complex)
            full_rank_at = rng.integers(len(block))
            for pos, idx in enumerate(block):
                stack[idx] = random_matrix(rng, n) if pos == full_rank_at else rank_one(rng, n)
            combined.append(ms.linear_combination(family, stack))
        if not ms.is_linearly_independent(ms.SignalFamily(tuple(combined))).independent:
            bad += 1
    counterexamples["partitioned combinations"] = bad

    # orthonormal sets are independent
    bad = 0
    for seed in range(200):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 5))
        family = ms.gen_random_family(seed, n, k + 2, k, "orthonormal")
        if not ms.is_linearly_independent(family).independent:
            bad += 1
    counterexamples["orthonormal independent"] = bad

    # orthogonal nondegenerate sets normalize to orthonormal and are independent
    bad = 0
    for seed in range(200):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 5))
        base = ms.gen_random_family(seed, n, k + 2, k, "orthonormal")
        scaled = ms.SignalFamily(
            tuple(ms.left_mul(random_matrix(rng, n), phi) for phi in base)
        )
        if any(ms.is_degenerate(sig) for sig in scaled):
            bad += 1
            continue
        normalized = ms.SignalFamily(
            tuple(
                ms.left_mul(ms.herm_inv_sqrt(ms.inner_product(sig, sig)), sig)
                for sig in scaled
            )
        )
        if not ms.is_orthonormal_set(normalized, tol=ms.DEFAULT_TOLERANCES.ortho_tol):
            bad += 1
        if not ms.is_linearly_independent(scaled).independent:
            bad += 1
    counterexamples["normalized orthogonal sets"] = bad

    total = sum(counterexamples.values())
    ok = total == 0
    _report(
        6,
        "independence theorems, 200 constructions each",
        ok,
        f"counterexamples={total}",
    )
    assert counterexamples == {key: 0 for key in counterexamples}


def test_criterion_7_lattice_identities():
    rng = np.random.default_rng(7000)
    worst_identity = 0.0
    inequality_failures = 0
    for seed in range(200):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 6))
        basis = ms.gen_random_family(seed, n, k + 2, k, "independent", field="real")
        lattice = ms.build_lattice(basis)
        scale = max(np.linalg.norm(ms.inner_product(f, f)) for f in basis)
        worst_identity = max(worst_identity, lattice.gram_identity_residual() / scale)
        if not lattice.norm_inequality_holds(slack=1e-9):
            inequality_failures += 1

    det_failures = 0
    for k, n in [(1, 2), (2, 2), (3, 3), (4, 1)]:
        coeffs = np.zeros((k, k + 1, n, n))
        for j in range(k):
            coeffs[j, j] = np.eye(n)
        lattice = ms.build_lattice(ms.SignalFamily.from_coeffs(coeffs))
        if abs(lattice.determinant - n ** (k / 4)) > 1e-10 * n ** (k / 4):
            det_failures += 1

    enumeration_failures = 0
    for k, n, bound in [(1, 1, 3), (2, 1, 2), (1, 2, 1)]:
        basis = ms.gen_random_family(70 + k + n, n, k + 2, k, "independent", field="real")
        points = list(ms.build_lattice(basis).enumerate_points(bound))
        expected = (2 * bound + 1) ** (k * n * n)
        keys = {tuple(p.coeffs.ravel()) for p in points}
        if len(points) != expected or len(keys) != expected:
            enumeration_failures += 1

    ok = (
        worst_identity <= 1e-9
        and inequality_failures == 0
        and det_failures == 0
        and enumeration_failures == 0
    )
    _report(
        7,
        "lattice identities on 200 random lattices",
        ok,
        f"identity residual={worst_identity:.2e}",
    )
    assert worst_identity <= 1e-9
    assert inequality_failures == 0
    assert det_failures == 0
    assert enumeration_failures == 0


def test_criterion_8_quadrature_oracle():
    rng = np.random.default_rng(8000)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 6))
        f = random_signal(rng, 2, m)
        g = random_signal(rng, 2, m)
        oracle = quadrature_inner_product(f.coeffs, g.coeffs)
        worst = max(worst, float(np.abs(ms.inner_product(f, g) - oracle).max()))
    ok = worst <= 1e-8
    _report(8, "coefficient form vs 4096-point quadrature", ok, f"worst abs dev={worst:.2e}")
    assert worst <= 1e-8


def test_criterion_9_cli_pipeline(tmp_path):
    src = str(Path(ms.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "matsig", *argv],
            env=env,
            capture_output=True,
            text=True,
        ).returncode

    f = tmp_path / "f.json"
    g = tmp_path / "g.json"
    codes = [
        cli("gen", "--seed", "7", "--n", "2", "--m", "4", "--k", "3",
            "--kind", "independent", "-o", str(f)),
        cli("orthonormalize", str(f), "-o", str(g)),
        cli("verify", str(g)),
    ]
    doc = json.loads(g.read_text())
    doc["signals"][0][0][0][0][0] += 1e-3
    g.write_text(json.dumps(doc))
    corrupted_code = cli("verify", str(g))
    ok = codes == [0, 0, 0] and corrupted_code == 1
    _report(
        9,
        "CLI gen/orthonormalize/verify pipeline",
        ok,
        f"exit codes {codes}, corrupted verify {corrupted_code}",
    )
    assert codes == [0, 0, 0]
    assert corrupted_code == 1
