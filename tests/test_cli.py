"""CLI subcommands, exit codes and machine-readable output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import matsig as ms
from matsig.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_orthonormalize_analyze_verify_pipeline(tmp_path, capsys):
    f = tmp_path / "f.json"
    g = tmp_path / "g.json"
    code, _, _ = run(
        capsys, "gen", "--seed", "7", "--n", "2", "--m", "4", "--k", "3",
        "--kind", "independent", "-o", str(f),
    )
    assert code == 0
    code, _, _ = run(capsys, "orthonormalize", str(f), "-o", str(g))
    assert code == 0

    code, out, _ = run(capsys, "analyze", str(g), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["orthonormal"] is True
    assert report["independence"]["independent"] is True
    assert len(report["gram_blocks"]) == 3

    code, out, _ = run(capsys, "verify", str(g), "--format", "json")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["passed"] is True
    assert any(c["name"] == "claim_orthonormal" for c in verdict["checks"])


def test_verify_detects_corruption(tmp_path, capsys):
    f = tmp_path / "f.json"
    g = tmp_path / "g.json"
    run(capsys, "gen", "--seed", "3", "--n", "2", "--m", "4", "--k", "2",
        "--kind", "independent", "-o", str(f))
    run(capsys, "orthonormalize", str(f), "-o", str(g))
    doc = json.loads(g.read_text())
    doc["signals"][0][0][0][0][0] += 1e-3
    g.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(g), "--format", "json")
    assert code == 1
    verdict = json.loads(out)
    failing = {c["name"] for c in verdict["checks"] if not c["passed"]}
    assert "claim_orthonormal" in failing


def test_verify_claims_for_each_kind(tmp_path, capsys):
    for kind in ms.FAMILY_KINDS:
        path = tmp_path / f"{kind}.json"
        code, _, _ = run(
            capsys, "gen", "--seed", "11", "--n", "2", "--m", "4", "--k", "3",
            "--kind", kind, "-o", str(path),
        )
        assert code == 0
        code, _, _ = run(capsys, "verify", str(path))
        assert code == 0, kind


def test_schema_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": "1", "n": 2}')
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "error:" in err


def test_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 2
    assert "error:" in err


DEEP_SIGNALS = '{"schema_version": "1", "n": 1, "m": 1, "k": 1, "field": "real", "signals": %s}' % (
    "[" * 990 + "]" * 990
)


@pytest.mark.parametrize(
    "content, claims",
    [
        (b"\xff\xfe{}", None),
        (DEEP_SIGNALS.encode(), None),
        (b'{"schema_version": "1", "n": ' + b"1" * 5000 + b"}", None),  # past int's 4,300-digit limit
        *[(None, claims) for claims in (5, None, [["independent"]], "independent", {"a": 1})],
    ],
    ids=["not-utf8", "nested-990", "int-5000-digits",
         "claims-int", "claims-null", "claims-nested", "claims-str", "claims-object"],
)
def test_unparsable_file_or_claims_exit_two(tmp_path, capsys, content, claims):
    # bad input, never a failed verification; a string of claims is not a list of its letters
    path = tmp_path / "input.json"
    if content is None:
        family = ms.gen_random_family(4, 1, 3, 2, "independent", field="real")
        ms.save_family(path, family, {"claims": claims})
    else:
        path.write_bytes(content)
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert "error:" in err
    assert "Traceback" not in err


def test_orthonormalize_dependent_family_exits_two(tmp_path, capsys):
    path = tmp_path / "dep.json"
    run(capsys, "gen", "--seed", "5", "--n", "2", "--m", "3", "--k", "2",
        "--kind", "dependent", "-o", str(path))
    code, _, err = run(capsys, "orthonormalize", str(path), "-o", str(tmp_path / "out.json"))
    assert code == 2
    assert "not linearly independent" in err


def test_gen_infeasible_exits_two(tmp_path, capsys):
    code, _, err = run(
        capsys, "gen", "--seed", "1", "--n", "2", "--m", "2", "--k", "3",
        "--kind", "independent", "-o", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "error:" in err


def test_lattice_det_matches_library(tmp_path, capsys):
    path = tmp_path / "basis.json"
    run(capsys, "gen", "--seed", "2", "--n", "2", "--m", "3", "--k", "2",
        "--kind", "independent", "--field", "real", "-o", str(path))
    code, out, _ = run(capsys, "lattice", "det", str(path), "--format", "json")
    assert code == 0
    family, _ = ms.load_family(path)
    expected = ms.build_lattice(family).determinant
    assert json.loads(out)["determinant"] == pytest.approx(expected, rel=1e-12)


def test_lattice_det_rejects_complex_basis(tmp_path, capsys):
    path = tmp_path / "cplx.json"
    run(capsys, "gen", "--seed", "2", "--n", "2", "--m", "3", "--k", "2",
        "--kind", "independent", "-o", str(path))
    code, _, err = run(capsys, "lattice", "det", str(path))
    assert code == 2
    assert "real" in err


def test_lattice_nearest_finds_target(tmp_path, capsys):
    basis_path = tmp_path / "basis.json"
    run(capsys, "gen", "--seed", "4", "--n", "1", "--m", "3", "--k", "2",
        "--kind", "independent", "--field", "real", "-o", str(basis_path))
    family, _ = ms.load_family(basis_path)
    lattice = ms.build_lattice(family)
    stack = np.array([[[2]], [[-1]]])
    target = lattice.point(stack).signal
    target_path = tmp_path / "target.json"
    ms.save_family(target_path, ms.SignalFamily((target,)))
    code, out, _ = run(
        capsys, "lattice", "nearest", str(basis_path),
        "--target", str(target_path), "--bound", "3", "--format", "json",
    )
    assert code == 0
    result = json.loads(out)
    assert result["distance"] <= 1e-10
    assert result["coeffs"] == stack.tolist()


def test_tolerance_flags_are_applied(tmp_path, capsys):
    f = tmp_path / "f.json"
    g = tmp_path / "g.json"
    run(capsys, "gen", "--seed", "8", "--n", "2", "--m", "4", "--k", "2",
        "--kind", "independent", "-o", str(f))
    run(capsys, "orthonormalize", str(f), "-o", str(g))
    doc = json.loads(g.read_text())
    doc["signals"][0][0][0][0][0] += 1e-6
    g.write_text(json.dumps(doc))
    code, _, _ = run(capsys, "verify", str(g))
    assert code == 1
    # a deliberately loose orthogonality tolerance accepts the perturbation
    code, _, _ = run(capsys, "verify", str(g), "--tol-ortho", "1e-3")
    assert code == 0


def test_rank_tolerance_flag_changes_verdict(tmp_path, capsys):
    path = tmp_path / "f.json"
    run(capsys, "gen", "--seed", "12", "--n", "2", "--m", "4", "--k", "2",
        "--kind", "independent", "-o", str(path))
    code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
    assert json.loads(out)["independence"]["independent"] is True
    # an absurdly coarse rank tolerance collapses the block Gram rank
    code, out, _ = run(capsys, "analyze", str(path), "--format", "json", "--tol-rank", "0.99")
    assert code == 0
    assert json.loads(out)["independence"]["independent"] is False


def test_analyze_text_output(tmp_path, capsys):
    path = tmp_path / "f.json"
    run(capsys, "gen", "--seed", "9", "--n", "2", "--m", "3", "--k", "2",
        "--kind", "degenerate", "-o", str(path))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "degenerate=True" in out
    assert "independent=False" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("lattice", "nearest", "{basis}", "--target", "{basis}", "--bound", "-1"),
        ("lattice", "nearest", "{basis}", "--target", "{basis}", "--bound", "two"),
        ("lattice", "nearest", "{basis}", "--target", "{basis}", "--bound", "1", "--cap", "0"),
        ("analyze", "{basis}", "--tol-rank", "-1"),
        ("analyze", "{basis}", "--tol-rank", "nan"),
        ("verify", "{basis}", "--tol-ortho", "-0.001"),
        ("verify", "{basis}", "--tol-ortho", "inf"),
        ("analyze", "{basis}", "--tol-rank", "0"),
        ("gen", "--seed", "1", "--n", "1", "--m", "3", "--k", "2", "--kind", "independent",
         "-o", "{basis}.out", "--format", "json"),
        ("orthonormalize", "{basis}", "-o", "{basis}.out", "--format", "json"),
        ("lattice", "det", "{basis}", "--tol-ortho", "1e-9"),
        ("lattice", "nearest", "{basis}", "--target", "{basis}", "--bound", "1", "--tol-ortho", "1e-9"),
        ("gen", "--seed", "-1", "--n", "1", "--m", "3", "--k", "2", "--kind", "independent", "-o", "{basis}.out"),
        # a byte count past the index range fails before any allocation is attempted
        ("gen", "--seed", "1", "--n", "100000", "--m", "100000000", "--k", "100000", "--kind", "independent",
         "-o", "{basis}.out"),
    ],
)
def test_bad_numeric_arguments_exit_two(tmp_path, capsys, argv):
    basis = tmp_path / "basis.json"
    run(capsys, "gen", "--seed", "4", "--n", "1", "--m", "3", "--k", "2",
        "--kind", "independent", "--field", "real", "-o", str(basis))
    try:
        code = main([arg.format(basis=basis) for arg in argv])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert "error:" in err


def test_gen_failed_self_check_exits_two(tmp_path, capsys):
    # at --tol-rank 1 no eigenvalue exceeds lambda_max, so every base draw is degenerate
    code, _, err = run(
        capsys, "gen", "--seed", "1", "--n", "3", "--m", "5", "--k", "3",
        "--kind", "dependent", "--tol-rank", "1", "-o", str(tmp_path / "d.json"),
    )
    assert code == 2
    assert "error: could not draw a nondegenerate base signal" in err
    assert "Traceback" not in err
    assert not (tmp_path / "d.json").exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "{file}"),
        ("verify", "{file}"),
        ("orthonormalize", "{file}", "-o", "{out}"),
        ("lattice", "det", "{file}"),
    ],
    ids=["analyze", "verify", "orthonormalize", "lattice-det"],
)
def test_non_finite_file_exits_two(tmp_path, capsys, argv, token):
    path = tmp_path / "basis.json"
    run(capsys, "gen", "--seed", "4", "--n", "2", "--m", "3", "--k", "2",
        "--kind", "independent", "--field", "real", "-o", str(path))
    doc = json.loads(path.read_text())
    doc["signals"][1][2][0][1][0] = 12345.25
    path.write_text(json.dumps(doc).replace("12345.25", token))
    out = tmp_path / "out.json"
    code = main([arg.format(file=path, out=out) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert "error: signals[1][2][0][1]:" in err
    assert not out.exists()


@pytest.mark.parametrize("field", ["real", "complex"])
def test_orthonormalize_span_residual_matches_member_loop(tmp_path, capsys, field):
    f = tmp_path / "f.json"
    g = tmp_path / "g.json"
    run(capsys, "gen", "--seed", "5", "--n", "3", "--m", "8", "--k", "4",
        "--kind", "independent", "--field", field, "-o", str(f))
    assert run(capsys, "orthonormalize", str(f), "-o", str(g))[0] == 0
    reported = json.loads(g.read_text())["gram_schmidt"]["residuals"]["span"]
    family, _ = ms.load_family(f)
    basis, _ = ms.load_family(g)
    # reference: expand and reconstruct each member on its own
    reference = max(
        ms.norm_m(ms.sub(sig, ms.reconstruct(ms.expand(sig, basis), basis))) for sig in family
    )
    # both are roundoff; summation order may differ, so compare at a dtype-derived tolerance
    tol = 1e3 * np.finfo(float).eps * max(ms.norm_m(sig) for sig in family)
    assert reference <= tol
    assert abs(reported - reference) <= tol


@pytest.mark.parametrize("argv", [("analyze", "--format", "json"), ("verify",)], ids=["analyze", "verify"])
def test_overflowing_gram_exits_two(tmp_path, capsys, argv):
    # <f, f> = 1e400 I overflows to inf * I; a NaN Hermitian deviation is bad input, not a verdict
    path = tmp_path / "huge.json"
    ms.save_family(path, ms.SignalFamily.from_coeffs(1e200 * np.eye(2)[None, None], field="real"))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "error: matrix overflowed: ||P - P^H||_F = nan" in err


def test_overflowing_eigen_solve_exits_two(tmp_path, capsys):
    # a finite family whose block Gram overflows made the eigen-solve raise LinAlgError
    family = ms.gen_random_family(1, 2, 8, 3, "independent", field="real")
    path = tmp_path / "scaled.json"
    ms.save_family(path, ms.SignalFamily.from_coeffs(1e160 * family.coeffs_array, field="real"))
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run(capsys, "analyze", str(path), "--format", "json")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "error: matrix overflowed: ||P - P^H||_F = nan" in err
    assert "not Hermitian" not in err


def test_overflowing_file_prints_one_error_line(tmp_path):
    # a child process, so that numpy's RuntimeWarnings reach stderr under the default filters
    family = ms.gen_random_family(1, 2, 8, 3, "independent", field="real")
    path = tmp_path / "scaled.json"
    ms.save_family(path, ms.SignalFamily.from_coeffs(1e160 * family.coeffs_array, field="real"))
    src = str(Path(ms.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "matsig", "analyze", str(path), "--format", "json"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: matrix overflowed: ||P - P^H||_F = nan\n"


@pytest.mark.parametrize(
    "argv, dims, scale",
    [
        (("analyze", "{file}", "--format", "json"), (2, 8, 3), 1e80),
        (("lattice", "det", "{file}", "--format", "json"), (2, 16, 8), 1e50),
    ],
    ids=["analyze-norm_m", "lattice-determinant"],
)
def test_non_finite_report_exits_two(tmp_path, capsys, argv, dims, scale):
    # finite files whose report overflows: ||<f, f>||_F ~ 1e320, and eight step norms ~ 5e50 multiplied
    family = ms.gen_random_family(1, *dims, "independent", field="real")
    path = tmp_path / "scaled.json"
    ms.save_family(path, ms.SignalFamily.from_coeffs(scale * family.coeffs_array, field="real"))
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run(capsys, *(arg.format(file=path) for arg in argv))
    assert code == 2
    assert out == ""  # no partial report, so no Infinity either
    assert "Traceback" not in err
    assert "error:" in err
