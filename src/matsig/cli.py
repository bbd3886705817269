"""Command-line interface.

Subcommands: gen, analyze, orthonormalize, lattice det, lattice nearest,
verify.  Exit codes: 0 success, 1 verification failure, 2 input error.

Files written by ``gen`` and ``orthonormalize`` record what they claim to be
(metadata "claims"); ``verify`` re-checks the library invariants plus every
recorded claim at the configured tolerances, so corrupting a coefficient of an
orthonormal basis file flips its exit code to 1.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .core import (
    ToleranceConfig,
    is_orthonormal_set,
    norm_l2,
    norm_m,
    orthonormality_residual,
    to_rows,
)
from .errors import MatrixSignalError
from .fileio import encode_array, family_to_doc, load_family, save_family, write_json
from .generate import FAMILY_KINDS, gen_random_family
from .gramschmidt import orthonormalize
from .independence import (
    block_gram,
    is_degenerate,
    is_linearly_independent,
    rows_linearly_dependent,
)
from .lattice import DEFAULT_ENUMERATION_CAP, build_lattice

NORM_EQUIV_SLACK = 1e-9

_CLAIMS = {"independent", "orthonormal", "dependent", "contains_degenerate"}

_KIND_CLAIMS = {
    "independent": ["independent"],
    "orthonormal": ["orthonormal", "independent"],
    "degenerate": ["contains_degenerate", "dependent"],
    "dependent": ["dependent"],
}


def _nonnegative(cast):
    """An argparse type: ``cast(text)``, rejected unless finite and nonnegative."""

    def parse(text: str):
        value = cast(text)
        if not 0 <= value < float("inf"):
            raise argparse.ArgumentTypeError(f"expected a finite nonnegative number, got {text!r}")
        return value

    parse.__name__ = cast.__name__
    return parse


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol-rank", type=_nonnegative(float), default=None, help="relative rank tolerance")
    parser.add_argument("--tol-ortho", type=_nonnegative(float), default=None, help="orthogonality tolerance")
    parser.add_argument("--format", choices=("text", "json"), default="text", help="output format")


def _tolerances(args) -> ToleranceConfig:
    kwargs = {}
    if args.tol_rank is not None:
        kwargs["rank_rel_tol"] = args.tol_rank
    if args.tol_ortho is not None:
        kwargs["ortho_tol"] = args.tol_ortho
    return ToleranceConfig(**kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matsig",
        description="Analyze, orthonormalize and lattice-test matrix-valued signal files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a seeded random family")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--kind", choices=FAMILY_KINDS, required=True)
    p_gen.add_argument("--field", choices=("real", "complex"), default="complex")
    p_gen.add_argument("-o", "--output", required=True)
    _add_common(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_analyze = sub.add_parser("analyze", help="degeneracy, Gram blocks and independence report")
    p_analyze.add_argument("file")
    _add_common(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_ortho = sub.add_parser("orthonormalize", help="Gram-Schmidt orthonormalization of a family file")
    p_ortho.add_argument("file")
    p_ortho.add_argument("-o", "--output", required=True)
    _add_common(p_ortho)
    p_ortho.set_defaults(func=cmd_orthonormalize)

    p_lattice = sub.add_parser("lattice", help="lattice determinant and brute-force search")
    lattice_sub = p_lattice.add_subparsers(dest="lattice_command", required=True)

    p_det = lattice_sub.add_parser("det", help="lattice determinant of a real basis file")
    p_det.add_argument("file")
    _add_common(p_det)
    p_det.set_defaults(func=cmd_lattice_det)

    p_near = lattice_sub.add_parser("nearest", help="brute-force closest lattice point")
    p_near.add_argument("file")
    p_near.add_argument("--target", required=True, help="signal file; its first signal is the target")
    p_near.add_argument("--bound", type=_nonnegative(int), required=True)
    p_near.add_argument("--cap", type=_nonnegative(int), default=DEFAULT_ENUMERATION_CAP)
    _add_common(p_near)
    p_near.set_defaults(func=cmd_lattice_nearest)

    p_verify = sub.add_parser("verify", help="run the invariant suite and any recorded claims")
    p_verify.add_argument("file")
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def cmd_gen(args) -> int:
    cfg = _tolerances(args)
    family = gen_random_family(
        args.seed, args.n, args.m, args.k, args.kind, field=args.field, cfg=cfg
    )
    metadata = {
        "generator": {"seed": args.seed, "kind": args.kind, "prng": "numpy PCG64"},
        "claims": list(_KIND_CLAIMS[args.kind]),
    }
    save_family(args.output, family, metadata)
    print(f"wrote {args.kind} family (k={family.k}, n={family.n}, m={family.m}) to {args.output}")
    return 0


def cmd_analyze(args) -> int:
    cfg = _tolerances(args)
    family, _ = load_family(args.file)
    report = is_linearly_independent(family, cfg)
    bg = block_gram(family)
    per_signal = [
        {
            "index": idx,
            "degenerate": bool(is_degenerate(sig, cfg)),
            "rows_linearly_dependent": bool(rows_linearly_dependent(sig, cfg)),
            "norm_m": norm_m(sig),
            "norm_l2": norm_l2(sig),
        }
        for idx, sig in enumerate(family)
    ]
    result = {
        "n": family.n,
        "m": family.m,
        "k": family.k,
        "field": family.field,
        "signals": per_signal,
        "gram_blocks": encode_array(bg.blocks),
        "independence": {
            "independent": report.independent,
            "block_gram_rank": report.block_gram_rank,
            "required_rank": report.required_rank,
            "min_eigenvalue": report.min_eigenvalue,
        },
        "orthonormal": bool(is_orthonormal_set(family, cfg.ortho_tol)),
    }
    if args.format == "json":
        write_json(result)
    else:
        print(f"family: k={family.k} n={family.n} m={family.m} field={family.field}")
        for entry in per_signal:
            print(
                f"signal {entry['index']}: degenerate={entry['degenerate']} "
                f"norm_m={entry['norm_m']:.6g} norm_l2={entry['norm_l2']:.6g}"
            )
        rep = result["independence"]
        print(
            f"independent={rep['independent']} rank={rep['block_gram_rank']}/"
            f"{rep['required_rank']} min_eig={rep['min_eigenvalue']:.3e}"
        )
        print(f"orthonormal={result['orthonormal']}")
    return 0


def cmd_orthonormalize(args) -> int:
    cfg = _tolerances(args)
    family, _ = load_family(args.file)
    result = orthonormalize(family, cfg)
    basis = result.ortho

    ortho_residual = orthonormality_residual(basis)
    # max_k norm_m(e_k), e_k = f_k - sum_l <f_k, Phi_l> Phi_l; all rows at once: R - (R R_Phi^H) R_Phi
    rows, basis_rows = to_rows(family.coeffs_array), to_rows(basis.coeffs_array)
    errors = (rows - (rows @ basis_rows.conj().T) @ basis_rows).reshape(family.k, family.n, -1)
    error_grams = errors @ errors.conj().transpose(0, 2, 1)
    span_residual = float(np.sqrt(max(np.linalg.norm(gram) for gram in error_grams)))

    doc = family_to_doc(
        basis,
        metadata={"claims": ["orthonormal", "independent"], "source": str(args.file)},
    )
    doc["gram_schmidt"] = {
        "mode": result.mode,
        "reorthogonalized": result.reorthogonalized,
        "mu": None,
        "step_norms": None,
        "residuals": {"orthonormality": ortho_residual, "span": span_residual},
    }
    write_json(doc, args.output)
    print(
        f"wrote orthonormal basis to {args.output} "
        f"(orthonormality residual {ortho_residual:.3e}, span residual {span_residual:.3e})"
    )
    return 0


def cmd_lattice_det(args) -> int:
    cfg = _tolerances(args)
    family, _ = load_family(args.file)
    lattice = build_lattice(family, cfg)
    if args.format == "json":
        write_json({"determinant": lattice.determinant, "step_norms": lattice.gs.step_norms.tolist()})
    else:
        print(f"determinant: {lattice.determinant!r}")
    return 0


def cmd_lattice_nearest(args) -> int:
    cfg = _tolerances(args)
    family, _ = load_family(args.file)
    target_family, _ = load_family(args.target)
    lattice = build_lattice(family, cfg)
    point, distance = lattice.nearest_point(target_family[0], args.bound, args.cap)
    if args.format == "json":
        write_json({"distance": distance, "coeffs": point.coeffs.tolist()})
    else:
        print(f"distance: {distance!r}")
        print(f"coefficients: {point.coeffs.tolist()}")
    return 0


def cmd_verify(args) -> int:
    cfg = _tolerances(args)
    family, metadata = load_family(args.file)
    checks: list[tuple[str, bool, str]] = []

    bg = block_gram(family)
    herm_dev = float(
        np.linalg.norm(bg.blocks - bg.blocks.transpose(1, 0, 3, 2).conj(), axis=(2, 3)).max()
    )
    herm_scale = max(1.0, float(np.linalg.norm(bg.assembled)))
    checks.append(
        ("gram_hermitian", herm_dev <= cfg.hermitian_tol * herm_scale, f"deviation {herm_dev:.3e}")
    )

    grams = bg.blocks[np.arange(family.k), np.arange(family.k)]  # self Grams <f_k, f_k>
    w = np.linalg.eigvalsh((grams + grams.conj().transpose(0, 2, 1)) / 2.0)
    floors = cfg.psd_tol * np.maximum(1.0, np.linalg.norm(grams, axis=(1, 2)))
    worst_psd = float(np.min(w[:, 0] + floors))
    checks.append(("self_gram_psd", worst_psd >= 0.0, f"margin {worst_psd:.3e}"))

    equiv_ok = True
    for sig in family:
        lower = family.n ** -0.25 * norm_l2(sig)
        upper = family.n ** 0.5 * norm_l2(sig)
        value = norm_m(sig)
        if value < lower * (1 - NORM_EQUIV_SLACK) or value > upper * (1 + NORM_EQUIV_SLACK):
            equiv_ok = False
    checks.append(("norm_equivalence", equiv_ok, f"slack {NORM_EQUIV_SLACK:g}"))

    degen = [is_degenerate(sig, cfg) for sig in family]
    agreement = all(d == rows_linearly_dependent(sig, cfg) for d, sig in zip(degen, family))
    checks.append(("degeneracy_rank_agreement", agreement, "eigh route vs row-SVD route"))

    claims = metadata.get("claims", [])
    if claims:
        report = is_linearly_independent(family, cfg)
        for claim in claims:
            if claim not in _CLAIMS:
                print(f"ignoring unknown claim {claim!r}", file=sys.stderr)
                continue
            if claim == "orthonormal":
                ok = is_orthonormal_set(family, cfg.ortho_tol)
                detail = f"tolerance {cfg.ortho_tol:g}"
            elif claim == "independent":
                ok = report.independent
                detail = f"rank {report.block_gram_rank}/{report.required_rank}"
            elif claim == "dependent":
                ok = not report.independent
                detail = f"rank {report.block_gram_rank}/{report.required_rank}"
            else:
                ok = any(degen)
                detail = f"degenerate members {[i for i, d in enumerate(degen) if d]}"
            checks.append((f"claim_{claim}", ok, detail))

    passed = all(ok for _, ok, _ in checks)
    if args.format == "json":
        rows = [{"name": name, "passed": ok, "detail": detail} for name, ok, detail in checks]
        write_json({"passed": passed, "checks": rows})
    else:
        for name, ok, detail in checks:
            print(f"{'ok  ' if ok else 'FAIL'} {name} ({detail})")
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MatrixSignalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
