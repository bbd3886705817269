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

from .core import ToleranceConfig, _norms_m, _self_grams, orthonormality_residual, to_rows
from .errors import MatrixSignalError, SchemaError
from .fileio import encode_array, family_to_doc, load_family, save_family, write_json
from .generate import FAMILY_KINDS, gen_random_family
from .gramschmidt import orthonormalize
from .independence import NORM_EQUIV_SLACK, analyze_family
from .lattice import DEFAULT_ENUMERATION_CAP, build_lattice

_KIND_CLAIMS = {
    "independent": ["independent"],
    "orthonormal": ["orthonormal", "independent"],
    "degenerate": ["contains_degenerate", "dependent"],
    "dependent": ["dependent"],
}


def _finite(cast, positive: bool = False):
    """An argparse type: ``cast(text)``, rejected unless finite and nonnegative, or positive."""
    kind = "positive" if positive else "nonnegative"

    def parse(text: str):
        value = cast(text)
        if not (0 < value < float("inf") or (value == 0 and not positive)):
            raise argparse.ArgumentTypeError(f"expected a finite {kind} number, got {text!r}")
        return value

    parse.__name__ = cast.__name__
    return parse


_FLAGS = {
    # at 0 a zero eigenvalue is roundoff of either sign, so no verdict would mean anything
    "--tol-rank": {"type": _finite(float, positive=True), "help": "relative rank tolerance"},
    "--tol-ortho": {"type": _finite(float), "help": "orthogonality tolerance"},
    "--format": {"choices": ("text", "json"), "default": "text", "help": "output format"},
}


def _add_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Register the shared flags that a subcommand reads."""
    for flag in flags:
        parser.add_argument(flag, **_FLAGS[flag])


def _tolerances(args) -> ToleranceConfig:
    """The default tolerances, overridden by the tolerance flags given to the subcommand."""
    given = {"rank_rel_tol": args.tol_rank, "ortho_tol": getattr(args, "tol_ortho", None)}
    return ToleranceConfig(**{name: value for name, value in given.items() if value is not None})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matsig",
        description="Analyze, orthonormalize and lattice-test matrix-valued signal files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a seeded random family")
    p_gen.add_argument("--seed", type=_finite(int), required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--kind", choices=FAMILY_KINDS, required=True)
    p_gen.add_argument("--field", choices=("real", "complex"), default="complex")
    p_gen.add_argument("-o", "--output", required=True)
    _add_flags(p_gen, "--tol-rank", "--tol-ortho")
    p_gen.set_defaults(func=cmd_gen)

    p_analyze = sub.add_parser("analyze", help="degeneracy, Gram blocks and independence report")
    p_analyze.add_argument("file")
    _add_flags(p_analyze, "--tol-rank", "--tol-ortho", "--format")
    p_analyze.set_defaults(func=cmd_analyze)

    p_ortho = sub.add_parser("orthonormalize", help="Gram-Schmidt orthonormalization of a family file")
    p_ortho.add_argument("file")
    p_ortho.add_argument("-o", "--output", required=True)
    _add_flags(p_ortho, "--tol-rank", "--tol-ortho")
    p_ortho.set_defaults(func=cmd_orthonormalize)

    p_lattice = sub.add_parser("lattice", help="lattice determinant and brute-force search")
    lattice_sub = p_lattice.add_subparsers(dest="lattice_command", required=True)

    p_det = lattice_sub.add_parser("det", help="lattice determinant of a real basis file")
    p_det.add_argument("file")
    _add_flags(p_det, "--tol-rank", "--format")
    p_det.set_defaults(func=cmd_lattice_det)

    p_near = lattice_sub.add_parser("nearest", help="brute-force closest lattice point")
    p_near.add_argument("file")
    p_near.add_argument("--target", required=True, help="signal file; its first signal is the target")
    p_near.add_argument("--bound", type=_finite(int), required=True)
    p_near.add_argument("--cap", type=_finite(int), default=DEFAULT_ENUMERATION_CAP)
    _add_flags(p_near, "--tol-rank", "--format")
    p_near.set_defaults(func=cmd_lattice_nearest)

    p_verify = sub.add_parser("verify", help="run the invariant suite and any recorded claims")
    p_verify.add_argument("file")
    _add_flags(p_verify, "--tol-rank", "--tol-ortho", "--format")
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
    analysis = analyze_family(family, cfg)
    report = analysis.independence
    columns = (analysis.degenerate, analysis.rows_dependent, analysis.norm_m, analysis.norm_l2)
    per_signal = [
        {"index": idx, "degenerate": degenerate, "rows_linearly_dependent": dependent, "norm_m": m, "norm_l2": l2}
        for idx, (degenerate, dependent, m, l2) in enumerate(zip(*(column.tolist() for column in columns)))
    ]
    result = {
        "n": family.n,
        "m": family.m,
        "k": family.k,
        "field": family.field,
        "signals": per_signal,
        "gram_blocks": encode_array(analysis.gram.blocks),
        "independence": {
            "independent": report.independent,
            "block_gram_rank": report.block_gram_rank,
            "required_rank": report.required_rank,
            "min_eigenvalue": report.min_eigenvalue,
        },
        "orthonormal": analysis.orthonormal,
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
    span_residual = float(_norms_m(_self_grams(errors)).max())

    doc = family_to_doc(
        basis,
        metadata={"claims": ["orthonormal", "independent"], "source": str(args.file)},
    )
    doc["gram_schmidt"] = {
        "mode": result.mode,
        "reorthogonalized": result.reorthogonalized,
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
    analysis = analyze_family(family, cfg)
    report = analysis.independence
    degenerate = analysis.degenerate.tolist()
    checks: list[tuple[str, bool, str]] = [
        ("gram_hermitian", analysis.hermitian, f"deviation {analysis.hermitian_deviation:.3e}"),
        ("self_gram_psd", analysis.psd_margin >= 0.0, f"margin {analysis.psd_margin:.3e}"),
        ("norm_equivalence", analysis.norms_equivalent, f"slack {NORM_EQUIV_SLACK:g}"),
        (
            "degeneracy_rank_agreement",
            degenerate == analysis.rows_dependent.tolist(),
            "eigh route vs row-SVD route",
        ),
    ]
    rank = f"rank {report.block_gram_rank}/{report.required_rank}"
    claim_checks = {
        "independent": (report.independent, rank),
        "orthonormal": (analysis.orthonormal, f"tolerance {cfg.ortho_tol:g}"),
        "dependent": (not report.independent, rank),
        "contains_degenerate": (any(degenerate), f"degenerate members {[i for i, d in enumerate(degenerate) if d]}"),
    }
    claims = metadata.get("claims", [])
    if not (isinstance(claims, list) and all(isinstance(claim, str) for claim in claims)):
        raise SchemaError("metadata.claims", "expected a list of strings")
    for claim in claims:
        if claim not in claim_checks:
            print(f"ignoring unknown claim {claim!r}", file=sys.stderr)
            continue
        checks.append((f"claim_{claim}", *claim_checks[claim]))

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
        # an overflowed Gram is reported once, as the error below, not also as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (MatrixSignalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
