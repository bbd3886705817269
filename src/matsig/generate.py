"""Seeded random family generators.

All draws come from numpy's default_rng (PCG64), so a given seed reproduces
the same family on every platform.  Each kind guarantees its advertised
predicate by construction and verifies it before returning.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    MatrixSignal,
    SignalFamily,
    ToleranceConfig,
    left_mul,
)
from .errors import InfeasibleParametersError
from .gramschmidt import orthonormalize
from .independence import is_degenerate, is_linearly_independent

__all__ = ["gen_random_family", "FAMILY_KINDS"]

FAMILY_KINDS = ("independent", "orthonormal", "degenerate", "dependent")

_MAX_DRAWS = 32


def _draw_coeffs(rng: np.random.Generator, shape, field: str) -> np.ndarray:
    try:  # MemoryError: the allocation failed; ValueError: the byte count overflows an index
        out = rng.standard_normal(shape)
        return out + 1j * rng.standard_normal(shape) if field == "complex" else out
    except (MemoryError, ValueError) as exc:
        raise InfeasibleParametersError(f"cannot draw coefficients of shape {shape}: {exc}") from exc


def gen_random_family(
    seed: int,
    n: int,
    m: int,
    k: int,
    kind: str,
    field: str = "complex",
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> SignalFamily:
    """Deterministic family of the requested kind.

    independent  -- random coefficients, re-drawn until the block Gram has
                    full rank (requires m >= k)
    orthonormal  -- Gram-Schmidt applied to an independent draw
    degenerate   -- member 0 has its second row function equal to three times
                    the first (or is the zero signal when n = 1); the rest are
                    random
    dependent    -- members 0 and 1 are A f and B f for one random
                    nondegenerate f (requires k >= 2)
    """
    if kind not in FAMILY_KINDS:
        raise InfeasibleParametersError(f"unknown kind {kind!r}; expected one of {FAMILY_KINDS}")
    if field not in ("real", "complex"):
        raise InfeasibleParametersError(f"field must be 'real' or 'complex', got {field!r}")
    if n < 1 or m < 1 or k < 1:
        raise InfeasibleParametersError("n, m and k must all be positive")
    rng = np.random.default_rng(seed)

    if kind in ("independent", "orthonormal"):
        if m < k:
            raise InfeasibleParametersError(
                f"an independent family needs m >= k ({k} signals of {m} coefficients "
                "cannot have independent rows)"
            )
        family = _draw_independent(rng, n, m, k, field, cfg)
        if kind == "independent":
            return family
        result = orthonormalize(family, cfg)
        return result.ortho

    if kind == "degenerate":
        coeffs = _draw_coeffs(rng, (k, m, n, n), field)
        if n == 1:
            coeffs[0] = 0.0
        else:
            coeffs[0, :, 1, :] = 3.0 * coeffs[0, :, 0, :]
        family = SignalFamily.from_coeffs(coeffs)
        if not is_degenerate(family[0], cfg):
            raise InfeasibleParametersError("degenerate construction failed its own check")
        return family

    # dependent: a scaled-copy pair makes the whole family dependent
    if k < 2:
        raise InfeasibleParametersError("a dependent family needs k >= 2")
    for _ in range(_MAX_DRAWS):
        base = MatrixSignal(_draw_coeffs(rng, (m, n, n), field))
        if not is_degenerate(base, cfg):
            break
    else:
        raise InfeasibleParametersError("could not draw a nondegenerate base signal")
    a = _draw_coeffs(rng, (n, n), field)
    b = _draw_coeffs(rng, (n, n), field)
    members = [left_mul(a, base), left_mul(b, base)]
    for _ in range(k - 2):
        members.append(MatrixSignal(_draw_coeffs(rng, (m, n, n), field)))
    family = SignalFamily(tuple(members))
    if is_linearly_independent(family, cfg).independent:
        raise InfeasibleParametersError("dependent construction failed its own check")
    return family


def _draw_independent(
    rng: np.random.Generator, n: int, m: int, k: int, field: str, cfg: ToleranceConfig
) -> SignalFamily:
    for _ in range(_MAX_DRAWS):
        family = SignalFamily.from_coeffs(_draw_coeffs(rng, (k, m, n, n), field))
        if is_linearly_independent(family, cfg).independent:
            return family
    raise InfeasibleParametersError(
        f"could not draw an independent family with n={n}, m={m}, k={k}"
    )
