"""The benchmark's three workloads: seeded inputs, one job, and reference checks.

Each workload object is built from the run's seed, an input-size preset and a
scratch directory inside the checkout.  ``setup(call)`` makes the inputs,
``job(i, call)`` runs job ``i`` and returns what the check needs, and
``check(i, out)`` returns a list of error strings (empty when the output is
right).  Every call into matsig goes through ``call(span_name, fn, *args)`` so
that the traced run can record one span per call; the untraced run passes a
``call`` that only calls ``fn``.

The checks share no code path with the functions they check: they work on the
stacked row-function matrix R (KN x MN) with plain numpy, parse CLI output
with the standard library, and enumerate the lattice box with one vectorised
numpy expression.  They run outside the timed interval.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

from matsig import (
    MatrixSignal,
    block_gram,
    build_lattice,
    expand,
    gen_random_family,
    is_degenerate,
    is_linearly_independent,
    is_orthonormal_set,
    load_family,
    orthogonalize,
    orthonormalize,
    parseval_residual,
    reconstruct,
    rows_linearly_dependent,
    save_family,
    verify_gram_identity,
    verify_norm_inequality,
)

ORTHONORMAL_TOL = 1e-9  # absolute: ||R_Q R_Q^H - I||_F of the orthonormal basis
RESIDUAL_TOL = 1e-8  # relative to the scale of the quantity being reconstructed
CLI_TIMEOUT_S = 120
STARTUP_PROBES = 5


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed for input ``keys`` of run ``seed``; distinct keys give independent streams."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def row_matrix(coeffs: np.ndarray) -> np.ndarray:
    """The KN x MN row-function matrix of a (K, M, N, N) coefficient stack."""
    k, m, n, _ = coeffs.shape
    return coeffs.transpose(0, 2, 1, 3).reshape(k * n, m * n)


def _rel(residual: float, scale: float) -> float:
    return residual / max(1.0, scale)


class FamilyKernels:
    """In-process analysis of seeded complex independent families."""

    name = "family_kernels"
    sizes = {"full": (8, 128, 16), "smoke": (2, 16, 8)}  # (N, M, K)
    pool_size = 4

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.n, self.m, self.k = self.sizes[size]

    def setup(self, call) -> None:
        self.pool = [
            call(
                "generate.gen_random_family",
                gen_random_family,
                derive_seed(self.seed, j),
                self.n,
                self.m,
                self.k,
                "independent",
            )
            for j in range(self.pool_size)
        ]

    def job(self, i: int, call) -> dict:
        fam = self.pool[i % self.pool_size]
        gram = call("independence.block_gram", block_gram, fam)
        report = call("independence.is_linearly_independent", is_linearly_independent, fam)
        degenerate = [call("independence.is_degenerate", is_degenerate, sig) for sig in fam]
        rows_dep = [
            call("independence.rows_linearly_dependent", rows_linearly_dependent, sig) for sig in fam
        ]
        on = call("gramschmidt.orthonormalize", orthonormalize, fam)
        og = call("gramschmidt.orthogonalize", orthogonalize, fam)
        is_set = call("core.is_orthonormal_set", is_orthonormal_set, on.ortho)
        member, other = i % fam.k, (i + 1) % fam.k
        coeffs = call("gramschmidt.expand", expand, fam[member], on.ortho)
        rebuilt = call("gramschmidt.reconstruct", reconstruct, coeffs, on.ortho)
        parseval = call("gramschmidt.parseval_residual", parseval_residual, fam[other], on.ortho)
        return {
            "fam": fam,
            "assembled": gram.assembled,
            "independent": report.independent,
            "degenerate": degenerate,
            "rows_dep": rows_dep,
            "ortho": on.ortho,
            "residuals": og.ortho,
            "is_set": is_set,
            "member": member,
            "coeffs": coeffs,
            "rebuilt": rebuilt.coeffs,
            "other": other,
            "parseval": parseval,
        }

    def check(self, i: int, out: dict) -> list[str]:
        errors = []
        fam = out["fam"]
        n = fam.n
        stack = fam.coeffs_array
        r = row_matrix(stack)
        gram = r @ r.conj().T
        if np.linalg.norm(out["assembled"] - gram) > RESIDUAL_TOL * np.linalg.norm(gram):
            errors.append("block_gram differs from R R^H")
        if out["independent"] is not True:
            errors.append("independent family reported dependent")
        if any(out["degenerate"]) or any(out["rows_dep"]):
            errors.append("a member of an independent family reported degenerate")

        q = row_matrix(out["ortho"].coeffs_array)
        ortho_res = np.linalg.norm(q @ q.conj().T - np.eye(q.shape[0]))
        if not ortho_res <= ORTHONORMAL_TOL:
            errors.append(f"orthonormality residual {ortho_res:.3e}")
        span_res = np.linalg.norm(r - (r @ q.conj().T) @ q)
        if not _rel(span_res, np.linalg.norm(r)) <= RESIDUAL_TOL:
            errors.append(f"orthonormal basis misses the input span by {span_res:.3e}")
        if out["is_set"] is not True:
            errors.append("is_orthonormal_set rejected the orthonormal basis")

        h = row_matrix(out["residuals"].coeffs_array)
        cross = h @ h.conj().T
        for a in range(fam.k):
            cross[a * n : (a + 1) * n, a * n : (a + 1) * n] = 0.0
        if not _rel(np.linalg.norm(cross), np.linalg.norm(h) ** 2) <= RESIDUAL_TOL:
            errors.append("orthogonalize residuals are not pairwise orthogonal")

        f = row_matrix(stack[out["member"]][None])
        ref_coeffs = f @ q.conj().T  # N x KN: [<f, Phi_1>, ..., <f, Phi_K>]
        lib_coeffs = np.concatenate(list(out["coeffs"]), axis=1)
        if not _rel(np.linalg.norm(lib_coeffs - ref_coeffs), np.linalg.norm(f)) <= RESIDUAL_TOL:
            errors.append("expand coefficients differ from R_f R_Q^H")
        rebuilt = row_matrix(out["rebuilt"][None])
        for label, candidate in (("reconstruct", rebuilt), ("reference synthesis", ref_coeffs @ q)):
            res = np.linalg.norm(candidate - f)
            if not _rel(res, np.linalg.norm(f)) <= RESIDUAL_TOL:
                errors.append(f"{label} residual {res:.3e}")

        g = row_matrix(stack[out["other"]][None])
        g_gram = g @ g.conj().T
        g_coeffs = g @ q.conj().T
        own = np.linalg.norm(g_gram - g_coeffs @ g_coeffs.conj().T)
        scale = np.linalg.norm(g_gram)
        for label, res in (("parseval_residual", out["parseval"]), ("reference Parseval", own)):
            if not _rel(res, scale) <= RESIDUAL_TOL:
                errors.append(f"{label} {res:.3e}")
        return errors


class CliPipeline:
    """Subprocess runs of ``python -m matsig``, one process at a time."""

    name = "cli_pipeline"
    sizes = {"full": (4, 64, 32), "smoke": (2, 16, 8)}  # (N, M, K)
    expected_codes = (0, 0, 0, 0, 0, 1, 0, 2)
    rss_of_children = True

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.n, self.m, self.k = self.sizes[size]
        self.workdir = workdir
        self.exit_code_mismatches = 0
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def setup(self, call) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        self.files = {
            key: os.path.join(self.workdir, f"{key}.json")
            for key in ("input", "basis", "corrupt", "dependent", "dependent_out")
        }

    def _matsig(self, *args: str) -> subprocess.CompletedProcess:
        try:
            return subprocess.run(
                [sys.executable, "-m", "matsig", *args],
                cwd=self.workdir,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=CLI_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            return subprocess.CompletedProcess(exc.cmd, None, "", "timed out")

    def _gen(self, call, kind: str, seed: int, output: str) -> subprocess.CompletedProcess:
        dims = ["--n", str(self.n), "--m", str(self.m), "--k", str(self.k)]
        return call("cli.gen", self._matsig, "gen", "--seed", str(seed), *dims, "--kind", kind, "-o", output)

    def job(self, i: int, call) -> dict:
        f = self.files
        runs = [
            self._gen(call, "independent", derive_seed(self.seed, i), f["input"]),
            call("cli.orthonormalize", self._matsig, "orthonormalize", f["input"], "-o", f["basis"]),
            call("cli.analyze", self._matsig, "analyze", f["input"], "--format", "json"),
            call("cli.verify", self._matsig, "verify", f["input"]),
            call("cli.verify", self._matsig, "verify", f["basis"]),
        ]
        corrupt_first_coefficient(f["basis"], f["corrupt"])
        runs += [
            call("cli.verify", self._matsig, "verify", f["corrupt"]),
            self._gen(call, "dependent", derive_seed(self.seed, i, 1), f["dependent"]),
            call(
                "cli.orthonormalize_dependent",
                self._matsig,
                "orthonormalize",
                f["dependent"],
                "-o",
                f["dependent_out"],
            ),
        ]
        return {"codes": tuple(run.returncode for run in runs), "analyze": runs[2].stdout}

    def check(self, i: int, out: dict) -> list[str]:
        errors = []
        codes = out["codes"]
        mismatches = sum(got != want for got, want in zip(codes, self.expected_codes))
        self.exit_code_mismatches += mismatches
        if mismatches:
            errors.append(f"exit codes {codes}, expected {self.expected_codes}")
        try:
            verdict = json.loads(out["analyze"])["independence"]["independent"]
        except (ValueError, KeyError, TypeError) as exc:
            errors.append(f"analyze JSON unreadable: {exc!r}")
        else:
            if verdict is not True:
                errors.append("analyze reported the independent family as dependent")
        return errors

    def probe(self, indices, call) -> dict:
        """In-process save/load of the traced jobs' families, and bare-import start-up time.

        This measures the file codec apart from interpreter start-up; a
        round trip that changes a coefficient is a failure of the run.
        """
        path = os.path.join(self.workdir, "probe.json")
        for i in indices:
            fam = call(
                "generate.gen_random_family",
                gen_random_family,
                derive_seed(self.seed, i),
                self.n,
                self.m,
                self.k,
                "independent",
            )
            call("fileio.save_family", save_family, path, fam)
            loaded, _ = call("fileio.load_family", load_family, path)
            if not np.array_equal(loaded.coeffs_array, fam.coeffs_array):
                raise RuntimeError("save_family/load_family round trip changed coefficients")
        startups = []
        for _ in range(STARTUP_PROBES):
            start = perf_counter()
            subprocess.run(
                [sys.executable, "-c", "import matsig"], env=self.env, check=True, timeout=CLI_TIMEOUT_S
            )
            startups.append(perf_counter() - start)
        return {"cli.startup_s": statistics.median(startups)}


def corrupt_first_coefficient(source: str, dest: str) -> None:
    """Copy a signal file, changing the leading digit of its first coefficient by 5.

    A text edit keeps the cost negligible next to the CLI calls and leaves the
    file valid JSON; the changed entry moves by at least 0.5 in magnitude.
    """
    with open(source) as handle:
        text = handle.read()
    pos = text.index('"signals"')
    while not text[pos].isdigit():
        pos += 1
    digit = str((int(text[pos]) + 5) % 10)
    with open(dest, "w") as handle:
        handle.write(text[:pos] + digit + text[pos + 1 :])


class LatticeSearch:
    """Seeded real lattice bases, build/identity checks and one box-bounded nearest point."""

    name = "lattice_search"
    sizes = {"full": (2, 4, 2), "smoke": (1, 2, 2)}  # (N, M, K)
    bound = 1
    pool_size = 16
    noise = 0.05  # targets near a lattice point
    far_scale = 5.0  # targets with no lattice structure, far outside the box

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.n, self.m, self.k = self.sizes[size]

    def setup(self, call) -> None:
        n, m, k, b = self.n, self.m, self.k, self.bound
        self.bases = []
        self.targets = []
        for j in range(self.pool_size):
            basis = call(
                "generate.gen_random_family",
                gen_random_family,
                derive_seed(self.seed, j),
                n,
                m,
                k,
                "independent",
                "real",
            )
            rng = np.random.default_rng(derive_seed(self.seed, j, 1))
            if j % 2 == 0:
                ints = rng.integers(-b, b + 1, size=(k, n, n)).astype(float)
                target = np.einsum("kij,kmjl->mil", ints, basis.coeffs_array)
                target = target + self.noise * rng.standard_normal((m, n, n))
            else:
                target = self.far_scale * rng.standard_normal((m, n, n))
            self.bases.append(basis)
            self.targets.append(MatrixSignal(target))
        self.box = np.array(
            list(itertools.product(range(-b, b + 1), repeat=k * n * n)), dtype=float
        ).reshape(-1, k, n, n)

    def job(self, i: int, call) -> dict:
        j = i % self.pool_size
        lattice = call("lattice.build_lattice", build_lattice, self.bases[j])
        identities = call(
            "lattice.identities",
            lambda: (verify_gram_identity(lattice), verify_norm_inequality(lattice)),
        )
        point, distance = call("lattice.nearest_point", lattice.nearest_point, self.targets[j], self.bound)
        return {
            "j": j,
            "determinant": lattice.determinant,
            "identities": identities,
            "coeffs": point.coeffs,
            "distance": distance,
        }

    def check(self, i: int, out: dict) -> list[str]:
        errors = []
        j = out["j"]
        basis = self.bases[j].coeffs_array
        n, k = self.n, self.k

        # determinant = prod_k ||f^_k||_M, with <f^_k, f^_k> = L_kk L_kk^T from R = L Q^T
        lower = np.linalg.qr(row_matrix(basis).T, mode="r").T
        blocks = [lower[a * n : (a + 1) * n, a * n : (a + 1) * n] for a in range(k)]
        det = float(np.prod([np.sqrt(np.linalg.norm(l @ l.T)) for l in blocks]))
        if not abs(out["determinant"] - det) <= 1e-9 * det:
            errors.append(f"determinant {out['determinant']!r} vs reference {det!r}")
        gram_residual, norm_ok = out["identities"]
        if not _rel(gram_residual, np.linalg.norm(basis) ** 2) <= 1e-9 or norm_ok is not True:
            errors.append("Gram-splitting identity or norm inequality failed")

        diff = self.targets[j].coeffs[None] - np.einsum("pkij,kmjl->pmil", self.box, basis)
        dist = np.sqrt(np.linalg.norm(np.einsum("pmil,pmjl->pij", diff, diff), axis=(1, 2)))
        width = 2 * self.bound + 1
        index = int(np.ravel_multi_index(tuple(out["coeffs"].ravel() + self.bound), (width,) * (k * n * n)))
        tol = 1e-12 * max(1.0, float(dist.min()))
        if not abs(out["distance"] - dist[index]) <= 1e-9 * max(1.0, dist[index]):
            errors.append("reported distance differs from the returned point's distance")
        if np.any(dist[:index] <= dist[index] + tol) or np.any(dist[index:] < dist[index] - tol):
            errors.append("nearest_point is not the lexicographically earliest closest box point")
        return errors


WORKLOADS = {cls.name: cls for cls in (FamilyKernels, CliPipeline, LatticeSearch)}
