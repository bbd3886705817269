"""Signal files, sampled-data ingestion, and the command-line pipeline.

Coefficient files are exact (bit-precise round trips); sampled files go
through quadrature weights and are the one approximation layer in the
package.  The CLI mirrors the library: gen, analyze, orthonormalize,
lattice det / nearest, verify.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import matsig as ms


def cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "matsig", *argv], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout.strip()


with tempfile.TemporaryDirectory(prefix="matsig-demo-") as tmp:
    workdir = Path(tmp)
    print("working in", workdir)

    # --- exact coefficient files -----------------------------------------------------
    family = ms.gen_random_family(31, 2, 4, 3, "independent")
    path = workdir / "family.json"
    ms.save_family(path, family, metadata={"interval": [0.0, 1.0], "basis": "legendre"})
    loaded, metadata = ms.load_family(path)
    print("round trip exact:", np.array_equal(loaded.coeffs_array, family.coeffs_array))
    print("metadata:", metadata)

    # --- sampled data through quadrature weights --------------------------------------
    # trapezoid ingestion of smooth samples converges at second order
    exact = np.array([[1.0 / 3.0]])  # integral of t^2 on (0, 1)
    for points in (17, 33, 65):
        grid = np.linspace(0.0, 1.0, points)
        samples = (grid ** 1)[None, :, None, None]  # f(t) = t as a 1x1 signal
        ingested = ms.ingest_sampled(
            ms.SampledSignals(grid=grid, samples=samples, rule="trapezoid")
        )
        gram = ms.inner_product(ingested[0], ingested[0])
        print(f"M={points:3d}: trapezoid <f,f> = {gram[0, 0]:.8f}  (exact {exact[0, 0]:.8f},"
              f" error {abs(gram[0, 0] - exact[0, 0]):.2e})")

    # --- the CLI pipeline ---------------------------------------------------------------
    f_path, g_path = workdir / "f.json", workdir / "g.json"
    print()
    print("gen        ->", cli("gen", "--seed", "7", "--n", "2", "--m", "4", "--k", "3",
                               "--kind", "independent", "-o", str(f_path))[1])
    print("orthonorm. ->", cli("orthonormalize", str(f_path), "-o", str(g_path))[1])

    code, out = cli("analyze", str(g_path), "--format", "json")
    report = json.loads(out)
    print("analyze    -> orthonormal:", report["orthonormal"],
          "independent:", report["independence"]["independent"])

    code, _ = cli("verify", str(g_path))
    print("verify     -> exit", code)

    # corrupt one coefficient: the recorded orthonormality claim now fails
    doc = json.loads(g_path.read_text())
    doc["signals"][0][0][0][0][0] += 1e-3
    g_path.write_text(json.dumps(doc))
    code, _ = cli("verify", str(g_path))
    print("verify on corrupted file -> exit", code)
