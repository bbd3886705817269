"""The benchmark runs end to end at its smallest sizes and reports BENCHMARK.json's metrics."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# cli_pipeline takes about 5 s a run, so only its untraced mode, which checks the exit codes and the analyze JSON
@pytest.mark.parametrize(
    "workload, trace",
    [("family_kernels", 0), ("family_kernels", 1), ("lattice_search", 0), ("lattice_search", 1), ("cli_pipeline", 0)],
)
def test_bench_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--smoke",
         "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
