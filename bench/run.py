"""matsig benchmark: one seeded workload per process, timed untraced or traced.

    python3 bench/run.py --workload family_kernels --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1      # every workload, each in its own process; prints a table
    python3 bench/run.py --smoke       # one job per workload at the smallest sizes, both modes;
                                       # checks every metric of BENCHMARK.json is present with its unit

Set-up runs three times (the median counts), then one warm-up job, both
reported in setup_s.  One caller then runs jobs in a closed loop until the
jobs' summed time reaches --seconds.  Each job's output is checked against the
workload's reference checks after its clock stops.  End-to-end times are
reported at a fixed reference speed (see Clock); the report gives them raw too.

--trace 0 reports BENCHMARK.json's end_to_end metrics.  --trace 1 spends half
of --seconds untraced and half traced, records one span per call into matsig
(plus one per job) and reports the per_layer metrics, including the tracing
overhead as traced over untraced jobs per second.

The last two lines of stdout are a JSON report (environment, sizes, sample
counts, errors) and the JSON result {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import NamedTuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

# One BLAS thread for the benchmark and every CLI child, at most nproc, so
# that two commits always run the same configuration on a shared machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
MAX_ERRORS_SHOWN = 5
REFERENCE_INTERVAL_S = 0.2
REFERENCE_WINDOW_S = 2.0  # samples this close to an interval set its speed factor,
REFERENCE_MIN_LOCAL = 5  # if there are this many; otherwise all samples of the run do
# Median reference-kernel time on the machine the first baselines were recorded
# on (2-vCPU x86_64 KVM guest, Xeon, OpenBLAS 0.3.31, one thread).
REFERENCE_NOMINAL_S = 0.006


def pin_threads_and_cpu() -> None:
    """One BLAS thread and one CPU; must run before numpy is imported.  Children inherit both."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Interval(NamedTuple):
    seconds: float  # net of reference samples
    start: float  # perf_counter() at the ends, for finding nearby reference samples
    end: float


class Clock:
    """Job time net of reference samples, and the machine's speed against a fixed kernel.

    On shared virtual CPUs the speed of a whole 30 s run drifts by 20 % and
    more from one minute to the next (family_kernels jobs took 0.38 to 0.59 s
    across ten runs on a 2-vCPU KVM guest), while interpreter, small-numpy and
    BLAS time drift together (their ratio held within 5 % in 5 s windows).
    So the benchmark pins itself and its children to one CPU and, at most
    every REFERENCE_INTERVAL_S, runs a fixed reference kernel just before a
    call into matsig.  ``now()`` leaves that time out, and ``scaled`` reports
    an interval at the reference speed: divided by the median of the
    reference samples taken around it, over REFERENCE_NOMINAL_S.  The kernel
    belongs to the benchmark, so it is the same on every commit; the report
    gives the raw figures and the whole run's factor too.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.small = rng.standard_normal((16, 4, 4)) + 1j * rng.standard_normal((16, 4, 4))
        self.square = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
        self.samples: list[tuple[float, float]] = []  # (when taken, duration)
        self.excluded = 0.0
        self.last = float("-inf")

    def now(self) -> float:
        return perf_counter() - self.excluded

    def tick(self) -> None:
        """Take a reference sample if the last one is REFERENCE_INTERVAL_S old."""
        start = perf_counter()
        if start - self.last < REFERENCE_INTERVAL_S:
            return
        total = 0
        for i in range(30_000):
            total += i % 7
        for _ in range(150):
            self.np.einsum("mil,mjl->ij", self.small, self.small.conj())
        for _ in range(12):
            self.square @ self.square
        end = perf_counter()
        self.samples.append((end, end - start))
        self.excluded += end - start
        self.last = end

    def call(self, name, fn, *args):
        """The untraced call into matsig."""
        self.tick()
        return fn(*args)

    def mark(self) -> tuple[float, float]:
        return self.now(), perf_counter()

    def since(self, mark: tuple[float, float]) -> Interval:
        return Interval(self.now() - mark[0], mark[1], perf_counter())

    def factor(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Median reference time over REFERENCE_NOMINAL_S near [start, end], or over the run."""
        near = [d for t, d in self.samples if start - REFERENCE_WINDOW_S <= t <= end + REFERENCE_WINDOW_S]
        if len(near) < REFERENCE_MIN_LOCAL:
            near = [d for _, d in self.samples]
        return statistics.median(near) / REFERENCE_NOMINAL_S

    def scaled(self, interval: Interval) -> float:
        return interval.seconds / self.factor(interval.start, interval.end)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict


def _block_gram_counts(fn, args, result) -> dict:
    fam = args[0]
    itemsize = 8 if fam.field == "real" else 16
    return {"cmacs": fam.k**2 * fam.m * fam.n**3, "bytes": fam.k * fam.m * fam.n**2 * itemsize}


# Work counted at the span boundary, computed from argument shapes and files.
COUNTERS = {
    "independence.block_gram": _block_gram_counts,
    "gramschmidt.orthonormalize": lambda fn, args, r: {"reorthogonalized": int(r.reorthogonalized)},
    "lattice.nearest_point": lambda fn, args, r: {"box_points": fn.__self__.enumeration_size(args[1])},
    "fileio.save_family": lambda fn, args, r: {"bytes": os.path.getsize(args[0])},
    "fileio.load_family": lambda fn, args, r: {"bytes": os.path.getsize(args[0])},
}


class Tracer:
    """In-memory spans; ``call`` has the same signature as ``Clock.call``."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, name, fn, *args):
        index = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, self._open[-1] if self._open else None, {}))
        self._open.append(index)
        self.clock.tick()
        start = self.clock.now()
        try:
            result = fn(*args)
        finally:
            end = self.clock.now()
            self._open.pop()
            self.spans[index].start, self.spans[index].end = start, end
        if name in COUNTERS:
            self.spans[index].counts = COUNTERS[name](fn, args, result)
        return result


@dataclass
class Tally:
    clock: Clock
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def run(self, wl, i, call) -> Interval:
        """Run job ``i`` and return its interval.  The check runs after the clock stops."""
        mark = self.clock.mark()
        try:
            out = call("job", wl.job, i, call)
        except Exception:
            interval = self.clock.since(mark)
            problems = [traceback.format_exc(limit=3)]
        else:
            interval = self.clock.since(mark)
            try:
                problems = wl.check(i, out)
            except Exception:
                problems = ["reference check raised: " + traceback.format_exc(limit=3)]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.extend(f"job {i}: {p}" for p in problems[: MAX_ERRORS_SHOWN - len(self.errors)])
        return interval


def run_jobs(wl, call, seconds: float, first: int, tally: Tally) -> list[Interval]:
    jobs: list[Interval] = []
    while not jobs or sum(job.seconds for job in jobs) < seconds:
        jobs.append(tally.run(wl, first + len(jobs), call))
    return jobs


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it (the maximum below 11 samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n} (fewer than 11 samples)"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f} of {n}"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def end_to_end(wl, clock: Clock, imports, setups, warmup, jobs, tally) -> tuple[dict, dict, dict]:
    """End-to-end values at the reference speed, the raw values, and notes on samples.

    ``imports``, ``warmup`` and each of ``setups`` and ``jobs`` are Intervals.
    """
    who = resource.RUSAGE_CHILDREN if getattr(wl, "rss_of_children", False) else resource.RUSAGE_SELF

    def summary(setup_s: float, times: list[float]) -> dict:
        return {
            "setup_s": setup_s,
            "jobs_per_s": len(times) / sum(times),
            "job_p50_ms": 1000 * statistics.median(times),
            "job_tail_ms": 1000 * tail(times)[0],
            "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
            "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024,
        }

    raw = summary(
        imports.seconds + statistics.median(s.seconds for s in setups) + warmup.seconds,
        [job.seconds for job in jobs],
    )
    values = summary(
        clock.scaled(imports) + statistics.median(clock.scaled(s) for s in setups) + clock.scaled(warmup),
        [clock.scaled(job) for job in jobs],
    )
    notes = {
        "setup_s": f"imports + median of {len(setups)} set-ups + 1 warm-up job",
        "jobs_per_s": f"{len(jobs)} jobs",
        "job_p50_ms": f"{len(jobs)} jobs",
        "job_tail_ms": tail([job.seconds for job in jobs])[1],
        "ok_ratio": f"{tally.attempted - tally.failed}/{tally.attempted} jobs",
        "failed_ratio": f"{tally.failed}/{tally.attempted} jobs",
        "peak_rss_mib": "peak over CLI children" if who == resource.RUSAGE_CHILDREN else "benchmark process",
    }
    return values, raw, notes


def per_layer(wl, tracer: Tracer, names: list[str], extra: dict) -> dict:
    stats: dict[str, list] = {}
    for span in tracer.spans:
        entry = stats.setdefault(span.name, [0, 0.0, collections.Counter()])
        entry[0] += 1
        entry[1] += span.end - span.start
        entry[2].update(span.counts)

    jobs = {i for i, s in enumerate(tracer.spans) if s.name == "job"}
    job_wall = sum(tracer.spans[i].end - tracer.spans[i].start for i in jobs)
    children = [s for s in tracer.spans if s.parent in jobs]
    uncovered = {s.name for s in children} - {n.rsplit(".", 1)[0] for n in names}
    if uncovered:
        raise RuntimeError(f"spans without a per-layer metric: {sorted(uncovered)}")

    # Computed counts depend only on the declared sizes, so they repeat exactly across runs and seeds.
    expected = {"cmacs": wl.k**2 * wl.m * wl.n**3, "bytes": wl.k * wl.m * wl.n**2 * 16}
    for span in tracer.spans:
        if span.name == "independence.block_gram" and span.counts != expected:
            raise RuntimeError(f"block_gram computed counts {span.counts} != {expected}")

    def calls(span):
        return stats.get(span, [0])[0]

    def busy(span):
        return stats[span][1] if span in stats else 0.0

    def count(span, key):
        return stats[span][2][key] if span in stats else 0

    def per_call(span, key):
        return count(span, key) / calls(span) if calls(span) else 0.0

    def rate(numerator, span):
        return numerator / busy(span) if busy(span) else 0.0

    values = {
        "independence.block_gram.computed_cmacs": per_call("independence.block_gram", "cmacs"),
        "independence.block_gram.computed_bytes": per_call("independence.block_gram", "bytes"),
        "independence.block_gram.gflop_per_s": rate(
            8e-9 * count("independence.block_gram", "cmacs"), "independence.block_gram"
        ),
        "gramschmidt.orthonormalize.reorthogonalized_ratio": per_call(
            "gramschmidt.orthonormalize", "reorthogonalized"
        ),
        "lattice.nearest_point.box_points": per_call("lattice.nearest_point", "box_points"),
        "lattice.nearest_point.us_per_box_point": 1e6
        * busy("lattice.nearest_point")
        / max(1, count("lattice.nearest_point", "box_points")),
        "fileio.save_family.bytes": per_call("fileio.save_family", "bytes"),
        "fileio.save_family.mib_per_s": rate(count("fileio.save_family", "bytes") / 2**20, "fileio.save_family"),
        "fileio.load_family.mib_per_s": rate(count("fileio.load_family", "bytes") / 2**20, "fileio.load_family"),
        "cli.exit_code_mismatches": getattr(wl, "exit_code_mismatches", 0),
        "cli.startup_s": 0.0,
        "job.self_s": job_wall - sum(s.end - s.start for s in children),
        **extra,
    }
    for name in names:
        if name not in values:
            span, stat = name.rsplit(".", 1)
            if stat == "calls":
                values[name] = calls(span)
            elif stat in ("busy_s", "wall_s"):
                values[name] = busy(span)
            else:
                raise RuntimeError(f"no rule computes per-layer metric {name}")
    return values


def run_one(args, spec: dict) -> int:
    pin_threads_and_cpu()
    started = perf_counter()
    sys.path.insert(0, SRC)
    try:
        import matsig
    except ImportError as exc:
        print(f"error: cannot import matsig from {SRC}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(os.path.abspath(matsig.__file__))) != SRC:
        print(f"error: matsig resolved to {matsig.__file__}, not to {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    imports = Interval(perf_counter() - started, started, perf_counter())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    size = "smoke" if args.smoke else "full"
    cls = WORKLOADS[args.workload]
    workdir = os.path.join(BENCH_DIR, ".work", f"{args.workload}-{os.getpid()}")
    import numpy

    clock = Clock(numpy)
    tracer = Tracer(clock)
    setup_call = tracer.call if args.trace else clock.call
    tally = Tally(clock)
    try:
        setups = []
        for _ in range(SETUP_REPS):
            shutil.rmtree(workdir, ignore_errors=True)
            mark = clock.mark()
            wl = cls(args.seed, size, workdir)
            wl.setup(setup_call)
            setups.append(clock.since(mark))
        warmup = tally.run(wl, 0, clock.call)

        if not args.trace:
            jobs = run_jobs(wl, clock.call, args.seconds, 0, tally)
            values, raw, notes = end_to_end(wl, clock, imports, setups, warmup, jobs, tally)
        else:
            plain = run_jobs(wl, clock.call, args.seconds / 2, 0, tally)
            traced = run_jobs(wl, tracer.call, args.seconds / 2, len(plain), tally)
            rate = [len(jobs) / sum(clock.scaled(job) for job in jobs) for jobs in (plain, traced)]
            extra = {"trace_overhead_ratio": rate[1] / rate[0]}
            if hasattr(wl, "probe"):
                extra.update(wl.probe(range(len(plain), len(plain) + len(traced)), tracer.call))
            values = raw = per_layer(wl, tracer, list(units), extra)
            notes = {"jobs": f"{len(plain)} untraced + {len(traced)} traced"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "sizes": {"N": wl.n, "M": wl.m, "K": wl.k},
        "input_seeds": f"derive_seed({args.seed}, job or pool index)",
        "environment": environment(),
        "notes": notes,
        "speed_factor": clock.factor(),
        "reference_samples": len(clock.samples),
        "raw": raw,
        "failed_ratio": tally.failed / tally.attempted,
        "errors": tally.errors,
    }
    print(f"# speed factor {clock.factor():.4f}: median of {len(clock.samples)} reference samples "
          f"over {REFERENCE_NOMINAL_S} s; end-to-end times are divided by it")
    for name, metric in metrics.items():
        print(f"# {name:52s} {metric['value']:14.6g} {metric['unit']:8s} raw {raw[name]:<12.6g} {notes.get(name, '')}")
    print(json.dumps(report))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in its own process; with --smoke, both modes and a metric-name check."""
    status = 0
    rows = []
    env = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1) if args.smoke else (args.trace,):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            report, result = json.loads(lines[-2]), json.loads(lines[-1])
            env = report["environment"]
            wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted:
                print(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(got.items()) ^ set(wanted.items()))}", file=sys.stderr)
                status = 1
            if not result["correct"]:
                print(f"{workload} trace={trace}: {result['failed']} failed: {report['errors']}", file=sys.stderr)
                status = 1
            if trace == 0:
                result["metrics"]["failed_ratio"] = {"value": report["failed_ratio"], "unit": "ratio"}
            for name, metric in result["metrics"].items():
                rows.append((workload, name, metric["value"], metric["unit"], report["notes"].get(name, "")))
    print(f"environment: {json.dumps(env)}")
    for row in rows:
        print(f"{row[0]:15s} {row[1]:52s} {row[2]:14.6g} {row[3]:8s} {row[4]}")
    if args.smoke:
        print("smoke check " + ("passed" if status == 0 else "FAILED"))
    return status


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest inputs, one job; check metric names")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
