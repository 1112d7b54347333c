#!/usr/bin/env python3
"""nblab benchmark: time-to-solution of three fixed jobs, checked against a reference.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/` and nothing is installed. Workloads (the sizes are the inputs, so
every seed gives the same inputs; the seed only names the scratch
directory):

  fill-cold         `nblab distance --L 200 --threads 1` on a fresh cache:
                    the closed-form Gram entry fill (seqspace, specfun,
                    summation) with one solve.
  sweep-warm        set-up `nblab gram --L 160 --basis all --threads 1`, then
                    `nblab distance --L 2..160 --method both --tol 1e-9` on
                    that cache: matrix build, 318 factorizations and the
                    cache read and rewrite; the entry fill does no work.
  transform-verify  `scripts/verify_all.py` then `scripts/hline_convergence.py
                    --cutoffs 10,100,1000,10000,30000`: analytic, zeta/xi and
                    the Moebius sieve; the Gram only through the moebius
                    suite's 495 small entries.

The loop is closed with one client: each job is a fresh subprocess started
after the previous one ended, repeated until --seconds have passed (at
least MIN_JOBS times). Every subprocess exit and every output check is one
operation; an operation fails on an exit code other than 0 (2, "ridge
needed", included), on a d2 or gap more than TOLERANCE from
reference.json, or on a failing verification check.

--trace 0 prints the end-to-end metrics: medians over the jobs, and the
median set-up time (set-up runs outside the timed jobs, at least
MIN_SETUPS times and for SETUP_SECONDS). --trace 1 alternates an untraced
job with the same job run in process under perfbench/trace_job.py, and
prints the per-layer metrics, the tracing overhead, and the fill-cold fill
time at --threads 1 and 2.
Human-readable lines come first; the last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

TOLERANCE = 1e-9  # absolute, on every d2 and every gap
MIN_JOBS = 3
MIN_SETUPS = 3
SETUP_SECONDS = 3.0
PROC_TIMEOUT_S = 150.0
MB = 1024.0  # ru_maxrss is in KiB on Linux

# Test-suite oracles (tests/test_acceptance.py, criterion 1): exclude-one
# d2 at L = 10, 50, 100 to 8 digits. The reference must reproduce them.
ORACLE_D2 = {10: 0.02385255, 50: 0.01188697, 100: 0.01020192}

HLINE_CUTOFFS = "10,100,1000,10000,30000"


@contextlib.contextmanager
def scratch(prefix: str):
    """A fresh directory inside the checkout, removed afterwards."""
    root = ROOT / ".perfbench_tmp"
    root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=prefix, dir=root))
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            root.rmdir()


def subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("NBLAB_CACHE_DIR", None)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# processes


@dataclass
class Proc:
    exit: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def run_proc(argv: list[str], tmp: Path) -> Proc:
    """Run argv to completion; wall, CPU and peak RSS come from wait4."""
    out_path, err_path = tmp / "proc.out", tmp / "proc.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            cwd=ROOT, env=subprocess_env(),
        )
        timer = threading.Timer(PROC_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: stop the child first
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        exit=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / MB,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:5])
        return not problems

    def exit_ok(self, what: str, proc: Proc) -> bool:
        if proc.exit == 0:
            return self.record(what, [])
        return self.record(what, [f"exit {proc.exit} {proc.stderr.strip().splitlines()[-1:]}"])


# ---------------------------------------------------------------------------
# output checks


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    sweep = ref["sweep-160"]
    for L, want in ORACLE_D2.items():
        for method in ("ls", "det"):
            got = sweep[f"{L}/{method}"]
            if round(got, 8) != want:
                raise SystemExit(f"reference.json: d2({L}, {method}) = {got} != oracle {want}")
    return ref


def parse_distance(stdout: str) -> dict[str, float]:
    """d2 by "L/method" from a `nblab distance` CSV table."""
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != "L,basis,d2,a_est,cond,ridge,method":
        raise ValueError(f"unexpected header {lines[:1]}")
    rows = [line.split(",") for line in lines[1:]]
    return {f"{cols[0]}/{cols[6]}": float(cols[2]) for cols in rows}


def parse_verify(stdout: str) -> dict:
    reports = json.loads(stdout)
    return {"checks": len(reports),
            "failing": [f"{r['suite']}/{r['check']}" for r in reports if not r["pass"]]}


def parse_hline(stdout: str) -> dict[str, list[float]]:
    """[sup_gap, mean_gap] by cutoff from hline_convergence.py."""
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != "L,sup_gap,mean_gap":
        raise ValueError(f"unexpected header {lines[:1]}")
    rows = [line.split(",") for line in lines[1:]]
    return {L: [float(sup), float(mean)] for L, sup, mean in rows}


def check_distance(stdout: str, want: dict[str, float]) -> list[str]:
    got = parse_distance(stdout)
    if set(got) != set(want):
        return [f"rows {sorted(set(got) ^ set(want))[:5]} differ from the reference"]
    return [
        f"d2 {key} = {got[key]!r}, reference {want[key]!r}"
        for key in want
        if not abs(got[key] - want[key]) <= TOLERANCE
    ]


def check_verify(stdout: str, want: dict) -> list[str]:
    got = parse_verify(stdout)
    problems = [f"check {name} failed" for name in got["failing"]]
    if got["checks"] != want["checks"]:
        problems.append(f"{got['checks']} checks, reference {want['checks']}")
    return problems


def check_hline(stdout: str, want: dict[str, list[float]]) -> list[str]:
    got = parse_hline(stdout)
    if set(got) != set(want):
        return [f"cutoffs {sorted(got)} differ from reference {sorted(want)}"]
    return [
        f"gaps at L={L} {got[L]!r}, reference {want[L]!r}"
        for L in want
        if not all(abs(g - w) <= TOLERANCE for g, w in zip(got[L], want[L]))
    ]


def check_output(step: "Step", stdout: str, ref: dict) -> list[str]:
    try:
        return step.check(stdout, ref[step.ref])
    except (ValueError, IndexError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Step:
    """One process of a job: `nblab ARGS` or `python SCRIPT ARGS`."""

    kind: str  # "cli" or "script"
    args: tuple[str, ...]
    check: Callable[[str, object], list[str]]
    ref: str  # key in reference.json
    script: str = ""

    def argv(self) -> list[str]:
        if self.kind == "cli":
            return [sys.executable, "-m", "nblab.cli", *self.args]
        return [sys.executable, str(ROOT / self.script), *self.args]

    def trace_spec(self, stdout: Path) -> dict:
        if self.kind == "cli":
            return {"kind": "cli", "argv": list(self.args), "stdout": str(stdout)}
        return {"kind": "script", "path": str(ROOT / self.script),
                "argv": list(self.args), "stdout": str(stdout)}


def import_setup(tmp: Path) -> tuple[list[str], Path | None]:
    """A fresh interpreter importing the CLI module; no cache."""
    return [sys.executable, "-c", "import nblab.cli"], None


def gram_setup(tmp: Path, extra: tuple[str, ...] = ()) -> tuple[list[str], Path]:
    cache = tmp / "setup.nbbg"
    cache.unlink(missing_ok=True)
    argv = [sys.executable, "-m", "nblab.cli", "gram", "--L", "160", "--basis", "all",
            "--threads", "1", *extra, "--cache", str(cache)]
    return argv, cache


def fill_cold_steps(cache: Path, threads: int = 1) -> list[Step]:
    return [Step("cli", ("distance", "--L", "200", "--threads", str(threads),
                         "--cache", str(cache)), check_distance, "distance-200")]


def sweep_warm_steps(cache: Path) -> list[Step]:
    return [Step("cli", ("distance", "--L", "2..160", "--method", "both", "--tol", "1e-9",
                         "--cache", str(cache)), check_distance, "sweep-160")]


def transform_steps(cache: Path) -> list[Step]:
    return [
        Step("script", (), check_verify, "verify_all", script="scripts/verify_all.py"),
        Step("script", ("--cutoffs", HLINE_CUTOFFS), check_hline, "hline",
             script="scripts/hline_convergence.py"),
    ]


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Path], tuple[list[str], Path | None]]  # argv, cache it builds
    steps: Callable[[Path], list[Step]]  # the job, given its own cache file


WORKLOADS = {
    "fill-cold": Workload(import_setup, fill_cold_steps),
    "sweep-warm": Workload(gram_setup, sweep_warm_steps),
    "transform-verify": Workload(import_setup, transform_steps),
}


def job_cache(tmp: Path, setup_cache: Path | None) -> Path:
    """A fresh cache file for one job: a copy of the set-up's, or none yet."""
    cache = tmp / "job.nbbg"
    cache.unlink(missing_ok=True)
    if setup_cache is not None:
        shutil.copyfile(setup_cache, cache)
    return cache


@dataclass
class JobResult:
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_job(steps: list[Step], tmp: Path, ref: dict, tally: Tally) -> JobResult:
    """Run the steps back to back as subprocesses and check each output."""
    wall = cpu = rss = 0.0
    for step in steps:
        proc = run_proc(step.argv(), tmp)
        wall += proc.wall_s
        cpu += proc.cpu_s
        rss = max(rss, proc.rss_mb)
        tally.exit_ok(step.ref, proc)
        tally.record(f"{step.ref} output", check_output(step, proc.stdout, ref))
    return JobResult(wall, cpu, rss)


def run_setup(workload: Workload, tmp: Path, tally: Tally) -> tuple[float, Path | None]:
    argv, cache = workload.setup(tmp)
    proc = run_proc(argv, tmp)
    tally.exit_ok("set-up", proc)
    return proc.wall_s, cache


def run_traced(steps: list[Step], tmp: Path, ref: dict, tally: Tally) -> tuple[float, dict]:
    """The job in process under trace_job.py; returns (process wall, metrics)."""
    outs = [tmp / f"traced{k}.out" for k in range(len(steps))]
    spec, result = tmp / "trace_spec.json", tmp / "trace_result.json"
    spec.write_text(json.dumps({
        "src": str(SRC), "steps": [s.trace_spec(o) for s, o in zip(steps, outs)],
    }))
    result.unlink(missing_ok=True)
    proc = run_proc([sys.executable, str(HERE / "trace_job.py"), str(spec), str(result)], tmp)
    if not tally.exit_ok("traced job", proc):
        return proc.wall_s, {}
    traced = json.loads(result.read_text())
    for step, code, out in zip(steps, traced["exits"], outs):
        tally.record(f"traced {step.ref}", [f"exit {code}"] if code else [])
        tally.record(f"traced {step.ref} output", check_output(step, out.read_text(), ref))
    if traced["absent"]:
        print(f"absent boundaries (metrics left out): {traced['absent']}", file=sys.stderr)
    return proc.wall_s, traced["metrics"]


# ---------------------------------------------------------------------------
# environment record


def openblas_record() -> dict:
    import numpy as np

    info = {}
    try:
        info["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError, AttributeError):
        pass
    libs_dir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs_dir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                fn = getattr(dll, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    info["openblas_threads"] = int(fn())
                    return info
    return info


def environment() -> dict:
    import numpy
    import scipy

    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **openblas_record(),
        "os.cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "NBLAB_CACHE_DIR": "unset for every job",
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def describe(name: str, values: list[float], unit: str) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (f"{name:<14} {statistics.median(values):12.6g} {unit:<6} median of "
            f"{len(values)} (quartiles {q1:.6g} .. {q3:.6g})")


def timed_run(name: str, seconds: float, tmp: Path, ref: dict, tally: Tally) -> dict:
    workload = WORKLOADS[name]
    setups = []
    while len(setups) < MIN_SETUPS or sum(setups) < SETUP_SECONDS:
        setup_dir = tmp / f"setup{len(setups)}"
        setup_dir.mkdir()
        wall, setup_cache = run_setup(workload, setup_dir, tally)
        setups.append(wall)
    jobs: list[JobResult] = []
    start = time.perf_counter()
    while len(jobs) < MIN_JOBS or time.perf_counter() - start < seconds:
        steps = workload.steps(job_cache(tmp, setup_cache))
        jobs.append(run_job(steps, tmp, ref, tally))
    walls = [j.wall_s for j in jobs]
    cpus = [j.cpu_s for j in jobs]
    rss = [j.rss_mb for j in jobs]
    print(f"workload {name}: {len(jobs)} jobs, closed loop, one client")
    print(describe("wall_s", walls, "s"))
    print(describe("cpu_s", cpus, "s"))
    print(describe("setup_s", setups, "s"))
    print(describe("peak_rss_mb", rss, "MB"))
    return {
        "wall_s": metric(statistics.median(walls), "s"),
        "cpu_s": metric(statistics.median(cpus), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median(rss), "MB"),
    }


def traced_run(name: str, seconds: float, tmp: Path, ref: dict, tally: Tally) -> dict:
    workload = WORKLOADS[name]
    (tmp / "setup").mkdir()
    _, setup_cache = run_setup(workload, tmp / "setup", tally)
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        steps = workload.steps(job_cache(tmp, setup_cache))
        untraced.append(run_job(steps, tmp, ref, tally).wall_s)
        steps = workload.steps(job_cache(tmp, setup_cache))
        wall, layer = run_traced(steps, tmp, ref, tally)
        traced.append(wall)
        layers.append(layer)

    metrics = {}
    for key in layers[-1]:
        values = [layer[key] for layer in layers if key in layer]
        metrics[key] = metric(statistics.median(values), unit_of(key))
    untraced_s, traced_s = statistics.median(untraced), statistics.median(traced)
    metrics["trace.untraced_wall_s"] = metric(untraced_s, "s")
    metrics["trace.traced_wall_s"] = metric(traced_s, "s")
    metrics["trace.overhead_s"] = metric(traced_s - untraced_s, "s")

    # Does the fill pool pay? The fill-cold job at one thread and at two.
    one = (untraced_s if name == "fill-cold"
           else run_job(fill_cold_steps(job_cache(tmp, None), 1), tmp, ref, tally).wall_s)
    two = run_job(fill_cold_steps(job_cache(tmp, None), 2), tmp, ref, tally)
    metrics["criterion.pool_fill_1thread_s"] = metric(one, "s")
    metrics["criterion.pool_fill_2thread_s"] = metric(two.wall_s, "s")
    metrics["criterion.pool_fill_2thread_rss_mb"] = metric(two.rss_mb, "MB")
    metrics["criterion.pool_fill_ratio"] = metric(one / two.wall_s, "ratio")

    print(f"workload {name}: {len(traced)} traced and {len(untraced)} untraced jobs")
    for key, m in sorted(metrics.items()):
        print(f"{key:<36} {m['value']:14.6g} {m['unit']}")
    return metrics


def unit_of(key: str) -> str:
    for suffix, unit in (("_s", "s"), ("_bytes", "bytes"), ("_ratio", "ratio"), ("_max", "abs")):
        if key.endswith(suffix):
            return unit
    return "count"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running job is stopped and the
    # scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "nblab" / "cli.py").is_file():
        print(f"no nblab sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    ref = load_reference()
    with scratch(f"{args.workload}-seed{args.seed}-") as tmp:
        build = run_proc([sys.executable, "-m", "compileall", "-q", str(SRC / "nblab")], tmp)
        if build.exit != 0:
            print(f"compileall failed:\n{build.stdout}{build.stderr}", file=sys.stderr)
            return 1
        print("env " + json.dumps(environment(), sort_keys=True))
        tally = Tally()
        run = traced_run if args.trace else timed_run
        metrics = run(args.workload, args.seconds, tmp, ref, tally)
    ratio = tally.failed / tally.attempted
    print(f"failed_ratio   {ratio:12.6g} ratio  ({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
