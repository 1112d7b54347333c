"""Importing nblab pins numpy's OpenBLAS to one thread.

Each test starts a fresh interpreter with OPENBLAS_NUM_THREADS removed from
its environment (this process has it set, by its own import of nblab), since
OpenBLAS reads the variable only once, when numpy loads it.
"""

import json
import subprocess
import sys

import pytest

from conftest import child_env

# Prints the variable and the thread count of numpy's OpenBLAS after
# `import nblab, numpy`, or null where no OpenBLAS library is found. numpy 2
# wheels ship scipy-openblas (scipy_openblas_*64_), older ones openblas64_;
# both sit in numpy.libs.
PROBE = """
import ctypes, json, os, pathlib
import nblab, numpy

def openblas_threads():
    libs = pathlib.Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(dll, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    return fn()
    return None

print(json.dumps({"variable": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "threads": openblas_threads(),
                  "cpus": len(os.sched_getaffinity(0))}))
"""


def run(args, threads=None):
    env = child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=600, env=env, check=True)


def probe(threads=None) -> dict:
    return json.loads(run(["-c", PROBE], threads).stdout)


def test_default_output_equals_one_thread_output():
    argv = ["-m", "nblab.cli", "distance", "--L", "2..300", "--method", "both",
            "--basis", "exclude-one"]
    unset = run(argv).stdout.splitlines()
    one = run(argv, threads="1").stdout.splitlines()
    assert len(unset) == len(one) == 1 + 2 * 299
    # A count, not a diff of the two outputs: pytest's diff of 600 lines is slow.
    differ = [row for row, line in zip(one, unset) if row != line]
    assert not differ, f"{len(differ)} rows differ, the first: {differ[0]}"


def test_import_pins_numpy_openblas_to_one_thread():
    got = probe()
    if got["threads"] is None:
        pytest.skip("no OpenBLAS library in numpy.libs to ask for its thread count")
    assert got == {**got, "variable": "1", "threads": 1}


def test_explicit_thread_count_is_left_as_set():
    got = probe(threads="2")
    assert got["variable"] == "2"
    if got["threads"] is not None:
        # OpenBLAS caps its threads at the cores this process may use.
        assert got["threads"] == min(2, got["cpus"])
