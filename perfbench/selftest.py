#!/usr/bin/env python3
"""Show that the benchmark's checker catches a wrong answer.

    python3 perfbench/selftest.py

Runs the sweep-warm job once on a cache whose set-up was filled with
`--N 20` truncated entries (the cache-provenance leak: the closed-form run
then serves truncated entries). The checker must count failed operations;
exit 0 means it did, 1 means the wrong answer went unnoticed.
"""

from __future__ import annotations

import sys

import run


def main() -> int:
    with run.scratch("selftest-") as tmp:
        tally = run.Tally()
        argv, cache = run.gram_setup(tmp, extra=("--N", "20"))
        tally.exit_ok("truncated set-up", run.run_proc(argv, tmp))
        run.run_job(run.sweep_warm_steps(cache), tmp, run.load_reference(), tally)
    for problem in tally.problems:
        print(f"flagged {problem}")
    ratio = tally.failed / tally.attempted
    print(f"failed_ratio {ratio!r} ({tally.failed} of {tally.attempted} operations)")
    if tally.failed == 0:
        print("checker self-test FAILED: the truncated-entry cache passed", file=sys.stderr)
        return 1
    print("checker self-test passed: the truncated-entry cache was flagged")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
