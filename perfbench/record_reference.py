#!/usr/bin/env python3
"""Write perfbench/reference.json from the outputs of the checked-out program.

    python3 perfbench/record_reference.py

Run it only at a commit whose numbers are trusted: every later benchmark run
is checked against what it writes. It refuses to write a reference whose
L = 10, 50, 100 rows miss the test-suite oracles (run.ORACLE_D2).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run


def output_of(argv: list[str], tmp: Path) -> str:
    proc = run.run_proc(argv, tmp)
    if proc.exit != 0:
        raise SystemExit(f"{argv} exited {proc.exit}:\n{proc.stderr}")
    return proc.stdout


def main() -> int:
    with run.scratch("reference-") as tmp:
        [fill] = run.fill_cold_steps(tmp / "cold.nbbg")
        setup_argv, cache = run.gram_setup(tmp)
        output_of(setup_argv, tmp)
        [sweep] = run.sweep_warm_steps(cache)
        verify, hline = run.transform_steps(tmp / "unused.nbbg")
        ref = {
            fill.ref: run.parse_distance(output_of(fill.argv(), tmp)),
            sweep.ref: run.parse_distance(output_of(sweep.argv(), tmp)),
            verify.ref: {"checks": run.parse_verify(output_of(verify.argv(), tmp))["checks"]},
            hline.ref: run.parse_hline(output_of(hline.argv(), tmp)),
        }
    run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    run.load_reference()  # refuses a reference that misses the oracles
    print(f"wrote {run.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
