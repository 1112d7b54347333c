#!/usr/bin/env python3
"""Run every verification suite and summarize residuals against budgets."""

import json
import sys

from nblab.analytic import SUITES, run_suite
from nblab.errors import exit_with


def main() -> int:
    failures = 0
    summary = []
    for name in sorted(SUITES):
        for report in run_suite(name):
            summary.append(report.to_json_dict() | {"suite": name})
            if not report.passed:
                failures += 1
    print(json.dumps(summary, indent=2, sort_keys=True))
    print(
        f"{len(summary)} checks, {failures} failing",
        file=sys.stderr,
    )
    return 1 if failures else 0


if __name__ == "__main__":
    exit_with(main)
