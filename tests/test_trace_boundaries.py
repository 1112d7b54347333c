"""The benchmark's traced run must find every layer boundary it wraps.

perfbench/trace_job.py wraps nblab's layer functions by name and silently
leaves out the metrics of any boundary it cannot find, or all of them when
the traced job raises. Renaming, removing or re-shaping one of those
boundaries would therefore make a traced benchmark result miss metrics that
BENCHMARK.json declares. This runs the tracer on a small job and checks that
every declared per-layer metric it is responsible for comes back.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent

# Metrics perfbench/run.py adds itself, outside the traced job.
RUN_PY_PREFIXES = ("trace.", "criterion.pool_fill_")


def test_traced_job_reports_every_declared_metric(tmp_path):
    steps = [
        (["distance", "--L", "2..12", "--method", "both"], "sweep"),
        (["distance", "--L", "4", "--N", "200"], "truncated"),
    ]
    spec = {
        "src": str(ROOT / "src"),
        "steps": [
            {"kind": "cli", "argv": [*argv, "--cache", str(tmp_path / f"{name}.nbbg")],
             "stdout": str(tmp_path / f"{name}.out")}
            for argv, name in steps
        ],
    }
    spec_path, result_path = tmp_path / "spec.json", tmp_path / "result.json"
    spec_path.write_text(json.dumps(spec))
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_job.py"), str(spec_path), str(result_path)],
        capture_output=True, text=True, timeout=600, env=child_env(), cwd=tmp_path,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(result_path.read_text())
    assert result["exits"] == [0, 0]
    assert result["absent"] == []

    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    wanted = [name for name in declared if not name.startswith(RUN_PY_PREFIXES)]
    metrics = result["metrics"]
    assert sorted(set(wanted) - set(metrics)) == []
    assert [name for name in wanted if not math.isfinite(metrics[name])] == []
    # The truncated step fills through GramStore.ensure, so its counters move.
    assert metrics["criterion.entries_computed"] > 0
    assert metrics["criterion.cholesky_calls"] > 0
