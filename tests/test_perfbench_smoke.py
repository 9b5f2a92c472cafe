"""Smoke test: each benchmark workload runs once, traced, and checks out.

perfbench calls parts of the package directly: it saves its sensor
stream with `save_events(path, stream, H, W)`, checks window contents by
`Event` identity, and keys its per-stage spans on `ConvStage.forward`. One
short traced run per workload catches a change that breaks one of those
calls. About 50 s in all, so it is marked slow.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["toy_train", "sensor_reconstruct", "ingest"])
def test_workload_runs_correct_and_traced(workload):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0.001", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    # a layer the trace saw no span in ends the run with exit 1 and names it
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert "trace.overhead.step_ms" in result["metrics"]  # the traced pass ran
