"""``repro run --trace``: the trace covers the process from ``import repro`` on."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_run_trace_starts_with_a_startup_span(tmp_path):
    trace = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run(
        [
            sys.executable, "-m", "repro.service.cli", "run", "figure2",
            "--families", "ghz", "--devices", "AQT-4Q", "--shots", "16",
            "--repetitions", "1", "--trajectories", "4", "--trace", str(trace),
        ],
        env=env,
        capture_output=True,
        check=True,
    )
    spans = [event for event in json.loads(trace.read_text())["traceEvents"]
             if event.get("ph") == "X"]
    startup = [span for span in spans if span["name"] == "cli.startup"]
    assert len(startup) == 1
    startup = startup[0]
    assert startup["args"].get("parent_id") is None
    assert startup["dur"] > 0
    sweep = next(span for span in spans if span["name"] == "suite.run_scenario")
    # Import and set-up come first; the sweep starts after they end.
    assert startup["ts"] == min(span["ts"] for span in spans)
    assert startup["ts"] + startup["dur"] <= sweep["ts"]
