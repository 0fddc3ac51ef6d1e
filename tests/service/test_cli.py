"""``repro run``: it prints what ``run_scenario`` returns for a named scenario,
reports a library error on one line, and ``--trace`` covers the process from
``import repro`` on."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.figure2 import render_figure2
from repro.service.cli import main
from repro.suite.runner import run_scenario
from repro.suite.scenarios import NAMED_SCENARIOS

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


@pytest.mark.parametrize("name", sorted(NAMED_SCENARIOS))
def test_run_prints_the_scores_of_run_scenario(name, capsys):
    knobs = dict(shots=40, repetitions=1, seed=1234, trajectories=5)
    scenario = NAMED_SCENARIOS[name](small=True, devices=["IonQ-11Q"], families=["ghz"])
    expected = render_figure2(run_scenario(scenario, **knobs))
    status = main([
        "run", name, "--families", "ghz", "--devices", "IonQ-11Q", "--shots", "40",
        "--repetitions", "1", "--trajectories", "5",
    ])
    assert status == 0
    assert capsys.readouterr().out.startswith(expected + "\n")


@pytest.mark.parametrize(
    "knob, message",
    [
        (["--devices", "NoSuchDevice"], "unknown device 'NoSuchDevice'"),
        (["--trajectories", "0"], "trajectories must be None or at least 1, got 0"),
    ],
    ids=["device", "trajectories"],
)
def test_run_reports_a_library_error_on_one_line(knob, message, capsys):
    status = main(["run", "figure2", "--families", "ghz", *knob])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.startswith("repro run: error: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
