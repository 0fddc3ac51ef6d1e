"""Golden engine records: scores, content keys and cache counters per case.

Every execution the engine makes (benchmark circuits, mitigation variants,
calibration circuits) must keep its seed and its order, so a seeded run
returns the same score bits whatever shape the engine's code takes.  This
golden pins, for two benchmarks under six techniques on three backends,
two worker counts and two devices:

* the ``float.hex`` of every repetition's score from ``engine.run``;
* the compiled metadata of that run (gates, depth, SWAPs, placement,
  pipeline, technique);
* ``engine.content_key`` of the same execution;
* ``engine.stats()`` after the case (transpile, calibration and execution
  counters accumulate over one engine per device × backend × workers).

It also pins the ZNE skip on ``bit_code`` (the exception type) and the
``run_circuits`` output with and without mitigation.

Regenerate (only when a change to the scores is intended) with::

    PYTHONPATH=src python tests/execution/test_engine_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import pytest

from repro.benchmarks import BitCodeBenchmark, GHZBenchmark, MerminBellBenchmark
from repro.devices import get_device
from repro.exceptions import ReproError
from repro.execution import ExecutionEngine

GOLDEN_PATH = Path(__file__).parent / "golden_engine.json"

DEVICES = ("IBM-Casablanca-7Q", "IonQ-11Q")
BACKENDS = ("statevector", "trajectory", "density_matrix")
WORKERS = (1, 2)
TECHNIQUES = ("raw", "readout", "full_readout", "zne", "dd", "dd_xx")
SHOTS = 64
REPETITIONS = 2
SEED = 1234
TRAJECTORIES = 6

#: Built once: a benchmark's circuits are fixed at construction.
BENCHMARKS = (GHZBenchmark(3), MerminBellBenchmark(3))


def _engine(device: str, backend: str, workers: int) -> ExecutionEngine:
    return ExecutionEngine(
        get_device(device), backend=backend, max_workers=workers, trajectories=TRAJECTORIES
    )


def _distribution(counts) -> List[Tuple[str, str]]:
    """Counts or a quasi-distribution as exact ``(bitstring, hex)`` pairs."""
    return [(key, float(value).hex()) for key, value in sorted(counts.items())]


def engine_records(device: str, backend: str, workers: int) -> Iterator[Tuple[str, Dict]]:
    """One record per ``(technique, benchmark)`` run on one engine, in order."""
    with _engine(device, backend, workers) as engine:
        for technique in TECHNIQUES:
            for benchmark in BENCHMARKS:
                run = engine.run(
                    benchmark, shots=SHOTS, repetitions=REPETITIONS, seed=SEED,
                    mitigation=technique,
                )
                key = engine.content_key(
                    benchmark, SHOTS, REPETITIONS, SEED, mitigation=technique
                )
                yield f"{device}|{backend}|w{workers}|{technique}|{benchmark}", {
                    "scores": [float(score).hex() for score in run.scores],
                    "run": [
                        run.compiled_two_qubit_gates, run.compiled_depth, run.swap_count,
                        run.placement, run.pipeline, run.mitigation, run.backend,
                    ],
                    "content_key": key,
                    "stats": engine.stats(),
                }


def skip_record(device: str) -> Dict:
    """ZNE cannot fold the repetition code's mid-circuit measurements."""
    with _engine(device, "density_matrix", 1) as engine:
        try:
            engine.run(BitCodeBenchmark(3, 2), shots=SHOTS, repetitions=1, seed=SEED,
                       mitigation="zne")
        except ReproError as error:
            return {"error": type(error).__name__, "stats": engine.stats()}
    return {"error": None}


def run_circuits_record(device: str, workers: int) -> Dict:
    circuits = [circuit for benchmark in BENCHMARKS for circuit in benchmark.circuits()]
    record = {}
    with _engine(device, "trajectory", workers) as engine:
        for technique in (None, "raw", "readout", "zne"):
            results = engine.run_circuits(circuits, shots=SHOTS, seed=SEED, mitigation=technique)
            record[str(technique)] = {
                "types": [type(result).__name__ for result in results],
                "results": [_distribution(result) for result in results],
                "stats": engine.stats(),
            }
    return record


def all_records() -> Dict[str, Dict]:
    records: Dict[str, Dict] = {}
    for device in DEVICES:
        for backend in BACKENDS:
            for workers in WORKERS:
                records.update(engine_records(device, backend, workers))
        records[f"{device}|skip"] = skip_record(device)
        for workers in WORKERS:
            records[f"{device}|run_circuits|w{workers}"] = run_circuits_record(device, workers)
    return records


def write_golden() -> None:
    """Run every case and (re)write ``golden_engine.json``, one record a line."""
    records = all_records()
    lines = [
        f"{json.dumps(key)}: {json.dumps(record, sort_keys=True)}"
        for key, record in sorted(records.items())
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(records)} records to {GOLDEN_PATH}")


def _golden() -> Dict[str, Dict]:
    return json.loads(GOLDEN_PATH.read_text())


def _plain(record: Dict) -> Dict:
    """A record as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(record))


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("device", DEVICES)
def test_engine_runs_match_golden(device, backend, workers):
    golden = _golden()
    records = dict(engine_records(device, backend, workers))
    assert len(records) == len(TECHNIQUES) * len(BENCHMARKS)
    for key, record in records.items():
        assert _plain(record) == golden[key], key


@pytest.mark.parametrize("device", DEVICES)
def test_zne_skip_matches_golden(device):
    record = skip_record(device)
    assert record["error"] == "MitigationError"
    assert _plain(record) == _golden()[f"{device}|skip"]


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("device", DEVICES)
def test_run_circuits_matches_golden(device, workers):
    record = run_circuits_record(device, workers)
    assert record["None"]["types"][0] == "Counts"
    assert record["readout"]["types"][0] == "QuasiDistribution"
    assert _plain(record) == _golden()[f"{device}|run_circuits|w{workers}"]


def test_scores_do_not_depend_on_worker_count():
    golden = _golden()
    for key, record in golden.items():
        if "|w1|" in key and "scores" in record:
            assert golden[key.replace("|w1|", "|w2|")]["scores"] == record["scores"], key


if __name__ == "__main__":
    if "--write" in sys.argv:
        write_golden()
    else:
        print(__doc__)
