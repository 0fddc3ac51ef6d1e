"""Golden lowering records: every operation, barrier shape, level and DD sequence.

``golden_transpile.json`` pins the Fig. 2 suite at levels 0–2, which never
exercises most operation names, barriers, level 3 or dynamical decoupling.
This golden covers them: one single-gate circuit per unitary gate (operands
spread out so routing inserts SWAPs) and three seeded 4-qubit mixed circuits
with mid-circuit measure, reset and qubit-less, 2-qubit and wide barriers,
compiled on one device per native basis at levels 0–3 with both placements,
plus ``dd="xx"`` / ``dd="xy4"`` at levels 1 and 3.

Each record holds the compiled-circuit fingerprint, layouts, SWAP count,
two-qubit count, depth, the pipeline's ``metrics`` (including
``dd_pulses``), the pipeline fingerprint and the fingerprint of the
``compact()`` simulation circuit; the JSON stores a digest of each record to
stay small.  ``iswap`` is left out of the circuits on purpose: the golden
was generated before the transpiler could lower it.

Regenerate (only when a change to the compiled output is intended) with::

    PYTHONPATH=src python tests/transpiler/test_lowering_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import pytest

from repro.circuits import BARRIER, GATE_DEFINITIONS, Circuit, Instruction
from repro.devices import get_device
from repro.exceptions import TranspilerError
from repro.execution import circuit_fingerprint
from repro.transpiler import preset_pipeline, transpile

GOLDEN_PATH = Path(__file__).parent / "golden_lowering.json"

#: One device per native basis: ibm (sparse), aqt (ring), ionq (all-to-all).
DEVICES = ("IBM-Casablanca-7Q", "AQT-4Q", "IonQ-11Q")

#: ``(level, placement, dd)`` compile configurations.
CONFIGURATIONS: Tuple[Tuple[int, str, Optional[str]], ...] = tuple(
    (level, placement, None)
    for level in (0, 1, 2, 3)
    for placement in ("noise_aware", "trivial")
) + tuple((level, "noise_aware", dd) for level in (1, 3) for dd in ("xx", "xy4"))

GATES = [
    name
    for name, definition in GATE_DEFINITIONS.items()
    if definition.is_unitary and name != "iswap"
]

#: Operands per gate arity, spread so routing has work on sparse devices.
_SPREAD = {1: (2,), 2: (0, 2), 3: (0, 3, 1)}


def single_gate_circuit(name: str) -> Circuit:
    definition = GATE_DEFINITIONS[name]
    params = [0.37 * (i + 1) + 0.05 for i in range(definition.num_params)]
    circuit = Circuit(4, 0, name=f"single-{name}")
    return circuit.add_gate(name, _SPREAD[definition.num_qubits], params)


def mixed_circuit(seed: int) -> Circuit:
    """Random gates over all of ``GATES``, measure, reset and barriers."""
    rng = random.Random(seed)
    circuit = Circuit(4, 4, name=f"mixed-{seed}")
    for step in range(28):
        name = GATES[rng.randrange(len(GATES))]
        definition = GATE_DEFINITIONS[name]
        qubits = rng.sample(range(4), definition.num_qubits)
        params = [rng.uniform(-math.pi, math.pi) for _ in range(definition.num_params)]
        circuit.add_gate(name, qubits, params)
        if step == 5:
            qubit = rng.randrange(4)
            circuit.measure(qubit, (qubit + 1) % 4)  # mid-circuit
        elif step == 9:
            circuit.reset(rng.randrange(4))
        elif step == 13:
            circuit.append(Instruction(BARRIER, ()))  # qubit-less
        elif step == 17:
            circuit.barrier(*rng.sample(range(4), 2))
        elif step == 21:
            circuit.barrier(0, 1, 2, 3)  # wide row
    return circuit.measure_all()


def golden_circuits() -> List[Circuit]:
    return [single_gate_circuit(name) for name in GATES] + [
        mixed_circuit(seed) for seed in (11, 12, 13)
    ]


def _config_key(level: int, placement: str, dd: Optional[str]) -> str:
    return f"L{level}|{placement}|dd={dd}"


def lowering_record(circuit: Circuit, device, level: int, placement: str, dd) -> Dict:
    pipeline = preset_pipeline(device, optimization_level=level, placement=placement, dd=dd)
    result = transpile(circuit, device, pass_manager=pipeline)
    try:
        compact, physical = result.compact()
        compact_record = [circuit_fingerprint(compact), list(physical)]
    except TranspilerError:  # compiled to no operations at all
        compact_record = None
    return {
        "fingerprint": circuit_fingerprint(result.circuit),
        "swap_count": result.swap_count,
        "initial_layout": [list(item) for item in sorted(result.initial_layout.items())],
        "final_layout": [list(item) for item in sorted(result.final_layout.items())],
        "two_qubit_gates": result.two_qubit_gate_count(),
        "depth": result.depth(),
        "metrics": dict(sorted(result.metrics.items())),
        "pipeline_fingerprint": result.pipeline_fingerprint,
        "compact": compact_record,
    }


def record_digest(record: Dict) -> str:
    return hashlib.sha1(json.dumps(record, sort_keys=True).encode()).hexdigest()[:20]


def iter_records() -> Iterator[Tuple[str, Dict]]:
    circuits = golden_circuits()
    for device_name in DEVICES:
        device = get_device(device_name)
        for circuit in circuits:
            for level, placement, dd in CONFIGURATIONS:
                key = f"{circuit.name}|{device_name}|{_config_key(level, placement, dd)}"
                yield key, lowering_record(circuit, device, level, placement, dd)


def write_golden() -> None:
    """Compile every golden configuration and (re)write ``golden_lowering.json``."""
    records = {key: record_digest(record) for key, record in iter_records()}
    payload = {
        "note": (
            "sha1[:20] of each lowering record; see tests/transpiler/"
            "test_lowering_golden.py for the record fields."
        ),
        "records": records,
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN_PATH}")


@pytest.mark.parametrize("device_name", DEVICES)
def test_lowering_matches_golden(device_name):
    golden = json.loads(GOLDEN_PATH.read_text())["records"]
    device = get_device(device_name)
    seen = 0
    for circuit in golden_circuits():
        for level, placement, dd in CONFIGURATIONS:
            key = f"{circuit.name}|{device_name}|{_config_key(level, placement, dd)}"
            record = lowering_record(circuit, device, level, placement, dd)
            assert record_digest(record) == golden[key], (key, record)
            seen += 1
    assert seen == sum(1 for key in golden if f"|{device_name}|" in key)


def test_golden_exercises_dd_and_swaps():
    """The golden is only a reference if its circuits reach every stage."""
    circuits = {circuit.name: circuit for circuit in golden_circuits()}
    pulses = swaps = 0
    for device_name in ("IBM-Casablanca-7Q", "AQT-4Q"):
        device = get_device(device_name)
        for seed in (11, 12, 13):
            record = lowering_record(circuits[f"mixed-{seed}"], device, 3, "noise_aware", "xy4")
            pulses += record["metrics"].get("dd_pulses", 0)
        swaps += lowering_record(circuits["single-cx"], device, 0, "trivial", None)["swap_count"]
    assert pulses > 0
    assert swaps > 0


if __name__ == "__main__":
    if "--write" in sys.argv:
        write_golden()
    else:
        print(__doc__)
