"""Golden basis-translation digests: the lowered bytes of every circuit and basis.

``golden_lowering.json`` pins whole compiles, so a lowering rule that only a
rare angle or gate reaches can move without it noticing, and it leaves
``iswap`` out.  This golden pins :func:`translate_to_basis` alone: one sha1
of the output pack's buffers per (circuit, basis), for the ``canonical``,
``ibm``, ``aqt`` and ``ionq`` bases, over seeded random 3–5-qubit circuits.
Each circuit holds every unitary gate (``iswap`` included) plus extra random
gates, mid-circuit measure and reset, and qubit-less, partial and full-width
barriers (a wide row from 4 qubits).  Half of the angles come from the
lowering's tolerance edges (0, ±1e-11, ±5e-11, ±π/2, ±π, π+1e-11, 3π/2, 2π).

Regenerate (only when a change to the lowered output is intended) with::

    PYTHONPATH=src python tests/transpiler/test_translate_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import pytest

from repro.circuits import BARRIER, GATE_DEFINITIONS, Circuit, Instruction
from repro.circuits.columnar import OP_NAMES, PackedBuilder, PackedCircuit
from repro.transpiler import translate_to_basis

GOLDEN_PATH = Path(__file__).parent / "golden_translate.json"

BASES = ("canonical", "ibm", "aqt", "ionq")

GATES = [name for name, definition in GATE_DEFINITIONS.items() if definition.is_unitary]

#: Angles at the lowering's ``1e-10`` tolerance and quarter-turn edges.
EDGE_ANGLES = (
    0.0,
    1e-11,
    -1e-11,
    5e-11,
    -5e-11,
    math.pi / 2,
    -math.pi / 2,
    math.pi,
    -math.pi,
    math.pi + 1e-11,
    3 * math.pi / 2,
    2 * math.pi,
)

NUM_CIRCUITS = 300

#: Random gates added on top of one of each unitary gate.
EXTRA_GATES = 8


def _angle(rng: random.Random) -> float:
    if rng.random() < 0.5:
        return rng.choice(EDGE_ANGLES)
    return rng.uniform(-2 * math.pi, 2 * math.pi)


def random_circuit(seed: int) -> Circuit:
    """Every unitary gate once plus extras, shuffled, with non-unitary rows."""
    rng = random.Random(seed)
    width = rng.randint(3, 5)
    circuit = Circuit(width, width, name=f"random-{seed}")
    names = GATES + [rng.choice(GATES) for _ in range(EXTRA_GATES)]
    rng.shuffle(names)
    specials = dict(
        zip(rng.sample(range(len(names)), 5), ("measure", "reset", "bare", "partial", "wide"))
    )
    for step, name in enumerate(names):
        definition = GATE_DEFINITIONS[name]
        qubits = rng.sample(range(width), definition.num_qubits)
        circuit.add_gate(name, qubits, [_angle(rng) for _ in range(definition.num_params)])
        special = specials.get(step)
        if special == "measure":
            qubit = rng.randrange(width)
            circuit.measure(qubit, rng.randrange(width))
        elif special == "reset":
            circuit.reset(rng.randrange(width))
        elif special == "bare":
            circuit.append(Instruction(BARRIER, ()))
        elif special == "partial":
            circuit.barrier(*rng.sample(range(width), 2))
        elif special == "wide":
            circuit.barrier(*range(width))
    return circuit.measure_all()


def golden_circuits() -> List[Circuit]:
    return [random_circuit(seed) for seed in range(NUM_CIRCUITS)]


def pack_digest(packed: PackedCircuit) -> str:
    digest = hashlib.sha1(f"{packed.num_qubits}|{packed.num_clbits}".encode())
    for name, buffer in packed.buffers():
        digest.update(f"|{name}|{buffer.dtype.str}|{buffer.shape}|".encode())
        digest.update(buffer.tobytes())
    return digest.hexdigest()


def iter_records() -> Iterator[Tuple[str, str]]:
    for circuit in golden_circuits():
        packed = circuit.packed()
        for basis in BASES:
            yield f"{circuit.name}|{basis}", pack_digest(translate_to_basis(packed, basis))


def write_golden() -> None:
    """Lower every golden circuit to every basis and (re)write the JSON."""
    records: Dict[str, str] = dict(iter_records())
    payload = {
        "note": (
            "sha1 of translate_to_basis(...).buffers() per circuit and basis; "
            "see tests/transpiler/test_translate_golden.py for the circuits."
        ),
        "records": records,
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN_PATH}")


def test_translation_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())["records"]
    records = dict(iter_records())
    assert records.keys() == golden.keys()
    mismatched = [key for key, digest in records.items() if golden[key] != digest]
    assert not mismatched, mismatched[:10]


def test_golden_reaches_every_gate_row_kind_and_edge():
    """The golden is only a reference if its circuits reach every rule."""
    opcodes = set()
    wide = params = 0
    for circuit in golden_circuits():
        packed = circuit.packed()
        opcodes.update(OP_NAMES[opcode] for opcode in packed.opcodes.tolist())
        wide += packed.wide_rows.size
        params += sum(1 for value in packed.params.tolist() if value in EDGE_ANGLES)
    assert set(GATES) | {"measure", "reset", "barrier"} <= opcodes
    assert wide > 0
    assert params > 1000


@pytest.mark.parametrize("basis", BASES)
def test_one_walk_and_one_build_per_call(basis, monkeypatch):
    """Lowering reads the input rows once and freezes one output pack."""
    calls = {"iter_rows": 0, "build": 0}
    iter_rows, build = PackedCircuit.iter_rows, PackedBuilder.build

    def counted_iter_rows(self):
        calls["iter_rows"] += 1
        return iter_rows(self)

    def counted_build(self):
        calls["build"] += 1
        return build(self)

    packed = random_circuit(0).packed()
    monkeypatch.setattr(PackedCircuit, "iter_rows", counted_iter_rows)
    monkeypatch.setattr(PackedBuilder, "build", counted_build)
    translate_to_basis(packed, basis)
    assert calls == {"iter_rows": 1, "build": 1}


if __name__ == "__main__":
    if "--write" in sys.argv:
        write_golden()
    else:
        print(__doc__)
