"""Golden rewrite digests: what construction and every circuit rewrite write.

One sha1 per record over seeded random 3–5-qubit circuits: the circuit's
pack, its OpenQASM text, a ``compose`` through a random qubit map into a
wider circuit, the ``inverse`` of its unitary body, and ``fold_global`` and
``fold_two_qubit_gates`` at scales 1, 1.5, 2, 3 and 5 (the pack and the
achieved scale).  A rewrite that raises records its error type and message
instead, so which scales fold and which raise is pinned too.

Every circuit holds every unitary gate except ``iswap`` and ``zzswap``
(which have no inverse rule), and every other circuit holds those two as
well, plus random extra gates, partial and full-width barriers (a wide row
from 4 qubits) and terminal measurements of some of its qubits, one of them
before a trailing gate on another qubit.  Angles avoid ``±0.0``; the sign
of a zero has its own test in ``tests/circuits/test_row_writer.py``.

Regenerate (only when a change to rewritten output is intended) with::

    PYTHONPATH=src python tests/circuits/test_rewrites_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

from repro.circuits import GATE_DEFINITIONS, Circuit
from repro.circuits.columnar import OP_NAMES, PackedCircuit
from repro.exceptions import ReproError
from repro.mitigation import fold_global, fold_two_qubit_gates

GOLDEN_PATH = Path(__file__).parent / "golden_rewrites.json"

NUM_CIRCUITS = 300

SCALES = (1.0, 1.5, 2.0, 3.0, 5.0)

#: Gates without an inverse rule: half of the circuits hold them.
NON_INVERTIBLE = ("iswap", "zzswap")

GATES = [
    name
    for name, definition in GATE_DEFINITIONS.items()
    if definition.is_unitary and name not in NON_INVERTIBLE
]

#: Random gates added on top of one of each gate.
EXTRA_GATES = 6

#: Angles QASM export writes as multiples of pi.
PI_ANGLES = tuple(
    sign * numerator * math.pi / denominator
    for sign in (1, -1)
    for numerator, denominator in ((1, 1), (1, 2), (3, 4), (1, 8), (5, 16), (2, 3))
)


def _angle(rng: random.Random) -> float:
    if rng.random() < 0.3:
        return rng.choice(PI_ANGLES)
    angle = 0.0
    while abs(angle) < 1e-3:
        angle = rng.uniform(-2 * math.pi, 2 * math.pi)
    return angle


def random_body(seed: int) -> Circuit:
    """Every gate once plus extras, shuffled, with partial and full barriers."""
    rng = random.Random(seed)
    width = rng.randint(3, 5)
    gates = GATES + list(NON_INVERTIBLE) * (seed % 2)
    names = gates + [rng.choice(gates) for _ in range(EXTRA_GATES)]
    rng.shuffle(names)
    barriers = dict(zip(rng.sample(range(len(names)), 2), ("partial", "full")))
    body = Circuit(width, width, name=f"rewrite-{seed}")
    for step, name in enumerate(names):
        definition = GATE_DEFINITIONS[name]
        qubits = rng.sample(range(width), definition.num_qubits)
        body.add_gate(name, qubits, [_angle(rng) for _ in range(definition.num_params)])
        kind = barriers.get(step)
        if kind == "partial":
            body.barrier(*rng.sample(range(width), rng.randint(1, width - 1)))
        elif kind == "full":
            body.barrier()
    return body


def measured(body: Circuit, seed: int) -> Circuit:
    """``body`` with terminal measurements of some qubits, one of them early.

    The first measured qubit is measured before a trailing gate on another
    qubit, so folding must hoist it into the measurement tail.
    """
    rng = random.Random(seed + 1_000_003)
    width = body.num_qubits
    chosen = rng.sample(range(width), rng.randint(1, width - 1))
    clbits = rng.sample(range(width), len(chosen))
    circuit = body.copy()
    circuit.measure(chosen[0], clbits[0])
    others = [q for q in range(width) if q != chosen[0]]
    circuit.rx(_angle(rng), rng.choice(others))
    for qubit, clbit in zip(chosen[1:], clbits[1:]):
        circuit.measure(qubit, clbit)
    return circuit


def pack_digest(packed: PackedCircuit) -> str:
    digest = hashlib.sha1(f"{packed.num_qubits}|{packed.num_clbits}|{packed.name}".encode())
    for name, buffer in packed.buffers():
        digest.update(f"|{name}|{buffer.dtype.str}|{buffer.shape}|".encode())
        digest.update(buffer.tobytes())
    return digest.hexdigest()


def _record(make: Callable[[], str]) -> str:
    """sha1 of what ``make`` returns, or of the error it raises."""
    try:
        text = make()
    except ReproError as error:  # the error is the record
        text = f"error|{type(error).__name__}|{error}"
    return hashlib.sha1(text.encode()).hexdigest()


def _folded(fold, circuit: Circuit, scale: float) -> Callable[[], str]:
    def make() -> str:
        folded, achieved = fold(circuit, scale)
        return f"{pack_digest(folded.packed())}|{float(achieved).hex()}"

    return make


def _composed(circuit: Circuit, seed: int) -> Callable[[], str]:
    def make() -> str:
        rng = random.Random(seed + 2_000_003)
        width = circuit.num_qubits
        targets = rng.sample(range(width + 1), width)
        host = Circuit(width + 1, width, name="host").h(width)
        return pack_digest(host.compose(circuit, qubits=targets).packed())

    return make


def circuit_records(seed: int) -> Iterator[Tuple[str, str]]:
    body = random_body(seed)
    circuit = measured(body, seed)
    key = circuit.name
    yield f"{key}|pack", _record(lambda: pack_digest(circuit.packed()))
    yield f"{key}|qasm", _record(circuit.to_qasm)
    yield f"{key}|compose", _record(_composed(circuit, seed))
    yield f"{key}|inverse", _record(lambda: pack_digest(body.inverse().packed()))
    for scale in SCALES:
        yield f"{key}|global@{scale:g}", _record(_folded(fold_global, circuit, scale))
        yield f"{key}|local@{scale:g}", _record(_folded(fold_two_qubit_gates, circuit, scale))


def iter_records() -> Iterator[Tuple[str, str]]:
    for seed in range(NUM_CIRCUITS):
        yield from circuit_records(seed)


def write_golden() -> None:
    """Rewrite every golden circuit and (re)write the JSON."""
    records: Dict[str, str] = dict(iter_records())
    payload = {
        "note": (
            "sha1 per circuit of its pack, QASM text, a mapped compose, the inverse "
            "of its body and both foldings at five scales (or of the error raised); "
            "see tests/circuits/test_rewrites_golden.py for the circuits."
        ),
        "records": records,
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN_PATH}")


def test_rewrites_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text())["records"]
    records = dict(iter_records())
    assert records.keys() == golden.keys()
    mismatched = [key for key, digest in records.items() if golden[key] != digest]
    assert not mismatched, mismatched[:10]


def test_golden_reaches_every_gate_and_row_kind():
    """The golden is only a reference if its circuits reach every rule."""
    opcodes = set()
    wide = partial = holding = 0
    zeros: List[float] = []
    for seed in range(NUM_CIRCUITS):
        packed = measured(random_body(seed), seed).packed()
        names = [OP_NAMES[opcode] for opcode in packed.opcodes.tolist()]
        opcodes.update(names)
        wide += packed.wide_rows.size
        partial += names.count("measure") < packed.num_qubits
        holding += "iswap" in names and "zzswap" in names
        zeros.extend(value for value in packed.params.tolist() if value == 0.0)
    assert set(GATES) | set(NON_INVERTIBLE) | {"measure", "barrier"} <= opcodes
    assert wide > 0 and partial == NUM_CIRCUITS
    assert holding == NUM_CIRCUITS // 2
    assert not zeros


if __name__ == "__main__":
    if "--write" in sys.argv:
        write_golden()
    else:
        print(__doc__)
