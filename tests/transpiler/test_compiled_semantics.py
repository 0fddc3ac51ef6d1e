"""Compiled circuits implement their logical circuit, layouts and SWAPs included.

The unitary checks in ``test_decomposition.py`` cover single rewrites, and
the other semantic checks of compiled output run on the all-to-all IonQ-11Q
(no SWAPs, identity layouts) or through GHZ counts.  Here seeded random
circuits holding every unitary gate (half of the angles at the lowering's
tolerance edges) are compiled on one device per native basis, at levels 0–3
with both placements.  A random logical state is embedded at
``initial_layout`` on the ``compact()`` qubits, every other qubit in |0⟩;
after the compiled circuit, the state must be the logical circuit's output
read at ``final_layout``, with those other qubits back in |0⟩.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from test_translate_golden import EDGE_ANGLES, GATES

from repro.circuits import GATE_DEFINITIONS, Circuit
from repro.devices import get_device
from repro.simulation import final_statevector
from repro.transpiler import transpile

DEVICES = ("IBM-Casablanca-7Q", "AQT-4Q", "IonQ-11Q")

CIRCUITS_PER_DEVICE = 12

TOLERANCE = 1e-7


def random_unitary_circuit(seed: int) -> Circuit:
    """Every unitary gate once, shuffled, on 3 or 4 logical qubits."""
    rng = random.Random(seed)
    width = rng.randint(3, 4)
    circuit = Circuit(width, name=f"semantic-{seed}")
    names = list(GATES)
    rng.shuffle(names)
    for name in names:
        definition = GATE_DEFINITIONS[name]
        params = [
            rng.choice(EDGE_ANGLES) if rng.random() < 0.5 else rng.uniform(-math.pi, math.pi)
            for _ in range(definition.num_params)
        ]
        circuit.add_gate(name, rng.sample(range(width), definition.num_qubits), params)
    return circuit


def _embed(state: np.ndarray, positions, width: int) -> np.ndarray:
    """Place logical qubit ``q`` of ``state`` at register bit ``positions[q]``."""
    indices = np.zeros(state.size, dtype=np.int64)
    for logical, position in enumerate(positions):
        bits = (np.arange(state.size) >> logical) & 1
        indices |= bits << position
    embedded = np.zeros(2**width, dtype=complex)
    embedded[indices] = state
    return embedded


def overlap(result, state: np.ndarray, evolved: np.ndarray) -> float:
    """|<expected|actual>|² of a compile run on logical ``state``.

    ``evolved`` is the logical circuit's output on ``state``.
    """
    compiled, physical = result.compact()
    logical_qubits = range(result.logical_circuit.num_qubits)
    # A logical qubit whose gates all compiled away sits on no compact qubit.
    idle = {result.initial_layout[q] for q in logical_qubits} - set(physical)
    register = list(physical) + sorted(idle)
    if idle:
        compiled = Circuit(len(register)).compose(compiled)
    start = [register.index(result.initial_layout[q]) for q in logical_qubits]
    end = [register.index(result.final_layout[q]) for q in logical_qubits]
    actual = final_statevector(compiled, _embed(state, start, len(register)))
    expected = _embed(evolved, end, len(register))
    return abs(np.vdot(expected, actual)) ** 2


@pytest.mark.parametrize("device_name", DEVICES)
def test_compiled_circuits_implement_their_logical_circuit(device_name):
    device = get_device(device_name)
    failures = []
    swaps = 0
    for seed in range(CIRCUITS_PER_DEVICE):
        circuit = random_unitary_circuit(seed)
        rng = np.random.default_rng(seed)
        state = rng.normal(size=2**circuit.num_qubits) + 1j * rng.normal(size=2**circuit.num_qubits)
        state /= np.linalg.norm(state)
        evolved = final_statevector(circuit, state)
        for level in (0, 1, 2, 3):
            for placement in ("noise_aware", "trivial"):
                result = transpile(circuit, device, optimization_level=level, placement=placement)
                fidelity = overlap(result, state, evolved)
                if fidelity < 1 - TOLERANCE:
                    failures.append((circuit.name, level, placement, fidelity))
                swaps += result.swap_count
    assert not failures, failures
    if device_name != "IonQ-11Q":
        assert swaps > 0  # the layouts are only checked if routing moved qubits
