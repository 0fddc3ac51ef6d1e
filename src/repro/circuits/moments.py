"""As-soon-as-possible scheduling of a circuit into moments (layers).

The SupermarQ feature definitions (Parallelism, Liveness, Measurement,
Critical-Depth) are all expressed in terms of "the circuit depth ``d``",
meaning the number of layers when every operation is scheduled as early as
its qubit dependencies allow.  This module materialises those layers as
lists of instructions, which the dynamical-decoupling pass schedules into;
the depth itself comes from the packed profile
(:func:`~repro.features.packed_profile`, behind :meth:`Circuit.depth`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .circuit import Circuit, Instruction

__all__ = ["circuit_moments"]


def circuit_moments(circuit: "Circuit") -> List[List["Instruction"]]:
    """Schedule instructions into ASAP layers.

    Barriers act as synchronization points over the qubits they cover: every
    later operation on those qubits starts no earlier than the layer after
    the latest operation preceding the barrier.  Barriers themselves are not
    emitted into any layer and do not count toward the depth.
    """
    frontier = [0] * circuit.num_qubits  # next free layer per qubit
    layers: List[List["Instruction"]] = []
    for instruction in circuit:
        qubits = instruction.qubits
        if instruction.is_barrier():
            if not qubits:
                continue
            level = max(frontier[q] for q in qubits)
            for q in qubits:
                frontier[q] = level
            continue
        level = max(frontier[q] for q in qubits) if qubits else 0
        while len(layers) <= level:
            layers.append([])
        layers[level].append(instruction)
        for q in qubits:
            frontier[q] = level + 1
    return layers
