"""SWAP routing: make every two-qubit gate act on coupled physical qubits.

The router walks the circuit keeping a live logical-to-physical layout.  When
a two-qubit gate's operands are not adjacent on the device, SWAP gates are
inserted along a shortest path between them (moving the first operand toward
the second), updating the layout as it goes.  This is the classic greedy
shortest-path router; it is not optimal but it is deterministic, simple and
sufficient to reproduce the paper's qualitative observation that sparse
topologies pay a heavy SWAP overhead on all-to-all workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..circuits.columnar import BARRIER_OP, OPCODES, PackedBuilder, PackedCircuit
from ..devices import Device
from ..exceptions import TranspilerError
from .placement import Placement

__all__ = ["route_circuit", "RoutedCircuit"]

_SWAP = OPCODES["swap"]


@dataclass
class RoutedCircuit:
    """Result of routing: a physical-qubit circuit plus layout bookkeeping.

    Attributes:
        circuit: Packed circuit over the device's physical qubits.
        initial_layout: logical -> physical mapping before the first gate.
        final_layout: logical -> physical mapping after the last gate.
        swap_count: Number of SWAP gates inserted.
    """

    circuit: PackedCircuit
    initial_layout: Placement
    final_layout: Placement
    swap_count: int


def route_circuit(packed: PackedCircuit, device: Device, placement: Placement) -> RoutedCircuit:
    """Insert SWAPs so every multi-qubit gate acts on coupled qubits.

    The output register has ``max(num_clbits, 1)`` classical bits, and a
    qubit-less barrier becomes a barrier over every device qubit.  Paths
    come from the device's cached :attr:`~repro.devices.Device.coupling`
    tables (networkx's breadth-first shortest paths).
    """
    missing = [q for q in range(packed.num_qubits) if q not in placement]
    if missing:
        raise TranspilerError(f"placement is missing logical qubits {missing}")

    coupling = None if device.all_to_all else device.coupling
    logical_to_physical: Dict[int, int] = dict(placement)
    physical_to_logical: Dict[int, int] = {p: l for l, p in logical_to_physical.items()}

    routed = PackedBuilder(device.num_qubits, max(packed.num_clbits, 1), packed.name)
    all_qubits = tuple(range(device.num_qubits))
    swap_count = 0

    def physical(logical: int) -> int:
        return logical_to_physical[logical]

    def apply_swap(a: int, b: int) -> None:
        nonlocal swap_count
        routed.append(_SWAP, (a, b))
        swap_count += 1
        la = physical_to_logical.get(a)
        lb = physical_to_logical.get(b)
        if la is not None:
            logical_to_physical[la] = b
        if lb is not None:
            logical_to_physical[lb] = a
        physical_to_logical[a], physical_to_logical[b] = lb, la
        if physical_to_logical[a] is None:
            del physical_to_logical[a]
        if physical_to_logical[b] is None:
            del physical_to_logical[b]

    for _row, opcode, qubits, params, clbit in packed.iter_rows():
        if opcode == BARRIER_OP:
            if qubits:
                routed.append(BARRIER_OP, tuple(physical(q) for q in qubits))
            else:
                routed.append(BARRIER_OP, all_qubits)
            continue
        if len(qubits) <= 1:
            routed.append(opcode, tuple(physical(q) for q in qubits), params, clbit)
            continue
        if len(qubits) > 2:
            raise TranspilerError(
                "route_circuit expects circuits decomposed to one- and two-qubit gates"
            )
        a, b = qubits
        pa, pb = physical(a), physical(b)
        if coupling is not None and not coupling.has_edge(pa, pb):
            path = coupling.shortest_path(pa, pb)
            if path is None:
                raise TranspilerError(
                    f"no path between physical qubits {pa} and {pb} on {device.name}"
                )
            # Move qubit `a` along the path until it neighbours `b`.
            for step in path[1:-1]:
                apply_swap(physical(a), step)
            pa, pb = physical(a), physical(b)
            if not coupling.has_edge(pa, pb):  # pragma: no cover - defensive
                raise TranspilerError("routing failed to make qubits adjacent")
        routed.append(opcode, (physical(a), physical(b)), params, clbit)

    return RoutedCircuit(
        circuit=routed.build(),
        initial_layout=dict(placement),
        final_layout=dict(logical_to_physical),
        swap_count=swap_count,
    )
