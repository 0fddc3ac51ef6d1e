"""Initial placement of logical qubits onto physical qubits.

The paper's Closed Division allows "noise-aware qubit mapping" since cloud
compilers apply it automatically.  Two strategies are provided:

* :func:`trivial_placement` — logical qubit *i* goes to physical qubit *i*.
* :func:`noise_aware_placement` — a greedy heuristic that selects a connected
  region of the device with high connectivity, then assigns the most
  communication-heavy logical qubits to the best-connected physical qubits.
"""

from __future__ import annotations

from typing import Dict, List

from ..circuits.columnar import PackedCircuit
from ..devices import Device
from ..devices.coupling import CouplingMap, Neighbours, neighbour_table
from ..exceptions import TranspilerError

__all__ = ["trivial_placement", "noise_aware_placement", "Placement"]

Placement = Dict[int, int]


def _check_fits(packed: PackedCircuit, device: Device) -> None:
    if packed.num_qubits > device.num_qubits:
        raise TranspilerError(
            f"circuit needs {packed.num_qubits} qubits but {device.name} has "
            f"only {device.num_qubits}"
        )


def trivial_placement(packed: PackedCircuit, device: Device) -> Placement:
    """Identity mapping: logical qubit ``i`` -> physical qubit ``i``."""
    _check_fits(packed, device)
    return {q: q for q in range(packed.num_qubits)}


def noise_aware_placement(packed: PackedCircuit, device: Device) -> Placement:
    """Connectivity-aware greedy placement.

    The heuristic first grows a connected region of the device starting from
    the highest-degree physical qubit (always adding the neighbouring qubit
    with the most connections into the already selected region).  It then
    walks the circuit's interaction graph in breadth-first order from its
    busiest logical qubit and assigns each logical qubit to the free physical
    qubit that is adjacent to the most already-placed interaction partners
    (ties broken by physical degree), so that chains map onto chains and
    densely interacting cliques land on the densest part of the region.

    The device side reads :attr:`Device.coupling`; the circuit side reads
    the interaction neighbours of :meth:`PackedCircuit.interaction_pairs`.
    """
    _check_fits(packed, device)
    needed = packed.num_qubits
    if needed == 0:
        return {}
    if device.all_to_all:
        return {q: q for q in range(needed)}
    coupling = device.coupling
    if needed == device.num_qubits:
        region = list(range(device.num_qubits))
    else:
        region = _grow_region(coupling, needed)

    partners = neighbour_table(needed, packed.interaction_pairs())
    inside = set(region)
    region_degree = {
        node: sum(1 for other in coupling.neighbours[node] if other in inside) for node in region
    }

    placement: Placement = {}
    free = set(region)
    for logical in _interaction_bfs_order(partners):
        placed_partners = [placement[other] for other in partners[logical] if other in placement]
        best = max(
            free,
            key=lambda candidate: (
                sum(1 for partner in placed_partners if coupling.has_edge(candidate, partner)),
                region_degree[candidate],
                coupling.degrees[candidate],
                -candidate,
            ),
        )
        placement[logical] = best
        free.remove(best)
    return placement


def _interaction_bfs_order(partners: Neighbours) -> List[int]:
    """Logical qubits in BFS order over the interaction graph, busiest first."""

    def busiest_first(qubits) -> List[int]:
        return sorted(qubits, key=lambda q: len(partners[q]), reverse=True)

    order: List[int] = []
    seen: set[int] = set()
    for seed in busiest_first(range(len(partners))):
        if seed in seen:
            continue
        queue = [seed]
        seen.add(seed)
        for node in queue:  # grows while iterated: a FIFO queue
            order.append(node)
            for neighbor in busiest_first(n for n in partners[node] if n not in seen):
                seen.add(neighbor)
                queue.append(neighbor)
    return order


def _grow_region(coupling: CouplingMap, size: int) -> List[int]:
    """Grow a connected set of ``size`` nodes greedily by internal connectivity."""
    if size > coupling.num_qubits:
        raise TranspilerError("device too small for requested region")
    neighbours, degrees = coupling.neighbours, coupling.degrees
    best_region: List[int] | None = None
    best_score = -1
    # Try growing from the few highest-degree seeds and keep the densest region.
    seeds = sorted(range(coupling.num_qubits), key=lambda n: degrees[n], reverse=True)[:4]
    for seed in seeds:
        region = {seed}
        while len(region) < size:
            boundary = {
                neighbor
                for node in region
                for neighbor in neighbours[node]
                if neighbor not in region
            }
            if not boundary:
                break
            choice = max(
                boundary,
                key=lambda n: (sum(1 for m in neighbours[n] if m in region), degrees[n]),
            )
            region.add(choice)
        if len(region) < size:
            continue
        # Twice the region's edge count: every internal edge is seen from both ends.
        score = sum(1 for node in region for m in neighbours[node] if m in region)
        if score > best_score:
            best_score = score
            best_region = sorted(region)
    if best_region is None:
        raise TranspilerError("could not find a connected region of the requested size")
    return best_region
