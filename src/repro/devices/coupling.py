"""Coupling maps: a device's connectivity as lookup tables, built once.

Placement and routing ask a device the same questions on every compile:
its neighbours, degrees and adjacency, and the shortest path between two
qubits.  The tables answer them with networkx's exact choices, because
placement breaks ties by neighbour order and routing swaps along the path:

* a node's neighbours are listed in the order edges first name them (an
  ``nx.Graph``'s insertion order);
* the path from ``a`` to ``b`` is the one ``nx.all_pairs_shortest_path``
  returns: a breadth-first search from ``a`` visiting neighbours in that
  order, keeping the first path found to each node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Tuple

from ..exceptions import DeviceError

__all__ = ["CouplingMap", "check_edges", "neighbour_table"]

Neighbours = Tuple[Tuple[int, ...], ...]


def check_edges(num_qubits: int, edges: Iterable[Tuple[int, int]]) -> None:
    """Reject edges that leave the device or loop onto one qubit."""
    for a, b in edges:
        if not (0 <= a < num_qubits and 0 <= b < num_qubits):
            raise DeviceError(f"edge ({a}, {b}) outside a {num_qubits}-qubit device")
        if a == b:
            raise DeviceError("self-loop edges are not allowed")


def neighbour_table(num_nodes: int, edges: Iterable[Tuple[int, int]]) -> Neighbours:
    """Each node's neighbours, in the order an ``nx.Graph`` built from ``edges`` lists them.

    A node's neighbour joins its list at the first edge that links them;
    repeated edges change nothing.
    """
    ordered = [dict() for _ in range(num_nodes)]  # insertion-ordered sets
    for a, b in edges:
        ordered[a][b] = None
        ordered[b][a] = None
    return tuple(tuple(partners) for partners in ordered)


def _shortest_paths(neighbours: Neighbours, source: int) -> Tuple[Optional[Tuple[int, ...]], ...]:
    """Breadth-first paths from ``source``; ``None`` for unreachable nodes."""
    paths: list = [None] * len(neighbours)
    paths[source] = (source,)
    frontier = [source]
    for node in frontier:  # grows while iterated: a FIFO queue
        path = paths[node]
        for neighbour in neighbours[node]:
            if paths[neighbour] is None:
                paths[neighbour] = path + (neighbour,)
                frontier.append(neighbour)
    return tuple(paths)


@dataclass(frozen=True, eq=False)
class CouplingMap:
    """A device's connectivity as immutable lookup tables.

    Attributes:
        num_qubits: Number of physical qubits (nodes ``0..num_qubits-1``).
        neighbours: ``neighbours[q]`` lists ``q``'s coupled qubits in
            networkx insertion order.
        degrees: ``degrees[q] == len(neighbours[q])``.
        adjacent: Every coupled ordered pair, both directions.
        paths: ``paths[a][b]`` is the shortest path from ``a`` to ``b``
            (both ends included) that networkx returns, or ``None`` when
            ``b`` cannot be reached from ``a``.
    """

    num_qubits: int
    neighbours: Neighbours
    degrees: Tuple[int, ...]
    adjacent: FrozenSet[Tuple[int, int]]
    paths: Tuple[Tuple[Optional[Tuple[int, ...]], ...], ...]

    @classmethod
    def from_edges(cls, num_qubits: int, edges: Iterable[Tuple[int, int]]) -> "CouplingMap":
        """Build the tables of an explicit edge list."""
        edges = list(edges)
        check_edges(num_qubits, edges)
        neighbours = neighbour_table(num_qubits, edges)
        return cls(
            num_qubits=num_qubits,
            neighbours=neighbours,
            degrees=tuple(len(partners) for partners in neighbours),
            adjacent=frozenset(
                (node, partner) for node, partners in enumerate(neighbours) for partner in partners
            ),
            paths=tuple(_shortest_paths(neighbours, source) for source in range(num_qubits)),
        )

    def has_edge(self, a: int, b: int) -> bool:
        return (a, b) in self.adjacent

    def shortest_path(self, a: int, b: int) -> Optional[Tuple[int, ...]]:
        """The networkx shortest path from ``a`` to ``b``; ``None`` if there is none."""
        if 0 <= a < self.num_qubits and 0 <= b < self.num_qubits:
            return self.paths[a][b]
        return None
