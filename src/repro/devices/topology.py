"""Qubit connectivity topologies.

A topology is an undirected :class:`networkx.Graph` whose nodes are physical
qubit indices.  Helpers here build the generic families (line, ring, grid,
all-to-all, heavy-hex) and hold the concrete coupling maps of the devices in
the paper's Table II.  networkx is imported inside the helpers, on first
use: placement and routing read :class:`~repro.devices.coupling.CouplingMap`
tables instead, so no compile loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Tuple

from ..exceptions import DeviceError
from .coupling import check_edges

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

__all__ = [
    "line_topology",
    "ring_topology",
    "grid_topology",
    "all_to_all_topology",
    "heavy_hex_topology",
    "topology_from_edges",
    "FALCON_16_EDGES",
    "FALCON_27_EDGES",
    "HUMMINGBIRD_7_EDGES",
]

# IBM Falcon r4 "H"-shaped 7-qubit coupling map (Casablanca, Lagos, ...).
HUMMINGBIRD_7_EDGES: Tuple[Tuple[int, int], ...] = (
    (0, 1),
    (1, 2),
    (1, 3),
    (3, 5),
    (4, 5),
    (5, 6),
)

# IBM Falcon 16-qubit heavy-hex coupling map (Guadalupe).
FALCON_16_EDGES: Tuple[Tuple[int, int], ...] = (
    (0, 1),
    (1, 2),
    (1, 4),
    (2, 3),
    (3, 5),
    (4, 7),
    (5, 8),
    (6, 7),
    (7, 10),
    (8, 9),
    (8, 11),
    (10, 12),
    (11, 14),
    (12, 13),
    (12, 15),
    (13, 14),
)

# IBM Falcon 27-qubit heavy-hex coupling map (Montreal, Mumbai, Toronto).
FALCON_27_EDGES: Tuple[Tuple[int, int], ...] = (
    (0, 1),
    (1, 2),
    (1, 4),
    (2, 3),
    (3, 5),
    (4, 7),
    (5, 8),
    (6, 7),
    (7, 10),
    (8, 9),
    (8, 11),
    (10, 12),
    (11, 14),
    (12, 13),
    (12, 15),
    (13, 14),
    (14, 16),
    (15, 18),
    (16, 19),
    (17, 18),
    (18, 21),
    (19, 20),
    (19, 22),
    (21, 23),
    (22, 25),
    (23, 24),
    (24, 25),
    (25, 26),
)


def topology_from_edges(num_qubits: int, edges: Iterable[Tuple[int, int]]) -> "nx.Graph":
    """Build a topology graph from an explicit edge list."""
    import networkx as nx

    edges = list(edges)
    check_edges(num_qubits, edges)
    graph = nx.Graph()
    graph.add_nodes_from(range(num_qubits))
    graph.add_edges_from(edges)
    return graph


def line_topology(num_qubits: int) -> "nx.Graph":
    """Nearest-neighbour chain 0-1-2-...-(n-1)."""
    return topology_from_edges(num_qubits, [(i, i + 1) for i in range(num_qubits - 1)])


def ring_topology(num_qubits: int) -> "nx.Graph":
    """Nearest-neighbour ring."""
    if num_qubits < 3:
        return line_topology(num_qubits)
    edges = [(i, (i + 1) % num_qubits) for i in range(num_qubits)]
    return topology_from_edges(num_qubits, edges)


def grid_topology(rows: int, columns: int) -> "nx.Graph":
    """2D square lattice with row-major qubit numbering."""
    edges: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(columns):
            q = r * columns + c
            if c + 1 < columns:
                edges.append((q, q + 1))
            if r + 1 < rows:
                edges.append((q, q + columns))
    return topology_from_edges(rows * columns, edges)


def all_to_all_topology(num_qubits: int) -> "nx.Graph":
    """Complete graph — trapped-ion style connectivity."""
    import networkx as nx

    graph = nx.complete_graph(num_qubits)
    graph.add_nodes_from(range(num_qubits))
    return graph


def heavy_hex_topology(num_qubits: int) -> "nx.Graph":
    """The IBM heavy-hex coupling map for the supported device sizes (7/16/27)."""
    if num_qubits == 7:
        return topology_from_edges(7, HUMMINGBIRD_7_EDGES)
    if num_qubits == 16:
        return topology_from_edges(16, FALCON_16_EDGES)
    if num_qubits == 27:
        return topology_from_edges(27, FALCON_27_EDGES)
    raise DeviceError(f"no heavy-hex layout stored for {num_qubits} qubits")
