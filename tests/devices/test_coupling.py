"""Coupling-map parity: the cached tables answer exactly as networkx does.

Placement breaks ties by neighbour order and routing follows the shortest
path networkx's breadth-first search returns, so the tables must reproduce
both, not just some valid order or some shortest path.  networkx is the
oracle here; the library itself never loads it to compile.
"""

import random

import networkx as nx
import pytest

from repro.devices import (
    Calibration,
    CouplingMap,
    Device,
    all_devices,
    all_to_all_topology,
    grid_topology,
    heavy_hex_topology,
    line_topology,
    ring_topology,
    topology_from_edges,
)
from repro.devices.coupling import neighbour_table
from repro.exceptions import DeviceError

CALIBRATION = Calibration(100.0, 100.0, 0.035, 0.4, 5.0, 0.001, 0.01, 0.02)


def _device(name, num_qubits, edges):
    return Device(name, num_qubits, edges, ("rz", "sx", "x", "cx"), CALIBRATION)


def _helper_devices():
    """A device per topology helper, coupled by the helper's own edge order."""
    helpers = {
        "line-6": line_topology(6),
        "ring-7": ring_topology(7),
        "ring-2": ring_topology(2),
        "grid-3x4": grid_topology(3, 4),
        "grid-1x5": grid_topology(1, 5),
        "heavy-hex-7": heavy_hex_topology(7),
        "heavy-hex-16": heavy_hex_topology(16),
        "heavy-hex-27": heavy_hex_topology(27),
        "all-to-all-5-edges": all_to_all_topology(5),
    }
    devices = [
        _device(name, graph.number_of_nodes(), tuple(graph.edges()))
        for name, graph in helpers.items()
    ]
    devices.append(_device("all-to-all-6", 6, None))
    devices.append(_device("single", 1, None))
    return devices


DEVICES = all_devices() + _helper_devices()


def assert_matches_networkx(coupling, graph):
    nodes = range(graph.number_of_nodes())
    assert coupling.num_qubits == graph.number_of_nodes()
    assert coupling.neighbours == tuple(tuple(graph.adj[q]) for q in nodes)
    assert coupling.degrees == tuple(graph.degree(q) for q in nodes)
    for a in nodes:
        for b in nodes:
            assert coupling.has_edge(a, b) == graph.has_edge(a, b)
    paths = dict(nx.all_pairs_shortest_path(graph))
    for a in nodes:
        for b in nodes:
            expected = paths[a].get(b)
            assert coupling.shortest_path(a, b) == (None if expected is None else tuple(expected))


@pytest.mark.parametrize("device", DEVICES, ids=lambda device: device.name)
def test_device_coupling_matches_networkx(device):
    assert_matches_networkx(device.coupling, device.topology())


@pytest.mark.parametrize("device", DEVICES, ids=lambda device: device.name)
def test_topology_is_still_the_networkx_graph_of_the_edges(device):
    graph = device.topology()
    if device.edges is None:
        expected = nx.complete_graph(device.num_qubits)
    else:
        expected = nx.Graph()
        expected.add_nodes_from(range(device.num_qubits))
        expected.add_edges_from(device.edges)
    assert nx.utils.graphs_equal(graph, expected)
    assert [list(graph.adj[q]) for q in graph] == [list(expected.adj[q]) for q in expected]


@pytest.mark.parametrize("seed", range(40))
def test_random_edge_lists_match_networkx(seed):
    """Shuffled, repeated and reversed edges, and disconnected parts."""
    rng = random.Random(seed)
    num_qubits = rng.randint(2, 14)
    pairs = [(a, b) for a in range(num_qubits) for b in range(num_qubits) if a != b]
    edges = [rng.choice(pairs) for _ in range(rng.randint(0, 2 * num_qubits))]
    assert_matches_networkx(
        CouplingMap.from_edges(num_qubits, edges), topology_from_edges(num_qubits, edges)
    )


def test_neighbour_table_follows_first_appearance():
    assert neighbour_table(4, [(2, 3), (0, 2), (3, 2), (1, 2)]) == ((2,), (2,), (3, 0, 1), (2,))


def test_coupling_is_built_once_per_device():
    device = all_devices()[1]
    assert device.coupling is device.coupling


def test_unusable_queries_have_no_path():
    coupling = CouplingMap.from_edges(4, [(0, 1), (2, 3)])
    assert coupling.shortest_path(0, 3) is None
    assert coupling.shortest_path(0, 7) is None
    assert coupling.shortest_path(-1, 0) is None
    assert not coupling.has_edge(0, 7)


@pytest.mark.parametrize("edges", [[(0, 5)], [(1, 1)], [(-1, 0)]])
def test_invalid_edges_rejected(edges):
    with pytest.raises(DeviceError):
        CouplingMap.from_edges(2, edges)
    with pytest.raises(DeviceError):
        _device("bad", 2, tuple(edges)).coupling
