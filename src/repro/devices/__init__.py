"""Device models: topologies, calibration and the Table II device library."""

from .coupling import CouplingMap
from .device import Calibration, Device
from .library import DEVICE_LIBRARY, all_devices, device_names, get_device
from .topology import (
    FALCON_16_EDGES,
    FALCON_27_EDGES,
    HUMMINGBIRD_7_EDGES,
    all_to_all_topology,
    grid_topology,
    heavy_hex_topology,
    line_topology,
    ring_topology,
    topology_from_edges,
)

__all__ = [
    "Calibration",
    "Device",
    "CouplingMap",
    "DEVICE_LIBRARY",
    "get_device",
    "all_devices",
    "device_names",
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
