"""Device models: topology, native gate set and calibration data.

A :class:`Device` captures everything the transpiler and the noise-model
builder need about a QPU: its coupling map, native basis gates and the
calibration quantities listed in Table II of the paper (coherence times,
gate durations and error rates).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from ..exceptions import DeviceError
from ..simulation.noise_model import NoiseModel
from .coupling import CouplingMap
from .topology import all_to_all_topology, topology_from_edges

if TYPE_CHECKING:  # pragma: no cover - networkx loads only inside topology()
    import networkx as nx

__all__ = ["Calibration", "Device"]


@dataclass(frozen=True)
class Calibration:
    """Calibration constants of a QPU (units: microseconds and probabilities).

    Attributes mirror the columns of Table II:
        t1, t2: Median coherence times.
        gate_time_1q, gate_time_2q, readout_time: Operation durations.
        error_1q, error_2q, readout_error: Operation error probabilities.
    """

    t1: float
    t2: float
    gate_time_1q: float
    gate_time_2q: float
    readout_time: float
    error_1q: float
    error_2q: float
    readout_error: float

    def __post_init__(self) -> None:
        if self.t1 <= 0 or self.t2 <= 0:
            raise DeviceError("coherence times must be positive")
        for name in ("error_1q", "error_2q", "readout_error"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise DeviceError(f"{name} must lie in [0, 1]")


@dataclass
class Device:
    """A quantum processing unit the benchmarks can be compiled to and run on.

    Attributes:
        name: Human-readable device name, e.g. ``"IBM-Montreal-27Q"``.
        num_qubits: Number of physical qubits.
        edges: Coupling map as an edge list; ``None`` means all-to-all.
        basis_gates: Native gate names the transpiler must target.
        calibration: Device-wide calibration constants.
        family: Architecture family (``"superconducting"`` or ``"trapped_ion"``).
        calibration_estimated: True when the constants are estimates rather
            than values quoted directly in the paper's Table II.
    """

    name: str
    num_qubits: int
    edges: Optional[Tuple[Tuple[int, int], ...]]
    basis_gates: Tuple[str, ...]
    calibration: Calibration
    family: str = "superconducting"
    calibration_estimated: bool = False

    def __post_init__(self) -> None:
        if self.num_qubits <= 0:
            raise DeviceError("a device needs at least one qubit")
        self.basis_gates = tuple(self.basis_gates)
        if self.edges is not None:
            self.edges = tuple((int(a), int(b)) for a, b in self.edges)

    # ------------------------------------------------------------------
    @property
    def all_to_all(self) -> bool:
        return self.edges is None

    @cached_property
    def coupling(self) -> CouplingMap:
        """The coupling map as lookup tables, built on first use and kept.

        Placement and routing read these tables; a device's ``num_qubits``
        and ``edges`` are not reassigned after construction.  All-to-all
        devices list their pairs in ``nx.complete_graph`` order.
        """
        edges = combinations(range(self.num_qubits), 2) if self.edges is None else self.edges
        return CouplingMap.from_edges(self.num_qubits, edges)

    def topology(self) -> "nx.Graph":
        """Coupling graph of the device, as a new networkx graph per call."""
        if self.edges is None:
            return all_to_all_topology(self.num_qubits)
        return topology_from_edges(self.num_qubits, self.edges)

    def are_connected(self, a: int, b: int) -> bool:
        if self.all_to_all:
            return a != b
        return self.coupling.has_edge(a, b)

    def average_degree(self) -> float:
        return sum(self.coupling.degrees) / self.num_qubits

    # ------------------------------------------------------------------
    def noise_model(self, qubits: Sequence[int] | None = None) -> NoiseModel:
        """Noise model for the whole device or for a compacted qubit subset.

        Args:
            qubits: Optional list of physical qubits; the returned model is
                indexed 0..len(qubits)-1 in that order, matching a circuit
                that has been compacted onto those qubits.
        """
        size = self.num_qubits if qubits is None else len(qubits)
        if size == 0:
            raise DeviceError("cannot build a noise model for zero qubits")
        c = self.calibration
        return NoiseModel(
            size,
            t1=c.t1,
            t2=min(c.t2, 2 * c.t1),
            gate_time_1q=c.gate_time_1q,
            gate_time_2q=c.gate_time_2q,
            readout_time=c.readout_time,
            error_1q=c.error_1q,
            error_2q=c.error_2q,
            readout_error=c.readout_error,
            reset_error=c.readout_error,
            idle_during_readout=True,
        )

    # ------------------------------------------------------------------
    def table_row(self) -> Dict[str, object]:
        """The device's row of Table II, as a dictionary."""
        c = self.calibration
        return {
            "machine": self.name,
            "qubits": self.num_qubits,
            "t1_us": c.t1,
            "t2_us": c.t2,
            "gate_time_1q_us": c.gate_time_1q,
            "gate_time_2q_us": c.gate_time_2q,
            "readout_time_us": c.readout_time,
            "error_1q_pct": 100 * c.error_1q,
            "error_2q_pct": 100 * c.error_2q,
            "readout_error_pct": 100 * c.readout_error,
            "topology": "all-to-all" if self.all_to_all else "sparse",
            "family": self.family,
            "estimated": self.calibration_estimated,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Device({self.name!r}, qubits={self.num_qubits}, family={self.family!r})"
