"""The VQE benchmark (Section IV-E).

VQE finds the ground-state energy of the 1D transverse-field Ising model
with a hardware-efficient ansatz (layers of Ry/Rz rotations separated by a
CNOT ladder).  As in the paper, the variational optimisation runs classically
to convergence; the quantum processor is scored on a single energy
measurement at the optimised parameters using the same score function as the
QAOA benchmarks:

    score = 1 - | E_ideal - E_measured | / | 2 E_ideal |.

The energy requires two measurement settings: the computational basis for
the ``Z Z`` coupling terms and the X basis for the transverse-field terms, so
:meth:`VQEBenchmark.circuits` returns two circuits.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..circuits import Circuit
from ..exceptions import BenchmarkError
from ..hamiltonians import TransverseFieldIsing
from ..optimize import minimize_nelder_mead
from ..paulis import PauliSum
from ..simulation import Counts, final_statevector
from ..suite.registry import register_family
from ..telemetry import get_tracer
from .base import Benchmark
from .qaoa import _energy_score

__all__ = ["VQEBenchmark"]


@register_family("vqe")
class VQEBenchmark(Benchmark):
    """Single-iteration VQE proxy on the 1D TFIM.

    Args:
        num_qubits: Chain length (paper: 4 and 7).
        num_layers: Number of entangling ansatz layers (paper: 1 and 2).
        coupling: ZZ coupling strength of the TFIM.
        field: Transverse field strength of the TFIM.
        seed: Seed of the initial variational parameters.
    """

    name = "vqe"

    def __init__(
        self,
        num_qubits: int,
        num_layers: int = 1,
        coupling: float = 1.0,
        field: float = 1.0,
        seed: int = 0,
    ) -> None:
        if num_qubits < 2:
            raise BenchmarkError("VQE needs at least two qubits")
        if num_qubits > 12:
            raise BenchmarkError("classical optimisation uses dense statevectors (<= 12 qubits)")
        if num_layers < 1:
            raise BenchmarkError("the ansatz needs at least one layer")
        self._num_qubits = int(num_qubits)
        self._num_layers = int(num_layers)
        self._seed = int(seed)
        self.model = TransverseFieldIsing(num_qubits, coupling=coupling, field=field)
        self._parameters: Optional[np.ndarray] = None
        self._ideal_energy: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        """Two rotation angles per qubit per (layer + final) rotation block."""
        return 2 * self._num_qubits * (self._num_layers + 1)

    def ansatz(self, parameters: Sequence[float], measure_basis: str | None = None) -> Circuit:
        """The hardware-efficient ansatz, optionally with basis-change + measurement.

        Args:
            parameters: Flat list of rotation angles (length :attr:`num_parameters`).
            measure_basis: ``None`` for no measurement, ``"z"`` for a
                computational-basis measurement, ``"x"`` for an X-basis
                measurement.
        """
        parameters = list(parameters)
        if len(parameters) != self.num_parameters:
            raise BenchmarkError(
                f"expected {self.num_parameters} parameters, got {len(parameters)}"
            )
        circuit = Circuit(
            self._num_qubits,
            self._num_qubits,
            name=f"vqe_{self._num_qubits}q_{self._num_layers}l",
        )
        index = 0
        for _layer in range(self._num_layers):
            for q in range(self._num_qubits):
                circuit.ry(parameters[index], q)
                circuit.rz(parameters[index + 1], q)
                index += 2
            for q in range(self._num_qubits - 1):
                circuit.cx(q, q + 1)
        for q in range(self._num_qubits):
            circuit.ry(parameters[index], q)
            circuit.rz(parameters[index + 1], q)
            index += 2
        if measure_basis is None:
            return circuit
        if measure_basis == "x":
            for q in range(self._num_qubits):
                circuit.h(q)
        elif measure_basis != "z":
            raise BenchmarkError(f"unknown measurement basis {measure_basis!r}")
        circuit.measure_all()
        return circuit

    # ------------------------------------------------------------------
    @cached_property
    def _hamiltonian(self) -> PauliSum:
        return self.model.hamiltonian()

    def _energy_from_statevector(self, parameters: Sequence[float]) -> float:
        state = final_statevector(self.ansatz(parameters))
        return self._hamiltonian.expectation_from_statevector(state)

    def optimal_parameters(self) -> np.ndarray:
        """Variational parameters optimised by classical simulation."""
        if self._parameters is None:
            rng = np.random.default_rng(self._seed)
            best_value = float("inf")
            best_parameters = np.zeros(self.num_parameters)
            restarts, evaluations = 2, 0
            with get_tracer().span(
                "benchmark.optimize", benchmark=str(self), restarts=restarts
            ) as span:
                for _restart in range(restarts):
                    start = rng.uniform(-0.5, 0.5, size=self.num_parameters)
                    result = minimize_nelder_mead(
                        self._energy_from_statevector,
                        start,
                        max_iterations=250,
                        tolerance=1e-6,
                    )
                    evaluations += result.evaluations
                    if result.value < best_value:
                        best_value = result.value
                        best_parameters = result.parameters
                span.set_attribute("evaluations", evaluations)
            self._parameters = np.asarray(best_parameters, dtype=float)
            self._ideal_energy = float(best_value)
        return self._parameters

    def ideal_energy(self) -> float:
        """Ansatz energy at the optimised parameters (classical reference)."""
        if self._ideal_energy is None:
            self.optimal_parameters()
        assert self._ideal_energy is not None
        return self._ideal_energy

    def exact_ground_energy(self) -> float:
        """The true TFIM ground-state energy, for context and testing."""
        return self.model.exact_ground_energy()

    # ------------------------------------------------------------------
    def _build_circuits(self) -> List[Circuit]:
        parameters = self.optimal_parameters()
        return [
            self.ansatz(parameters, measure_basis="z"),
            self.ansatz(parameters, measure_basis="x"),
        ]

    def _build_representative(self) -> Circuit:
        """Representative circuit for feature analysis.

        Feature values do not depend on the rotation angles, so fixed
        parameters are used to avoid the classical optimisation step.
        """
        return self.ansatz([0.1] * self.num_parameters, measure_basis="z")

    def measured_energy(self, z_counts: Counts, x_counts: Counts) -> float:
        """Combine the two measurement settings into an energy estimate."""
        energy = 0.0
        # ZZ coupling terms from the computational-basis counts.
        for a, b in self.model.bonds():
            energy += -self.model.coupling * _pair_parity_expectation(z_counts, a, b)
        # Transverse-field terms from the X-basis counts.
        for q in range(self._num_qubits):
            energy += -self.model.field * _single_bit_expectation(x_counts, q)
        return energy

    def score(self, counts_list: Sequence[Counts]) -> float:
        if len(counts_list) != 2:
            raise BenchmarkError("VQE expects counts for two circuits (Z and X bases)")
        measured = self.measured_energy(counts_list[0], counts_list[1])
        return _energy_score(self.ideal_energy(), measured)

    def __str__(self) -> str:
        return f"vqe[{self._num_qubits}q,{self._num_layers}l]"


def _single_bit_expectation(counts: Counts, bit: int) -> float:
    total = sum(counts.values())
    if total == 0:
        raise BenchmarkError("empty counts")
    value = 0.0
    for bitstring, shots in counts.items():
        value += (1.0 if bitstring[bit] == "0" else -1.0) * shots
    return value / total


def _pair_parity_expectation(counts: Counts, a: int, b: int) -> float:
    total = sum(counts.values())
    if total == 0:
        raise BenchmarkError("empty counts")
    value = 0.0
    for bitstring, shots in counts.items():
        parity = (int(bitstring[a]) + int(bitstring[b])) % 2
        value += (1.0 if parity == 0 else -1.0) * shots
    return value / total
