"""Simulation backends: ideal and noisy statevector, exact density matrix.

All simulators run on the structure-specialised, batch-capable kernels in
:mod:`repro.simulation.kernels` (see ``docs/simulation.md``).
"""

from .density_matrix import DensityMatrixSimulator
from .kernels import (
    FusedGate,
    GateKernel,
    analyze_matrix,
    apply_matrix,
    contract,
    fuse_circuit,
    fuse_operations,
)
from .noise import (
    KrausChannel,
    amplitude_damping_channel,
    bit_flip_channel,
    depolarizing_channel,
    phase_damping_channel,
    phase_flip_channel,
    thermal_relaxation_channel,
    two_qubit_depolarizing_channel,
)
from .noise_model import NoiseModel
from .result import (
    Counts,
    QuasiDistribution,
    hellinger_fidelity_counts,
    normalized_probabilities,
)
from .statevector import (
    StatevectorSimulator,
    apply_unitary,
    circuit_unitary,
    final_statevector,
    probabilities_from_statevector,
    sample_statevector,
)

__all__ = [
    "Counts",
    "QuasiDistribution",
    "hellinger_fidelity_counts",
    "normalized_probabilities",
    "GateKernel",
    "FusedGate",
    "analyze_matrix",
    "apply_matrix",
    "contract",
    "fuse_circuit",
    "fuse_operations",
    "KrausChannel",
    "depolarizing_channel",
    "two_qubit_depolarizing_channel",
    "bit_flip_channel",
    "phase_flip_channel",
    "amplitude_damping_channel",
    "phase_damping_channel",
    "thermal_relaxation_channel",
    "NoiseModel",
    "StatevectorSimulator",
    "DensityMatrixSimulator",
    "apply_unitary",
    "final_statevector",
    "circuit_unitary",
    "probabilities_from_statevector",
    "sample_statevector",
]
