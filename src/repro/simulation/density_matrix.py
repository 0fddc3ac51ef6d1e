"""Exact density-matrix simulation.

The density-matrix simulator applies every noise channel exactly, which makes
it the reference implementation the Monte-Carlo trajectory simulator is
validated against in the test suite.  Memory scales as ``4**n`` so it is only
practical for small circuits (roughly up to 8 qubits).  It evolves the same
step plan the trajectory simulator samples, so the two differ only in how
a channel and readout error act: exactly here (a channel as its whole Kraus
sum), by sampling there (one branch per trajectory).

Evolution is tensorised: the density matrix is kept as a ``(2,)*2n`` tensor
whose first ``n`` axes are the ket side and last ``n`` axes the bra side, and
every operator application is a single structure-specialised kernel call from
:mod:`~repro.simulation.kernels` over the relevant axes — there is no
per-column Python loop anywhere.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..circuits import Circuit
from ..exceptions import SimulationError
from . import kernels
from .kernels import apply_kernel, counts_from_samples, qubit_axis
from .result import Counts
from .statevector import _ChannelStep, _compile_trajectory_plan, _GateStep, _ResetStep

__all__ = ["DensityMatrixSimulator"]


def _ket_axes(qubits: Sequence[int], num_qubits: int) -> List[int]:
    return [qubit_axis(q, num_qubits) for q in qubits]


def _bra_axes(qubits: Sequence[int], num_qubits: int) -> List[int]:
    return [qubit_axis(q, num_qubits, offset=num_qubits) for q in qubits]


def _apply_sandwich(
    tensor: np.ndarray,
    ket_kernel: "kernels.GateKernel",
    bra_kernel: "kernels.GateKernel",
    qubits: Sequence[int],
    num_qubits: int,
    in_place: bool = False,
) -> np.ndarray:
    """Compute ``K rho L^T`` on the tensor form: K over ket axes, L over bra axes.

    With ``L = conj(K)`` this is the Kraus sandwich ``K rho K†``.
    """
    out = apply_kernel(tensor, ket_kernel, _ket_axes(qubits, num_qubits), in_place=in_place)
    return apply_kernel(out, bra_kernel, _bra_axes(qubits, num_qubits), in_place=True)


def _pauli_basis(num_qubits: int) -> List[np.ndarray]:
    from .noise import _PAULIS

    basis = list(_PAULIS)
    for _ in range(num_qubits - 1):
        basis = [np.kron(a, b) for a in basis for b in _PAULIS]
    return basis


def _matches_scaled_pauli(operator: np.ndarray, pauli: np.ndarray, scale: float) -> bool:
    """True when ``operator ≈ c * pauli`` with ``|c| == scale`` (any phase)."""
    row, col = np.unravel_index(int(np.argmax(np.abs(pauli))), pauli.shape)
    coefficient = operator[row, col] / pauli[row, col]
    if not np.isclose(abs(coefficient), scale, atol=1e-12):
        return False
    return bool(np.allclose(operator, coefficient * pauli, atol=1e-12))


def _depolarizing_weights(channel) -> Optional[Tuple[float, float]]:
    """Closed-form weights for uniform depolarizing channels, else ``None``.

    A k-qubit uniform depolarizing channel with error probability ``p`` acts
    exactly as ``rho -> (1 - g) rho + g * (I/2**k ⊗ Tr_k rho)`` with
    ``g = 4**k p / (4**k - 1)`` — two data passes instead of ``4**k`` Kraus
    sandwiches.  The structure is verified operator by operator (a scaled
    identity plus every non-identity Pauli at *uniform* weight, up to phase);
    anything else — including biased Pauli channels that merely carry the
    ``depolarizing`` name — falls back to the generic Kraus path.
    """
    cached = getattr(channel, "_depolarizing_weights", False)
    if cached is not False:
        return cached
    result = _verify_uniform_depolarizing(channel)
    object.__setattr__(channel, "_depolarizing_weights", result)
    return result


def _verify_uniform_depolarizing(channel) -> Optional[Tuple[float, float]]:
    operators = channel.kraus_operators
    dim = operators[0].shape[0]
    num_qubits = dim.bit_length() - 1
    if channel.name not in ("depolarizing", "depolarizing2"):
        return None
    if num_qubits not in (1, 2) or len(operators) != dim * dim:
        return None
    identity_scale = operators[0][0, 0].real
    if not np.allclose(operators[0], identity_scale * np.eye(dim), atol=1e-12):
        return None
    probability = 1.0 - identity_scale * identity_scale
    uniform_scale = np.sqrt(max(probability, 0.0) / (dim * dim - 1)) if probability > 0 else 0.0
    basis = _pauli_basis(num_qubits)[1:]  # non-identity Paulis
    unmatched = list(range(len(basis)))
    for operator in operators[1:]:
        for position, basis_index in enumerate(unmatched):
            if _matches_scaled_pauli(operator, basis[basis_index], uniform_scale):
                unmatched.pop(position)
                break
        else:
            return None
    gamma = dim * dim * probability / (dim * dim - 1)
    return (1.0 - gamma, gamma)


def _apply_depolarizing(
    tensor: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
    keep: float,
    gamma: float,
) -> np.ndarray:
    """Apply ``rho -> keep * rho + gamma * (I/2**k ⊗ Tr_k rho)`` on the tensor."""
    k = len(qubits)
    dim = 1 << k
    axes = _ket_axes(qubits, num_qubits) + _bra_axes(qubits, num_qubits)
    view = np.moveaxis(tensor, axes, range(2 * k))
    trace = None
    for basis in range(dim):
        index = tuple((basis >> (k - 1 - i)) & 1 for i in range(k))
        block = view[index + index]
        trace = block.copy() if trace is None else trace + block
    out = tensor * keep
    out_view = np.moveaxis(out, axes, range(2 * k))
    trace *= gamma / dim
    for basis in range(dim):
        index = tuple((basis >> (k - 1 - i)) & 1 for i in range(k))
        out_view[index + index] += trace
    return out


class DensityMatrixSimulator:
    """Exact mixed-state simulator supporting noise, measurement and reset."""

    def __init__(self, noise_model=None, seed: int | None = None, max_qubits: int = 10) -> None:
        self.noise_model = noise_model
        self._rng = np.random.default_rng(seed)
        self.max_qubits = max_qubits

    # ------------------------------------------------------------------
    def run(self, circuit: Circuit, shots: int = 1024) -> Counts:
        """Execute the circuit exactly and sample ``shots`` outcomes."""
        if shots <= 0:
            raise SimulationError("shots must be positive")
        probabilities, measured = self._output_distribution(circuit)
        samples = self._rng.choice(len(probabilities), size=shots, p=probabilities)
        qubits = [qubit for qubit, _clbit in measured]
        clbits = [clbit for _qubit, clbit in measured]
        counts = counts_from_samples(samples, qubits, clbits, circuit.num_clbits)
        return Counts(counts, num_bits=circuit.num_clbits)

    def final_density_matrix(self, circuit: Circuit) -> np.ndarray:
        """Density matrix right before the terminal measurements are sampled.

        Every terminally measured qubit is dephased (a non-selective
        measurement).  Resets are supported; a mid-circuit measurement
        raises :class:`SimulationError`.
        """
        rho, _measured = self._evolve(circuit)
        return rho

    # ------------------------------------------------------------------
    def _output_distribution(
        self, circuit: Circuit
    ) -> Tuple[np.ndarray, Tuple[Tuple[int, int], ...]]:
        """Outcome probabilities plus the measured ``(qubit, clbit)`` pairs."""
        rho, measured = self._evolve(circuit)
        probabilities = np.clip(np.real(np.diag(rho)), 0.0, None)
        total = probabilities.sum()
        if total <= 0:
            raise SimulationError("density matrix has zero trace")
        probabilities = probabilities / total

        if self.noise_model is not None:
            probabilities = self._apply_readout_confusion(
                probabilities, measured, circuit.num_qubits
            )
        return probabilities, measured

    def _evolve(self, circuit: Circuit) -> Tuple[np.ndarray, Tuple[Tuple[int, int], ...]]:
        """Evolve the circuit's trajectory plan exactly: every channel as its Kraus sum.

        The plan is the one the trajectory simulator samples, so the two
        simulators apply the same fused gates and the same channels in the
        same order.  Its terminal measurements dephase their qubits at the
        end; a mid-circuit measurement has no exact single-branch evolution
        here and raises.
        """
        num_qubits = circuit.num_qubits
        if num_qubits > self.max_qubits:
            raise SimulationError(
                f"DensityMatrixSimulator limited to {self.max_qubits} qubits "
                f"(requested {num_qubits})"
            )
        plan = _compile_trajectory_plan(circuit, self.noise_model)
        dim = 2**num_qubits
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        tensor = rho.reshape((2,) * (2 * num_qubits))
        for step in plan.prefix + plan.suffix:
            if isinstance(step, _GateStep):
                bra_kernel = kernels.analyze_matrix(step.kernel.matrix.conj())
                tensor = _apply_sandwich(
                    tensor, step.kernel, bra_kernel, step.qubits, num_qubits, in_place=True
                )
            elif isinstance(step, _ChannelStep):
                tensor = self._apply_channel(tensor, step.channel, step.qubits, num_qubits)
            elif isinstance(step, _ResetStep):
                tensor = self._reset(tensor, step.qubit, num_qubits)
            else:
                raise SimulationError(
                    "DensityMatrixSimulator supports measurement only as the last "
                    "operation on its qubit"
                )
        for qubit, _clbit in plan.terminal:
            tensor = self._dephase(tensor, qubit, num_qubits)
        return np.ascontiguousarray(tensor).reshape(dim, dim), plan.terminal

    def _apply_channel(
        self, tensor: np.ndarray, channel, qubits: Sequence[int], num_qubits: int
    ) -> np.ndarray:
        """Exact Kraus-sum application on the tensor form."""
        weights = _depolarizing_weights(channel)
        if weights is not None:
            return _apply_depolarizing(tensor, qubits, num_qubits, *weights)
        result: Optional[np.ndarray] = None
        for ket_kernel, bra_kernel in channel.kraus_kernels():
            term = _apply_sandwich(tensor, ket_kernel, bra_kernel, qubits, num_qubits)
            if result is None:
                result = np.ascontiguousarray(term)
            else:
                result += term
        assert result is not None
        return result

    def _dephase(self, tensor: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
        """Zero every coherence between the |0> and |1> branches of ``qubit``."""
        ket = qubit_axis(qubit, num_qubits)
        bra = qubit_axis(qubit, num_qubits, offset=num_qubits)
        view = np.moveaxis(tensor, (ket, bra), (0, 1))
        view[0, 1] = 0.0
        view[1, 0] = 0.0
        return tensor

    def _reset(self, tensor: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
        """Move all population of ``qubit`` to |0> and drop its coherences."""
        ket = qubit_axis(qubit, num_qubits)
        bra = qubit_axis(qubit, num_qubits, offset=num_qubits)
        view = np.moveaxis(tensor, (ket, bra), (0, 1))
        view[0, 0] += view[1, 1]
        view[0, 1] = 0.0
        view[1, 0] = 0.0
        view[1, 1] = 0.0
        return tensor

    def _apply_readout_confusion(
        self, probabilities: np.ndarray, measured: Sequence[Tuple[int, int]], num_qubits: int
    ) -> np.ndarray:
        """Mix the outcome distribution through per-qubit readout error."""
        result = probabilities.copy()
        indices = np.arange(len(result))
        for qubit, _clbit in measured:
            error = self.noise_model.readout_error_probability(qubit)
            if error <= 0:
                continue
            flipped = result[indices ^ (1 << qubit)]
            result = (1 - error) * result + error * flipped
        return result
