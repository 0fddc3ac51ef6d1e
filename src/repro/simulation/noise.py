"""Quantum noise channels in Kraus form.

Each channel is a completely positive trace preserving map described by a
list of Kraus operators.  Channels are used exactly by the density-matrix
simulator and stochastically (one Kraus operator sampled per application) by
the statevector trajectory simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from ..exceptions import NoiseModelError

__all__ = [
    "KrausChannel",
    "depolarizing_channel",
    "bit_flip_channel",
    "phase_flip_channel",
    "amplitude_damping_channel",
    "phase_damping_channel",
    "thermal_relaxation_channel",
    "two_qubit_depolarizing_channel",
]

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = (_I, _X, _Y, _Z)


@dataclass(frozen=True)
class KrausChannel:
    """A CPTP map given by Kraus operators acting on ``num_qubits`` qubits."""

    kraus_operators: Tuple[np.ndarray, ...]
    name: str = "kraus"

    def __post_init__(self) -> None:
        operators = tuple(np.asarray(k, dtype=complex) for k in self.kraus_operators)
        if not operators:
            raise NoiseModelError("a channel needs at least one Kraus operator")
        dim = operators[0].shape[0]
        for operator in operators:
            if operator.shape != (dim, dim):
                raise NoiseModelError("all Kraus operators must share the same shape")
        object.__setattr__(self, "kraus_operators", operators)

    @property
    def dim(self) -> int:
        return self.kraus_operators[0].shape[0]

    @property
    def num_qubits(self) -> int:
        return int(round(math.log2(self.dim)))

    def is_trace_preserving(self, tolerance: float = 1e-9) -> bool:
        total = sum(k.conj().T @ k for k in self.kraus_operators)
        return bool(np.allclose(total, np.eye(self.dim), atol=tolerance))

    def compose(self, other: "KrausChannel") -> "KrausChannel":
        """Channel equal to applying ``self`` then ``other``."""
        if self.dim != other.dim:
            raise NoiseModelError("cannot compose channels of different dimension")
        operators = tuple(
            b @ a for a in self.kraus_operators for b in other.kraus_operators
        )
        return KrausChannel(operators, name=f"{self.name}+{other.name}")

    def kraus_kernels(self) -> Tuple[Tuple[object, object], ...]:
        """Per-operator ``(ket_kernel, bra_kernel)`` pairs, analysed once.

        The ket kernel applies ``K`` and the bra kernel ``conj(K)`` (which is
        ``rho -> rho K†`` when applied to the bra axes of a density tensor).
        Channel factories are cached, so this analysis is paid once per
        channel per process rather than once per instruction application.
        """
        cached = getattr(self, "_kraus_kernels", None)
        if cached is None:
            from .kernels import analyze_matrix

            cached = tuple(
                (analyze_matrix(operator), analyze_matrix(operator.conj()))
                for operator in self.kraus_operators
            )
            object.__setattr__(self, "_kraus_kernels", cached)
        return cached

    def unitary_mixture(
        self, tolerance: float = 1e-12
    ) -> Optional[Tuple[np.ndarray, Tuple[np.ndarray, ...]]]:
        """Decompose the channel as a probabilistic mixture of unitaries.

        Returns ``(probabilities, unitaries)`` when every Kraus operator is a
        scaled unitary (``K_k = sqrt(p_k) U_k``), or ``None`` otherwise.  For
        such channels — depolarizing, bit/phase flip and every other Pauli
        channel — the trajectory simulator can sample the branch index from a
        *state-independent* distribution, which is what makes batched Kraus
        sampling a single vectorised ``choice`` instead of per-trajectory
        norm evaluations.  The result is cached on first use.
        """
        cached = getattr(self, "_unitary_mixture", False)
        if cached is not False:
            return cached
        probabilities: List[float] = []
        unitaries: List[np.ndarray] = []
        identity = np.eye(self.dim)
        for operator in self.kraus_operators:
            gram = operator.conj().T @ operator
            weight = float(np.trace(gram).real) / self.dim
            if weight <= tolerance:
                continue  # zero operator: a branch that is never taken
            if not np.allclose(gram, weight * identity, atol=tolerance * self.dim):
                object.__setattr__(self, "_unitary_mixture", None)
                return None
            probabilities.append(weight)
            unitaries.append(operator / math.sqrt(weight))
        total = sum(probabilities)
        if not probabilities or abs(total - 1.0) > 1e-9:
            object.__setattr__(self, "_unitary_mixture", None)
            return None
        mixture = (np.array(probabilities) / total, tuple(unitaries))
        object.__setattr__(self, "_unitary_mixture", mixture)
        return mixture


@lru_cache(maxsize=1024)
def depolarizing_channel(probability: float) -> KrausChannel:
    """Single-qubit depolarizing channel with error probability ``probability``.

    With probability ``p`` one of X, Y, Z is applied uniformly at random.
    """
    _check_probability(probability)
    p = probability
    operators = (
        math.sqrt(1 - p) * _I,
        math.sqrt(p / 3) * _X,
        math.sqrt(p / 3) * _Y,
        math.sqrt(p / 3) * _Z,
    )
    return KrausChannel(tuple(operators), name="depolarizing")


@lru_cache(maxsize=1024)
def two_qubit_depolarizing_channel(probability: float) -> KrausChannel:
    """Two-qubit depolarizing channel: a uniform non-identity Pauli pair with prob ``p``."""
    _check_probability(probability)
    p = probability
    operators: List[np.ndarray] = []
    for i, a in enumerate(_PAULIS):
        for j, b in enumerate(_PAULIS):
            pauli = np.kron(a, b)
            if i == 0 and j == 0:
                operators.append(math.sqrt(1 - p) * pauli)
            else:
                operators.append(math.sqrt(p / 15) * pauli)
    return KrausChannel(tuple(operators), name="depolarizing2")


@lru_cache(maxsize=1024)
def bit_flip_channel(probability: float) -> KrausChannel:
    _check_probability(probability)
    return KrausChannel(
        (math.sqrt(1 - probability) * _I, math.sqrt(probability) * _X), name="bit_flip"
    )


@lru_cache(maxsize=1024)
def phase_flip_channel(probability: float) -> KrausChannel:
    _check_probability(probability)
    return KrausChannel(
        (math.sqrt(1 - probability) * _I, math.sqrt(probability) * _Z), name="phase_flip"
    )


@lru_cache(maxsize=1024)
def amplitude_damping_channel(gamma: float) -> KrausChannel:
    """Energy relaxation (|1> decays to |0>) with probability ``gamma``."""
    _check_probability(gamma)
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausChannel((k0, k1), name="amplitude_damping")


@lru_cache(maxsize=1024)
def phase_damping_channel(lam: float) -> KrausChannel:
    """Pure dephasing with probability ``lam`` of losing phase information."""
    _check_probability(lam)
    k0 = np.array([[1, 0], [0, math.sqrt(1 - lam)]], dtype=complex)
    k1 = np.array([[0, 0], [0, math.sqrt(lam)]], dtype=complex)
    return KrausChannel((k0, k1), name="phase_damping")


@lru_cache(maxsize=1024)
def thermal_relaxation_channel(t1: float, t2: float, duration: float) -> KrausChannel:
    """Combined amplitude damping and dephasing over ``duration``.

    Args:
        t1: Energy relaxation time constant (same units as duration).
        t2: Dephasing time constant.  Must satisfy ``t2 <= 2 * t1``.
        duration: The time the qubit spends exposed to the environment.

    Returns:
        A single-qubit channel equal to amplitude damping with
        ``gamma = 1 - exp(-duration / t1)`` composed with pure dephasing so
        the total coherence decay matches ``exp(-duration / t2)``.
    """
    if t1 <= 0 or t2 <= 0:
        raise NoiseModelError("T1 and T2 must be positive")
    if duration < 0:
        raise NoiseModelError("duration must be non-negative")
    if t2 > 2 * t1 + 1e-9:
        raise NoiseModelError("T2 cannot exceed 2*T1")
    gamma = 1.0 - math.exp(-duration / t1)
    # Residual pure dephasing after accounting for the T1 contribution.
    # Coherence decays as exp(-t/t2) overall and as exp(-t/(2 t1)) from T1 alone.
    exponent = duration / t2 - duration / (2.0 * t1)
    dephasing = 1.0 - math.exp(-2.0 * max(exponent, 0.0))
    dephasing = min(max(dephasing, 0.0), 1.0)
    channel = amplitude_damping_channel(min(max(gamma, 0.0), 1.0))
    if dephasing > 0:
        channel = channel.compose(phase_damping_channel(dephasing))
    return KrausChannel(channel.kraus_operators, name="thermal_relaxation")


def _check_probability(value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise NoiseModelError(f"probability {value} outside [0, 1]")
