"""Device noise models built from calibration data.

A :class:`NoiseModel` answers, for every instruction in a circuit, which
noise channels to apply and with what strength.  Models are built from the
same calibration quantities Table II of the paper reports for each QPU:
T1/T2 coherence times, 1-qubit / 2-qubit / measurement gate durations, and
1-qubit / 2-qubit / readout error rates.

The model applied after every gate is:

* a (two-qubit) depolarizing channel with the reported gate error, and
* thermal relaxation over the gate duration on every participating qubit.

Mid-circuit measurement and reset additionally expose *all other* qubits to
thermal relaxation for the full measurement duration, which reproduces the
paper's observation that the error-correction benchmarks (the only ones with
mid-circuit measure/reset) are disproportionately hurt on superconducting
devices whose readout time is long relative to T1/T2.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..exceptions import NoiseModelError
from .noise import (
    KrausChannel,
    bit_flip_channel,
    depolarizing_channel,
    thermal_relaxation_channel,
    two_qubit_depolarizing_channel,
)

__all__ = ["NoiseModel"]

ChannelList = List[Tuple[KrausChannel, Tuple[int, ...]]]


def _per_qubit(value, num_qubits: int, name: str) -> List[float]:
    """Broadcast a scalar or validate a per-qubit sequence."""
    if np.isscalar(value):
        return [float(value)] * num_qubits
    values = [float(v) for v in value]
    if len(values) != num_qubits:
        raise NoiseModelError(f"{name} must have one entry per qubit")
    return values


class NoiseModel:
    """Calibration-derived noise model for a compact qubit register.

    Args:
        num_qubits: Number of qubits in the register the model describes.
        t1: Relaxation time per qubit (scalar or sequence), in microseconds.
        t2: Dephasing time per qubit, in microseconds.
        gate_time_1q: Duration of a single-qubit gate, in microseconds.
        gate_time_2q: Duration of a two-qubit gate, in microseconds.
        readout_time: Duration of measurement (and reset), in microseconds.
        error_1q: Single-qubit gate error probability (scalar or per qubit).
        error_2q: Two-qubit gate error probability (scalar or per-pair mapping).
        readout_error: Probability of misreading a measurement outcome.
        reset_error: Probability that a reset leaves the qubit in |1>.
        idle_during_readout: When True, all other qubits experience thermal
            relaxation for ``readout_time`` whenever a mid-circuit measurement
            or reset occurs.
    """

    def __init__(
        self,
        num_qubits: int,
        t1: float | Sequence[float] = 100.0,
        t2: float | Sequence[float] = 100.0,
        gate_time_1q: float = 0.035,
        gate_time_2q: float = 0.4,
        readout_time: float = 5.0,
        error_1q: float | Sequence[float] = 0.0,
        error_2q: float | Mapping[Tuple[int, int], float] = 0.0,
        readout_error: float | Sequence[float] = 0.0,
        reset_error: float = 0.0,
        idle_during_readout: bool = True,
    ) -> None:
        if num_qubits <= 0:
            raise NoiseModelError("num_qubits must be positive")
        self.num_qubits = int(num_qubits)
        self.t1 = _per_qubit(t1, num_qubits, "t1")
        self.t2 = [min(t, 2 * hi) for t, hi in zip(_per_qubit(t2, num_qubits, "t2"), self.t1)]
        self.gate_time_1q = float(gate_time_1q)
        self.gate_time_2q = float(gate_time_2q)
        self.readout_time = float(readout_time)
        self.error_1q = _per_qubit(error_1q, num_qubits, "error_1q")
        if isinstance(error_2q, Mapping):
            self._error_2q_default = float(np.mean(list(error_2q.values()))) if error_2q else 0.0
            self._error_2q: Dict[frozenset, float] = {
                frozenset(pair): float(value) for pair, value in error_2q.items()
            }
        else:
            self._error_2q_default = float(error_2q)
            self._error_2q = {}
        self.readout_error = _per_qubit(readout_error, num_qubits, "readout_error")
        self.reset_error = float(reset_error)
        self.idle_during_readout = bool(idle_during_readout)
        self._validate()
        # Channel lists are deterministic functions of the calibration data;
        # cache them so the simulators' compile passes don't rebuild (and the
        # cached channel factories don't re-hash) per instruction per run.
        self._relaxation_cache: Dict[Tuple[int, float], KrausChannel | None] = {}
        self._measurement_cache: Dict[int, ChannelList] = {}
        self._reset_cache: Dict[int, ChannelList] = {}

    def _validate(self) -> None:
        for name, values in (
            ("error_1q", self.error_1q),
            ("readout_error", self.readout_error),
        ):
            for value in values:
                if not 0.0 <= value <= 1.0:
                    raise NoiseModelError(f"{name} values must lie in [0, 1]")
        if not 0.0 <= self._error_2q_default <= 1.0:
            raise NoiseModelError("error_2q must lie in [0, 1]")
        if not 0.0 <= self.reset_error <= 1.0:
            raise NoiseModelError("reset_error must lie in [0, 1]")

    # ------------------------------------------------------------------
    @classmethod
    def ideal(cls, num_qubits: int) -> "NoiseModel":
        """A model that applies no noise at all (useful for tests)."""
        model = cls(num_qubits, t1=1e9, t2=1e9, error_1q=0.0, error_2q=0.0, readout_error=0.0)
        model.idle_during_readout = False
        return model

    @classmethod
    def uniform(
        cls,
        num_qubits: int,
        error_1q: float = 0.001,
        error_2q: float = 0.01,
        readout_error: float = 0.02,
    ) -> "NoiseModel":
        """Depolarizing-only model with uniform error rates (no relaxation)."""
        return cls(
            num_qubits,
            t1=1e9,
            t2=1e9,
            error_1q=error_1q,
            error_2q=error_2q,
            readout_error=readout_error,
            idle_during_readout=False,
        )

    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable hash of every calibration constant of the model.

        Two models with equal fingerprints apply identical noise to every
        circuit; the execution layer's calibration cache keys mitigation
        calibration data on it, so a re-calibrated device (or a different
        physical-qubit subset) automatically occupies a new cache entry.
        """
        payload = (
            self.num_qubits,
            tuple(self.t1),
            tuple(self.t2),
            self.gate_time_1q,
            self.gate_time_2q,
            self.readout_time,
            tuple(self.error_1q),
            self._error_2q_default,
            tuple(sorted((tuple(sorted(pair)), value) for pair, value in self._error_2q.items())),
            tuple(self.readout_error),
            self.reset_error,
            self.idle_during_readout,
        )
        return hashlib.sha1(repr(payload).encode()).hexdigest()

    # ------------------------------------------------------------------
    def two_qubit_error(self, a: int, b: int) -> float:
        return self._error_2q.get(frozenset((a, b)), self._error_2q_default)

    def readout_error_probability(self, qubit: int) -> float:
        return self.readout_error[qubit]

    def _relaxation(self, qubit: int, duration: float) -> KrausChannel | None:
        key = (qubit, duration)
        if key in self._relaxation_cache:
            return self._relaxation_cache[key]
        channel: KrausChannel | None = None
        if duration > 0 and not (self.t1[qubit] >= 1e8 and self.t2[qubit] >= 1e8):
            channel = thermal_relaxation_channel(self.t1[qubit], self.t2[qubit], duration)
        self._relaxation_cache[key] = channel
        return channel

    # ------------------------------------------------------------------
    def channels_for_gate(self, qubits: Tuple[int, ...]) -> ChannelList:
        """Noise channels after a unitary on ``qubits``.

        The noise model depends only on the operand qubits, never on the
        gate identity.
        """
        channels: ChannelList = []
        if len(qubits) == 1:
            q = qubits[0]
            error = self.error_1q[q]
            if error > 0:
                channels.append((depolarizing_channel(error), (q,)))
            relaxation = self._relaxation(q, self.gate_time_1q)
            if relaxation is not None:
                channels.append((relaxation, (q,)))
        elif len(qubits) == 2:
            a, b = qubits
            error = self.two_qubit_error(a, b)
            if error > 0:
                channels.append((two_qubit_depolarizing_channel(error), (a, b)))
            for q in qubits:
                relaxation = self._relaxation(q, self.gate_time_2q)
                if relaxation is not None:
                    channels.append((relaxation, (q,)))
        else:
            # Multi-qubit gates: treat as a chain of two-qubit interactions.
            for i in range(len(qubits) - 1):
                error = self.two_qubit_error(qubits[i], qubits[i + 1])
                if error > 0:
                    channels.append(
                        (two_qubit_depolarizing_channel(error), (qubits[i], qubits[i + 1]))
                    )
            for q in qubits:
                relaxation = self._relaxation(q, self.gate_time_2q)
                if relaxation is not None:
                    channels.append((relaxation, (q,)))
        return channels

    def measurement_channels(self, qubit: int) -> ChannelList:
        """Channels applied when ``qubit`` is measured mid-circuit."""
        cached = self._measurement_cache.get(qubit)
        if cached is not None:
            return list(cached)
        channels: ChannelList = []
        if self.idle_during_readout:
            for other in range(self.num_qubits):
                if other == qubit:
                    continue
                relaxation = self._relaxation(other, self.readout_time)
                if relaxation is not None:
                    channels.append((relaxation, (other,)))
        self._measurement_cache[qubit] = list(channels)
        return channels

    def reset_channels(self, qubit: int) -> ChannelList:
        """Channels applied after a reset instruction on ``qubit``."""
        cached = self._reset_cache.get(qubit)
        if cached is not None:
            return list(cached)
        channels: ChannelList = []
        if self.reset_error > 0:
            channels.append((bit_flip_channel(self.reset_error), (qubit,)))
        if self.idle_during_readout:
            for other in range(self.num_qubits):
                if other == qubit:
                    continue
                relaxation = self._relaxation(other, self.readout_time)
                if relaxation is not None:
                    channels.append((relaxation, (other,)))
        self._reset_cache[qubit] = list(channels)
        return channels

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NoiseModel(num_qubits={self.num_qubits}, "
            f"error_1q~{np.mean(self.error_1q):.2e}, "
            f"error_2q~{self._error_2q_default:.2e}, "
            f"readout~{np.mean(self.readout_error):.2e})"
        )
