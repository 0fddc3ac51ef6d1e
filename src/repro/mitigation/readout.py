"""Readout-error mitigation: calibration circuits and confusion-matrix correction.

Measurement errors are classical: the device reports bit ``y`` with
probability ``M[y | x]`` when the true outcome is ``x``, so the measured
distribution is ``p_meas = A p_true`` for a column-stochastic *confusion
matrix* ``A``.  Mitigation estimates ``A`` from calibration circuits that
prepare known basis states, then inverts the relation on the measured
counts.  Two estimators are provided:

* **full** — one calibration circuit per basis state (``2**n`` circuits)
  estimating the complete ``2**n x 2**n`` matrix; exact but exponential,
  only sensible for small registers.
* **tensored** — two calibration circuits (all-|0> and all-|1>) estimating
  one ``2 x 2`` confusion matrix per qubit; assumes readout errors are
  uncorrelated across qubits (true of the
  :class:`~repro.simulation.noise_model.NoiseModel`, and a good
  approximation on hardware), with calibration cost independent of ``n``.

Correction is vectorized.  For tensored matrices on small registers the
inverse is applied axis-by-axis on the ``(2,)*n`` probability tensor (the
Kronecker structure means no ``2**n x 2**n`` matrix is ever built); wide
registers are corrected on the observed-bitstring subspace — the confusion
submatrix over the observed strings is assembled with one broadcast product
per bit and solved directly, keeping the cost ``O(S**2 n)`` in the number of
distinct observed bitstrings ``S`` instead of ``O(4**n)``.

Both corrections produce :class:`~repro.simulation.result.QuasiDistribution`
objects: plain inversion (``correction="inverse"``) can carry small negative
weights (unbiased for expectation values), while ``"least_squares"``
additionally projects the quasi-probabilities onto the nearest probability
distribution (Euclidean projection onto the simplex).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits import Circuit
from ..exceptions import MitigationError
from ..simulation.kernels import contract
from ..simulation.result import Counts, QuasiDistribution
from .base import FALLBACKS, Mitigator

__all__ = [
    "ReadoutCalibration",
    "ReadoutMitigator",
    "readout_calibration_circuits",
    "confusion_matrices_from_counts",
    "project_to_simplex",
]

#: Registers wider than this are corrected on the observed-bitstring
#: subspace instead of the dense ``(2,)*n`` probability tensor.
DENSE_QUBIT_CUTOFF = 12

#: Counts the tensored corrections too wide for the dense tensor.
_WIDTH_FALLBACK = FALLBACKS.labels(site="readout.tensored", reason="width")

#: The full method needs one calibration circuit per basis state.
FULL_METHOD_MAX_QUBITS = 10


# ---------------------------------------------------------------------------
# calibration-circuit generation and confusion-matrix estimation
# ---------------------------------------------------------------------------


def readout_calibration_circuits(num_qubits: int, method: str = "tensored") -> List[Circuit]:
    """Basis-state preparation circuits calibrating the readout of a register.

    Args:
        num_qubits: Width of the (compact) register.
        method: ``"tensored"`` (two circuits: all-|0> and all-|1>) or
            ``"full"`` (``2**num_qubits`` circuits, one per basis state).
    """
    if num_qubits <= 0:
        raise MitigationError("readout calibration needs at least one qubit")
    if method == "tensored":
        zeros = Circuit(num_qubits, name=f"cal_zeros_{num_qubits}q").measure_all()
        ones = Circuit(num_qubits, name=f"cal_ones_{num_qubits}q")
        for q in range(num_qubits):
            ones.x(q)
        ones.measure_all()
        return [zeros, ones]
    if method == "full":
        if num_qubits > FULL_METHOD_MAX_QUBITS:
            raise MitigationError(
                f"full readout calibration needs 2**{num_qubits} circuits; "
                f"the limit is {FULL_METHOD_MAX_QUBITS} qubits — use method='tensored'"
            )
        circuits = []
        for state in range(2**num_qubits):
            label = format(state, f"0{num_qubits}b")[::-1]  # clbit 0 leftmost
            circuit = Circuit(num_qubits, name=f"cal_full_{label}")
            for q in range(num_qubits):
                if (state >> q) & 1:
                    circuit.x(q)
            circuit.measure_all()
            circuits.append(circuit)
        return circuits
    raise MitigationError(f"unknown readout calibration method {method!r}")


def _bit_array(counts: Counts, num_bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """Observed bitstrings as a ``(S, num_bits)`` uint8 array plus shot weights."""
    keys = list(counts.keys())
    if any(len(key) != num_bits for key in keys):
        raise MitigationError("counts bitstring width does not match the register")
    bits = np.frombuffer(
        "".join(keys).encode("ascii"), dtype=np.uint8
    ).reshape(len(keys), num_bits) - ord("0")
    weights = np.array([counts[key] for key in keys], dtype=float)
    return bits, weights


def confusion_matrices_from_counts(
    counts_list: Sequence[Counts], num_qubits: int, method: str = "tensored"
) -> np.ndarray:
    """Estimate confusion matrices from measured calibration counts.

    Args:
        counts_list: Counts of :func:`readout_calibration_circuits`, in order.
        num_qubits: Register width the circuits were generated for.
        method: The method the circuits were generated with.

    Returns:
        ``(num_qubits, 2, 2)`` per-qubit matrices for ``"tensored"`` —
        ``M[q, y, x]`` is the probability qubit ``q`` reads ``y`` when
        prepared in ``x`` — or the dense ``(2**n, 2**n)`` matrix
        ``A[measured, prepared]`` for ``"full"`` (indices with classical
        bit 0 as the least significant bit).
    """
    if method == "tensored":
        if len(counts_list) != 2:
            raise MitigationError("tensored calibration expects exactly two counts objects")
        matrices = np.zeros((num_qubits, 2, 2))
        for prepared, counts in enumerate(counts_list):
            total = float(sum(counts.values()))
            if total <= 0:
                raise MitigationError("empty calibration counts")
            bits, weights = _bit_array(counts, num_qubits)
            ones_fraction = (weights[:, None] * bits).sum(axis=0) / total
            matrices[:, 1, prepared] = ones_fraction
            matrices[:, 0, prepared] = 1.0 - ones_fraction
        return matrices
    if method == "full":
        dim = 2**num_qubits
        if len(counts_list) != dim:
            raise MitigationError(
                f"full calibration expects {dim} counts objects, got {len(counts_list)}"
            )
        matrix = np.zeros((dim, dim))
        powers = 1 << np.arange(num_qubits)
        for prepared, counts in enumerate(counts_list):
            total = float(sum(counts.values()))
            if total <= 0:
                raise MitigationError("empty calibration counts")
            bits, weights = _bit_array(counts, num_qubits)
            indices = bits @ powers
            np.add.at(matrix[:, prepared], indices, weights / total)
        return matrix
    raise MitigationError(f"unknown readout calibration method {method!r}")


@dataclass(frozen=True)
class ReadoutCalibration:
    """Estimated confusion matrices of one (device, qubit set) combination.

    Attributes:
        method: ``"tensored"`` or ``"full"``.
        matrices: ``(n, 2, 2)`` per-qubit matrices, or the ``(2**n, 2**n)``
            dense matrix for the full method.
        num_qubits: Register width.
        shots: Calibration shots per circuit.
    """

    method: str
    matrices: np.ndarray
    num_qubits: int
    shots: int

    def error_rates(self) -> np.ndarray:
        """Per-qubit ``(p(1|0), p(0|1))`` flip probabilities (tensored only)."""
        if self.method != "tensored":
            raise MitigationError("per-qubit error rates require the tensored method")
        return np.stack([self.matrices[:, 1, 0], self.matrices[:, 0, 1]], axis=1)


# ---------------------------------------------------------------------------
# correction
# ---------------------------------------------------------------------------


def project_to_simplex(values: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    v = np.asarray(values, dtype=float)
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, len(u) + 1) > (cumulative - 1.0))[0][-1]
    theta = (cumulative[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _invert_2x2(matrix: np.ndarray) -> np.ndarray:
    determinant = matrix[0, 0] * matrix[1, 1] - matrix[0, 1] * matrix[1, 0]
    if abs(determinant) < 1e-9:
        raise MitigationError(
            "confusion matrix is singular (readout error ~50%); cannot invert"
        )
    return np.array(
        [[matrix[1, 1], -matrix[0, 1]], [-matrix[1, 0], matrix[0, 0]]]
    ) / determinant


def _dense_tensored_correct(
    counts: Counts, num_bits: int, per_bit: np.ndarray
) -> Dict[str, float]:
    """Axis-wise inverse application on the dense ``(2,)*n`` probability tensor."""
    bits, weights = _bit_array(counts, num_bits)
    total = weights.sum()
    powers = 1 << np.arange(num_bits)
    vector = np.zeros(2**num_bits)
    np.add.at(vector, bits @ powers, weights / total)
    tensor = vector.reshape((2,) * num_bits)
    for bit in range(num_bits):
        axis = num_bits - 1 - bit  # clbit 0 is the least significant index bit
        inverse = _invert_2x2(per_bit[bit])
        tensor = contract(tensor, inverse, (axis,))
    flat = tensor.reshape(-1)
    support = np.nonzero(np.abs(flat) > 1e-12)[0]
    return {
        "".join("1" if (int(i) >> c) & 1 else "0" for c in range(num_bits)): float(flat[i])
        for i in support
    }


def _subspace_tensored_correct(
    counts: Counts, num_bits: int, per_bit: np.ndarray
) -> Dict[str, float]:
    """Solve the confusion relation restricted to the observed bitstrings.

    The dense correction is ``O(2**n)``; for wide registers the standard
    reduction (cf. M3) solves ``A_S q_S = p_S`` on the ``S`` observed
    bitstrings only, with ``A_S[i, j] = prod_c M_c[y_i[c], y_j[c]]``
    assembled via one broadcast lookup per classical bit.
    """
    bits, weights = _bit_array(counts, num_bits)
    probabilities = weights / weights.sum()
    size = len(probabilities)
    submatrix = np.ones((size, size))
    for bit in range(num_bits):
        submatrix *= per_bit[bit][bits[:, None, bit], bits[None, :, bit]]
    try:
        corrected = np.linalg.solve(submatrix, probabilities)
    except np.linalg.LinAlgError as error:
        raise MitigationError(f"confusion submatrix is singular: {error}") from error
    keys = list(counts.keys())
    return {
        keys[i]: float(corrected[i])
        for i in range(size)
        if abs(corrected[i]) > 1e-12
    }


def _full_correct(
    counts: Counts,
    num_bits: int,
    matrix: np.ndarray,
    qubit_for_clbit: Dict[int, int],
) -> Dict[str, float]:
    """Dense full-matrix correction (with clbit -> qubit index permutation)."""
    num_qubits = int(np.log2(matrix.shape[0]))
    if num_bits != num_qubits:
        raise MitigationError(
            f"full readout correction needs one classical bit per calibrated qubit "
            f"({num_qubits}), got {num_bits} — use method='tensored'"
        )
    if sorted(qubit_for_clbit.values()) != list(range(num_qubits)):
        raise MitigationError(
            "full readout correction requires a one-to-one qubit -> classical-bit "
            "measurement map — use method='tensored'"
        )
    bits, weights = _bit_array(counts, num_bits)
    total = weights.sum()
    # Index in calibration (qubit) space: clbit c carries the outcome of
    # qubit qubit_for_clbit[c].
    qubit_powers = np.array([1 << qubit_for_clbit[c] for c in range(num_bits)])
    vector = np.zeros(2**num_qubits)
    np.add.at(vector, bits @ qubit_powers, weights / total)
    try:
        corrected = np.linalg.solve(matrix, vector)
    except np.linalg.LinAlgError:
        corrected = np.linalg.lstsq(matrix, vector, rcond=None)[0]
    clbit_for_qubit = {q: c for c, q in qubit_for_clbit.items()}
    result: Dict[str, float] = {}
    for index in np.nonzero(np.abs(corrected) > 1e-12)[0]:
        key = ["0"] * num_bits
        for q in range(num_qubits):
            if (int(index) >> q) & 1:
                key[clbit_for_qubit[q]] = "1"
        result["".join(key)] = float(corrected[index])
    return result


# ---------------------------------------------------------------------------
# the Mitigator
# ---------------------------------------------------------------------------


def _measurement_qubit_map(circuit: Circuit) -> Dict[int, int]:
    """Classical bit -> measured qubit map of a circuit's terminal measurements."""
    return {clbit: qubit for qubit, clbit in circuit.packed().terminal_measurements().values()}


class ReadoutMitigator(Mitigator):
    """Confusion-matrix readout-error mitigation.

    Args:
        method: ``"tensored"`` (default; two calibration circuits, per-qubit
            matrices) or ``"full"`` (``2**n`` calibration circuits, dense
            matrix, small registers only).
        correction: ``"least_squares"`` (default; inversion followed by
            Euclidean projection onto the probability simplex) or
            ``"inverse"`` (raw inversion; the result may carry small negative
            quasi-probability weights, which is unbiased for expectation
            values).
        calibration_shots: Shots per calibration circuit.
    """

    name = "readout"
    requires_calibration = True

    def __init__(
        self,
        method: str = "tensored",
        correction: str = "least_squares",
        calibration_shots: int = 4096,
    ) -> None:
        if method not in ("tensored", "full"):
            raise MitigationError(f"unknown readout method {method!r}")
        if correction not in ("least_squares", "inverse"):
            raise MitigationError(f"unknown readout correction {correction!r}")
        if calibration_shots <= 0:
            raise MitigationError("calibration_shots must be positive")
        self.method = method
        self.correction = correction
        self.calibration_shots = int(calibration_shots)

    # -- calibration --------------------------------------------------------
    def calibration_circuits(self, num_qubits: int) -> List[Circuit]:
        return readout_calibration_circuits(num_qubits, self.method)

    def calibration_from_counts(
        self, counts_list: Sequence[Counts], num_qubits: int
    ) -> ReadoutCalibration:
        matrices = confusion_matrices_from_counts(counts_list, num_qubits, self.method)
        return ReadoutCalibration(
            method=self.method,
            matrices=matrices,
            num_qubits=num_qubits,
            shots=self.calibration_shots,
        )

    def calibration_key(self) -> str:
        # The correction strategy does not affect the calibration data, so
        # "inverse" and "least_squares" instances share cached calibrations.
        return f"readout:{self.method}:{self.calibration_shots}"

    # -- correction ----------------------------------------------------------
    def mitigate(
        self,
        counts_list: Sequence[Counts],
        *,
        circuit: Optional[Circuit] = None,
        calibration: object = None,
    ) -> QuasiDistribution:
        if len(counts_list) != 1:
            raise MitigationError("readout mitigation expects counts for exactly one circuit")
        if not isinstance(calibration, ReadoutCalibration):
            raise MitigationError("readout mitigation needs a ReadoutCalibration")
        counts = counts_list[0]
        if not counts:
            raise MitigationError("cannot mitigate empty counts")
        num_bits = getattr(counts, "num_bits", 0) or len(next(iter(counts)))
        qubit_for_clbit = (
            _measurement_qubit_map(circuit)
            if circuit is not None
            else {c: c for c in range(num_bits)}
        )

        if calibration.method == "tensored":
            identity = np.eye(2)
            per_bit = np.stack(
                [
                    calibration.matrices[qubit_for_clbit[c]]
                    if c in qubit_for_clbit
                    else identity
                    for c in range(num_bits)
                ]
            )
            if num_bits <= DENSE_QUBIT_CUTOFF:
                quasi = _dense_tensored_correct(counts, num_bits, per_bit)
            else:
                _WIDTH_FALLBACK.add(1.0)
                quasi = _subspace_tensored_correct(counts, num_bits, per_bit)
        else:
            quasi = _full_correct(counts, num_bits, calibration.matrices, qubit_for_clbit)

        if self.correction == "least_squares" and quasi:
            keys = list(quasi.keys())
            projected = project_to_simplex(np.array([quasi[k] for k in keys]))
            quasi = {
                key: float(value)
                for key, value in zip(keys, projected)
                if value > 1e-12
            }
        return QuasiDistribution(
            quasi, num_bits=num_bits, shots=float(sum(counts.values()))
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReadoutMitigator(method={self.method!r}, correction={self.correction!r}, "
            f"calibration_shots={self.calibration_shots})"
        )
