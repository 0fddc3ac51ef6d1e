"""Zero-noise extrapolation: unitary gate folding and extrapolators.

ZNE runs a circuit at several *amplified* noise levels and extrapolates the
results back to the zero-noise limit.  Noise is amplified by **unitary
folding** — replacing a unitary ``G`` with ``G (G^dagger G)**k``, which is
the identity transformation on the ideal circuit but multiplies the gate
count (and hence the accumulated gate noise) by the scale factor
``lambda = 1 + 2k``:

* :func:`fold_global` folds the whole unitary body of the circuit, with a
  partial right-fold of the last gates for non-odd-integer scale factors;
* :func:`fold_two_qubit_gates` folds each multi-qubit unitary in place
  (two-qubit gates dominate the error budget on every device of Table II),
  leaving single-qubit gates untouched.

Folding must run **after** transpilation: the optimizer's inverse-
cancellation passes would otherwise delete ``G^dagger G`` pairs on sight.
The execution engine therefore applies :meth:`ZNEMitigator.transform` to the
compiled (compact) circuit.

Extrapolation happens per bitstring on the measured probability
distributions.  Linear and Richardson extrapolation are linear functionals,
so the extrapolated weights still sum to one, but individual weights can go
negative — the result is a
:class:`~repro.simulation.result.QuasiDistribution`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits import Circuit
from ..circuits.columnar import BARRIER_OP, MEASURE_OP, OP_NAMES, OPCODES, RESET_OP, PackedBuilder
from ..circuits.gates import inverse_of
from ..exceptions import MitigationError
from ..simulation.result import Counts, QuasiDistribution, normalized_probabilities
from .base import FALLBACKS, Mitigator

__all__ = [
    "fold_global",
    "fold_two_qubit_gates",
    "Extrapolator",
    "LinearExtrapolator",
    "RichardsonExtrapolator",
    "ExponentialExtrapolator",
    "resolve_extrapolator",
    "ZNEMitigator",
]


# ---------------------------------------------------------------------------
# unitary folding
# ---------------------------------------------------------------------------


#: A row as the folds read and write it: ``(opcode, qubits, params, clbit)``.
Row = Tuple[int, Tuple[int, ...], Tuple[float, ...], int]


def _check_foldable(circuit: Circuit) -> Dict[int, Tuple[int, int]]:
    """The terminal measurements (``row -> (qubit, clbit)``), once the circuit can be folded.

    Folding inverts gates, so mid-circuit measurement and reset (whose
    effect is not unitary) are rejected, the first such row first.
    """
    terminal = circuit.packed().terminal_measurements()
    opcodes = circuit.packed().opcodes
    for row in np.nonzero((opcodes == MEASURE_OP) | (opcodes == RESET_OP))[0].tolist():
        if opcodes[row] == RESET_OP:
            raise MitigationError("cannot fold a circuit containing reset")
        if row not in terminal:
            raise MitigationError("cannot fold a circuit with mid-circuit measurement")
    return terminal


def _split_foldable(circuit: Circuit) -> Tuple[List[Row], List[Row]]:
    """Split the rows into the unitary body and the terminal measurement tail.

    Terminal measurements interleaved with trailing gates on *other* qubits
    are hoisted into the tail — by definition of terminal no later operation
    touches the measured qubit, so the hoist commutes.  Barriers are dropped.
    """
    terminal = _check_foldable(circuit)
    body: List[Row] = []
    tail: List[Row] = []
    for row, opcode, qubits, params, clbit in circuit.packed().iter_rows():
        if opcode != BARRIER_OP:
            (tail if row in terminal else body).append((opcode, qubits, params, clbit))
    return body, tail


def _inverted(rows: Sequence[Row]) -> List[Row]:
    """The rows of the inverse: reversed, each gate through :func:`inverse_of`."""
    inverted = []
    for opcode, qubits, params, clbit in reversed(rows):
        name, params = inverse_of(OP_NAMES[opcode], params)
        inverted.append((OPCODES[name], qubits, params, clbit))
    return inverted


def _built(circuit: Circuit, name: str, rows: Sequence[Row]) -> Circuit:
    builder = PackedBuilder(circuit.num_qubits, circuit.num_clbits, name)
    for row in rows:
        builder.append(*row)
    return builder.build().unpack()


def _fold_counts(scale: float, units: int) -> Tuple[int, int]:
    """Whole folds ``k`` and partially folded trailing units ``r`` for a scale.

    The achieved scale is ``1 + 2k + 2r / units`` — the closest value to the
    request reachable by folding whole units.
    """
    if scale < 1.0:
        raise MitigationError(f"fold scale factors must be >= 1, got {scale}")
    if units <= 0:
        return 0, 0
    k = int((scale - 1.0) // 2)
    r = int(round(((scale - 1.0) / 2 - k) * units))
    if r >= units:  # rounding pushed the partial fold to a whole one
        k, r = k + 1, 0
    return k, r


def fold_global(circuit: Circuit, scale: float) -> Tuple[Circuit, float]:
    """Globally fold the unitary body of a circuit to amplify its noise.

    The body ``G`` becomes ``G (G^dagger G)**k`` followed by a partial fold
    ``L^dagger L`` of the last ``r`` gates, so the achieved scale is
    ``1 + 2k + 2r/|G|``.

    Returns:
        ``(folded_circuit, achieved_scale)``.
    """
    body, tail = _split_foldable(circuit)
    k, r = _fold_counts(scale, len(body))
    rows = list(body)
    if k:  # only whole folds invert the body: scale 1 folds gates without an inverse
        rows += (_inverted(body) + body) * k
    if r:
        partial = body[-r:]
        rows += _inverted(partial) + partial
    folded = _built(circuit, f"{circuit.name}@{scale:g}x", rows + tail)
    achieved = 1.0 + 2.0 * k + (2.0 * r / len(body) if body else 0.0)
    return folded, achieved


def fold_two_qubit_gates(circuit: Circuit, scale: float) -> Tuple[Circuit, float]:
    """Fold every multi-qubit unitary in place (single-qubit gates untouched).

    Each multi-qubit gate ``g`` becomes ``g (g^dagger g)**k``; the first
    ``r`` of them get one extra fold, so the achieved scale over the
    two-qubit gate count is ``1 + 2k + 2r/n2``.

    Returns:
        ``(folded_circuit, achieved_scale)``.
    """
    body, tail = _split_foldable(circuit)
    multi = [index for index, row in enumerate(body) if len(row[1]) >= 2]
    k, r = _fold_counts(scale, len(multi))
    extra_fold = set(multi[:r])
    rows: List[Row] = []
    for index, row in enumerate(body):
        rows.append(row)
        folds = k + (index in extra_fold)
        if len(row[1]) >= 2 and folds:  # a gate folded 0 times is not inverted
            rows += [_inverted([row])[0], row] * folds
    folded = _built(circuit, f"{circuit.name}@{scale:g}x2q", rows + tail)
    achieved = 1.0 + 2.0 * k + (2.0 * r / len(multi) if multi else 0.0)
    return folded, achieved


# ---------------------------------------------------------------------------
# extrapolators
# ---------------------------------------------------------------------------


class Extrapolator:
    """Fits measured values against scale factors and evaluates at zero noise."""

    name = "extrapolator"

    def extrapolate(self, scales: Sequence[float], values: Sequence[float]) -> float:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class LinearExtrapolator(Extrapolator):
    """Least-squares polynomial fit evaluated at zero (default: degree 1)."""

    name = "linear"

    def __init__(self, degree: int = 1) -> None:
        if degree < 1:
            raise MitigationError("polynomial degree must be at least 1")
        self.degree = int(degree)

    def extrapolate(self, scales: Sequence[float], values: Sequence[float]) -> float:
        degree = min(self.degree, len(scales) - 1)
        coefficients = np.polyfit(np.asarray(scales, float), np.asarray(values, float), degree)
        return float(coefficients[-1])  # polynomial value at 0


class RichardsonExtrapolator(Extrapolator):
    """Exact polynomial interpolation through every point, evaluated at zero.

    Equivalent to Richardson extrapolation of order ``len(scales) - 1``:
    the zero-noise estimate is ``sum_i y_i prod_{j != i} x_j / (x_j - x_i)``.
    """

    name = "richardson"

    def extrapolate(self, scales: Sequence[float], values: Sequence[float]) -> float:
        x = np.asarray(scales, float)
        y = np.asarray(values, float)
        estimate = 0.0
        for i in range(len(x)):
            weight = 1.0
            for j in range(len(x)):
                if j != i:
                    weight *= x[j] / (x[j] - x[i])
            estimate += y[i] * weight
        return float(estimate)


class ExponentialExtrapolator(Extrapolator):
    """Fit ``y = a + b * exp(-c * x)`` and evaluate at zero.

    Matches the exponential decay of fidelity with gate count under
    depolarizing noise.  Needs at least three scale factors and values that
    are not all equal; without them, or when the nonlinear fit fails (noisy
    data, degenerate geometry), it falls back to linear extrapolation and
    counts the fallback in ``repro_fallbacks_total`` with its reason
    (``too_few_scales``, ``flat_values`` or the fit's exception class).
    """

    name = "exponential"

    def extrapolate(self, scales: Sequence[float], values: Sequence[float]) -> float:
        x = np.asarray(scales, float)
        y = np.asarray(values, float)
        if len(x) < 3:
            return self._linear("too_few_scales", scales, values)
        if np.allclose(y, y[0]):
            return self._linear("flat_values", scales, values)
        try:
            from scipy.optimize import curve_fit

            def model(s, a, b, c):
                return a + b * np.exp(-c * s)

            guess = (float(y[-1]), float(y[0] - y[-1]), 0.5)
            with np.errstate(over="ignore", invalid="ignore"):
                parameters, _ = curve_fit(model, x, y, p0=guess, maxfev=2000)
            a, b, c = parameters
            estimate = float(a + b)  # exp(0) = 1
            if not np.isfinite(estimate):
                raise ValueError("non-finite fit")
            return estimate
        except Exception as error:
            return self._linear(type(error).__name__, scales, values)

    @staticmethod
    def _linear(reason: str, scales: Sequence[float], values: Sequence[float]) -> float:
        FALLBACKS.inc(site="zne.exponential", reason=reason)
        return LinearExtrapolator().extrapolate(scales, values)


def resolve_extrapolator(extrapolator: Union[Extrapolator, str, None]) -> Extrapolator:
    """Normalise an extrapolator specification (instance, name or ``None``)."""
    if extrapolator is None:
        return LinearExtrapolator()
    if isinstance(extrapolator, Extrapolator):
        return extrapolator
    if isinstance(extrapolator, str):
        canonical = extrapolator.lower()
        if canonical == "linear":
            return LinearExtrapolator()
        if canonical == "richardson":
            return RichardsonExtrapolator()
        if canonical in ("exponential", "exp"):
            return ExponentialExtrapolator()
        raise MitigationError(
            f"unknown extrapolator {extrapolator!r}; known: 'linear', 'richardson', 'exponential'"
        )
    raise MitigationError(f"cannot interpret {extrapolator!r} as an extrapolator")


# ---------------------------------------------------------------------------
# the Mitigator
# ---------------------------------------------------------------------------


class ZNEMitigator(Mitigator):
    """Zero-noise extrapolation over folded circuit variants.

    Args:
        scale_factors: Noise scale factors, each >= 1; at least two distinct
            values are required and factor 1 (the unfolded circuit) is
            conventionally first.  Odd integers fold exactly; other values
            use partial folding and the *achieved* scale (a function of the
            circuit's gate count) is what enters the extrapolation.
        folding: ``"global"`` (fold the whole body) or ``"local"`` (fold each
            multi-qubit gate in place).
        extrapolator: Extrapolator instance or name (``"linear"`` default,
            ``"richardson"``, ``"exponential"``).
    """

    name = "zne"
    requires_calibration = False

    def __init__(
        self,
        scale_factors: Sequence[float] = (1.0, 2.0, 3.0),
        folding: str = "global",
        extrapolator: Union[Extrapolator, str, None] = "linear",
    ) -> None:
        factors = [float(s) for s in scale_factors]
        if len(factors) < 2 or len(set(factors)) < 2:
            raise MitigationError("ZNE needs at least two distinct scale factors")
        if any(s < 1.0 for s in factors):
            raise MitigationError("ZNE scale factors must all be >= 1")
        if folding not in ("global", "local"):
            raise MitigationError(f"unknown folding {folding!r}; known: 'global', 'local'")
        self.scale_factors = tuple(factors)
        self.folding = folding
        self.extrapolator = resolve_extrapolator(extrapolator)

    def _fold(self, circuit: Circuit, scale: float) -> Tuple[Circuit, float]:
        if self.folding == "global":
            return fold_global(circuit, scale)
        return fold_two_qubit_gates(circuit, scale)

    # -- circuit transformation ---------------------------------------------
    def transform(self, circuit: Circuit) -> List[Circuit]:
        # Fail fast, before anything is executed: a circuit with no foldable
        # units (no multi-qubit gates under local folding, no gates at all
        # under global) cannot realise two distinct noise levels, and
        # mitigate() would only discover that after every variant ran.
        self._check_achieved(self.achieved_scales(circuit))
        return [self._fold(circuit, scale)[0] for scale in self.scale_factors]

    @staticmethod
    def _check_achieved(scales: Sequence[float]) -> None:
        if len(set(scales)) < 2:
            raise MitigationError(
                f"achieved scale factors {list(scales)} collapsed on this circuit "
                "(too few foldable gates); ZNE needs at least two distinct noise levels"
            )

    def achieved_scales(self, circuit: Circuit) -> List[float]:
        """The scale factors actually realised on this circuit's gate counts.

        Closed form — ``1 + 2k + 2r/units`` from :func:`_fold_counts` — so
        per-repetition :meth:`mitigate` calls never rebuild the folded
        circuits just to read these numbers.
        """
        _check_foldable(circuit)
        if self.folding == "global":
            units = circuit.num_gates(include_measurements=False)
        else:
            units = circuit.num_two_qubit_gates()
        scales = []
        for scale in self.scale_factors:
            k, r = _fold_counts(scale, units)
            scales.append(1.0 + 2.0 * k + (2.0 * r / units if units else 0.0))
        return scales

    # -- extrapolation -------------------------------------------------------
    def mitigate(
        self,
        counts_list: Sequence[Counts],
        *,
        circuit: Optional[Circuit] = None,
        calibration: object = None,
    ) -> QuasiDistribution:
        if len(counts_list) != len(self.scale_factors):
            raise MitigationError(
                f"ZNE expects one counts object per scale factor "
                f"({len(self.scale_factors)}), got {len(counts_list)}"
            )
        scales = (
            self.achieved_scales(circuit)
            if circuit is not None
            else list(self.scale_factors)
        )
        distributions = [normalized_probabilities(counts) for counts in counts_list]
        keys = sorted(set().union(*distributions))
        matrix = np.array(
            [[distribution.get(key, 0.0) for key in keys] for distribution in distributions]
        )
        # Achieved scales are quantised by the circuit's foldable gate count
        # and can coincide on short circuits; duplicate noise levels are the
        # same folded circuit measured twice, so merge them (averaging the
        # distributions) before fitting — Richardson would otherwise divide
        # by zero.  Fewer than two distinct levels cannot extrapolate at all
        # (transform() already failed fast; this guards direct callers).
        self._check_achieved(scales)
        unique_scales = sorted(set(scales))
        if len(unique_scales) < len(scales):
            rows = []
            for scale in unique_scales:
                members = [i for i, s in enumerate(scales) if s == scale]
                rows.append(matrix[members].mean(axis=0))
            scales, matrix = unique_scales, np.array(rows)
        quasi: Dict[str, float] = {}
        for column, key in enumerate(keys):
            value = self.extrapolator.extrapolate(scales, matrix[:, column])
            if abs(value) > 1e-12:
                quasi[key] = value
        num_bits = getattr(counts_list[0], "num_bits", None) or len(keys[0])
        shots = float(min(sum(counts.values()) for counts in counts_list))
        return QuasiDistribution(quasi, num_bits=num_bits, shots=shots)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ZNEMitigator(scale_factors={self.scale_factors}, folding={self.folding!r}, "
            f"extrapolator={self.extrapolator.name!r})"
        )
