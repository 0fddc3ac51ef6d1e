"""The common interface of every error-mitigation technique.

A :class:`Mitigator` describes one technique as three hooks the execution
engine drives in order:

1. :meth:`Mitigator.calibration_circuits` — circuits whose measured counts
   characterise the device (empty for techniques that need no calibration).
   The engine runs them through its worker pool at most once per
   ``(device, qubit set, noise fingerprint)`` — see
   :class:`~repro.mitigation.calibration.CalibrationCache` — and hands the
   counts to :meth:`Mitigator.calibration_from_counts`.
2. :meth:`Mitigator.transform` — rewrite one *compiled* circuit into the
   variant(s) actually executed (identity for readout mitigation, noise-
   scaled foldings for ZNE, idle-window DD insertion for dynamical
   decoupling).  Transforms run **after** transpilation: running them before
   would let the optimizer cancel the very gates the technique inserts.
3. :meth:`Mitigator.mitigate` — combine the measured counts of the variants
   (plus the calibration data) into one
   :class:`~repro.simulation.result.QuasiDistribution`.

:func:`resolve_mitigator` normalises user-facing specifications (instances,
names like ``"readout"`` / ``"zne"`` / ``"dd"``, or ``None`` / ``"raw"`` /
``"none"`` for unmitigated execution) the same way
:func:`~repro.execution.backends.resolve_backend` does for backends.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence, Union

from ..circuits import Circuit
from ..exceptions import MitigationError
from ..simulation.result import Counts, QuasiDistribution, normalized_probabilities
from ..telemetry import get_metrics

__all__ = ["Mitigator", "PassthroughMitigator", "resolve_mitigator"]

#: Process totals of the times a method gave way to a simpler one, by the
#: site that fell back and why.
FALLBACKS = get_metrics().counter(
    "repro_fallbacks_total",
    "Fallbacks from a method to a simpler one, by site and reason.",
    ("site", "reason"),
)


class Mitigator(abc.ABC):
    """Abstract base class of every error-mitigation technique.

    Attributes:
        name: Short machine-readable technique name (``"readout"``, ...).
        requires_calibration: Whether the engine must schedule calibration
            jobs (and cache their result) before :meth:`mitigate` can run.
    """

    name: str = "mitigator"
    requires_calibration: bool = False
    #: Shots per calibration circuit the engine uses when scheduling
    #: calibration jobs (instances may override, cf. ReadoutMitigator).
    calibration_shots: int = 4096

    # -- calibration --------------------------------------------------------
    def calibration_circuits(self, num_qubits: int) -> List[Circuit]:
        """Circuits to execute on the compact register to calibrate the device."""
        return []

    def calibration_from_counts(
        self, counts_list: Sequence[Counts], num_qubits: int
    ) -> object:
        """Digest measured calibration counts into the technique's calibration data."""
        return None

    def calibration_key(self) -> str:
        """Technique-specific component of the calibration-cache key.

        Two mitigator instances whose calibration circuits and digestion are
        interchangeable must return the same key so they can share cached
        calibrations; anything that changes the calibration (full vs tensored
        confusion, calibration shot count) must change it.
        """
        return self.name

    # -- circuit transformation ---------------------------------------------
    def transform(self, circuit: Circuit) -> List[Circuit]:
        """The executable variant(s) of one compiled circuit, in a fixed order.

        :meth:`mitigate` receives one :class:`Counts` per variant, in the
        same order.
        """
        return [circuit]

    # -- correction ----------------------------------------------------------
    @abc.abstractmethod
    def mitigate(
        self,
        counts_list: Sequence[Counts],
        *,
        circuit: Optional[Circuit] = None,
        calibration: object = None,
    ) -> QuasiDistribution:
        """Combine variant counts (and calibration data) into a quasi-distribution.

        Args:
            counts_list: One counts object per :meth:`transform` variant.
            circuit: The compiled circuit the variants derive from (source of
                the qubit -> classical-bit measurement map).
            calibration: Whatever :meth:`calibration_from_counts` returned
                (``None`` for techniques without calibration).
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class PassthroughMitigator(Mitigator):
    """Identity technique: raw counts re-expressed as a quasi-distribution.

    Useful as a baseline in mitigation sweeps and as the post-processing half
    of circuit-level techniques (dynamical decoupling rewrites the circuit
    but applies no counts correction).
    """

    name = "passthrough"

    def mitigate(
        self,
        counts_list: Sequence[Counts],
        *,
        circuit: Optional[Circuit] = None,
        calibration: object = None,
    ) -> QuasiDistribution:
        if len(counts_list) != 1:
            raise MitigationError(
                f"{self.name} expects counts for exactly one circuit, got {len(counts_list)}"
            )
        counts = counts_list[0]
        num_bits = getattr(counts, "num_bits", None)
        return QuasiDistribution(
            normalized_probabilities(counts),
            num_bits=num_bits,
            shots=float(sum(counts.values())),
        )


def resolve_mitigator(
    mitigation: Union["Mitigator", str, None],
) -> Optional[Mitigator]:
    """Normalise a mitigation specification into a :class:`Mitigator` (or ``None``).

    Args:
        mitigation: ``None``, ``"raw"`` or ``"none"`` (no mitigation: returns
            ``None``), a :class:`Mitigator` instance (returned as-is), or a
            name: ``"readout"``/``"tensored_readout"``
            (tensored confusion-matrix correction), ``"full_readout"`` (full
            ``2**n`` confusion matrix), ``"zne"`` (zero-noise extrapolation
            with the default global folding and linear extrapolation),
            ``"dd"``/``"dd_xy4"`` (XY4 dynamical decoupling), ``"dd_xx"``
            (XX dynamical decoupling).
    """
    if mitigation is None:
        return None
    if isinstance(mitigation, Mitigator):
        return mitigation
    if isinstance(mitigation, str):
        from .dd import DynamicalDecouplingMitigator
        from .readout import ReadoutMitigator
        from .zne import ZNEMitigator

        canonical = mitigation.lower().replace("-", "_")
        if canonical in ("raw", "none"):
            return None
        if canonical in ("readout", "tensored_readout"):
            return ReadoutMitigator(method="tensored")
        if canonical == "full_readout":
            return ReadoutMitigator(method="full")
        if canonical == "zne":
            return ZNEMitigator()
        if canonical in ("dd", "dd_xy4", "xy4"):
            return DynamicalDecouplingMitigator(sequence="xy4")
        if canonical in ("dd_xx", "xx"):
            return DynamicalDecouplingMitigator(sequence="xx")
        if canonical == "passthrough":
            return PassthroughMitigator()
        raise MitigationError(
            f"unknown mitigation {mitigation!r}; known: "
            "'readout', 'full_readout', 'zne', 'dd', 'dd_xx', 'passthrough'"
        )
    raise MitigationError(f"cannot interpret {mitigation!r} as a mitigation technique")
