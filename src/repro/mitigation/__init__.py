"""Error mitigation: readout calibration, zero-noise extrapolation, DD.

The raw counts of every device in the paper's Table II are dominated by
readout and gate noise; published device comparisons are only meaningful
once mitigation is part of the measurement story.  This package provides the
three standard techniques behind one :class:`Mitigator` protocol:

* :class:`ReadoutMitigator` — calibration-circuit generation, full and
  tensored confusion-matrix estimation, vectorized inversion / least-squares
  correction producing quasi-probability distributions;
* :class:`ZNEMitigator` — zero-noise extrapolation via unitary gate folding
  (global or per-two-qubit-gate) with linear / Richardson / exponential
  extrapolators;
* :class:`DynamicalDecouplingMitigator` — XX / XY4 idle-window pulse
  insertion, also available as the standalone
  :class:`DynamicalDecoupling` transpiler pass
  (``preset_pipeline(device, dd="xy4")``).

The :class:`~repro.execution.ExecutionEngine` drives the protocol end to
end: ``engine.run(benchmark, mitigation="readout")`` schedules calibration
jobs through the engine's worker pool (memoised in a
:class:`CalibrationCache` keyed on device, qubit set and noise fingerprint),
executes the transformed circuit variants, and scores the benchmark on the
mitigated :class:`~repro.simulation.result.QuasiDistribution`.  See
``docs/mitigation.md``.
"""

from .base import Mitigator, PassthroughMitigator, resolve_mitigator
from .calibration import CalibrationCache, calibration_seed
from .dd import DD_SEQUENCES, DynamicalDecoupling, DynamicalDecouplingMitigator
from .readout import (
    ReadoutCalibration,
    ReadoutMitigator,
    confusion_matrices_from_counts,
    project_to_simplex,
    readout_calibration_circuits,
)
from .zne import (
    ExponentialExtrapolator,
    Extrapolator,
    LinearExtrapolator,
    RichardsonExtrapolator,
    ZNEMitigator,
    fold_global,
    fold_two_qubit_gates,
    resolve_extrapolator,
)

__all__ = [
    "Mitigator",
    "PassthroughMitigator",
    "resolve_mitigator",
    "CalibrationCache",
    "calibration_seed",
    "ReadoutCalibration",
    "ReadoutMitigator",
    "readout_calibration_circuits",
    "confusion_matrices_from_counts",
    "project_to_simplex",
    "ZNEMitigator",
    "Extrapolator",
    "LinearExtrapolator",
    "RichardsonExtrapolator",
    "ExponentialExtrapolator",
    "resolve_extrapolator",
    "fold_global",
    "fold_two_qubit_gates",
    "DD_SEQUENCES",
    "DynamicalDecoupling",
    "DynamicalDecouplingMitigator",
]
