"""Dynamical decoupling: pulse-sequence insertion into idle qubit windows.

On hardware, a qubit idling while its neighbours compute dephases freely;
inserting an identity-equivalent pulse train refocuses the low-frequency
part of that noise.  Two standard sequences are provided:

* ``"xx"`` — two X pulses (``X X = I``), the simplest echo;
* ``"xy4"`` — the XY4 train ``X Y X Y`` (equal to ``-I``, a global phase),
  which additionally refocuses both axes of single-qubit noise.

:class:`DynamicalDecoupling` is a
:class:`~repro.transpiler.passes.TransformationPass`, so it slots into any
:class:`~repro.transpiler.passmanager.PassManager` pipeline —
:func:`~repro.transpiler.presets.preset_pipeline` accepts ``dd="xy4"`` to
append it after the final cleanup stage (it must run *after* the
cancellation passes, which would otherwise delete the inserted ``X X``
pairs as adjacent inverses).  The pass reads each row's ASAP moment off the
packed profile (:attr:`~repro.features.CircuitProfile.row_moments`), finds
windows where a qubit idles for at least ``len(sequence)`` moments strictly
between two of its operations, and spreads the sequence over the window.
Because every sequence is identity-equivalent, the circuit unitary is
unchanged up to global phase.

The engine-facing :class:`DynamicalDecouplingMitigator` wraps the pass as a
circuit-level :class:`~repro.mitigation.base.Mitigator` (no counts
correction) so ``engine.run(..., mitigation="dd")`` applies it to the
compiled circuit.

Note: the repository's calibration-derived
:class:`~repro.simulation.noise_model.NoiseModel` attaches relaxation to
*gates* (idle qubits decay only during mid-circuit readout windows), so in
simulation DD mostly demonstrates the mechanism — each inserted pulse also
pays single-qubit gate noise.  See ``docs/mitigation.md`` for when it helps
on hardware.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits import Circuit
from ..circuits.columnar import OPCODES, PackedBuilder, PackedCircuit
from ..exceptions import MitigationError
from ..features.features import packed_profile
from ..simulation.result import Counts, QuasiDistribution
from ..transpiler.passes import PropertySet, TransformationPass
from .base import Mitigator, PassthroughMitigator

__all__ = ["DD_SEQUENCES", "DynamicalDecoupling", "DynamicalDecouplingMitigator"]

#: Identity-equivalent pulse trains, by name.
DD_SEQUENCES: Dict[str, Tuple[str, ...]] = {
    "xx": ("x", "x"),
    "xy4": ("x", "y", "x", "y"),
}


class DynamicalDecoupling(TransformationPass):
    """Insert a DD pulse train into every sufficiently long idle window.

    Args:
        sequence: ``"xx"`` or ``"xy4"``.
        min_idle_moments: Minimum idle-window length (in ASAP moments) that
            triggers insertion; defaults to the sequence length.  Windows are
            counted strictly *between* two operations on the same qubit —
            leading idle time (the qubit still in |0>) and trailing idle time
            (nothing left to protect) are skipped.

    The pass consumes barriers: the rewritten circuit is emitted in moment
    order, which already satisfies every synchronisation constraint the
    barriers expressed.  It records ``metrics["dd_pulses"]`` (inserted gate
    count) in the property set.
    """

    def __init__(self, sequence: str = "xy4", min_idle_moments: Optional[int] = None) -> None:
        if sequence not in DD_SEQUENCES:
            raise MitigationError(
                f"unknown DD sequence {sequence!r}; known: {sorted(DD_SEQUENCES)}"
            )
        self.sequence = sequence
        self.pulses = DD_SEQUENCES[sequence]
        if min_idle_moments is None:
            min_idle_moments = len(self.pulses)
        if min_idle_moments < len(self.pulses):
            raise MitigationError(
                f"min_idle_moments must be at least the sequence length "
                f"({len(self.pulses)}), got {min_idle_moments}"
            )
        self.min_idle_moments = int(min_idle_moments)

    def signature(self) -> Tuple:
        return (self.sequence, self.min_idle_moments)

    def run(self, packed: PackedCircuit, property_set: PropertySet) -> PackedCircuit:
        profile = packed_profile(packed)
        if profile.depth == 0:
            return packed
        rows = list(packed.iter_rows())

        # Moment indices at which each qubit is active: a qubit's rows have
        # strictly increasing moments, so row order is already sorted.
        active: List[List[int]] = [[] for _ in range(packed.num_qubits)]
        by_moment: List[List[int]] = [[] for _ in range(profile.depth)]
        for row, moment in enumerate(profile.row_moments.tolist()):
            if moment < 0:  # barrier
                continue
            by_moment[moment].append(row)
            for q in rows[row][2]:
                active[q].append(moment)

        # For every idle window of at least min_idle_moments, schedule the
        # pulse train spread evenly across the window.
        inserted: Dict[int, List[Tuple[int, int]]] = {}
        pulse_count = 0
        for qubit, indices in enumerate(active):
            for previous, following in zip(indices, indices[1:]):
                window = following - previous - 1
                if window < self.min_idle_moments:
                    continue
                stride = window / len(self.pulses)
                for position, pulse in enumerate(self.pulses):
                    moment_index = previous + 1 + int(position * stride)
                    inserted.setdefault(moment_index, []).append((OPCODES[pulse], qubit))
                    pulse_count += 1

        if not pulse_count:
            # Nothing to insert: keep the original circuit (and its barriers).
            return packed

        # Rows in (moment, row) order, each moment's pulses after its rows.
        out = PackedBuilder(packed.num_qubits, packed.num_clbits, packed.name)
        for index, members in enumerate(by_moment):
            for row in members:
                _row, opcode, qubits, params, clbit = rows[row]
                out.append(opcode, qubits, params, clbit)
            for opcode, qubit in inserted.get(index, ()):
                out.append(opcode, (qubit,))
        metrics = property_set.setdefault("metrics", {})
        metrics["dd_pulses"] = metrics.get("dd_pulses", 0) + pulse_count
        return out.build()


class DynamicalDecouplingMitigator(Mitigator):
    """Engine-facing wrapper: apply the DD pass to the compiled circuit.

    DD is purely a circuit transformation — the measured counts need no
    correction, so :meth:`mitigate` is a passthrough that re-expresses the
    counts as a (non-negative) quasi-distribution for API uniformity.
    """

    name = "dd"
    requires_calibration = False

    def __init__(self, sequence: str = "xy4", min_idle_moments: Optional[int] = None) -> None:
        self._pass = DynamicalDecoupling(sequence, min_idle_moments)
        self._passthrough = PassthroughMitigator()

    @property
    def sequence(self) -> str:
        return self._pass.sequence

    def transform(self, circuit: Circuit) -> List[Circuit]:
        return [self._pass.run(circuit.packed(), PropertySet()).unpack()]

    def mitigate(
        self,
        counts_list: Sequence[Counts],
        *,
        circuit: Optional[Circuit] = None,
        calibration: object = None,
    ) -> QuasiDistribution:
        return self._passthrough.mitigate(counts_list, circuit=circuit, calibration=calibration)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DynamicalDecouplingMitigator(sequence={self.sequence!r})"
