"""Execution results: bitstring counts, quasi-probabilities and helpers.

Bitstrings are keyed with classical bit 0 as the left-most character, the
same convention the circuit IR uses for qubits.

Two result containers exist: :class:`Counts` (integer shots, the raw output
of every backend) and :class:`QuasiDistribution` (signed real weights, the
output of error mitigation — confusion-matrix inversion and zero-noise
extrapolation can push individual weights slightly below zero).  Everything
that consumes a distribution goes through :func:`normalized_probabilities`,
which clips negative quasi-weights and renormalises, so both containers (and
plain dicts) are accepted interchangeably by the score functions.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from ..exceptions import SimulationError

__all__ = [
    "Counts",
    "QuasiDistribution",
    "hellinger_fidelity_counts",
    "normalized_probabilities",
]


def normalized_probabilities(
    distribution: Mapping[str, float], clip_negative: bool = True
) -> Dict[str, float]:
    """Normalise a counts / probability / quasi-probability mapping.

    The shared normalisation path of every distribution-distance helper:
    negative quasi-probability weights (produced by readout-error inversion
    or zero-noise extrapolation) are clipped to zero before renormalising, so
    mitigated outputs can be scored by the same functions as raw counts.

    Args:
        distribution: Bitstring -> weight mapping (ints, floats, or a mix).
        clip_negative: Clip negative weights to zero (default).  With
            ``False``, negative weights flow through and the result sums to 1
            but is not a probability distribution.

    Raises:
        SimulationError: when the mapping is empty or its (clipped) total is
            not positive.
    """
    if not distribution:
        raise SimulationError("cannot normalise an empty distribution")
    if clip_negative:
        cleaned = {key: float(value) for key, value in distribution.items() if value > 0}
    else:
        cleaned = {key: float(value) for key, value in distribution.items()}
    total = sum(cleaned.values())
    if total <= 0:
        raise SimulationError("cannot normalise a distribution with non-positive total weight")
    return {key: value / total for key, value in cleaned.items()}


class Counts(dict):
    """A dictionary of bitstring -> number of shots with convenience methods."""

    def __init__(self, data: Mapping[str, int] | None = None, num_bits: int | None = None) -> None:
        super().__init__()
        if data:
            for key, value in data.items():
                self[key] = self.get(key, 0) + int(value)
        if num_bits is None:
            num_bits = len(next(iter(self))) if self else 0
        self.num_bits = num_bits

    @property
    def shots(self) -> int:
        return sum(self.values())

    def probabilities(self) -> Dict[str, float]:
        """Normalised distribution over observed bitstrings."""
        if not self:
            raise SimulationError("cannot normalise an empty Counts object")
        return normalized_probabilities(self)


class QuasiDistribution(dict):
    """A bitstring -> signed weight mapping produced by error mitigation.

    Confusion-matrix inversion and zero-noise extrapolation yield
    *quasi-probabilities*: weights that sum to ~1 but may dip slightly below
    zero on individual bitstrings.  The container keeps the raw signed
    weights (expectation values computed directly from them are unbiased) and
    offers :meth:`probabilities` for consumers that need a proper
    distribution.

    Attributes:
        num_bits: Width of the bitstring keys.
        shots: Effective number of shots behind the estimate (for API parity
            with :class:`Counts`; used by score functions that weight by
            total counts).
    """

    def __init__(
        self,
        data: Mapping[str, float] | None = None,
        num_bits: int | None = None,
        shots: float | None = None,
    ) -> None:
        super().__init__()
        if data:
            for key, value in data.items():
                self[key] = self.get(key, 0.0) + float(value)
        if num_bits is None:
            num_bits = len(next(iter(self))) if self else 0
        self.num_bits = num_bits
        self._shots = shots

    @property
    def shots(self) -> float:
        """Effective shot count (explicit, or the clipped total weight)."""
        if self._shots is not None:
            return self._shots
        return sum(value for value in self.values() if value > 0)

    def probabilities(self) -> Dict[str, float]:
        """Nearest probability distribution: negatives clipped, renormalised."""
        return normalized_probabilities(self)

    def negativity(self) -> float:
        """Total negative weight ``sum_x |min(q(x), 0)|`` (0 for a true distribution)."""
        return float(sum(-value for value in self.values() if value < 0))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuasiDistribution(entries={len(self)}, num_bits={self.num_bits}, "
            f"negativity={self.negativity():.3e})"
        )


def hellinger_fidelity_counts(counts_a: Mapping[str, int], counts_b: Mapping[str, float]) -> float:
    """Hellinger fidelity between two (possibly unnormalised) distributions.

    This is the score function of the GHZ and error-correction benchmarks:
    ``(sum_x sqrt(p(x) q(x)))**2``, which is 1 for identical distributions and
    0 for disjoint ones.  Accepts counts, probabilities or quasi-probability
    mappings — both sides go through :func:`normalized_probabilities`, which
    clips the negative weights mitigation can produce.
    """
    if not counts_a or not counts_b:
        raise SimulationError("cannot compare empty distributions")
    p = normalized_probabilities(counts_a)
    q = normalized_probabilities(counts_b)
    overlap = 0.0
    for key, value in p.items():
        other = q.get(key, 0.0)
        if other > 0:
            overlap += np.sqrt(value * other)
    return float(overlap**2)
