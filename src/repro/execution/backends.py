"""Execution backends: the pluggable "how it runs" half of the engine API.

A :class:`Backend` turns already-compiled circuits into measurement counts.
Three implementations cover the accuracy/cost spectrum:

* :class:`StatevectorBackend` — ideal (noise-free) statevector sampling.
* :class:`TrajectoryBackend` — Monte-Carlo Kraus trajectories over a noisy
  statevector; exact in expectation, cost scales with the trajectory count.
* :class:`DensityMatrixBackend` — exact mixed-state evolution; the reference
  implementation, practical only for small circuits (``4**n`` memory).

Backends are deliberately stateless across calls: the three share one
``run_batch``, which builds one simulator per circuit seeded with
:func:`circuit_seed` from the batch seed, so splitting a batch across workers
(as the engine does) yields bit-identical results to a serial run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Sequence, Union, runtime_checkable

from ..circuits import Circuit
from ..exceptions import SimulationError
from ..simulation import Counts, DensityMatrixSimulator, StatevectorSimulator
from ..simulation.noise_model import NoiseModel
from ..simulation.statevector import checked_trajectories

__all__ = [
    "Backend",
    "StatevectorBackend",
    "TrajectoryBackend",
    "DensityMatrixBackend",
    "resolve_backend",
    "backend_metadata",
    "SEED_STRIDE",
]

#: Per-circuit seed stride inside a batch (fixed so seeded results are
#: reproducible across releases).
SEED_STRIDE = 7919

#: A batch noise specification: one model for every circuit, one per circuit,
#: or ``None`` for ideal execution.
NoiseSpec = Union[NoiseModel, Sequence[Optional[NoiseModel]], None]


def circuit_seed(seed: Optional[int], index: int) -> Optional[int]:
    """Seed of the ``index``-th circuit of a batch seeded with ``seed``."""
    return None if seed is None else seed + SEED_STRIDE * index


def _noise_for(noise_model: NoiseSpec, index: int) -> Optional[NoiseModel]:
    if noise_model is None or isinstance(noise_model, NoiseModel):
        return noise_model
    return noise_model[index]


@runtime_checkable
class Backend(Protocol):
    """Protocol every execution backend implements.

    Attributes:
        name: Short machine-readable backend name (``"statevector"``, ...).
        noisy: Whether the backend consumes noise models.  The engine skips
            building noise models for backends that would discard them.

    Backends may additionally expose a ``metadata()`` method returning a
    flat dict describing their configuration; the engine hashes it into
    every store content key (see :func:`backend_metadata`, which supplies a
    fallback for backends without one).
    """

    name: str
    noisy: bool

    def run_batch(
        self,
        circuits: Sequence[Circuit],
        shots: int,
        *,
        noise_model: NoiseSpec = None,
        seed: Optional[int] = None,
    ) -> List[Counts]:
        """Execute compiled circuits and return one :class:`Counts` per circuit."""
        ...


class _SimulatorBackend:
    """The batch loop the three backends share: one seeded simulator per circuit.

    A backend gives only :meth:`_simulator`, its ``metadata()`` and its repr.
    """

    noisy: bool

    def run_batch(
        self,
        circuits: Sequence[Circuit],
        shots: int,
        *,
        noise_model: NoiseSpec = None,
        seed: Optional[int] = None,
    ) -> List[Counts]:
        return [
            self._simulator(
                _noise_for(noise_model, index) if self.noisy else None,
                circuit_seed(seed, index),
            ).run(circuit, shots=shots)
            for index, circuit in enumerate(circuits)
        ]

    def _simulator(self, noise_model: Optional[NoiseModel], seed: Optional[int]):
        """The simulator that runs one circuit of a batch."""
        raise NotImplementedError


class StatevectorBackend(_SimulatorBackend):
    """Ideal statevector execution; any supplied noise model is ignored.

    Args:
        trajectories: Number of trajectories the shots are spread over when a
            circuit contains mid-circuit measurement or reset (which forces
            per-trajectory simulation even without noise).  ``None`` (default)
            uses one trajectory per shot for such circuits; measurement-free
            circuits always use a single final-state sampling pass.  A count
            below 1 raises :class:`~repro.exceptions.SimulationError`.
    """

    name = "statevector"
    noisy = False

    def __init__(self, trajectories: Optional[int] = None) -> None:
        self.trajectories = checked_trajectories(trajectories)

    def _simulator(
        self, noise_model: Optional[NoiseModel], seed: Optional[int]
    ) -> StatevectorSimulator:
        return StatevectorSimulator(seed=seed, trajectories=self.trajectories)

    def metadata(self) -> Dict[str, object]:
        """Flat configuration record attached to jobs by the engine."""
        return {"name": self.name, "noisy": self.noisy, "trajectories": self.trajectories}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StatevectorBackend(trajectories={self.trajectories})"


class TrajectoryBackend(_SimulatorBackend):
    """Noisy statevector execution via Monte-Carlo Kraus trajectories.

    Trajectories are simulated as a batched ``(T, 2**n)`` array on the
    vectorised kernels in :mod:`repro.simulation.kernels`: the deterministic
    prefix of each circuit is evolved once and only the stochastic suffix is
    paid per trajectory (see ``docs/simulation.md``).

    Args:
        trajectories: Number of independent trajectories the shots are spread
            over.  ``None`` (default) uses one trajectory per shot — the most
            faithful option; with batching it is no longer the slowest by
            orders of magnitude.  A count below 1 raises
            :class:`~repro.exceptions.SimulationError`.
        max_batch_elements: Cap on ``trajectories * 2**n`` amplitudes held in
            memory at once; beyond it the batch is processed in deterministic
            chunks (seeded results do not depend on the cap's interaction
            with the host, only on its value).
    """

    name = "trajectory"
    noisy = True

    def __init__(
        self,
        trajectories: Optional[int] = None,
        max_batch_elements: Optional[int] = None,
    ) -> None:
        self.trajectories = checked_trajectories(trajectories)
        self.max_batch_elements = max_batch_elements

    def _simulator(
        self, noise_model: Optional[NoiseModel], seed: Optional[int]
    ) -> StatevectorSimulator:
        extra = (
            {"max_batch_elements": self.max_batch_elements}
            if self.max_batch_elements is not None
            else {}
        )
        return StatevectorSimulator(
            noise_model=noise_model, seed=seed, trajectories=self.trajectories, **extra
        )

    def metadata(self) -> Dict[str, object]:
        """Flat configuration record attached to jobs by the engine.

        ``max_batch_elements`` is part of the record because seeded counts
        depend on its value (chunk boundaries change RNG consumption order).
        """
        return {
            "name": self.name,
            "noisy": self.noisy,
            "trajectories": self.trajectories,
            "max_batch_elements": self.max_batch_elements,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TrajectoryBackend(trajectories={self.trajectories}, "
            f"max_batch_elements={self.max_batch_elements})"
        )


class DensityMatrixBackend(_SimulatorBackend):
    """Exact noisy execution on the density-matrix simulator.

    Args:
        max_qubits: Safety limit on the circuit width (memory scales as
            ``4**n``).  The engine checks it at submission time and raises
            :class:`~repro.exceptions.BackendCapacityError` (a
            :class:`~repro.exceptions.DeviceError`, so sweep drivers skip the
            instance); calling :meth:`run_batch` directly with a wider
            circuit raises :class:`~repro.exceptions.SimulationError` from
            the simulator.
    """

    name = "density_matrix"
    noisy = True

    def __init__(self, max_qubits: int = 10) -> None:
        self.max_qubits = max_qubits

    def _simulator(
        self, noise_model: Optional[NoiseModel], seed: Optional[int]
    ) -> DensityMatrixSimulator:
        return DensityMatrixSimulator(
            noise_model=noise_model, seed=seed, max_qubits=self.max_qubits
        )

    def metadata(self) -> Dict[str, object]:
        """Flat configuration record attached to jobs by the engine."""
        return {"name": self.name, "noisy": self.noisy, "max_qubits": self.max_qubits}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DensityMatrixBackend(max_qubits={self.max_qubits})"


def backend_metadata(backend: "Backend") -> Dict[str, object]:
    """Configuration record of a backend, tolerating ones without ``metadata()``.

    Backends predating the metadata API (or third-party implementations of
    the bare protocol) fall back to the universally available
    ``name``/``noisy`` attributes.
    """
    method = getattr(backend, "metadata", None)
    if callable(method):
        return dict(method())
    return {"name": backend.name, "noisy": backend.noisy}


#: Accepted spellings for each backend name.
_BACKEND_ALIASES = {
    "statevector": "statevector",
    "ideal": "statevector",
    "trajectory": "trajectory",
    "noisy": "trajectory",
    "density_matrix": "density_matrix",
    "density-matrix": "density_matrix",
    "dm": "density_matrix",
}


def resolve_backend(
    backend: Union[Backend, str, None],
    *,
    trajectories: Optional[int] = None,
) -> Backend:
    """Normalise a backend specification into a :class:`Backend` instance.

    Args:
        backend: A backend instance (returned as-is), a name
            (``"statevector"``/``"ideal"``, ``"trajectory"``/``"noisy"``,
            ``"density_matrix"``/``"dm"``), or ``None`` for the default noisy
            trajectory backend.
        trajectories: Trajectory count used when a backend is constructed
            here from a name or ``None``; ignored for instances and for the
            density-matrix backend (which is exact).
    """
    if backend is None:
        return TrajectoryBackend(trajectories=trajectories)
    if isinstance(backend, str):
        canonical = _BACKEND_ALIASES.get(backend.lower())
        if canonical is None:
            raise SimulationError(
                f"unknown backend {backend!r}; known: {sorted(set(_BACKEND_ALIASES))}"
            )
        if canonical == "statevector":
            return StatevectorBackend(trajectories=trajectories)
        if canonical == "trajectory":
            return TrajectoryBackend(trajectories=trajectories)
        return DensityMatrixBackend()
    if isinstance(backend, Backend):
        return backend
    raise SimulationError(f"cannot interpret {backend!r} as an execution backend")
