"""Statevector simulation.

Two entry points:

* :func:`final_statevector` — ideal evolution of a measurement-free circuit.
* :class:`StatevectorSimulator` — shot-based execution supporting mid-circuit
  measurement, reset and (via Monte-Carlo Kraus trajectories) a
  :class:`~repro.simulation.noise_model.NoiseModel`.

Evolution runs on the structure-specialised kernels in
:mod:`~repro.simulation.kernels`: diagonal and permutation gates take exact
fast paths, generic gates use the dense contraction, and noisy shots are
simulated as a *batched* ``(T, 2**n)`` trajectory array — the deterministic
prefix of a circuit is evolved once and only the stochastic suffix is paid
per trajectory.  The seeded noiseless sampling path is bit-identical to the
historical per-gate implementation (enforced by golden-count tests).

Indexing convention: qubit 0 is the least significant bit of the statevector
index and the left-most character of result bitstrings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits import Circuit
from ..circuits.columnar import BARRIER_OP, MEASURE_OP, RESET_OP
from ..exceptions import SimulationError
from ..telemetry import get_metrics, get_tracer
from .kernels import (
    GateKernel,
    apply_kernel,
    contract,
    counts_from_samples,
    fuse_operations,
    kernel_for_operation,
    measure_qubit_batch,
    operation_matrix,
    qubit_axis,
    reset_qubit_batch,
    sample_counts_array,
)
from .noise import KrausChannel
from .result import Counts

__all__ = [
    "final_statevector",
    "circuit_unitary",
    "probabilities_from_statevector",
    "sample_statevector",
    "StatevectorSimulator",
]

#: Cap on ``trajectories * 2**n`` elements held in memory at once by the
#: batched trajectory simulator; larger runs are processed in deterministic
#: chunks (the chunk boundaries depend only on this constant and the circuit
#: width, so seeded results do not depend on the host's memory).
DEFAULT_MAX_BATCH_ELEMENTS = 1 << 21

_PLAN_SECONDS = get_metrics().histogram(
    "repro_simulation_plan_seconds",
    "Latency of compiling a circuit into a trajectory plan.",
)
_BATCHES = get_metrics().counter(
    "repro_simulation_trajectory_batches_total",
    "Trajectory chunks evolved by the batched simulator.",
)

#: Rows the strict walk skips: they carry no unitary.
_NON_GATE_OPS = frozenset((BARRIER_OP, MEASURE_OP, RESET_OP))


def _initial_tensor(num_qubits: int, initial_state: np.ndarray | None) -> np.ndarray:
    dim = 2**num_qubits
    if initial_state is None:
        state = np.zeros(dim, dtype=complex)
        state[0] = 1.0
    else:
        state = np.asarray(initial_state, dtype=complex).copy()
        if state.shape != (dim,):
            raise SimulationError("initial state dimension mismatch")
    return state.reshape((2,) * num_qubits)


def _evolve_rows(tensor: np.ndarray, circuit: Circuit) -> np.ndarray:
    """The strict walk: apply each gate row of ``circuit`` on its own to ``tensor``.

    Qubit ``q`` is axis ``qubit_axis(q, num_qubits)``; trailing axes (the
    columns of :func:`circuit_unitary`'s identity) ride along.  Barrier,
    measurement and reset rows are skipped, so callers reject circuits with
    a collapse.  Strict kernels keep the result bit-identical to per-gate
    dense contraction (the seeded sampling contract).  Parameterised rows
    skip kernel analysis and the caches: an optimiser's angles are seen
    once, and strict mode only takes fast paths that are bit-identical to
    the contraction anyway.
    """
    num_qubits = circuit.num_qubits
    for _row, opcode, qubits, params, _clbit in circuit.packed().iter_rows():
        if opcode in _NON_GATE_OPS:
            continue
        axes = [qubit_axis(q, num_qubits) for q in qubits]
        if params:
            tensor = contract(tensor, operation_matrix.__wrapped__(opcode, params), axes)
        else:
            tensor = apply_kernel(tensor, kernel_for_operation(opcode, params), axes, strict=True)
    return tensor


def final_statevector(circuit: Circuit, initial_state: np.ndarray | None = None) -> np.ndarray:
    """Ideal final statevector of a circuit.

    Terminal measurements are ignored.  A reset, or a measurement that is
    not the last operation on its qubit, raises :class:`SimulationError`
    because the output would not be a pure state (use
    :class:`StatevectorSimulator` instead).
    """
    if _has_collapse(circuit):
        raise SimulationError(
            "circuit contains reset or mid-circuit measurement; use StatevectorSimulator"
        )
    psi = _evolve_rows(_initial_tensor(circuit.num_qubits, initial_state), circuit)
    return np.ascontiguousarray(psi).reshape(-1)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of a measurement-free circuit (exponential cost).

    The strict row walk applied to the row axes of the identity tensor in
    one shot — no per-column loop.

    Raises:
        SimulationError: if the circuit contains measurement or reset.
    """
    if circuit.num_measurements() or circuit.num_resets():
        raise SimulationError("circuit_unitary requires a circuit without measurement or reset")
    num_qubits = circuit.num_qubits
    dim = 2**num_qubits
    # Row (output) qubit q of the unitary lives on axis num_qubits - 1 - q.
    tensor = np.eye(dim, dtype=complex).reshape((2,) * (2 * num_qubits))
    return np.ascontiguousarray(_evolve_rows(tensor, circuit)).reshape(dim, dim)


def probabilities_from_statevector(state: np.ndarray) -> np.ndarray:
    """Born-rule probabilities of all computational basis states."""
    probabilities = np.abs(state) ** 2
    total = probabilities.sum()
    if total <= 0:
        raise SimulationError("statevector has zero norm")
    return probabilities / total


def sample_statevector(
    state: np.ndarray,
    shots: int,
    qubits: Sequence[int] | None = None,
    clbits: Sequence[int] | None = None,
    num_clbits: int | None = None,
    rng: np.random.Generator | None = None,
) -> Counts:
    """Sample measurement outcomes of the given qubits from a statevector."""
    generator = rng if rng is not None else np.random.default_rng()
    num_qubits = int(np.log2(len(state)))
    if qubits is None:
        qubits = list(range(num_qubits))
    if clbits is None:
        clbits = list(range(len(qubits)))
    if num_clbits is None:
        num_clbits = max(clbits) + 1 if clbits else 0
    probabilities = probabilities_from_statevector(state)
    samples = generator.choice(len(probabilities), size=shots, p=probabilities)
    counts = counts_from_samples(samples, qubits, clbits, num_clbits)
    return Counts(counts, num_bits=num_clbits)


# ---------------------------------------------------------------------------
# trajectory plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _GateStep:
    kernel: GateKernel
    qubits: Tuple[int, ...]


@dataclass(frozen=True)
class _PreparedChannel:
    """A channel's operators stacked for the XOR-gather kernel.

    ``operators`` holds one flattened ``(d, d)`` operator per branch: the
    non-zero Kraus operators of a general channel, or the unitaries of a
    mixture (an exact identity for each identity branch).  ``terms`` are
    the XOR masks ``s`` for which some operator has a non-zero entry
    ``(r, r ^ s)``.  General channels add their Gram matrices ``K†K`` and
    the masks those use; mixtures add the ``Generator.choice`` CDF of their
    branch probabilities and per-branch identity flags.

    ``no_jump`` bounds branch 0's share ``w_0 / Σ w`` of a general channel
    from below over every state: ``λ_min(K_0†K_0) / λ_max(Σ K†K)`` when
    ``K_0`` is diagonal, else 0.  A trajectory whose uniform draw is at most
    :meth:`no_jump_bound` takes branch 0 whatever its state.
    """

    operators: np.ndarray
    terms: Tuple[int, ...]
    grams: Optional[np.ndarray] = None
    gram_terms: Tuple[int, ...] = ()
    no_jump: float = 0.0
    cdf: Optional[np.ndarray] = None
    identity: Optional[np.ndarray] = None

    def no_jump_bound(self, num_qubits: int) -> float:
        """``no_jump`` less the rounding of the share computed on ``num_qubits`` qubits.

        The computed ``w_0 / Σ w`` is off the exact share by at most one
        rounding per summed term: ``2**n`` per pair of Gram masks in each
        weight, and one per branch in the total.
        """
        summed = (len(self.gram_terms) ** 2 << num_qubits) + len(self.operators) + 8
        return self.no_jump - _SHARE_ROUNDING * summed


@dataclass(frozen=True)
class _ChannelStep:
    channel: KrausChannel
    qubits: Tuple[int, ...]
    prepared: _PreparedChannel


@dataclass(frozen=True)
class _MeasureStep:
    qubit: int
    clbit: int


@dataclass(frozen=True)
class _ResetStep:
    qubit: int


@dataclass(frozen=True)
class _TrajectoryPlan:
    """A circuit compiled for batched trajectory evolution."""

    num_qubits: int
    num_clbits: int
    prefix: Tuple[_GateStep, ...]  # deterministic: evolved once, not per trajectory
    suffix: Tuple[object, ...]  # stochastic tail: evolved per trajectory batch
    terminal: Tuple[Tuple[int, int], ...]  # (qubit, clbit) sampled at the end


def _is_identity(unitary: np.ndarray) -> bool:
    # Tolerance matters: mixture unitaries are built as K / sqrt(weight), so
    # the no-error branch's diagonal can be 1.0 +/- 1 ulp; an exact comparison
    # would silently disable identity-branch skipping for such error rates.
    return bool(np.allclose(unitary, np.eye(len(unitary)), rtol=0.0, atol=1e-12))


def _xor_terms(matrices: np.ndarray) -> Tuple[int, ...]:
    """Masks ``s`` for which some ``(d, d)`` matrix has a non-zero ``(r, r ^ s)`` entry."""
    rows = np.arange(matrices.shape[-1])
    return tuple(s for s in range(len(rows)) if matrices[:, rows, rows ^ s].any())


#: ``Generator.choice``'s tolerance on a distribution's sum.
_CHOICE_ATOL = float(np.sqrt(np.finfo(np.float64).eps))

#: Rounding of a computed branch share ``w_0 / Σ w`` per summed term, with a
#: factor 2 to spare (the weights are sums of products of rounded squares).
_SHARE_ROUNDING = 4 * float(np.finfo(np.float64).eps)


def _choice_cdf(probabilities: np.ndarray) -> np.ndarray:
    """Inverse-CDF table of distributions on the last axis, as ``Generator.choice`` builds it.

    Checks what ``choice`` checks -- no NaN, no negative entry, every
    distribution summing to 1 within ``sqrt(eps)`` -- and returns the
    cumulative sum divided by its last entry, so that
    ``cdf.searchsorted(rng.random(n), side="right")`` draws exactly what
    ``rng.choice(len(p), n, p=p)`` draws and leaves ``rng`` in the same state.
    """
    totals = probabilities.sum(axis=-1)
    if (
        np.isnan(totals).any()
        or (probabilities < 0).any()
        or (np.abs(totals - 1.0) > _CHOICE_ATOL).any()
    ):
        raise SimulationError("probabilities must be non-negative and sum to 1")
    cdf = probabilities.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _prepare_channel(channel: KrausChannel) -> _PreparedChannel:
    # Cached on the channel object: channel factories are themselves cached,
    # so each distinct channel is prepared once per process rather than once
    # per compiled circuit.
    prepared = getattr(channel, "_trajectory_prepared", None)
    if prepared is not None:
        return prepared
    dim = channel.dim
    mixture = channel.unitary_mixture()
    if mixture is None:
        # Identically-zero operators (thermal relaxation's PD1 @ AD1) are
        # branches no trajectory may take.
        kraus = np.array([k for k in channel.kraus_operators if k.any()], dtype=complex)
        if not len(kraus):
            raise SimulationError(f"channel {channel.name!r} has only zero Kraus operators")
        grams = kraus.conj().transpose(0, 2, 1) @ kraus
        diagonal = np.diag(kraus[0])
        no_jump = 0.0
        if np.array_equal(kraus[0], np.diag(diagonal)):
            lowest = float((np.abs(diagonal) ** 2).min())
            no_jump = lowest / float(np.linalg.eigvalsh(grams.sum(axis=0)).max())
        prepared = _PreparedChannel(
            operators=kraus.reshape(len(kraus), dim * dim),
            terms=_xor_terms(kraus),
            grams=grams.reshape(len(grams), dim * dim),
            gram_terms=_xor_terms(grams),
            no_jump=no_jump,
        )
    else:
        probabilities, unitaries = mixture
        identity = np.array([_is_identity(u) for u in unitaries])
        stacked = np.array(
            [np.eye(dim, dtype=complex) if flag else u for u, flag in zip(unitaries, identity)]
        )
        prepared = _PreparedChannel(
            operators=stacked.reshape(len(stacked), dim * dim),
            terms=_xor_terms(stacked),
            cdf=_choice_cdf(np.asarray(probabilities, dtype=float)),
            identity=identity,
        )
    object.__setattr__(channel, "_trajectory_prepared", prepared)
    return prepared


def _channel_step(channel: KrausChannel, qubits: Tuple[int, ...]) -> _ChannelStep:
    return _ChannelStep(channel, qubits, _prepare_channel(channel))


@lru_cache(maxsize=256)
def _xor_table(
    num_qubits: int, qubits: Tuple[int, ...], terms: Tuple[int, ...]
) -> Tuple[np.ndarray, np.ndarray]:
    """Gather indices and flat operator columns of a k-qubit operator's XOR terms.

    Let ``b(i)`` be basis state ``i``'s sub-index on ``qubits`` (``qubits[0]``
    is the matrix MSB) and ``d = 2**k``.  Row ``m`` of the two ``(len(terms),
    2**num_qubits)`` tables, for mask ``s = terms[m]``, holds ``i ^ spread(s)``
    -- the basis state whose sub-index is ``b(i) ^ s`` -- and
    ``b(i) * d + (b(i) ^ s)``, the entry of a flattened ``(d, d)`` operator
    that multiplies it.  So ``(K ⊗ I) ψ = Σ_m ψ[gather[m]] * K.ravel()[columns[m]]``
    whenever ``terms`` covers every non-zero entry of ``K``.  The tables are
    shared across callers and read-only.
    """
    k = len(qubits)
    index = np.arange(1 << num_qubits)
    masks = np.array(terms, dtype=index.dtype)[:, None]
    sub = np.zeros_like(index)
    spread = np.zeros_like(masks)
    for position, qubit in enumerate(qubits):
        bit = k - 1 - position
        sub |= ((index >> qubit) & 1) << bit
        spread |= ((masks >> bit) & 1) << qubit
    gather = index ^ spread
    columns = (sub << k) | (sub ^ masks)
    gather.flags.writeable = False
    columns.flags.writeable = False
    return gather, columns


def _evolve_prefix(plan: _TrajectoryPlan) -> np.ndarray:
    """The plan's deterministic prefix evolved from ``|0...0>``, as a ``(2,)*n`` tensor.

    The fused walk: the prefix's gate steps are fused runs, applied with
    the non-strict kernels, so the state may differ from
    :func:`final_statevector`'s in the last ulp.
    """
    num_qubits = plan.num_qubits
    psi = _initial_tensor(num_qubits, None)
    for step in plan.prefix:
        axes = [qubit_axis(q, num_qubits) for q in step.qubits]
        psi = apply_kernel(psi, step.kernel, axes, strict=False)
    return psi


def _compile_trajectory_plan(circuit: Circuit, noise_model) -> _TrajectoryPlan:
    """Lower a circuit to the step sequence both noisy simulators execute.

    Runs of consecutive noise-free unitaries are fused; every stochastic
    element (noise channel, mid-circuit measurement, reset) becomes its own
    step.  Terminal measurements (:meth:`PackedCircuit.terminal_measurements
    <repro.circuits.columnar.PackedCircuit.terminal_measurements>`) are
    deferred to final-state sampling, so a run is not split there.
    """
    steps: List[object] = []
    run: List[Tuple[int, Tuple[int, ...], Tuple[float, ...]]] = []

    def flush_run() -> None:
        if len(run) == 1:
            opcode, qubits, params = run[0]
            steps.append(_GateStep(kernel_for_operation(opcode, params), qubits))
        elif run:
            operations = [(operation_matrix(opcode, params), qubits) for opcode, qubits, params in run]
            for fused in fuse_operations(operations):
                steps.append(_GateStep(fused.kernel, fused.qubits))
        run.clear()

    packed = circuit.packed()
    terminal = packed.terminal_measurements()
    for index, opcode, qubits, params, clbit in packed.iter_rows():
        if opcode == BARRIER_OP or index in terminal:
            continue
        if opcode == MEASURE_OP:
            qubit = qubits[0]
            flush_run()
            steps.append(_MeasureStep(qubit, clbit))
            if noise_model is not None:
                for channel, channel_qubits in noise_model.measurement_channels(qubit):
                    steps.append(_channel_step(channel, tuple(channel_qubits)))
            continue
        if opcode == RESET_OP:
            flush_run()
            steps.append(_ResetStep(qubits[0]))
            if noise_model is not None:
                for channel, channel_qubits in noise_model.reset_channels(qubits[0]):
                    steps.append(_channel_step(channel, tuple(channel_qubits)))
            continue
        run.append((opcode, qubits, params))
        channels = noise_model.channels_for_gate(qubits) if noise_model is not None else []
        if channels:
            flush_run()
            for channel, channel_qubits in channels:
                steps.append(_channel_step(channel, tuple(channel_qubits)))
    flush_run()

    split = 0
    while split < len(steps) and isinstance(steps[split], _GateStep):
        split += 1
    return _TrajectoryPlan(
        num_qubits=circuit.num_qubits,
        num_clbits=circuit.num_clbits,
        prefix=tuple(steps[:split]),
        suffix=tuple(steps[split:]),
        terminal=tuple(terminal.values()),
    )


def checked_trajectories(trajectories: int | None) -> int | None:
    """Return a trajectory count that is ``None`` or at least 1; raise otherwise."""
    if trajectories is not None and trajectories < 1:
        raise SimulationError(f"trajectories must be None or at least 1, got {trajectories}")
    return trajectories


class StatevectorSimulator:
    """Shot-based statevector simulator with optional Monte-Carlo noise.

    Noisy (and mid-circuit measurement/reset) execution is *batched*: the
    deterministic prefix of the compiled circuit is evolved once, the
    stochastic suffix is evolved as a ``(T, 2**n)`` trajectory array with
    vectorised Kraus sampling, and terminal measurements are sampled with
    vectorised readout error.

    A noise channel step computes only on the trajectories (batch rows)
    whose draw can change them, writing them in place.  Unitary-mixture
    channels (depolarizing, Pauli flips) sample their branch from a
    state-independent distribution, leave the batch untouched when every
    trajectory drew the identity branch 0 (one ``draws.max() < cdf[0]``
    compare), and otherwise apply the XOR gather to the rows that drew a
    non-identity branch alone.  A general channel whose first Kraus
    operator ``K_0`` is diagonal (thermal relaxation, amplitude and phase
    damping) gives branch 0 at least the share ``λ_min(K_0†K_0) / λ_max(Σ
    K†K)`` of every state, so a row whose uniform draw is within that
    bound, less a rounding margin that grows with ``2**n``, takes branch 0
    as one elementwise multiply by ``K_0 / sqrt(w_0)``; only the other rows
    go through the cumulative-weight choice and the gather.  Every row gets
    the arithmetic the whole-batch gather gave it, so the output bytes are
    unchanged but for the sign of a zero.  The branch weights stay one
    matmul over the whole batch: on one row numpy takes another BLAS path,
    and the weights of a row subset are other bytes.

    Args:
        noise_model: Optional :class:`~repro.simulation.noise_model.NoiseModel`.
            When present, each trajectory stochastically applies one Kraus
            operator per channel (exact in expectation).
        seed: Seed for the internal random generator.
        trajectories: Number of independent noisy trajectories used to spread
            the requested shots over.  ``None`` (default) uses one trajectory
            per shot when the circuit is noisy or contains mid-circuit
            measurement/reset, and a single final-state sampling pass
            otherwise.  A count below 1 raises :class:`SimulationError`.
        max_batch_elements: Memory cap on ``trajectories * 2**n`` complex
            amplitudes held at once; beyond it trajectories are processed in
            deterministic chunks.
    """

    def __init__(
        self,
        noise_model=None,
        seed: int | None = None,
        trajectories: int | None = None,
        max_batch_elements: int = DEFAULT_MAX_BATCH_ELEMENTS,
    ) -> None:
        self.noise_model = noise_model
        self._rng = np.random.default_rng(seed)
        self.trajectories = checked_trajectories(trajectories)
        self.max_batch_elements = int(max_batch_elements)

    # ------------------------------------------------------------------
    def run(self, circuit: Circuit, shots: int = 1024) -> Counts:
        """Execute the circuit and return bitstring counts."""
        if shots <= 0:
            raise SimulationError("shots must be positive")
        needs_trajectories = self.noise_model is not None or _has_collapse(circuit)
        if not needs_trajectories:
            state = final_statevector(circuit)
            # qubit -> clbit; a qubit has at most one terminal measurement.
            sampled = dict(circuit.packed().terminal_measurements().values())
            if not sampled:
                raise SimulationError("circuit has no measurements to sample")
            return sample_statevector(
                state, shots, list(sampled), list(sampled.values()), circuit.num_clbits, self._rng
            )
        return self._run_batched_trajectories(circuit, shots)

    # ------------------------------------------------------------------
    def _run_batched_trajectories(self, circuit: Circuit, shots: int) -> Counts:
        tracer = get_tracer()
        plan_started = time.perf_counter()
        plan = _compile_trajectory_plan(circuit, self.noise_model)
        plan_elapsed = time.perf_counter() - plan_started
        _PLAN_SECONDS.observe(plan_elapsed)
        tracer.emit(
            "simulation.plan",
            plan_elapsed,
            prefix_steps=len(plan.prefix),
            suffix_steps=len(plan.suffix),
        )
        num_qubits = plan.num_qubits
        num_trajectories = min(self.trajectories or shots, shots)
        base, remainder = divmod(shots, num_trajectories)
        shots_per = np.full(num_trajectories, base, dtype=np.int64)
        shots_per[:remainder] += 1

        with tracer.span(
            "simulation.trajectories",
            qubits=num_qubits,
            trajectories=num_trajectories,
            shots=shots,
        ):
            # Deterministic prefix: one statevector evolution for all
            # trajectories.
            psi = _evolve_prefix(plan)
            dim = 2**num_qubits
            chunk = max(1, self.max_batch_elements // dim)
            counts: Dict[str, int] = {}
            for start in range(0, num_trajectories, chunk):
                stop = min(start + chunk, num_trajectories)
                _BATCHES.inc()
                rows = self._evolve_and_sample_chunk(plan, psi, shots_per[start:stop])
                for key, value in sample_counts_array(rows, plan.num_clbits).items():
                    counts[key] = counts.get(key, 0) + value
        return Counts(counts, num_bits=plan.num_clbits)

    def _evolve_and_sample_chunk(
        self, plan: _TrajectoryPlan, prefix_state: np.ndarray, shots_per: np.ndarray
    ) -> np.ndarray:
        """Evolve one chunk of trajectories and return its classical-bit rows."""
        num_qubits = plan.num_qubits
        size = len(shots_per)
        batch = np.broadcast_to(prefix_state, (size,) + prefix_state.shape).copy()
        bits = np.zeros((size, plan.num_clbits), dtype=np.uint8)

        for step in plan.suffix:
            if isinstance(step, _GateStep):
                axes = [qubit_axis(q, num_qubits, offset=1) for q in step.qubits]
                batch = apply_kernel(batch, step.kernel, axes, strict=False)
            elif isinstance(step, _ChannelStep):
                batch = self._apply_channel_batch(batch, step, num_qubits)
            elif isinstance(step, _MeasureStep):
                outcomes = measure_qubit_batch(batch, step.qubit, num_qubits, self._rng)
                outcomes = self._readout_flips(step.qubit, outcomes)
                bits[:, step.clbit] = outcomes
            elif isinstance(step, _ResetStep):
                reset_qubit_batch(batch, step.qubit, num_qubits, self._rng)

        samples, rows = self._sample_terminal(plan, batch, bits, shots_per)
        for qubit, clbit in plan.terminal:
            bit = ((samples >> qubit) & 1).astype(np.uint8)
            rows[:, clbit] = self._readout_flips(qubit, bit)
        return rows

    def _sample_terminal(
        self,
        plan: _TrajectoryPlan,
        batch: np.ndarray,
        bits: np.ndarray,
        shots_per: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample terminal-measurement basis states for every shot of a chunk.

        Returns ``(samples, rows)`` where ``samples`` holds one sampled basis
        index per shot and ``rows`` the (readout-error-free) classical bits
        inherited from mid-circuit measurements, one row per shot.
        """
        size = len(shots_per)
        rows = np.repeat(bits, shots_per, axis=0)
        if not plan.terminal:
            return np.zeros(rows.shape[0], dtype=np.int64), rows
        flat = batch.reshape(size, -1)
        probabilities = np.abs(flat) ** 2
        totals = probabilities.sum(axis=1)
        if np.any(totals <= 0):
            raise SimulationError("statevector has zero norm")
        probabilities /= totals[:, None]
        if np.all(shots_per == 1):
            # One shot per trajectory: a single vectorised inverse-CDF draw.
            cumulative = np.cumsum(probabilities, axis=1)
            draws = self._rng.random(size)
            samples = (draws[:, None] > cumulative).sum(axis=1)
            samples = np.minimum(samples, probabilities.shape[1] - 1)
        else:
            # Generator.choice per trajectory, drawn at once: the same draws
            # in the same order, compared row-wise against each trajectory's
            # CDF (searchsorted side="right"), in blocks under the batch cap.
            cdf = _choice_cdf(probabilities)
            owners = np.repeat(np.arange(size), shots_per)
            draws = self._rng.random(owners.size)
            block = max(1, self.max_batch_elements // cdf.shape[1])
            samples = np.concatenate(
                [
                    (cdf[owners[i : i + block]] <= draws[i : i + block, None]).sum(axis=1)
                    for i in range(0, owners.size, block)
                ]
            )
        return samples.astype(np.int64), rows

    def _readout_flips(self, qubit: int, outcomes: np.ndarray) -> np.ndarray:
        """Vectorised classical readout error on an array of measured bits."""
        if self.noise_model is None:
            return outcomes
        error = self.noise_model.readout_error_probability(qubit)
        if error <= 0:
            return outcomes
        flips = self._rng.random(outcomes.shape[0]) < error
        return outcomes ^ flips

    def _apply_channel_batch(
        self, batch: np.ndarray, step: _ChannelStep, num_qubits: int
    ) -> np.ndarray:
        """Sample one Kraus branch per trajectory and apply it to the rows it changes.

        Consumes the draws of a per-branch implementation, in the same
        order: a mixture takes one ``Generator.choice`` index per trajectory
        (none when it has a single branch), a general channel one uniform
        per trajectory.  The chosen operator -- ``K_c / sqrt(w_c)`` for a
        general channel -- is applied through the :func:`_xor_table` gather
        to the rows it changes and written in place; the class docstring
        says which rows skip the gather and why the bytes stay the same.
        """
        prepared = step.prepared
        size = batch.shape[0]
        batch = np.ascontiguousarray(batch)
        flat = batch.reshape(size, -1)  # a view: row writes land in the batch
        if prepared.cdf is not None:
            if len(prepared.cdf) == 1:
                choices = np.zeros(size, dtype=np.intp)
            else:
                draws = self._rng.random(size)
                if prepared.identity[0] and draws.max() < prepared.cdf[0]:
                    return batch  # the overwhelmingly common no-error draw
                choices = prepared.cdf.searchsorted(draws, side="right")
            rows = np.flatnonzero(~prepared.identity[choices])
            if not rows.size:
                return batch
            source = flat[rows]
            operators = prepared.operators[choices[rows]]
        else:
            # Branch weights <psi|K†K|psi>: the Grams' diagonal term
            # |psi|^2 @ G_0, plus their off-diagonal XOR terms, if any.
            gather, columns = _xor_table(num_qubits, step.qubits, prepared.gram_terms)
            grams = prepared.grams
            weights = (np.abs(flat) ** 2) @ grams[:, columns[0]].real.T
            if len(columns) > 1:
                pairs = flat.conj()[:, None, :] * flat[:, gather[1:]]
                off_diagonal = grams[:, columns[1:]].reshape(len(grams), -1)
                weights += (pairs.reshape(size, -1) @ off_diagonal.T).real
                np.maximum(weights, 0.0, out=weights)  # rounding below zero
            totals = weights.sum(axis=1)
            if not totals.min() > 1e-15:
                raise SimulationError("noise channel annihilated the state")
            draws = self._rng.random(size)
            rows = np.flatnonzero(draws > prepared.no_jump_bound(num_qubits))
            source = flat
            if rows.size < size:
                # Some draw is within the bound, so K_0 is diagonal and every
                # w_0 > 0: copy out the rows that jump, for the gather below,
                # then scale every row by K_0 / sqrt(w_0) (mask 0's columns
                # pick K_0's diagonal).
                source = flat[rows]
                scale = prepared.operators[0] / np.sqrt(weights[:, :1])
                flat *= scale[:, columns[0]]
                if not rows.size:
                    return batch
            cumulative = np.cumsum(weights / totals[:, None], axis=1)[rows]
            choices = (draws[rows, None] > cumulative[:, :-1]).sum(axis=1)
            chosen = weights[rows, choices]
            if not chosen.all():
                # Rounding left a draw past the last boundary, on a trailing
                # zero-weight branch (or a zero draw on a leading one): move
                # it to the nearest branch with weight.
                positive = weights[rows] > 0
                first = positive.argmax(axis=1)
                last = positive.shape[1] - 1 - positive[:, ::-1].argmax(axis=1)
                choices = np.clip(choices, first, last)
                chosen = weights[rows, choices]
            operators = prepared.operators[choices] / np.sqrt(chosen)[:, None]
        gather, columns = _xor_table(num_qubits, step.qubits, prepared.terms)
        flat[rows] = (source[:, gather] * operators[:, columns]).sum(axis=1)
        return batch


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _has_collapse(circuit: Circuit) -> bool:
    """True when the circuit needs per-trajectory simulation even without noise."""
    if circuit.num_resets() > 0:
        return True
    return circuit.num_measurements() > len(circuit.packed().terminal_measurements())
