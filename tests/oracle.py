"""Reference implementations: the oracle parity checks compare against.

The library implements the five Closed-Division optimization passes, the
interaction graph, ASAP moment scheduling, circuit depth and the two-qubit
critical path once, over the packed columnar IR (``repro.transpiler.packed``,
``PackedCircuit.interaction_graph`` and ``repro.features.packed_profile``).
This module keeps the per-instruction Python walks those implementations
replaced and must reproduce gate for gate.  It also keeps the
``np.tensordot`` gate contraction (:func:`apply_matrix_reference`) that
``repro.simulation.kernels.contract`` inlines and must reproduce bit for
bit, the whole-batch XOR-gather noise-channel step
(:func:`apply_channel_batch_reference`) that the trajectory simulator's
row-only step replaced and must reproduce byte for byte (up to the sign of a
zero), the density-matrix simulator's own row walk
(:func:`density_matrix_walk`), which it replaced by evolving the trajectory
plan and must reproduce byte for byte where the two fuse the same runs, the
exact Kraus sum of one channel on a density matrix
(:func:`apply_kraus_reference`), which the channel-physics and closed-form
depolarizing tests compare against, and the networkx noise-aware placement
and shortest-path router
(:func:`noise_aware_placement`, :func:`route_circuit`) that the cached
coupling tables of ``repro.devices.coupling`` replaced and must reproduce
qubit for qubit.  It keeps the VQE and QAOA benchmarks' inline
measured-energy loops (:func:`vqe_measured_energy`,
:func:`qaoa_measured_energy`), which the estimators of their Hamiltonian
objects (``PauliSum`` over the TFIM's terms, ``SKModel``) replaced and must
reproduce float for float.  So:

* the randomized, five-pass-chain and preset-family parity tests
  (``tests/transpiler/test_packed_passes.py``), the interaction-graph /
  depth / moment / critical-path / feature parity tests and the kernel
  parity tests (``tests/simulation/test_kernels.py``,
  ``tests/simulation/test_channel_parity.py``), the density-matrix parity
  test (``tests/simulation/test_density_matrix.py``) and the placement and routing
  parity tests (``tests/transpiler/test_placement_routing.py``) and the
  measured-energy parity tests (``tests/benchmarks/test_measured_energy.py``)
  compare the library against code it does not share;
* the micro-benchmarks that time the library against these baselines
  (``benchmarks/bench_transpiler_passes.py``, ``benchmarks/bench_suite.py``,
  ``benchmarks/bench_simulation_kernels.py``) keep measuring the baseline
  their committed ratios were recorded against, and the width scripts
  (``benchmarks/bench_contraction_width.py``,
  ``benchmarks/bench_channel_width.py``) time the library against them.

Under pytest this directory is on ``sys.path`` (it holds ``conftest.py``), so
tests ``import oracle``; the benchmark scripts put it there themselves.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.circuits import Circuit, Gate, Instruction
from repro.circuits.columnar import (
    BARRIER_OP,
    MEASURE_OP,
    OPCODES,
    RESET_OP,
    PackedBuilder,
    PackedCircuit,
)
from repro.devices import Device
from repro.exceptions import BenchmarkError, SimulationError
from repro.circuits.gates import ADDITIVE_ROTATIONS, SELF_INVERSE
from repro.transpiler import (
    BasePass,
    CancelAdjacentInverses,
    CommutingTwoQubitCancellation,
    DropNegligible,
    FuseSingleQubitRuns,
    MergeRotations,
    PassManager,
    PropertySet,
    TransformationPass,
    zyz_angles,
)
from repro.simulation import DensityMatrixSimulator
from repro.simulation.density_matrix import _apply_sandwich
from repro.simulation.kernels import (
    analyze_matrix,
    fuse_operations,
    kernel_for_operation,
    operation_matrix,
)
from repro.simulation.statevector import _xor_table
from repro.transpiler.packed import _ANGLE_TOLERANCE, _INVERSE_PAIRS
from repro.utils import normalize_angle

__all__ = [
    "drop_negligible",
    "merge_rotations",
    "cancel_adjacent_inverses",
    "fuse_single_qubit_runs",
    "commuting_cancellation",
    "ObjectWalkPass",
    "object_pipeline",
    "walk_chain",
    "interaction_graph",
    "circuit_moments",
    "depth",
    "two_qubit_critical_path",
    "liveness_matrix",
    "apply_matrix_reference",
    "apply_channel_batch_reference",
    "apply_kraus_reference",
    "density_matrix_walk",
    "density_matrix_walk_distribution",
    "noise_aware_placement",
    "route_circuit",
    "vqe_measured_energy",
    "qaoa_measured_energy",
]


def _rebuild(circuit: Circuit, instructions: Iterable[Instruction]) -> Circuit:
    out = Circuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
    for instruction in instructions:
        out.append(instruction)
    return out


# ---------------------------------------------------------------------------
# the five optimization passes
# ---------------------------------------------------------------------------


def _are_inverse(a: Instruction, b: Instruction) -> bool:
    if a.qubits != b.qubits:
        return False
    if not (a.is_unitary() and b.is_unitary()):
        return False
    if a.name == b.name and a.name in SELF_INVERSE and not a.params:
        return True
    if (a.name, b.name) in _INVERSE_PAIRS:
        return True
    if a.name == b.name and a.name in ADDITIVE_ROTATIONS:
        return abs(normalize_angle(a.params[0] + b.params[0])) < _ANGLE_TOLERANCE
    return False


def cancel_adjacent_inverses(circuit: Circuit) -> Circuit:
    """Remove adjacent mutually-inverse gate pairs until none remain.

    "Adjacent" means no intervening operation touches any of the pair's
    qubits; barriers block cancellation across them.
    """
    instructions = list(circuit)
    changed = True
    while changed:
        changed = False
        result: List[Optional[Instruction]] = []
        # For every qubit, remember the index (in `result`) of the last op on it.
        last_index: Dict[int, int] = {}
        for instruction in instructions:
            if instruction.is_barrier():
                for q in instruction.qubits:
                    last_index[q] = len(result)
                result.append(instruction)
                continue
            candidate: Optional[int] = None
            indices = {last_index.get(q) for q in instruction.qubits}
            if len(indices) == 1 and None not in indices:
                candidate = indices.pop()
            if (
                candidate is not None
                and result[candidate] is not None
                and not result[candidate].is_barrier()
                and _are_inverse(result[candidate], instruction)
            ):
                result[candidate] = None
                for q in instruction.qubits:
                    del last_index[q]
                changed = True
                continue
            for q in instruction.qubits:
                last_index[q] = len(result)
            result.append(instruction)
        instructions = [instruction for instruction in result if instruction is not None]
    return _rebuild(circuit, instructions)


def merge_rotations(circuit: Circuit) -> Circuit:
    """Combine adjacent rotations of the same type on the same qubits."""
    result: List[Optional[Instruction]] = []
    last_index: Dict[int, int] = {}
    for instruction in circuit:
        if instruction.is_barrier():
            for q in instruction.qubits:
                last_index[q] = len(result)
            result.append(instruction)
            continue
        merged = False
        if instruction.name in ADDITIVE_ROTATIONS:
            indices = {last_index.get(q) for q in instruction.qubits}
            if len(indices) == 1 and None not in indices:
                index = indices.pop()
                previous = result[index]
                if (
                    previous is not None
                    and previous.name == instruction.name
                    and previous.qubits == instruction.qubits
                ):
                    angle = normalize_angle(previous.params[0] + instruction.params[0])
                    if abs(angle) < _ANGLE_TOLERANCE:
                        result[index] = None
                        for q in instruction.qubits:
                            del last_index[q]
                    else:
                        result[index] = Instruction(
                            Gate(instruction.name, (angle,)), instruction.qubits
                        )
                    merged = True
        if not merged:
            for q in instruction.qubits:
                last_index[q] = len(result)
            result.append(instruction)
    return _rebuild(circuit, [instruction for instruction in result if instruction is not None])


def fuse_single_qubit_runs(circuit: Circuit) -> Circuit:
    """Collapse maximal runs of single-qubit unitaries into one ``u`` gate."""
    pending: Dict[int, np.ndarray] = {}
    result: List[Instruction] = []

    def flush(qubit: int) -> None:
        matrix = pending.pop(qubit, None)
        if matrix is None:
            return
        theta, phi, lam = zyz_angles(matrix)
        if (
            abs(theta) < _ANGLE_TOLERANCE
            and abs(normalize_angle(phi + lam)) < _ANGLE_TOLERANCE
        ):
            return
        result.append(Instruction(Gate("u", (theta, phi, lam)), (qubit,)))

    for instruction in circuit:
        if instruction.is_unitary() and len(instruction.qubits) == 1:
            qubit = instruction.qubits[0]
            matrix = instruction.gate.matrix()
            pending[qubit] = matrix @ pending.get(qubit, np.eye(2, dtype=complex))
            continue
        for qubit in instruction.qubits:
            flush(qubit)
        if instruction.is_barrier() and not instruction.qubits:
            for qubit in list(pending):
                flush(qubit)
        result.append(instruction)
    for qubit in list(pending):
        flush(qubit)
    return _rebuild(circuit, result)


def drop_negligible(circuit: Circuit) -> Circuit:
    """Remove identity gates and rotations with (numerically) zero angle."""
    kept: List[Instruction] = []
    for instruction in circuit:
        if instruction.name == "id":
            continue
        if instruction.name in ADDITIVE_ROTATIONS and abs(
            normalize_angle(instruction.params[0])
        ) < _ANGLE_TOLERANCE:
            continue
        if instruction.name == "u" and all(
            abs(normalize_angle(p)) < _ANGLE_TOLERANCE for p in instruction.params
        ):
            continue
        kept.append(instruction)
    return _rebuild(circuit, kept)


#: Single-qubit gates diagonal in Z — they commute with a CX control and
#: with both operands of a CZ.
_DIAGONAL_1Q = frozenset({"rz", "z", "s", "sdg", "t", "tdg", "p"})
#: Single-qubit X-axis gates — they commute with a CX target.
_X_AXIS_1Q = frozenset({"rx", "x", "sx", "sxdg"})


def _pair_key(instruction: Instruction) -> Tuple[str, Tuple[int, ...]]:
    # CZ is symmetric: cz(a, b) cancels cz(b, a).
    if instruction.name == "cz":
        return ("cz", tuple(sorted(instruction.qubits)))
    return (instruction.name, instruction.qubits)


def _commuting_sweep(instructions: List[Instruction]) -> Tuple[List[Instruction], bool]:
    result: List[Optional[Instruction]] = []
    # Open cancellation candidates: pair key -> index in `result`.
    open_pairs: Dict[Tuple[str, Tuple[int, ...]], int] = {}
    changed = False

    def invalidate(qubits: Tuple[int, ...]) -> None:
        for key in list(open_pairs):
            if not qubits or any(q in key[1] for q in qubits):
                del open_pairs[key]

    for instruction in instructions:
        if instruction.is_barrier():
            # A qubit-less barrier spans the whole circuit.
            invalidate(instruction.qubits)
            result.append(instruction)
            continue
        if instruction.name in ("cx", "cz") and not instruction.params:
            key = _pair_key(instruction)
            index = open_pairs.get(key)
            if index is not None:
                result[index] = None
                del open_pairs[key]
                changed = True
                continue
            invalidate(instruction.qubits)
            open_pairs[key] = len(result)
            result.append(instruction)
            continue
        if instruction.is_unitary() and len(instruction.qubits) == 1:
            qubit = instruction.qubits[0]
            for key in list(open_pairs):
                gate_name, pair = key
                if qubit not in pair:
                    continue
                if gate_name == "cz":
                    commutes = instruction.name in _DIAGONAL_1Q
                elif qubit == pair[0]:  # cx control
                    commutes = instruction.name in _DIAGONAL_1Q
                else:  # cx target
                    commutes = instruction.name in _X_AXIS_1Q
                if not commutes:
                    del open_pairs[key]
            result.append(instruction)
            continue
        # Measures, resets and other multi-qubit gates block their qubits.
        invalidate(instruction.qubits)
        result.append(instruction)

    return [i for i in result if i is not None], changed


def commuting_cancellation(circuit: Circuit) -> Circuit:
    """Cancel ``cx``/``cz`` pairs separated only by commuting gates (fixed point)."""
    instructions = list(circuit)
    changed = True
    while changed:
        instructions, changed = _commuting_sweep(instructions)
    return _rebuild(circuit, instructions)


# ---------------------------------------------------------------------------
# object-walk passes for PassManager pipelines
# ---------------------------------------------------------------------------

_WALKS: Dict[type, Callable[[Circuit], Circuit]] = {
    DropNegligible: drop_negligible,
    MergeRotations: merge_rotations,
    CancelAdjacentInverses: cancel_adjacent_inverses,
    FuseSingleQubitRuns: fuse_single_qubit_runs,
    CommutingTwoQubitCancellation: commuting_cancellation,
}


class ObjectWalkPass(TransformationPass):
    """A pass running the oracle walk of one packed pass on the unpacked circuit.

    It reports the packed pass's name, so pass records and pipeline
    fingerprints read the same on both sides of a comparison.
    """

    def __init__(self, twin: BasePass) -> None:
        self._name = twin.name
        self._walk = _WALKS[type(twin)]

    @property
    def name(self) -> str:
        return self._name

    def run(self, packed: PackedCircuit, property_set: PropertySet) -> PackedCircuit:
        return self._walk(packed.unpack()).packed()


def object_pipeline(passes: Iterable[BasePass]) -> PassManager:
    """The same pipeline with every optimization pass swapped for its oracle walk."""
    return PassManager(
        [ObjectWalkPass(pass_) if type(pass_) in _WALKS else pass_ for pass_ in passes]
    )


def walk_chain(passes: Iterable[BasePass], circuit: Circuit) -> Circuit:
    """Run the oracle walks of ``passes`` (optimization passes only) in order.

    No pass manager and no pack conversions: the object-walk baseline the
    benchmarks time against.
    """
    for pass_ in passes:
        circuit = _WALKS[type(pass_)](circuit)
    return circuit


# ---------------------------------------------------------------------------
# interaction graph, moments, depth, critical path and liveness
# ---------------------------------------------------------------------------


def interaction_graph(circuit: Circuit) -> nx.Graph:
    """One node per qubit, an edge per pair sharing a multi-qubit unitary.

    Edges are added in instruction order, operand pairs ``(i, j)`` with
    ``i < j`` by position, which fixes networkx's neighbour order.
    """
    graph = nx.Graph()
    graph.add_nodes_from(range(circuit.num_qubits))
    for instruction in circuit:
        if not instruction.is_multi_qubit():
            continue
        qubits = instruction.qubits
        for i in range(len(qubits)):
            for j in range(i + 1, len(qubits)):
                graph.add_edge(qubits[i], qubits[j])
    return graph


def circuit_moments(circuit: Circuit) -> List[List[Instruction]]:
    """Schedule instructions into ASAP layers.

    Barriers act as synchronization points over the qubits they cover: every
    later operation on those qubits starts no earlier than the layer after
    the latest operation preceding the barrier.  Barriers themselves are not
    emitted into any layer and do not count toward the depth.
    """
    frontier = [0] * circuit.num_qubits  # next free layer per qubit
    layers: List[List[Instruction]] = []
    for instruction in circuit:
        qubits = instruction.qubits
        if instruction.is_barrier():
            if not qubits:
                continue
            level = max(frontier[q] for q in qubits)
            for q in qubits:
                frontier[q] = level
            continue
        level = max(frontier[q] for q in qubits) if qubits else 0
        while len(layers) <= level:
            layers.append([])
        layers[level].append(instruction)
        for q in qubits:
            frontier[q] = level + 1
    return layers


def depth(circuit: Circuit) -> int:
    """Number of ASAP moments."""
    return len(circuit_moments(circuit))


def two_qubit_critical_path(circuit: Circuit) -> Tuple[int, int]:
    """Return ``(two_qubit_gates_on_critical_path, critical_path_length)``.

    A dependency-chain DP over instructions: each instruction extends the
    best chain ending at its operands' previous instructions, comparing
    ``(length, two-qubit count)`` lexicographically.  Barriers are skipped.
    """
    best_length = 0
    best_two_qubit = 0
    length_to: Dict[int, int] = {}
    twoq_to: Dict[int, int] = {}
    last_on_qubit: Dict[int, int] = {}
    for index, instruction in enumerate(circuit):
        if instruction.is_barrier():
            continue
        predecessors = {last_on_qubit[q] for q in instruction.qubits if q in last_on_qubit}
        pred_length = 0
        pred_twoq = 0
        for p in predecessors:
            if length_to[p] > pred_length or (
                length_to[p] == pred_length and twoq_to[p] > pred_twoq
            ):
                pred_length = length_to[p]
                pred_twoq = twoq_to[p]
        length_to[index] = pred_length + 1
        twoq_to[index] = pred_twoq + (1 if instruction.is_multi_qubit() else 0)
        for q in instruction.qubits:
            last_on_qubit[q] = index
        if length_to[index] > best_length or (
            length_to[index] == best_length and twoq_to[index] > best_two_qubit
        ):
            best_length = length_to[index]
            best_two_qubit = twoq_to[index]
    return best_two_qubit, best_length


def liveness_matrix(circuit: Circuit) -> np.ndarray:
    """Binary ``(num_qubits, depth)`` matrix: 1 where a qubit acts in a moment."""
    layers = circuit_moments(circuit)
    matrix = np.zeros((circuit.num_qubits, len(layers)), dtype=int)
    for t, layer in enumerate(layers):
        for instruction in layer:
            for q in instruction.qubits:
                matrix[q, t] = 1
    return matrix


def apply_matrix_reference(
    tensor: np.ndarray, matrix: np.ndarray, axes: Sequence[int]
) -> np.ndarray:
    """The tensordot gate contraction: contract ``matrix`` over ``axes``.

    ``axes[i]`` is the tensor axis carrying the i-th (most significant first)
    qubit of the matrix index.  Returns a new array (a strided view of the
    contraction result); the input is never modified.
    """
    k = len(axes)
    gate = matrix.reshape((2,) * (2 * k))
    moved = np.tensordot(gate, tensor, axes=(list(range(k, 2 * k)), list(axes)))
    # tensordot puts the gate's output axes first, in target order; move back.
    return np.moveaxis(moved, list(range(k)), list(axes))


def apply_channel_batch_reference(batch: np.ndarray, step, num_qubits: int, rng) -> np.ndarray:
    """The whole-batch XOR-gather noise-channel step.

    Samples one Kraus branch per trajectory with ``rng`` and applies every
    trajectory's chosen operator -- ``K_c / sqrt(w_c)`` for a general
    channel -- through the gather over all rows, as the batched simulator
    did before it touched only the rows a draw changes.  Returns a new array
    (or ``batch`` itself when every row drew an identity branch).
    """
    prepared = step.prepared
    size = batch.shape[0]
    flat = batch.reshape(size, -1)
    if prepared.cdf is not None:
        if len(prepared.cdf) == 1:
            choices = np.zeros(size, dtype=np.intp)
        else:
            choices = prepared.cdf.searchsorted(rng.random(size), side="right")
        if prepared.identity[choices].all():
            return batch
        operators = prepared.operators[choices]
    else:
        gather, columns = _xor_table(num_qubits, step.qubits, prepared.gram_terms)
        grams = prepared.grams
        weights = (np.abs(flat) ** 2) @ grams[:, columns[0]].real.T
        if len(columns) > 1:
            pairs = flat.conj()[:, None, :] * flat[:, gather[1:]]
            off_diagonal = grams[:, columns[1:]].reshape(len(grams), -1)
            weights += (pairs.reshape(size, -1) @ off_diagonal.T).real
            np.maximum(weights, 0.0, out=weights)
        totals = weights.sum(axis=1)
        if not totals.min() > 1e-15:
            raise SimulationError("noise channel annihilated the state")
        cumulative = np.cumsum(weights / totals[:, None], axis=1)
        draws = rng.random(size)
        choices = (draws[:, None] > cumulative[:, :-1]).sum(axis=1)
        chosen = weights[np.arange(size), choices]
        if not chosen.all():
            positive = weights > 0
            first = positive.argmax(axis=1)
            last = positive.shape[1] - 1 - positive[:, ::-1].argmax(axis=1)
            choices = np.clip(choices, first, last)
            chosen = weights[np.arange(size), choices]
        operators = prepared.operators[choices] / np.sqrt(chosen)[:, None]
    gather, columns = _xor_table(num_qubits, step.qubits, prepared.terms)
    out = (flat[:, gather] * operators[:, columns]).sum(axis=1)
    return out.reshape(batch.shape)


def apply_kraus_reference(
    rho: np.ndarray,
    kraus_operators: Sequence[np.ndarray],
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Exact application of a Kraus channel to a ``(2**n, 2**n)`` density matrix.

    The sum of one ket/bra sandwich ``K rho K†`` per operator, each analysed
    afresh; ``DensityMatrixSimulator._apply_channel`` is the library's one
    exact channel application.
    """
    dim = 2**num_qubits
    tensor = np.asarray(rho, dtype=complex).reshape((2,) * (2 * num_qubits))
    result: Optional[np.ndarray] = None
    for operator in kraus_operators:
        operator = np.asarray(operator, dtype=complex)
        ket_kernel = analyze_matrix(operator)
        bra_kernel = analyze_matrix(operator.conj())
        term = _apply_sandwich(tensor, ket_kernel, bra_kernel, qubits, num_qubits)
        if result is None:
            result = np.ascontiguousarray(term)
        else:
            result += term
    assert result is not None  # KrausChannel guarantees >= 1 operator
    return result.reshape(dim, dim)


def density_matrix_walk(
    circuit: Circuit, noise_model=None
) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """The density-matrix simulator's own row walk: ``(rho, measured pairs)``.

    Walks the packed rows with its own run fusion, noise placement and
    measurement bookkeeping, as the simulator did before it evolved the
    trajectory plan: a measurement flushes the pending run and dephases its
    qubit where it stands, a second measurement of a qubit or any operation
    after one raises.  It shares only the kernels and the channel, reset and
    dephasing primitives with the simulator.
    """
    simulator = DensityMatrixSimulator(noise_model)
    num_qubits = circuit.num_qubits
    dim = 2**num_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    tensor = rho.reshape((2,) * (2 * num_qubits))
    measured: List[Tuple[int, int]] = []
    measured_qubits: set = set()
    unitary_run: List[Tuple[int, Tuple[float, ...], Tuple[int, ...]]] = []

    def flush_run() -> None:
        nonlocal tensor
        if not unitary_run:
            return
        if len(unitary_run) == 1:
            opcode, params, qubits = unitary_run[0]
            tensor = _apply_sandwich(
                tensor,
                kernel_for_operation(opcode, params),
                analyze_matrix(operation_matrix(opcode, params).conj()),
                qubits,
                num_qubits,
                in_place=True,
            )
        else:
            operations = [
                (operation_matrix(opcode, params), qubits) for opcode, params, qubits in unitary_run
            ]
            for fused in fuse_operations(operations):
                bra_kernel = analyze_matrix(fused.matrix.conj())
                tensor = _apply_sandwich(
                    tensor, fused.kernel, bra_kernel, fused.qubits, num_qubits, in_place=True
                )
        unitary_run.clear()

    for _row, opcode, qubits, params, clbit in circuit.packed().iter_rows():
        if opcode == BARRIER_OP:
            continue
        if opcode == MEASURE_OP:
            qubit = qubits[0]
            if qubit in measured_qubits:
                raise SimulationError("the walk does not support measuring the same qubit twice")
            flush_run()
            tensor = simulator._dephase(tensor, qubit, num_qubits)
            measured.append((qubit, clbit))
            measured_qubits.add(qubit)
            continue
        if any(q in measured_qubits for q in qubits):
            raise SimulationError("the walk does not support operations after measurement")
        if opcode == RESET_OP:
            flush_run()
            tensor = simulator._reset(tensor, qubits[0], num_qubits)
            if noise_model is not None:
                for channel, channel_qubits in noise_model.reset_channels(qubits[0]):
                    tensor = simulator._apply_channel(tensor, channel, channel_qubits, num_qubits)
            continue
        channels = noise_model.channels_for_gate(qubits) if noise_model is not None else []
        unitary_run.append((opcode, params, qubits))
        if channels:
            flush_run()
            for channel, channel_qubits in channels:
                tensor = simulator._apply_channel(tensor, channel, channel_qubits, num_qubits)
    flush_run()
    return np.ascontiguousarray(tensor).reshape(dim, dim), measured


def density_matrix_walk_distribution(
    circuit: Circuit, noise_model=None
) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """Outcome probabilities of :func:`density_matrix_walk`, readout error applied.

    Normalises the diagonal and mixes in readout error exactly as
    ``DensityMatrixSimulator._output_distribution`` does.
    """
    rho, measured = density_matrix_walk(circuit, noise_model)
    probabilities = np.clip(np.real(np.diag(rho)), 0.0, None)
    probabilities = probabilities / probabilities.sum()
    if noise_model is not None:
        probabilities = DensityMatrixSimulator(noise_model)._apply_readout_confusion(
            probabilities, measured, circuit.num_qubits
        )
    return probabilities, measured


# ---------------------------------------------------------------------------
# placement and routing over networkx graphs
# ---------------------------------------------------------------------------


def noise_aware_placement(circuit: Circuit, device: Device) -> Dict[int, int]:
    """The greedy noise-aware placement over ``device.topology()`` and the
    circuit's interaction graph (see ``repro.transpiler.placement``)."""
    needed = circuit.num_qubits
    if needed == 0:
        return {}
    topology = device.topology()
    if device.all_to_all:
        return {q: q for q in range(needed)}
    if needed == device.num_qubits:
        region = list(range(device.num_qubits))
    else:
        region = _grow_region(topology, needed)

    interaction = interaction_graph(circuit)
    region_subgraph = topology.subgraph(region)
    placement: Dict[int, int] = {}
    free = set(region)
    for logical in _interaction_bfs_order(interaction, needed):
        placed_partners = [
            placement[other] for other in interaction.neighbors(logical) if other in placement
        ]
        best = max(
            free,
            key=lambda candidate: (
                sum(1 for partner in placed_partners if topology.has_edge(candidate, partner)),
                region_subgraph.degree(candidate),
                topology.degree(candidate),
                -candidate,
            ),
        )
        placement[logical] = best
        free.remove(best)
    return placement


def _interaction_bfs_order(interaction: nx.Graph, num_qubits: int) -> List[int]:
    order: List[int] = []
    seen: set = set()
    remaining = sorted(range(num_qubits), key=lambda q: interaction.degree(q), reverse=True)
    for seed in remaining:
        if seed in seen:
            continue
        queue = [seed]
        seen.add(seed)
        while queue:
            node = queue.pop(0)
            order.append(node)
            neighbors = sorted(
                (n for n in interaction.neighbors(node) if n not in seen),
                key=lambda q: interaction.degree(q),
                reverse=True,
            )
            for neighbor in neighbors:
                seen.add(neighbor)
                queue.append(neighbor)
    return order


def _grow_region(topology: nx.Graph, size: int) -> List[int]:
    best_region: Optional[List[int]] = None
    best_score = -1.0
    seeds = sorted(topology.nodes, key=lambda n: topology.degree(n), reverse=True)[:4]
    for seed in seeds:
        region = {seed}
        while len(region) < size:
            boundary = {
                neighbor
                for node in region
                for neighbor in topology.neighbors(node)
                if neighbor not in region
            }
            if not boundary:
                break
            choice = max(
                boundary,
                key=lambda n: (
                    sum(1 for m in topology.neighbors(n) if m in region),
                    topology.degree(n),
                ),
            )
            region.add(choice)
        if len(region) < size:
            continue
        score = topology.subgraph(region).number_of_edges()
        if score > best_score:
            best_score = score
            best_region = sorted(region)
    assert best_region is not None, "no connected region of the requested size"
    return best_region


def route_circuit(
    packed: PackedCircuit, device: Device, placement: Dict[int, int]
) -> Tuple[PackedCircuit, Dict[int, int], int]:
    """Greedy SWAP routing along ``nx.all_pairs_shortest_path`` paths.

    Returns the routed circuit, the final layout and the SWAP count.
    """
    topology = device.topology()
    paths = {} if device.all_to_all else dict(nx.all_pairs_shortest_path(topology))
    logical_to_physical = dict(placement)
    physical_to_logical = {p: l for l, p in logical_to_physical.items()}
    routed = PackedBuilder(device.num_qubits, max(packed.num_clbits, 1), packed.name)
    swaps = 0

    def swap(a: int, b: int) -> None:
        nonlocal swaps
        routed.append(OPCODES["swap"], (a, b))
        swaps += 1
        la, lb = physical_to_logical.pop(a, None), physical_to_logical.pop(b, None)
        if la is not None:
            logical_to_physical[la] = b
            physical_to_logical[b] = la
        if lb is not None:
            logical_to_physical[lb] = a
            physical_to_logical[a] = lb

    for _row, opcode, qubits, params, clbit in packed.iter_rows():
        if opcode == BARRIER_OP and not qubits:
            routed.append(BARRIER_OP, tuple(range(device.num_qubits)))
            continue
        if opcode != BARRIER_OP and len(qubits) == 2 and not device.all_to_all:
            a, b = qubits
            if not topology.has_edge(logical_to_physical[a], logical_to_physical[b]):
                path = paths[logical_to_physical[a]][logical_to_physical[b]]
                for step in path[1:-1]:
                    swap(logical_to_physical[a], step)
        routed.append(opcode, tuple(logical_to_physical[q] for q in qubits), params, clbit)
    return routed.build(), logical_to_physical, swaps


# ---------------------------------------------------------------------------
# measured energies of the variational benchmarks
# ---------------------------------------------------------------------------


def _single_bit_expectation(counts: Mapping[str, float], bit: int) -> float:
    total = sum(counts.values())
    if total == 0:
        raise BenchmarkError("empty counts")
    value = 0.0
    for bitstring, shots in counts.items():
        value += (1.0 if bitstring[bit] == "0" else -1.0) * shots
    return value / total


def _pair_parity_expectation(counts: Mapping[str, float], a: int, b: int) -> float:
    total = sum(counts.values())
    if total == 0:
        raise BenchmarkError("empty counts")
    value = 0.0
    for bitstring, shots in counts.items():
        parity = (int(bitstring[a]) + int(bitstring[b])) % 2
        value += (1.0 if parity == 0 else -1.0) * shots
    return value / total


def vqe_measured_energy(
    model, z_counts: Mapping[str, float], x_counts: Mapping[str, float]
) -> float:
    """The TFIM energy: bond parities of the Z-basis counts, bits of the X-basis ones."""
    energy = 0.0
    for a, b in model.bonds():
        energy += -model.coupling * _pair_parity_expectation(z_counts, a, b)
    for q in range(model.num_spins):
        energy += -model.field * _single_bit_expectation(x_counts, q)
    return energy


def qaoa_measured_energy(
    model, positions: Sequence[int], counts: Mapping[str, float]
) -> float:
    """The SK energy of the counts, logical qubit ``q`` read at ``positions[q]``."""
    total = sum(counts.values())
    if total == 0:
        raise BenchmarkError("empty counts")
    energy = 0.0
    for bitstring, shots in counts.items():
        spins = [1.0 if bitstring[positions[q]] == "0" else -1.0 for q in range(model.num_spins)]
        value = sum(w * spins[i] * spins[j] for (i, j), w in model.weights)
        energy += value * shots
    return energy / total
