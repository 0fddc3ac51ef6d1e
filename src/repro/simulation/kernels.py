"""High-performance simulation kernels.

This module is the single place where gate matrices meet state arrays.  All
three simulators (ideal statevector, Monte-Carlo trajectories, exact density
matrix) are built on the primitives here:

* **Structure-specialised apply** — :func:`analyze_matrix` classifies a
  unitary as *diagonal* (rz/cz/cp/rzz…), *permutation-like* (x/cx/swap/ccx,
  one non-zero entry per row) or *generic*, and :func:`apply_matrix` picks an
  elementwise multiply, a gather, or the dense :func:`contract` accordingly.
  The diagonal path mutates the state in place; the permutation path performs
  a single gather with no matrix arithmetic at all.
* **Axis-addressed tensors** — every primitive operates on an ndarray whose
  qubit axes are named explicitly, so the same kernels serve plain
  statevectors (``(2,)*n``), trajectory batches (``(T,) + (2,)*n``) and both
  the ket and bra sides of density matrices (``(2,)*n + (2,)*n``).
* **Gate fusion** — :func:`fuse_operations` merges runs of adjacent
  single-qubit gates, absorbs them into neighbouring two-qubit gates and
  collapses consecutive two-qubit gates on the same pair, shrinking the
  number of kernel launches per circuit.

Bit-compatibility: the seeded *noiseless* sampling path promises bit-identical
results across releases.  :func:`contract` makes the same ``np.dot`` call on
the same operands as the historical reference contraction (kept as
``apply_matrix_reference`` in ``tests/oracle.py``), and ``exact_compatible``
kernels (permutations and diagonals whose entries are exactly ``±1``/``±i``)
produce the same bits as it but for the sign of a zero amplitude, so
:func:`apply_matrix` with ``strict=True`` only takes a fast path when it
cannot change a single bit of the output probabilities; everything else
falls back to :func:`contract`.  The noisy/batched paths use ``strict=False``
and are validated statistically against the density-matrix reference.

Indexing convention (shared with :mod:`~repro.simulation.statevector`): qubit
``q`` of an ``n``-qubit register lives on tensor axis ``n - 1 - q`` (plus any
leading batch axes), i.e. qubit 0 is the least significant bit of the
flattened index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits import Circuit
from ..circuits.columnar import BARRIER_OP, OP_IS_UNITARY, OP_NAMES
from ..circuits.gates import GATE_DEFINITIONS
from ..exceptions import SimulationError

__all__ = [
    "GateKernel",
    "analyze_matrix",
    "operation_matrix",
    "kernel_for_operation",
    "apply_matrix",
    "contract",
    "apply_kernel",
    "FusedGate",
    "fuse_operations",
    "fuse_circuit",
    "qubit_axis",
    "measure_qubit_batch",
    "reset_qubit_batch",
    "sample_counts_array",
]

_KIND_DIAGONAL = "diagonal"
_KIND_PERMUTATION = "permutation"
_KIND_GENERIC = "generic"

_ID2 = np.eye(2, dtype=complex)


def qubit_axis(qubit: int, num_qubits: int, offset: int = 0) -> int:
    """Tensor axis of ``qubit`` in a C-ordered ``(2,)*num_qubits`` tensor."""
    return offset + num_qubits - 1 - qubit


# ---------------------------------------------------------------------------
# matrix structure analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateKernel:
    """Pre-analysed structure of a unitary matrix.

    Attributes:
        matrix: The dense matrix (kept for the generic path and for fusion).
        kind: ``"diagonal"``, ``"permutation"`` or ``"generic"``.
        diagonal: For diagonal matrices, the diagonal entries.
        source: For permutation-like matrices, ``source[i]`` is the input
            basis state feeding output basis state ``i``.
        phase: For permutation-like matrices, the non-zero entry per row.
        exact_compatible: True when the fast path is guaranteed bit-identical
            to :func:`contract` up to the sign of zero (all arithmetic is
            exact: entries are ``±1``/``±i`` or plain gathers).
    """

    matrix: np.ndarray
    kind: str
    diagonal: Optional[np.ndarray] = None
    source: Optional[np.ndarray] = None
    phase: Optional[np.ndarray] = None
    exact_compatible: bool = False

    @property
    def num_qubits(self) -> int:
        return int(self.matrix.shape[0]).bit_length() - 1


def _entries_exact(values: np.ndarray) -> bool:
    """True when every value is exactly 1, -1, 1j or -1j.

    Multiplying an amplitude by such a value only moves/negates its real and
    imaginary parts, which is exact in floating point, so fast paths built on
    them reproduce the reference kernel bit for bit.
    """
    return bool(
        np.all(
            (values == 1.0) | (values == -1.0) | (values == 1j) | (values == -1j)
        )
    )


def analyze_matrix(matrix: np.ndarray) -> GateKernel:
    """Classify a unitary matrix into the fastest applicable kernel."""
    matrix = np.asarray(matrix, dtype=complex)
    dim = matrix.shape[0]
    if matrix.shape != (dim, dim) or dim & (dim - 1):
        raise SimulationError(f"matrix shape {matrix.shape} is not a power-of-two square")
    offdiag = matrix - np.diag(np.diag(matrix))
    if not offdiag.any():
        diagonal = np.ascontiguousarray(np.diag(matrix))
        return GateKernel(
            matrix,
            _KIND_DIAGONAL,
            diagonal=diagonal,
            exact_compatible=_entries_exact(diagonal),
        )
    nonzero_per_row = (matrix != 0).sum(axis=1)
    nonzero_per_col = (matrix != 0).sum(axis=0)
    if np.all(nonzero_per_row == 1) and np.all(nonzero_per_col == 1):
        source = np.argmax(matrix != 0, axis=1)
        phase = np.ascontiguousarray(matrix[np.arange(dim), source])
        return GateKernel(
            matrix,
            _KIND_PERMUTATION,
            source=source,
            phase=phase,
            exact_compatible=_entries_exact(phase),
        )
    return GateKernel(matrix, _KIND_GENERIC)


#: Matrix factory per opcode id (None for measure/reset/barrier).
_OP_MATRIX_FNS = tuple(definition.matrix_fn for definition in GATE_DEFINITIONS.values())


@lru_cache(maxsize=4096)
def operation_matrix(opcode: int, params: Tuple[float, ...] = ()) -> np.ndarray:
    """Cached dense matrix for a packed ``(opcode, params)`` row.

    The opcode-keyed twin of ``Gate.matrix()`` used by consumers reading
    :class:`~repro.circuits.columnar.PackedCircuit` rows — no ``Gate``
    object is materialised.  The returned array is shared across callers
    and must not be mutated.
    """
    matrix_fn = _OP_MATRIX_FNS[opcode]
    if matrix_fn is None:
        raise SimulationError(f"operation {OP_NAMES[opcode]!r} has no matrix")
    return matrix_fn(*params)


@lru_cache(maxsize=4096)
def kernel_for_operation(opcode: int, params: Tuple[float, ...] = ()) -> GateKernel:
    """Cached kernel for a packed ``(opcode, params)`` row."""
    return analyze_matrix(operation_matrix(opcode, params))


# ---------------------------------------------------------------------------
# apply primitives
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _axis_orders(ndim: int, axes: Tuple[int, ...]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Transpose bringing ``axes`` to the front in the given order, and its inverse."""
    order = axes + tuple(axis for axis in range(ndim) if axis not in axes)
    return order, tuple(order.index(axis) for axis in range(ndim))


def contract(tensor: np.ndarray, matrix: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Contract ``matrix`` over ``axes``; returns a new C-contiguous array.

    ``axes[i]`` is the tensor axis carrying the i-th (most significant
    first) qubit of the matrix index.  The target axes are transposed to the
    front, flattened into one ``np.dot(matrix, operand)`` and transposed
    back: the same transposes and the same ``np.dot`` call as the historical
    reference contraction (``apply_matrix_reference`` in ``tests/oracle.py``),
    so every output bit is the same, without its per-call argument
    handling.  The input is never modified.
    """
    order, inverse = _axis_orders(tensor.ndim, tuple(axes))
    moved = tensor.transpose(order)
    # The reshaped operand is a temporary freed when np.dot returns, before
    # the output copy below is allocated.
    product = np.dot(matrix, moved.reshape(1 << len(axes), -1))
    return np.ascontiguousarray(product.reshape(moved.shape).transpose(inverse))


def _apply_diagonal(
    tensor: np.ndarray, diagonal: np.ndarray, axes: Sequence[int], in_place: bool = True
) -> np.ndarray:
    """Elementwise multiply by a diagonal gate over ``axes`` (in place by default)."""
    _order, inverse = _axis_orders(tensor.ndim, tuple(axes))
    k = len(axes)
    factor = diagonal.reshape((2,) * k + (1,) * (tensor.ndim - k)).transpose(inverse)
    if in_place:
        tensor *= factor
        return tensor
    return tensor * factor


@lru_cache(maxsize=8)
def _basis_indices(k: int) -> Tuple[Tuple[object, ...], ...]:
    """Index of each of the ``2**k`` gate-basis slices of a front-transposed tensor.

    The trailing ``Ellipsis`` keeps a slice an array view (0-d when the gate
    covers every axis), so it can be an ``out=`` argument.
    """
    return tuple(
        tuple((basis >> (k - 1 - i)) & 1 for i in range(k)) + (Ellipsis,)
        for basis in range(1 << k)
    )


def _apply_permutation(
    tensor: np.ndarray,
    source: np.ndarray,
    phase: np.ndarray,
    axes: Sequence[int],
) -> np.ndarray:
    """Gather kernel for permutation-like gates.

    Writes each of the ``2**k`` gate-basis slices straight into a fresh
    C-contiguous output array — one data pass total, no transposition of the
    full tensor and no post-hoc contiguity copy.
    """
    order, _inverse = _axis_orders(tensor.ndim, tuple(axes))
    indices = _basis_indices(len(axes))
    out = np.empty(tensor.shape, dtype=tensor.dtype)
    in_view = tensor.transpose(order)
    out_view = out.transpose(order)
    for dest, index in enumerate(indices):
        src_index = indices[source[dest]]
        factor = phase[dest]
        if factor == 1.0:
            out_view[index] = in_view[src_index]
        else:
            np.multiply(in_view[src_index], factor, out=out_view[index])
    return out


def apply_kernel(
    tensor: np.ndarray,
    kernel: GateKernel,
    axes: Sequence[int],
    strict: bool = False,
    in_place: bool = True,
) -> np.ndarray:
    """Apply an analysed gate kernel to the given tensor axes.

    With ``in_place=True`` (the default) the diagonal fast path mutates
    ``tensor`` and returns it; the other paths always return a new
    C-contiguous array (keeping evolution loops on contiguous memory, which
    is what makes back-to-back contractions fast).  Pass ``in_place=False``
    when the input must be preserved.

    Args:
        strict: Restrict fast paths to ones that are bit-identical to
            :func:`contract` (see module docstring).
    """
    fast = not strict or kernel.exact_compatible
    if fast and kernel.kind == _KIND_DIAGONAL:
        return _apply_diagonal(tensor, kernel.diagonal, axes, in_place=in_place)
    if fast and kernel.kind == _KIND_PERMUTATION:
        return _apply_permutation(tensor, kernel.source, kernel.phase, axes)
    return contract(tensor, kernel.matrix, axes)


def apply_matrix(
    tensor: np.ndarray,
    matrix: np.ndarray,
    axes: Sequence[int],
    strict: bool = False,
    in_place: bool = True,
) -> np.ndarray:
    """Analyse-and-apply convenience wrapper (uncached analysis)."""
    return apply_kernel(tensor, analyze_matrix(matrix), axes, strict=strict, in_place=in_place)


# ---------------------------------------------------------------------------
# gate fusion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FusedGate:
    """A dense unitary produced by fusing one or more circuit gates."""

    matrix: np.ndarray
    qubits: Tuple[int, ...]
    kernel: GateKernel = field(compare=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.kernel is None:
            object.__setattr__(self, "kernel", analyze_matrix(self.matrix))


def _reorder_two_qubit(matrix: np.ndarray) -> np.ndarray:
    """Matrix of the same gate with its two target qubits listed swapped."""
    tensor = matrix.reshape(2, 2, 2, 2)
    return np.ascontiguousarray(tensor.transpose(1, 0, 3, 2)).reshape(4, 4)


def fuse_operations(
    operations: Iterable[Tuple[np.ndarray, Tuple[int, ...]]],
) -> List[FusedGate]:
    """Fuse a run of unitaries given as ``(matrix, qubits)`` pairs.

    Adjacent single-qubit gates on the same qubit are multiplied together;
    pending single-qubit products are absorbed into the next two-qubit gate
    touching their qubit; consecutive two-qubit gates on the same (unordered)
    pair are merged into one 4x4 matrix.  Gates on three or more qubits are
    emitted unchanged (flushing their qubits' pending products first).

    The fused sequence implements exactly the same unitary as the input, with
    (typically far) fewer kernel applications.
    """
    pending: dict[int, np.ndarray] = {}
    fused: List[FusedGate] = []

    def flush(qubits: Iterable[int]) -> None:
        for q in sorted(qubits):
            matrix = pending.pop(q, None)
            if matrix is not None:
                fused.append(FusedGate(matrix, (q,)))

    for matrix, qubits in operations:
        if len(qubits) == 1:
            q = qubits[0]
            previous = pending.get(q)
            pending[q] = matrix if previous is None else matrix @ previous
        elif len(qubits) == 2:
            a, b = qubits
            combined = np.asarray(matrix, dtype=complex)
            pa = pending.pop(a, None)
            pb = pending.pop(b, None)
            if pa is not None or pb is not None:
                combined = combined @ np.kron(
                    pa if pa is not None else _ID2, pb if pb is not None else _ID2
                )
            if fused and set(fused[-1].qubits) == {a, b}:
                previous = fused[-1]
                prev_matrix = previous.matrix
                if previous.qubits != (a, b):
                    prev_matrix = _reorder_two_qubit(prev_matrix)
                fused[-1] = FusedGate(combined @ prev_matrix, (a, b))
            else:
                fused.append(FusedGate(combined, (a, b)))
        else:
            flush(qubits)
            fused.append(FusedGate(np.asarray(matrix, dtype=complex), tuple(qubits)))
    flush(list(pending))
    return fused


def fuse_circuit(circuit: Circuit) -> List[FusedGate]:
    """Fuse the unitary gates of a measurement-free circuit.

    Raises:
        SimulationError: if the circuit contains measurement or reset
            (barriers are skipped — they carry no simulation semantics).
    """
    packed = circuit.packed()
    opcodes = packed.opcodes
    if bool(np.any(~OP_IS_UNITARY[opcodes] & (opcodes != BARRIER_OP))):
        raise SimulationError(
            "fuse_circuit requires a measurement-free circuit; "
            "fuse per-segment instead"
        )
    operations: List[Tuple[np.ndarray, Tuple[int, ...]]] = [
        (operation_matrix(opcode, params), qubits)
        for _row, opcode, qubits, params, _clbit in packed.iter_rows()
        if opcode != BARRIER_OP
    ]
    return fuse_operations(operations)


# ---------------------------------------------------------------------------
# batched measurement / reset / sampling
# ---------------------------------------------------------------------------


def measure_qubit_batch(
    batch: np.ndarray,
    qubit: int,
    num_qubits: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Projectively measure ``qubit`` in every trajectory of a batch.

    ``batch`` has shape ``(T,) + (2,)*num_qubits`` and is collapsed and
    renormalised **in place**.  Returns the ``(T,)`` array of outcomes (0/1).
    """
    axis = qubit_axis(qubit, num_qubits, offset=1)
    # moveaxis returns a view of ``batch``: fancy-index assignment through it
    # mutates the batch in place (reshaping would silently copy instead).
    view = np.moveaxis(batch, axis, 1)  # (T, 2, ...)
    weights = np.abs(view) ** 2
    reduce_axes = tuple(range(2, view.ndim))
    per_branch = weights.sum(axis=reduce_axes)  # (T, 2)
    total = per_branch.sum(axis=1)
    if np.any(total <= 1e-30):
        raise SimulationError("measurement encountered a zero-norm trajectory")
    p_one = np.clip(per_branch[:, 1] / total, 0.0, 1.0)
    trajectories = view.shape[0]
    outcomes = (rng.random(trajectories) < p_one).astype(np.int64)
    view[np.arange(trajectories), 1 - outcomes] = 0.0
    norms = np.sqrt(np.where(outcomes == 1, p_one * total, (1.0 - p_one) * total))
    if np.any(norms <= 1e-15):
        raise SimulationError("measurement collapse produced a zero-norm state")
    batch /= norms.reshape((trajectories,) + (1,) * (batch.ndim - 1))
    return outcomes


def reset_qubit_batch(
    batch: np.ndarray,
    qubit: int,
    num_qubits: int,
    rng: np.random.Generator,
) -> None:
    """Measure-and-restore reset of ``qubit`` on every trajectory, in place."""
    outcomes = measure_qubit_batch(batch, qubit, num_qubits, rng)
    ones = np.flatnonzero(outcomes == 1)
    if ones.size:
        axis = qubit_axis(qubit, num_qubits, offset=1)
        view = np.moveaxis(batch, axis, 1)
        view[ones, 0] = view[ones, 1]
        view[ones, 1] = 0.0


def counts_from_samples(
    samples: np.ndarray,
    qubits: Sequence[int],
    clbits: Sequence[int],
    num_clbits: int,
) -> "dict[str, int]":
    """Aggregate sampled basis-state indices into bitstring counts.

    One ``np.unique`` over the samples, then only the observed distinct
    outcomes are rendered: bit ``qubits[i]`` of each index is written to
    classical bit ``clbits[i]`` (classical bit 0 is the left-most character).
    The single place the index→bitstring convention lives.
    """
    values, frequencies = np.unique(samples, return_counts=True)
    counts: "dict[str, int]" = {}
    for value, count in zip(values, frequencies):
        bits = ["0"] * num_clbits
        for qubit, clbit in zip(qubits, clbits):
            bits[clbit] = "1" if (int(value) >> qubit) & 1 else "0"
        key = "".join(bits)
        counts[key] = counts.get(key, 0) + int(count)
    return counts


def sample_counts_array(
    bit_rows: np.ndarray, num_clbits: int
) -> "dict[str, int]":
    """Aggregate a ``(shots, num_clbits)`` 0/1 matrix into bitstring counts.

    Rows are packed into integers and aggregated with a single
    ``np.unique``; only the observed distinct outcomes are rendered as
    strings (classical bit 0 is the left-most character).
    """
    shots = bit_rows.shape[0]
    if shots == 0:
        return {}
    if num_clbits == 0:
        return {"": shots}
    if num_clbits <= 62:
        weights = (1 << np.arange(num_clbits, dtype=np.int64))
        packed = bit_rows.astype(np.int64) @ weights
        values, frequencies = np.unique(packed, return_counts=True)
        return {
            "".join("1" if (int(value) >> position) & 1 else "0" for position in range(num_clbits)): int(count)
            for value, count in zip(values, frequencies)
        }
    # Very wide registers: fall back to row-wise packing via bytes.
    rows = np.ascontiguousarray(bit_rows.astype(np.uint8))
    values, frequencies = np.unique(rows, axis=0, return_counts=True)
    return {
        "".join("1" if bit else "0" for bit in value): int(count)
        for value, count in zip(values, frequencies)
    }
