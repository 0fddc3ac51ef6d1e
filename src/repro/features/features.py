"""The SupermarQ feature vectors (Section III-B of the paper).

Six hardware-agnostic features characterise how a benchmark stresses a QPU:

* Program Communication (Eq. 1) — density of the qubit interaction graph.
* Critical-Depth (Eq. 2) — fraction of two-qubit gates on the critical path.
* Entanglement-Ratio (Eq. 3) — fraction of operations that are two-qubit.
* Parallelism (Eq. 4) — how many operations are packed per layer.
* Liveness (Eq. 5) — fraction of qubit-timesteps that are active.
* Measurement (Eq. 6) — fraction of layers with mid-circuit measure/reset.

Every feature lies in [0, 1].  The module also exposes the "typical"
features (qubit count, two-qubit gate count, depth) used as the comparison
baseline in Fig. 3.

Implementation: all six features derive from one :class:`CircuitProfile`
computed from the circuit's **packed columnar form**
(:meth:`~repro.circuits.circuit.Circuit.packed`).  Plain gate streams — no
barriers, no 3-qubit rows — take a fully vectorised path: the ASAP layer /
critical-path DP runs over a row-level dependency DAG built from one
composite-key sort of the operand columns, with per-row ``(chain length,
two-qubit count)`` packed into single integers so the lexicographic maximum
of Eq. 2 is an ordinary integer ``max``; interaction edges, qubit touches
and collapse layers fall out of the same arrays.  Circuits with barriers or
3-qubit gates fall back to an instruction-ordered walk over the packed rows
with semantics identical to the original object walk.  Both paths are
bit-identical to the per-feature definitions (asserted by the feature
parity tests and the committed goldens) and the vectorised path is gated at
>= 5x on 1k-qubit circuits (``benchmarks/bench_ir.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..circuits import Circuit
from ..circuits.columnar import BARRIER_OP, MEASURE_OP, PackedCircuit, RESET_OP

__all__ = [
    "FEATURE_NAMES",
    "TYPICAL_FEATURE_NAMES",
    "CircuitProfile",
    "circuit_profile",
    "packed_profile",
    "program_communication",
    "critical_depth",
    "entanglement_ratio",
    "parallelism",
    "liveness",
    "measurement",
    "feature_vector",
    "FeatureVector",
    "compute_features",
    "compute_features_many",
    "typical_features",
]

#: Canonical ordering of the six SupermarQ features.
FEATURE_NAMES: Tuple[str, ...] = (
    "program_communication",
    "critical_depth",
    "entanglement_ratio",
    "parallelism",
    "liveness",
    "measurement",
)

#: The conventional circuit-size features used for comparison in Fig. 3.
TYPICAL_FEATURE_NAMES: Tuple[str, ...] = ("num_qubits", "num_two_qubit_gates", "depth")


def _clip_unit(value: float) -> float:
    return float(min(max(value, 0.0), 1.0))


@dataclass(frozen=True)
class CircuitProfile:
    """Structural statistics of one circuit, gathered in a single pass.

    Attributes:
        num_qubits: Width of the circuit.
        depth: Number of ASAP moments (the ``d`` of the feature equations).
        total_operations: Operations excluding barriers, including
            measure/reset.
        two_qubit_operations: Multi-qubit unitaries (the ``N_2q`` of Eqs. 2/3).
        interaction_edges: Distinct interacting qubit pairs (Eq. 1's graph).
        qubit_touches: Total qubit-moment activity — exactly the number of
            ones in the liveness matrix (Eq. 5's numerator).
        critical_length: Length of the longest dependency chain.
        critical_two_qubit: Max multi-qubit-unitary count over longest chains.
        collapse_layers: Moments containing a mid-circuit measure or reset.
        moment_operations: Operations per moment (vectorised accounting;
            ``moment_operations.sum() == total_operations``).
        row_moments: ASAP moment of each row of the pack, ``-1`` for
            barrier rows (the schedule dynamical decoupling inserts into).
    """

    num_qubits: int
    depth: int
    total_operations: int
    two_qubit_operations: int
    interaction_edges: int
    qubit_touches: int
    critical_length: int
    critical_two_qubit: int
    collapse_layers: int
    moment_operations: np.ndarray
    row_moments: np.ndarray

    # ------------------------------------------------------------------
    # the six features (identical arithmetic to the per-feature definitions)
    # ------------------------------------------------------------------
    @property
    def program_communication(self) -> float:
        """Average interaction-graph degree over the complete graph (Eq. 1)."""
        n = self.num_qubits
        if n <= 1:
            return 0.0
        degree_sum = 2 * self.interaction_edges
        return _clip_unit(degree_sum / (n * (n - 1)))

    @property
    def critical_depth(self) -> float:
        """Two-qubit gates on the critical path over all two-qubit gates (Eq. 2)."""
        if self.two_qubit_operations == 0:
            return 0.0
        return _clip_unit(self.critical_two_qubit / self.two_qubit_operations)

    @property
    def entanglement_ratio(self) -> float:
        """Fraction of operations that are multi-qubit unitaries (Eq. 3)."""
        if self.total_operations == 0:
            return 0.0
        return _clip_unit(self.two_qubit_operations / self.total_operations)

    @property
    def parallelism(self) -> float:
        """How densely operations are packed into layers (Eq. 4)."""
        n = self.num_qubits
        if n <= 1 or self.depth == 0:
            return 0.0
        value = (self.total_operations / self.depth - 1.0) / (n - 1.0)
        return _clip_unit(value)

    @property
    def liveness(self) -> float:
        """Fraction of qubit-timesteps in which the qubit is active (Eq. 5)."""
        cells = self.num_qubits * self.depth
        if cells == 0:
            return 0.0
        return _clip_unit(float(self.qubit_touches) / cells)

    @property
    def measurement(self) -> float:
        """Fraction of layers with mid-circuit measurement or reset (Eq. 6)."""
        if self.depth == 0:
            return 0.0
        return _clip_unit(self.collapse_layers / self.depth)

    def features(self) -> "FeatureVector":
        return FeatureVector(
            program_communication=self.program_communication,
            critical_depth=self.critical_depth,
            entanglement_ratio=self.entanglement_ratio,
            parallelism=self.parallelism,
            liveness=self.liveness,
            measurement=self.measurement,
        )


def circuit_profile(circuit: Circuit) -> CircuitProfile:
    """Build a :class:`CircuitProfile` from the circuit's packed form."""
    return packed_profile(circuit.packed())


def packed_profile(packed: PackedCircuit) -> CircuitProfile:
    """Build a :class:`CircuitProfile` from a :class:`PackedCircuit`.

    Dispatches between the fully vectorised path (plain 1q/2q gate streams,
    the overwhelmingly common case) and an instruction-ordered fallback walk
    that handles barriers, 3-qubit gates and wide rows with semantics
    identical to the original per-instruction object walk.

    The vectorised DP carries a fixed numpy setup cost, so small circuits
    (below :data:`_FAST_PATH_MIN_ROWS` rows, where the row walk is cheaper
    than that setup) always take the general walk; both paths are pinned
    bit-identical to each other in ``tests/features/test_packed_parity.py``.
    """
    m = len(packed)
    if m == 0:
        return CircuitProfile(
            num_qubits=packed.num_qubits,
            depth=0,
            total_operations=0,
            two_qubit_operations=0,
            interaction_edges=0,
            qubit_touches=0,
            critical_length=0,
            critical_two_qubit=0,
            collapse_layers=0,
            moment_operations=np.zeros(0, dtype=np.int64),
            row_moments=np.zeros(0, dtype=np.int64),
        )
    # The fast path packs (chain length, two-qubit count) into one integer
    # and (qubit, position) into another; bail out to the general walk when
    # either composite key could overflow 63 bits (astronomically large
    # circuits only), and below the row count where the DP's fixed numpy
    # setup cost exceeds the whole row walk.
    position_bits = (2 * m).bit_length()
    fits = (m + 1).bit_length() * 2 < 62 and packed.num_qubits.bit_length() + position_bits < 62
    if (
        m >= _FAST_PATH_MIN_ROWS
        and fits
        and not packed.has_wide_rows
        and not (packed.qubits[:, 2] >= 0).any()
        and not (packed.opcodes == BARRIER_OP).any()
    ):
        return _packed_profile_fast(packed)
    return _packed_profile_general(packed)


#: Row count below which the general walk beats the vectorised DP (the DP
#: pays ~0.4 ms of fixed array setup; the walk costs well under a
#: microsecond per row).  Measured crossover is near 800 rows; benchmarked
#: at both scales by ``benchmarks/bench_suite.py`` (small suite circuits)
#: and ``benchmarks/bench_ir.py`` (1k/10k-qubit brickwork).
_FAST_PATH_MIN_ROWS = 768


def _packed_profile_fast(packed: PackedCircuit) -> CircuitProfile:
    """Vectorised profile for barrier-free circuits of 1q/2q operations.

    The per-instruction walk is replaced by a DP over the row-level
    dependency DAG:

    1. One sort of the composite keys ``(qubit << SHIFT) | flat_position``
       groups operand slots by qubit with row order preserved inside each
       group (the position occupies the low bits), giving each row its
       predecessor row on each operand without a stable argsort.
    2. Rows are processed in dependency-closed runs: a run is the maximal
       row prefix whose predecessors all precede the run, found by an
       adaptive windowed scan, and each run's DP update is a handful of
       vectorised gathers.  ``keys[row] = max(keys[pred]) + B + is_two_qubit``
       packs Eq. 2's lexicographic ``(chain length, two-qubit count)`` into
       a single integer (``B`` a power of two above any possible count), so
       the maximum over chains is an integer ``max`` and the ASAP level is
       ``(keys[row] >> bits) - 1`` — barriers being absent, the moment of a
       row equals its chain length minus one.
    3. Edges, touches, moments and collapse layers are array reductions
       over the same sorted keys (last touch per qubit detects mid-circuit
       measurements).
    """
    n = packed.num_qubits
    m = len(packed)
    ops = packed.opcodes
    bits = (m + 1).bit_length()
    B = 1 << bits

    # -- per-row predecessors from one composite-key sort ----------------
    flat = packed.qubits[:, :2].ravel().astype(np.int64)  # row-major (m, 2)
    valid = flat >= 0
    vpos = np.nonzero(valid)[0]
    shift = (2 * m).bit_length()
    sorted_keys = np.sort((flat[valid] << shift) | vpos)
    spos = sorted_keys & ((1 << shift) - 1)
    sq = sorted_keys >> shift
    srow = spos >> 1
    same = sq[1:] == sq[:-1]
    sprev = np.full(sq.size, -1, dtype=np.int64)
    sprev[1:][same] = srow[:-1][same]
    prev_flat = np.full(2 * m, -1, dtype=np.int64)
    prev_flat[spos] = sprev
    prev = prev_flat.reshape(m, 2)
    p0 = prev[:, 0]
    p1 = prev[:, 1]
    maxprev = np.maximum(p0, p1)

    # Last row touching each qubit (tail of each sorted group).
    group_last = np.nonzero(np.append(~same, True))[0]
    last_touch = np.full(n, -1, dtype=np.int64)
    last_touch[sq[group_last]] = srow[group_last]

    # -- run-structured DP over the row DAG ------------------------------
    q1_col = flat[1::2]
    is_two = q1_col >= 0
    step = B + is_two  # int64: chain length always advances, 2q count iff 2q row
    keys = np.zeros(m + 1, dtype=np.int64)  # keys[-1] is the zero sentinel
    scratch = np.empty(m, dtype=np.int64)
    start = 0
    window = max(min(n, m), 8)
    while start < m:
        # Find the maximal run [start, end) whose predecessors all precede
        # ``start``; maxprev[start] < start always holds, so progress is
        # guaranteed.  The window doubles on miss and resets to the last
        # run length, keeping the scan linear overall.
        while True:
            probe_end = min(start + window, m)
            blocked = maxprev[start:probe_end] >= start
            offset = int(np.argmax(blocked))
            if blocked[offset]:
                end = start + offset
                break
            if probe_end == m:
                end = m
                break
            window <<= 1
        run = scratch[: end - start]
        # prev == -1 gathers keys[-1] == 0, the empty-chain sentinel.
        np.maximum(keys[p0[start:end]], keys[p1[start:end]], out=run)
        np.add(run, step[start:end], out=keys[start:end])
        window = max(end - start, 8)
        start = end

    row_keys = keys[:m]
    best = int(row_keys.max())
    critical_length = best >> bits
    critical_two_qubit = best & (B - 1)
    levels = row_keys >> bits
    levels -= 1
    depth = int(levels.max()) + 1
    moment_operations = np.bincount(levels, minlength=depth)

    # -- edges / tallies -------------------------------------------------
    q0_col = flat[0::2]
    a = q0_col[is_two]
    b = q1_col[is_two]
    if a.size:
        pairs = np.minimum(a, b) * n + np.maximum(a, b)
        pairs.sort()
        interaction_edges = 1 + int(np.count_nonzero(pairs[1:] != pairs[:-1]))
    else:
        interaction_edges = 0
    two_qubit_operations = int(a.size)
    qubit_touches = int(vpos.size)

    # -- collapse layers (Eq. 6) ----------------------------------------
    measure_rows = np.nonzero(ops == MEASURE_OP)[0]
    reset_rows = np.nonzero(ops == RESET_OP)[0]
    collapse_parts = []
    if measure_rows.size:
        mid = last_touch[q0_col[measure_rows]] > measure_rows
        if mid.any():
            collapse_parts.append(levels[measure_rows[mid]])
    if reset_rows.size:
        collapse_parts.append(levels[reset_rows])
    if collapse_parts:
        collapse_layers = int(np.unique(np.concatenate(collapse_parts)).size)
    else:
        collapse_layers = 0

    return CircuitProfile(
        num_qubits=n,
        depth=depth,
        total_operations=m,
        two_qubit_operations=two_qubit_operations,
        interaction_edges=interaction_edges,
        qubit_touches=qubit_touches,
        critical_length=critical_length,
        critical_two_qubit=critical_two_qubit,
        collapse_layers=collapse_layers,
        moment_operations=moment_operations,
        row_moments=levels,
    )


def _packed_profile_general(packed: PackedCircuit) -> CircuitProfile:
    """Instruction-ordered fallback walk over the packed rows.

    Handles every row shape (barriers — fixed-slot or wide — and 3-qubit
    gates) with the exact semantics of the original per-instruction object
    walk: ASAP frontier with barrier synchronisation, the lexicographic
    ``(chain length, two-qubit count)`` critical-path DP, interaction
    edges, and mid-circuit collapse detection via chain-length comparison.

    The walk indexes the materialised operand columns directly (one
    ``tolist`` per column) instead of building a qubit tuple per row — on
    the small circuits this path serves, per-row allocation is the dominant
    cost.
    """
    n = packed.num_qubits
    frontier = [0] * n  # next free moment per qubit (ASAP scheduling)
    chain_length = [0] * n  # longest chain ending at the last op on qubit q
    chain_two_qubit = [0] * n  # max 2q-count over such chains
    best_length = 0
    best_two_qubit = 0
    edges = set()
    two_qubit_operations = 0
    qubit_touches = 0

    levels: List[int] = []  # moment of each row, -1 for barriers
    barrier_rows = 0
    measure_records: List[Tuple[int, int, int]] = []  # (qubit, chain, moment)
    reset_levels: List[int] = []
    levels_append = levels.append

    opcodes = packed.opcodes.tolist()
    q0_col = packed.qubits[:, 0].tolist()
    q1_col = packed.qubits[:, 1].tolist()
    q2_col = packed.qubits[:, 2].tolist()
    wide = packed.wide_operands()

    for row, opcode in enumerate(opcodes):
        q0 = q0_col[row]
        if opcode == BARRIER_OP:
            if q0 < 0:
                barrier_qubits = wide.get(row, ())
            else:
                q1 = q1_col[row]
                if q1 < 0:
                    barrier_qubits = (q0,)
                else:
                    q2 = q2_col[row]
                    barrier_qubits = (q0, q1) if q2 < 0 else (q0, q1, q2)
            if barrier_qubits:
                level = max(frontier[q] for q in barrier_qubits)
                for q in barrier_qubits:
                    frontier[q] = level
            levels_append(-1)
            barrier_rows += 1
            continue

        # -- ASAP layer assignment + critical-path DP (Eq. 2) ----------
        # The frontier maximum and the per-qubit chain maximum are fused;
        # the 1- and 2-qubit cases are unrolled (they are ~all operations).
        q1 = q1_col[row]
        if q1 < 0:
            num_operands = 1
            level = frontier[q0]
            length_here = chain_length[q0] + 1
            two_qubit_here = chain_two_qubit[q0]
            frontier[q0] = level + 1
            chain_length[q0] = length_here
            chain_two_qubit[q0] = two_qubit_here
        else:
            is_multi = opcode != MEASURE_OP and opcode != RESET_OP
            q2 = q2_col[row]
            if q2 < 0:
                num_operands = 2
                level = frontier[q0]
                if frontier[q1] > level:
                    level = frontier[q1]
                pred_length = chain_length[q0]
                pred_two_qubit = chain_two_qubit[q0]
                if chain_length[q1] > pred_length or (
                    chain_length[q1] == pred_length and chain_two_qubit[q1] > pred_two_qubit
                ):
                    pred_length = chain_length[q1]
                    pred_two_qubit = chain_two_qubit[q1]
                length_here = pred_length + 1
                two_qubit_here = pred_two_qubit + 1 if is_multi else pred_two_qubit
                if is_multi:
                    two_qubit_operations += 1
                    edges.add((q0, q1) if q0 < q1 else (q1, q0))
                next_level = level + 1
                frontier[q0] = next_level
                frontier[q1] = next_level
                chain_length[q0] = length_here
                chain_length[q1] = length_here
                chain_two_qubit[q0] = two_qubit_here
                chain_two_qubit[q1] = two_qubit_here
            else:
                qubits = (q0, q1, q2)
                num_operands = 3
                level = max(frontier[q] for q in qubits)
                pred_length = 0
                pred_two_qubit = 0
                for q in qubits:
                    length_q = chain_length[q]
                    two_qubit_q = chain_two_qubit[q]
                    if length_q > pred_length or (
                        length_q == pred_length and two_qubit_q > pred_two_qubit
                    ):
                        pred_length = length_q
                        pred_two_qubit = two_qubit_q
                length_here = pred_length + 1
                two_qubit_here = pred_two_qubit + 1 if is_multi else pred_two_qubit
                if is_multi:
                    two_qubit_operations += 1
                    for i in range(2):
                        a = qubits[i]
                        for j in range(i + 1, 3):
                            b = qubits[j]
                            edges.add((a, b) if a < b else (b, a))
                next_level = level + 1
                for q in qubits:
                    frontier[q] = next_level
                    chain_length[q] = length_here
                    chain_two_qubit[q] = two_qubit_here

        levels_append(level)
        qubit_touches += num_operands
        if length_here > best_length or (
            length_here == best_length and two_qubit_here > best_two_qubit
        ):
            best_length = length_here
            best_two_qubit = two_qubit_here

        # -- collapse candidates (Eq. 6) -------------------------------
        # chain_length[q] strictly increases with every operation touching
        # q (and barriers never change it), so comparing the recorded value
        # against the final one detects "qubit touched again later" without
        # a separate last-touch array.
        if opcode == RESET_OP:
            reset_levels.append(level)
        elif opcode == MEASURE_OP:
            measure_records.append((q0, length_here, level))

    # -- vectorised per-moment accounting ------------------------------
    row_moments = np.asarray(levels, dtype=np.int64)
    level_array = row_moments[row_moments >= 0] if barrier_rows else row_moments
    depth = int(level_array.max()) + 1 if level_array.size else 0
    moment_operations = (
        np.bincount(level_array, minlength=depth)
        if depth
        else np.zeros(0, dtype=np.int64)
    )
    # A measurement is mid-circuit exactly when its qubit is touched again
    # later; resets always collapse.
    collapse_level_list = list(reset_levels)
    for qubit, length_at_measure, level in measure_records:
        if chain_length[qubit] > length_at_measure:
            collapse_level_list.append(level)
    collapse_layers = int(np.unique(np.asarray(collapse_level_list, dtype=np.int64)).size)

    return CircuitProfile(
        num_qubits=n,
        depth=depth,
        total_operations=int(level_array.size),
        two_qubit_operations=two_qubit_operations,
        interaction_edges=len(edges),
        qubit_touches=qubit_touches,
        critical_length=best_length,
        critical_two_qubit=best_two_qubit,
        collapse_layers=collapse_layers,
        moment_operations=moment_operations,
        row_moments=row_moments,
    )


# ---------------------------------------------------------------------------
# per-feature accessors (single-pass under the hood)
# ---------------------------------------------------------------------------


def program_communication(circuit: Circuit) -> float:
    """Average interaction-graph degree, normalised by the complete graph (Eq. 1)."""
    return circuit_profile(circuit).program_communication


def critical_depth(circuit: Circuit) -> float:
    """Two-qubit gates on the critical path over all two-qubit gates (Eq. 2)."""
    return circuit_profile(circuit).critical_depth


def entanglement_ratio(circuit: Circuit) -> float:
    """Fraction of operations that are multi-qubit unitaries (Eq. 3)."""
    return circuit_profile(circuit).entanglement_ratio


def parallelism(circuit: Circuit) -> float:
    """How densely operations are packed into layers (Eq. 4)."""
    return circuit_profile(circuit).parallelism


def liveness(circuit: Circuit) -> float:
    """Fraction of qubit-timesteps in which the qubit is active (Eq. 5)."""
    return circuit_profile(circuit).liveness


def measurement(circuit: Circuit) -> float:
    """Fraction of layers containing mid-circuit measurement or reset (Eq. 6)."""
    return circuit_profile(circuit).measurement


@dataclass(frozen=True)
class FeatureVector:
    """A named, ordered SupermarQ feature vector."""

    program_communication: float
    critical_depth: float
    entanglement_ratio: float
    parallelism: float
    liveness: float
    measurement: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [
                self.program_communication,
                self.critical_depth,
                self.entanglement_ratio,
                self.parallelism,
                self.liveness,
                self.measurement,
            ],
            dtype=float,
        )

    def as_dict(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in FEATURE_NAMES}

    def __iter__(self):
        return iter(self.as_array())


def compute_features(circuit: Circuit) -> FeatureVector:
    """Compute all six SupermarQ features of a circuit in one pass."""
    return circuit_profile(circuit).features()


def compute_features_many(circuits: Iterable[Circuit]) -> np.ndarray:
    """Feature matrix of many circuits, one row per circuit.

    The batched entry point of the coverage sweeps (Table I): each circuit
    is profiled in a single pass and the six features are assembled into an
    ``(n, 6)`` array ordered by :data:`FEATURE_NAMES`.  An empty input
    yields a ``(0, 6)`` array.
    """
    rows = [circuit_profile(circuit).features().as_array() for circuit in circuits]
    if not rows:
        return np.zeros((0, len(FEATURE_NAMES)), dtype=float)
    return np.vstack(rows)


def feature_vector(circuit: Circuit) -> np.ndarray:
    """The six features as an array ordered by :data:`FEATURE_NAMES`."""
    return compute_features(circuit).as_array()


def typical_features(circuit: Circuit) -> Dict[str, float]:
    """The conventional size features used as a baseline in Fig. 3."""
    profile = circuit_profile(circuit)
    return {
        "num_qubits": float(profile.num_qubits),
        "num_two_qubit_gates": float(profile.two_qubit_operations),
        "depth": float(profile.depth),
    }
