"""Vectorized optimization passes over the packed (columnar) circuit IR.

These functions are the only implementation of the five Closed-Division
optimization passes (:class:`~repro.transpiler.passes.DropNegligible`,
``MergeRotations``, ``CancelAdjacentInverses``, ``FuseSingleQubitRuns`` and
``CommutingTwoQubitCancellation``).  Each reproduces the historical
per-instruction object walk **gate for gate** — same rows kept, same merged
parameters, bit-identical floats.  The transpile goldens pin the compiled
output, and the object walks survive as the test oracle in
``tests/oracle.py``, which the randomized parity tests compare against.

The shared machinery is *predecessor analysis*: for every row, the unique
previous row touching all of its operand qubits (or ``-1`` when the
operands disagree), computed with one lexicographic sort over the flattened
``(qubit, row)`` operand table instead of a per-instruction ``last_index``
dict.  Wide rows (>3-operand barriers) contribute their operands from the
wide pool, so they need no special casing.

Float-parity rules that keep the outputs bit-identical to the object walk:

* merged rotation angles are folded pairwise left-to-right with the *scalar*
  :func:`~repro.utils.normalize_angle` (float addition is not associative;
  vectorized folding could differ in the last ulp);
* the vectorized angle normalization below is used for *comparisons only*
  (negligibility / cancellation tests).  It matches the scalar function
  decision-for-decision because both are built on exact ``fmod``; the lone
  difference is the sign of a zero result, which no ``< tolerance``
  comparison can observe.
* :class:`FuseSingleQubitRuns` multiplies gate matrices produced by the very
  same ``matrix_fn`` calls as ``Gate.matrix()`` (memoised per ``(opcode,
  params)``) — never re-derived with vectorized trig, which differs from
  ``libm`` by ulps.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuits.columnar import (
    BARRIER_OP,
    OP_ARITY,
    OP_IS_UNITARY,
    OP_NAMES,
    OPCODES,
    PackedBuilder,
    PackedCircuit,
)
from ..circuits.gates import ADDITIVE_ROTATIONS, GATE_DEFINITIONS, INVERSE_PAIRS, SELF_INVERSE
from ..utils import normalize_angle
from .decomposition import _ANGLE_TOLERANCE, zyz_angles

__all__ = [
    "drop_negligible_packed",
    "merge_rotations_packed",
    "cancel_adjacent_inverses_packed",
    "fuse_single_qubit_runs_packed",
    "commuting_cancellation_packed",
]

#: Distinct-name inverse pairs (self-inverse gates cancel with themselves).
_INVERSE_PAIRS = frozenset(INVERSE_PAIRS.items())

_TWO_PI = 2.0 * np.pi

_NUM_OPS = len(OP_NAMES)
_ID_OP = OPCODES["id"]
_U_OP = OPCODES["u"]
_CX_OP = OPCODES["cx"]
_CZ_OP = OPCODES["cz"]

_ADDITIVE_OPS = np.zeros(_NUM_OPS, dtype=bool)
for _name in ADDITIVE_ROTATIONS:
    _ADDITIVE_OPS[OPCODES[_name]] = True

_SELF_INVERSE_OPS = np.zeros(_NUM_OPS, dtype=bool)
for _name in SELF_INVERSE:
    _SELF_INVERSE_OPS[OPCODES[_name]] = True

#: opcode -> opcode of its (distinct) inverse, -1 when none (s/sdg, t/tdg, ...).
_INVERSE_OF = np.full(_NUM_OPS, -1, dtype=np.int64)
for _a, _b in _INVERSE_PAIRS:
    _INVERSE_OF[OPCODES[_a]] = OPCODES[_b]

#: Single-qubit gates diagonal in Z commute with a CX control and with both
#: operands of a CZ; X-axis gates commute with a CX target.
_DIAGONAL_OPS = frozenset(OPCODES[n] for n in ("rz", "z", "s", "sdg", "t", "tdg", "p"))
_X_AXIS_OPS = frozenset(OPCODES[n] for n in ("rx", "x", "sx", "sxdg"))

#: Per-opcode commutation-class lookup tables, indexed by opcode id.
_DIAGONAL_ARR = np.array([op in _DIAGONAL_OPS for op in range(_NUM_OPS)], dtype=bool)
_X_AXIS_ARR = np.array([op in _X_AXIS_OPS for op in range(_NUM_OPS)], dtype=bool)


def _negligible(values: np.ndarray) -> np.ndarray:
    """``|normalize_angle(v)| < _ANGLE_TOLERANCE`` per element.

    Decision-identical to the scalar path: ``fmod`` is exact, so the only
    representational difference from Python's ``%`` is a ``-0.0`` where the
    scalar returns ``+0.0`` — invisible to the magnitude comparison.
    """
    mod = np.fmod(values, _TWO_PI)
    mod = np.where(mod < 0.0, mod + _TWO_PI, mod)
    normalized = np.where(mod > np.pi, mod - _TWO_PI, mod)
    return np.abs(normalized) < _ANGLE_TOLERANCE


def _operand_table(packed: PackedCircuit) -> Tuple[np.ndarray, np.ndarray]:
    """Flattened ``(row, qubit)`` operand pairs, wide rows included."""
    rows, slots = np.nonzero(packed.qubits >= 0)
    qubits = packed.qubits[rows, slots].astype(np.int64)
    rows = rows.astype(np.int64)
    if packed.wide_rows.size:
        counts = np.diff(packed.wide_offsets)
        rows = np.concatenate([rows, np.repeat(packed.wide_rows, counts)])
        qubits = np.concatenate([qubits, packed.wide_qubits.astype(np.int64)])
    return rows, qubits


def _uniform_predecessors(packed: PackedCircuit) -> np.ndarray:
    """Per row: the unique previous row touching *all* of its operands, else -1.

    This is exactly the object walk's ``last_index`` candidate test
    (``len({last_index.get(q)}) == 1 and None not in ...``) evaluated for
    every row at once: sort the operand table by ``(qubit, row)``, read each
    operand's predecessor off the sorted neighbour, then require all of a
    row's operand predecessors to agree.
    """
    m = len(packed)
    rows, qubits = _operand_table(packed)
    pred = np.full(m, -1, dtype=np.int64)
    if rows.size == 0:
        return pred
    order = np.lexsort((rows, qubits))
    row_sorted = rows[order]
    qubit_sorted = qubits[order]
    pred_sorted = np.full(rows.size, -1, dtype=np.int64)
    if rows.size > 1:
        same_qubit = qubit_sorted[1:] == qubit_sorted[:-1]
        pred_sorted[1:] = np.where(same_qubit, row_sorted[:-1], -1)
    low = np.full(m, np.iinfo(np.int64).max, dtype=np.int64)
    high = np.full(m, -2, dtype=np.int64)
    np.minimum.at(low, row_sorted, pred_sorted)
    np.maximum.at(high, row_sorted, pred_sorted)
    agree = (low == high) & (high >= 0)
    pred[agree] = high[agree]
    return pred


# ---------------------------------------------------------------------------
# DropNegligible
# ---------------------------------------------------------------------------


def drop_negligible_packed(packed: PackedCircuit) -> PackedCircuit:
    """Remove identity gates and rotations with (numerically) zero angle."""
    opcodes = packed.opcodes
    keep = opcodes != _ID_OP
    additive = _ADDITIVE_OPS[opcodes]
    if additive.any():
        first = packed.params[packed.param_offsets[:-1][additive]]
        keep[additive] = ~_negligible(first)
    u_rows = opcodes == _U_OP
    if u_rows.any():
        starts = packed.param_offsets[:-1][u_rows]
        dead = (
            _negligible(packed.params[starts])
            & _negligible(packed.params[starts + 1])
            & _negligible(packed.params[starts + 2])
        )
        keep[u_rows] = ~dead
    if keep.all():
        return packed
    return PackedBuilder.from_packed(packed).keep(keep).build()


# ---------------------------------------------------------------------------
# MergeRotations
# ---------------------------------------------------------------------------


def merge_rotations_packed(packed: PackedCircuit) -> PackedCircuit:
    """Combine adjacent rotations of the same type on the same qubits.

    A pair merges when no operation touches its qubits in between; a merge
    that sums to zero removes both rotations.  Merge candidates (additive rotation whose uniform predecessor has the
    same opcode and operand order) are found vectorized; the candidates form
    chains (each predecessor has at most one successor-candidate), folded
    left-to-right with the scalar :func:`normalize_angle` so cascaded merges
    and cancel-to-zero removals replay the object walk exactly.
    """
    m = len(packed)
    if m == 0:
        return packed
    additive = _ADDITIVE_OPS[packed.opcodes]
    if not additive.any():
        return packed
    pred = _uniform_predecessors(packed)
    candidates = np.nonzero(additive & (pred >= 0))[0]
    if candidates.size:
        prev = pred[candidates]
        same = (packed.opcodes[candidates] == packed.opcodes[prev]) & np.all(
            packed.qubits[candidates] == packed.qubits[prev], axis=1
        )
        candidates = candidates[same]
    if candidates.size == 0:
        return packed
    starts = packed.param_offsets[:-1]
    pool = packed.params
    removed = np.zeros(m, dtype=bool)
    rewrites: Dict[int, float] = {}
    # Per chain: (accumulator row or None, accumulated angle), keyed by the
    # last chain member processed — the next candidate's predecessor.
    state: Dict[int, Tuple[Optional[int], float]] = {}
    link = pred[candidates]
    for row, prev in zip(candidates.tolist(), link.tolist()):
        acc_row, acc_angle = state.pop(prev, (prev, float(pool[starts[prev]])))
        angle_here = float(pool[starts[row]])
        if acc_row is None:
            # The chain head cancelled to zero: the object walk cleared
            # last_index, so this rotation starts a fresh accumulator.
            state[row] = (row, angle_here)
            continue
        merged = normalize_angle(acc_angle + angle_here)
        removed[row] = True
        if abs(merged) < _ANGLE_TOLERANCE:
            removed[acc_row] = True
            rewrites.pop(acc_row, None)
            state[row] = (None, 0.0)
        else:
            rewrites[acc_row] = merged
            state[row] = (acc_row, merged)
    builder = PackedBuilder.from_packed(packed)
    if rewrites:
        builder.set_first_params(
            np.fromiter(rewrites.keys(), dtype=np.int64, count=len(rewrites)),
            np.fromiter(rewrites.values(), dtype=np.float64, count=len(rewrites)),
        )
    if removed.any():
        builder.keep(~removed)
    return builder.build()


# ---------------------------------------------------------------------------
# CancelAdjacentInverses
# ---------------------------------------------------------------------------


def cancel_adjacent_inverses_packed(packed: PackedCircuit) -> PackedCircuit:
    """Remove adjacent mutually-inverse gate pairs until none remain.

    "Adjacent" means no intervening operation touches any of the pair's
    qubits; barriers block cancellation across them.  The fixed-point sweeps run over an *alive mask* instead of rebuilding
    the pack per sweep: the operand table is sorted once, each sweep filters
    the sorted table down to surviving rows (the filtered table IS the
    reduced circuit's table — order is preserved), and the pack is rebuilt
    a single time at the end.
    """
    m = len(packed)
    if m < 2:
        return packed
    all_rows, all_qubits = _operand_table(packed)
    if all_rows.size == 0:
        return packed
    order = np.lexsort((all_rows, all_qubits))
    row_sorted_full = all_rows[order]
    qubit_sorted_full = all_qubits[order]

    opcodes = packed.opcodes.astype(np.int64)
    starts = packed.param_offsets[:-1]
    unitary_non_barrier = OP_IS_UNITARY[opcodes] & (opcodes != BARRIER_OP)
    alive = np.ones(m, dtype=bool)
    changed_any = False
    changed = True
    while changed:
        changed = False
        mask = alive[row_sorted_full]
        row_sorted = row_sorted_full[mask]
        if row_sorted.size < 2:
            break
        qubit_sorted = qubit_sorted_full[mask]
        pred_sorted = np.full(row_sorted.size, -1, dtype=np.int64)
        same_qubit = qubit_sorted[1:] == qubit_sorted[:-1]
        pred_sorted[1:] = np.where(same_qubit, row_sorted[:-1], -1)
        low = np.full(m, np.iinfo(np.int64).max, dtype=np.int64)
        high = np.full(m, -2, dtype=np.int64)
        np.minimum.at(low, row_sorted, pred_sorted)
        np.maximum.at(high, row_sorted, pred_sorted)
        agree = (low == high) & (high >= 0)
        rows = np.nonzero(agree)[0]
        if rows.size == 0:
            break
        prev = high[rows]
        valid = (
            unitary_non_barrier[rows]
            & unitary_non_barrier[prev]
            & np.all(packed.qubits[rows] == packed.qubits[prev], axis=1)
        )
        ops_here = opcodes[rows]
        ops_prev = opcodes[prev]
        same_op = ops_here == ops_prev
        inverse = valid & same_op & _SELF_INVERSE_OPS[ops_here]
        inverse |= valid & (_INVERSE_OF[ops_prev] == ops_here)
        additive = valid & same_op & _ADDITIVE_OPS[ops_here]
        if additive.any():
            angle_sum = (
                packed.params[starts[prev[additive]]]
                + packed.params[starts[rows[additive]]]
            )
            additive_hit = np.zeros_like(additive)
            additive_hit[additive] = _negligible(angle_sum)
            inverse |= additive_hit
        cancel_rows = rows[inverse]
        if cancel_rows.size == 0:
            break
        cancel_prev = prev[inverse]
        # Sequential resolution in row order replays the object sweep: a
        # pair whose earlier member was already consumed by a previous pair
        # is skipped (its last_index entry was cleared).
        for row, prior in zip(cancel_rows.tolist(), cancel_prev.tolist()):
            if not alive[prior] or not alive[row]:
                continue
            alive[prior] = False
            alive[row] = False
            changed = True
        changed_any = changed_any or changed
    if not changed_any:
        return packed
    return PackedBuilder.from_packed(packed).keep(alive).build()


# ---------------------------------------------------------------------------
# FuseSingleQubitRuns
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _gate_matrix(opcode: int, params: Tuple[float, ...]) -> np.ndarray:
    """Memoised ``Gate.matrix()`` by opcode + exact parameter tuple.

    Calls the very same ``matrix_fn`` the object walk calls, so the fused
    matrix products are bit-identical; the cache only removes recomputation
    for repeated (gate, angle) combinations.
    """
    definition = GATE_DEFINITIONS[OP_NAMES[opcode]]
    matrix = definition.matrix_fn(*params)
    matrix.flags.writeable = False
    return matrix


@lru_cache(maxsize=65536)
def _fused_run(run: Tuple[Tuple[int, Tuple[float, ...]], ...]) -> Optional[Tuple[float, float, float]]:
    """ZYZ angles of a fused single-qubit run, or ``None`` if it folds to identity.

    The run key is the exact ``(opcode, params)`` sequence, so the fold and
    the ZYZ call replay bit-identically on every hit — benchmark families
    repeat 1q-run patterns heavily, making the fold + ``zyz_angles`` cost
    one-time per distinct run.
    """
    matrix = _gate_matrix(*run[0])
    for key in run[1:]:
        matrix = _gate_matrix(*key) @ matrix
    theta, phi, lam = zyz_angles(matrix)
    if (
        abs(theta) < _ANGLE_TOLERANCE
        and abs(normalize_angle(phi + lam)) < _ANGLE_TOLERANCE
    ):
        return None
    return (theta, phi, lam)


def fuse_single_qubit_runs_packed(packed: PackedCircuit) -> PackedCircuit:
    """Collapse maximal runs of single-qubit unitaries into one ``u`` gate.

    A run that folds to the identity is dropped.  A sequential walk by construction (matrix products are order-dependent),
    but over opcode ints — each run accumulates ``(opcode, params)`` keys and
    resolves through the memoised :func:`_fused_run` fold at flush time — and
    rebuilt through the :class:`PackedBuilder` tail store, so the circuit
    never materialises Python objects.
    """
    opcodes_column = packed.opcodes
    single = OP_IS_UNITARY[opcodes_column] & (OP_ARITY[opcodes_column] == 1)
    if not single.any():
        return packed
    single_list = single.tolist()
    opcodes = opcodes_column.tolist()
    qubit_rows = packed.qubits.tolist()
    clbit_list = packed.clbits.tolist()
    offsets = packed.param_offsets.tolist()
    pool = packed.params.tolist()
    wide = packed.wide_operands()
    builder = PackedBuilder(packed.num_qubits, packed.num_clbits, packed.name)
    append = builder.append
    pending: Dict[int, List[Tuple[int, Tuple[float, ...]]]] = {}

    def flush(qubit: int) -> None:
        run = pending.pop(qubit, None)
        if run is None:
            return
        fused = _fused_run(tuple(run))
        if fused is None:
            return
        append(_U_OP, (qubit,), fused)

    for row, opcode in enumerate(opcodes):
        slots = qubit_rows[row]
        if single_list[row]:
            qubit = slots[0]
            key = (opcode, tuple(pool[offsets[row] : offsets[row + 1]]))
            run = pending.get(qubit)
            if run is None:
                pending[qubit] = [key]
            else:
                run.append(key)
            continue
        q0, q1, q2 = slots
        if q2 >= 0:
            qubits: Tuple[int, ...] = (q0, q1, q2)
        elif q1 >= 0:
            qubits = (q0, q1)
        elif q0 >= 0:
            qubits = (q0,)
        else:
            qubits = wide.get(row, ())
        for qubit in qubits:
            flush(qubit)
        if not qubits and opcode == BARRIER_OP:
            for qubit in list(pending):
                flush(qubit)
        append(opcode, qubits, tuple(pool[offsets[row] : offsets[row + 1]]), clbit_list[row])
    for qubit in list(pending):
        flush(qubit)
    return builder.build()


# ---------------------------------------------------------------------------
# CommutingTwoQubitCancellation
# ---------------------------------------------------------------------------


def commuting_cancellation_packed(packed: PackedCircuit) -> PackedCircuit:
    """Cancel ``cx``/``cz`` pairs separated only by commuting gates.

    The object walk's ``open_pairs`` dict (kept in the test oracle) is
    replaced by an exactly equivalent interval formulation: two consecutive occurrences of the same
    ``(gate, qubit pair)`` key cancel iff no *blocker* lies strictly between
    them — a blocker being any surviving row that touches one of the key's
    qubits without commuting through it (non-diagonal on a control / cz leg,
    non-X-axis on a cx target), or an operand-less barrier.  The equivalence
    holds because an intervening different-key ``cx``/``cz`` sharing a qubit
    always closes the pair in the object walk too: either it opens (and
    invalidates), or — had it matched an earlier partner — that partner's
    interval would have been closed by *this* key's own opening first.
    Blocker lookups are ``searchsorted`` interval queries over per-qubit
    operand tables sorted once; the fixed-point sweeps just refilter by the
    alive mask.
    """
    m = len(packed)
    opcodes = packed.opcodes.astype(np.int64)
    is_cx = opcodes == _CX_OP
    is_cz = opcodes == _CZ_OP
    pair_mask = is_cx | is_cz
    if not pair_mask.any():
        return packed

    rows_tab, qubits_tab = _operand_table(packed)
    order = np.lexsort((rows_tab, qubits_tab))
    op_rows = rows_tab[order]
    op_qubits = qubits_tab[order]
    stride = m + 1
    encoded = op_qubits * stride + op_rows

    one_q = (packed.qubits[:, 0] >= 0) & (packed.qubits[:, 1] < 0)
    transparent_diag = one_q & OP_IS_UNITARY[opcodes] & _DIAGONAL_ARR[opcodes]
    transparent_x = one_q & OP_IS_UNITARY[opcodes] & _X_AXIS_ARR[opcodes]
    diag_blocker = ~transparent_diag[op_rows]
    x_blocker = ~transparent_x[op_rows]
    diag_keys_full = encoded[diag_blocker]
    diag_rows_full = op_rows[diag_blocker]
    x_keys_full = encoded[x_blocker]
    x_rows_full = op_rows[x_blocker]

    empty_barrier = (opcodes == BARRIER_OP) & (packed.qubits[:, 0] < 0)
    if packed.wide_rows.size:
        empty_barrier[packed.wide_rows] = False
    barrier_rows_full = np.nonzero(empty_barrier)[0]

    # cx keys are the exact (control, target) operands; cz keys are sorted.
    pair_rows = np.nonzero(pair_mask)[0]
    a = packed.qubits[pair_rows, 0].astype(np.int64)
    b = packed.qubits[pair_rows, 1].astype(np.int64)
    cz_here = is_cz[pair_rows]
    key_a = np.where(cz_here, np.minimum(a, b), a)
    key_b = np.where(cz_here, np.maximum(a, b), b)
    g_order = np.lexsort((pair_rows, key_b, key_a, cz_here))
    g_rows = pair_rows[g_order]
    g_a = key_a[g_order]
    g_b = key_b[g_order]
    g_cz = cz_here[g_order]
    same_key = np.zeros(g_rows.size, dtype=bool)
    if g_rows.size > 1:
        same_key[1:] = (g_cz[1:] == g_cz[:-1]) & (g_a[1:] == g_a[:-1]) & (g_b[1:] == g_b[:-1])

    alive = np.ones(m, dtype=bool)
    changed_any = False
    changed = True
    while changed:
        changed = False
        diag_keys = diag_keys_full[alive[diag_rows_full]]
        x_keys = x_keys_full[alive[x_rows_full]]
        barrier_rows = barrier_rows_full[alive[barrier_rows_full]]
        occ = np.nonzero(alive[g_rows])[0]
        if occ.size < 2:
            break
        lo_idx = occ[:-1]
        hi_idx = occ[1:]
        # same key iff no key boundary between the two occurrence slots
        boundary = np.cumsum(~same_key)
        pair_ok = boundary[lo_idx] == boundary[hi_idx]
        lo_rows = g_rows[lo_idx]
        hi_rows = g_rows[hi_idx]
        qa = g_a[hi_idx]
        qb = g_b[hi_idx]
        pair_cz = g_cz[hi_idx]

        def _any_between(keys: np.ndarray, qubit: np.ndarray) -> np.ndarray:
            left = np.searchsorted(keys, qubit * stride + lo_rows, side="right")
            right = np.searchsorted(keys, qubit * stride + hi_rows, side="left")
            return right > left

        blocked = _any_between(diag_keys, qa)
        blocked |= np.where(
            pair_cz, _any_between(diag_keys, qb), _any_between(x_keys, qb)
        )
        if barrier_rows.size:
            left = np.searchsorted(barrier_rows, lo_rows, side="right")
            right = np.searchsorted(barrier_rows, hi_rows, side="left")
            blocked |= right > left

        # Greedy pairing per key run, replaying the open_pairs state machine.
        occ_list = occ.tolist()
        ok_list = pair_ok.tolist()
        blocked_list = blocked.tolist()
        rows_list = g_rows.tolist()
        prev_open = True
        for index in range(1, len(occ_list)):
            edge = index - 1
            if not ok_list[edge]:
                prev_open = True  # new key run: this occurrence opens
                continue
            if not prev_open:
                prev_open = True  # follows a cancelled pair: opens fresh
                continue
            if blocked_list[edge]:
                continue  # partner was closed; this occurrence re-opens
            alive[rows_list[occ_list[edge]]] = False
            alive[rows_list[occ_list[index]]] = False
            prev_open = False
            changed = True
        changed_any = changed_any or changed
    if not changed_any:
        return packed
    return PackedBuilder.from_packed(packed).keep(alive).build()
