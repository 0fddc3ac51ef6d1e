"""Columnar (packed) circuit representation.

A :class:`PackedCircuit` stores a circuit as parallel numpy arrays with one
row per instruction — the arrays-of-ints IR the hot paths vectorise over:

==================  =======================================================
column              contents
==================  =======================================================
``opcodes``         ``uint16`` opcode id per row (see the opcode table)
``qubits``          ``int32 (m, 3)`` operand qubit indices in gate order,
                    ``-1`` in unused trailing slots
``clbits``          ``int32`` classical bit written by a measurement row,
                    ``-1`` otherwise
``param_offsets``   ``int64 (m + 1)`` prefix offsets into ``params``; row
                    ``i``'s parameters are ``params[off[i]:off[i + 1]]``
``params``          shared ``float64`` parameter pool
``wide_rows`` /     escape hatch for the (rare) rows with more than three
``wide_offsets`` /  operands — only ``barrier`` has variable arity.  Such a
``wide_qubits``     row's fixed-width slots are all ``-1`` and its full
                    operand list lives in the ``wide_qubits`` pool
==================  =======================================================

plus the per-circuit metadata (``num_qubits``, ``num_clbits``, ``name``).

It is the one store of a :class:`~repro.circuits.circuit.Circuit`: the
circuit's row writer writes each operation as a row through a
:class:`PackedBuilder`, :meth:`~repro.circuits.circuit.Circuit.packed`
freezes the rows into a cached pack, and :meth:`PackedCircuit.unpack` wraps
a pack in a circuit without copying a row.  The representation is
**lossless**: a circuit's instruction view round-trips through it exactly
(property-tested over every gate arity, measure/reset/barrier and parameter
shapes), and consumers (feature extraction, kernel plan compilation,
analysis passes, fingerprinting) share one pack per circuit.

**Opcode table versioning.**  Opcode ids are assigned from the insertion
order of :data:`~repro.circuits.gates.GATE_DEFINITIONS`, which is therefore
append-only: new gates must be registered *before* the ``measure`` /
``reset`` / ``barrier`` tail never reordered, or every persisted circuit
fingerprint changes.  :data:`OPCODE_TABLE_DIGEST` condenses the table into a
hash that the circuit fingerprint includes, so an (accidental or deliberate)
table change loudly changes every fingerprint instead of silently colliding
with pre-change ones.  See ``docs/ir.md`` for the full migration story.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

import numpy as np

from .gates import GATE_DEFINITIONS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (circuit imports us)
    import networkx as nx

    from .circuit import Circuit

__all__ = [
    "OPCODES",
    "OP_NAMES",
    "OP_ARITY",
    "OP_NUM_PARAMS",
    "OP_IS_UNITARY",
    "MEASURE_OP",
    "RESET_OP",
    "BARRIER_OP",
    "QUBIT_SLOTS",
    "OPCODE_TABLE_DIGEST",
    "PackedCircuit",
    "PackedBuilder",
]

#: Fixed operand columns; the only variable-arity operation (``barrier``)
#: overflows into the wide pool when it covers more than three qubits.
QUBIT_SLOTS = 3

#: Opcode id per operation name, assigned from GATE_DEFINITIONS insertion
#: order (append-only — see the module docstring).
OPCODES: Dict[str, int] = {name: index for index, name in enumerate(GATE_DEFINITIONS)}

#: Operation name per opcode id (the inverse of :data:`OPCODES`).
OP_NAMES: Tuple[str, ...] = tuple(GATE_DEFINITIONS)

#: Declared qubit arity per opcode (0 for the variable-arity ``barrier``).
OP_ARITY = np.array([d.num_qubits for d in GATE_DEFINITIONS.values()], dtype=np.int8)

#: Parameter count per opcode.
OP_NUM_PARAMS = np.array([d.num_params for d in GATE_DEFINITIONS.values()], dtype=np.int8)

#: True per opcode for unitary gates (False for measure/reset/barrier).
OP_IS_UNITARY = np.array([d.is_unitary for d in GATE_DEFINITIONS.values()], dtype=bool)

MEASURE_OP: int = OPCODES["measure"]
RESET_OP: int = OPCODES["reset"]
BARRIER_OP: int = OPCODES["barrier"]


def _opcode_table_digest() -> str:
    """Hash of the full opcode table (ids, names, arities, parameter counts).

    Folded into every circuit fingerprint: any change to the table — a new
    gate, a reorder, an arity change — changes the digest and therefore every
    fingerprint, turning silent cache-key collisions into loud misses.
    """
    hasher = hashlib.sha1()
    for name, definition in GATE_DEFINITIONS.items():
        hasher.update(
            f"{OPCODES[name]}:{name}:{definition.num_qubits}:{definition.num_params};".encode()
        )
    return hasher.hexdigest()


#: Digest of the opcode table this build packs circuits with.
OPCODE_TABLE_DIGEST: str = _opcode_table_digest()

#: Sentinel padding per operand count (index by ``len(qubits)``).
_PAD: Tuple[Tuple[int, ...], ...] = ((-1, -1, -1), (-1, -1), (-1,), ())


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class PackedCircuit:
    """A circuit lowered to parallel numpy columns (see the module docstring).

    Instances are immutable (all arrays are read-only) and therefore safe to
    cache on the producing circuit and share across copies and threads.
    """

    num_qubits: int
    num_clbits: int
    opcodes: np.ndarray
    qubits: np.ndarray
    clbits: np.ndarray
    param_offsets: np.ndarray
    params: np.ndarray
    wide_rows: np.ndarray
    wide_offsets: np.ndarray
    wide_qubits: np.ndarray
    name: str = ""

    def __len__(self) -> int:
        return int(self.opcodes.shape[0])

    @property
    def has_wide_rows(self) -> bool:
        return self.wide_rows.size > 0

    # ------------------------------------------------------------------
    # row access
    # ------------------------------------------------------------------
    def row_qubits(self, row: int) -> Tuple[int, ...]:
        """Operand qubits of one row, in gate order (handles wide rows)."""
        if self.wide_rows.size:
            hits = np.nonzero(self.wide_rows == row)[0]
            if hits.size:
                index = int(hits[0])
                start, stop = self.wide_offsets[index], self.wide_offsets[index + 1]
                return tuple(int(q) for q in self.wide_qubits[start:stop])
        return tuple(int(q) for q in self.qubits[row] if q >= 0)

    def row_params(self, row: int) -> Tuple[float, ...]:
        start, stop = self.param_offsets[row], self.param_offsets[row + 1]
        return tuple(float(p) for p in self.params[start:stop])

    def wide_operands(self) -> Dict[int, Tuple[int, ...]]:
        """``row -> operand tuple`` of every wide (>``QUBIT_SLOTS``-operand) row."""
        wide: Dict[int, Tuple[int, ...]] = {}
        if self.wide_rows.size:
            wide_offsets = self.wide_offsets.tolist()
            wide_pool = self.wide_qubits.tolist()
            for index, row in enumerate(self.wide_rows.tolist()):
                wide[row] = tuple(wide_pool[wide_offsets[index] : wide_offsets[index + 1]])
        return wide

    def iter_rows(self) -> Iterator[Tuple[int, int, Tuple[int, ...], Tuple[float, ...], int]]:
        """Yield ``(row, opcode, qubits, params, clbit)`` per instruction.

        The shared row iterator of every packed consumer that still needs a
        Python-level walk (plan compilation, the instruction view);
        materialises the columns as lists once instead of per-element array
        indexing.
        """
        opcodes = self.opcodes.tolist()
        qubit_rows = self.qubits.tolist()
        clbits = self.clbits.tolist()
        offsets = self.param_offsets.tolist()
        pool = self.params.tolist()
        wide = self.wide_operands()
        for row, opcode in enumerate(opcodes):
            if wide:
                qubits = wide.get(row)
                if qubits is None:
                    qubits = tuple(q for q in qubit_rows[row] if q >= 0)
            else:
                qubits = tuple(q for q in qubit_rows[row] if q >= 0)
            yield row, opcode, qubits, tuple(pool[offsets[row] : offsets[row + 1]]), clbits[row]

    def terminal_measurements(self) -> Dict[int, Tuple[int, int]]:
        """``row -> (qubit, clbit)`` of every terminal measurement, in row order.

        A measurement at row ``r`` on qubit ``q`` is terminal exactly when
        the last non-barrier row touching ``q`` is ``r`` itself, so a qubit
        has at most one.  Vectorised: one last-touch scan over the qubit
        columns.
        """
        measure_rows = np.nonzero(self.opcodes == MEASURE_OP)[0]
        if not measure_rows.size:
            return {}
        rows = np.nonzero(self.opcodes != BARRIER_OP)[0]
        operands = self.qubits[rows]
        valid = operands >= 0
        last_touch = np.full(self.num_qubits, -1, dtype=np.int64)
        np.maximum.at(
            last_touch,
            operands[valid],
            np.repeat(rows, operands.shape[1])[valid.ravel()],
        )
        measured = self.qubits[measure_rows, 0]
        terminal = last_touch[measured] == measure_rows
        return {
            row: (qubit, clbit)
            for row, qubit, clbit in zip(
                measure_rows[terminal].tolist(),
                measured[terminal].tolist(),
                self.clbits[measure_rows[terminal]].tolist(),
            )
        }

    def interaction_pairs(self) -> List[Tuple[int, int]]:
        """Every pair of operands of a multi-qubit unitary row, in row order.

        Within a row, pairs ``(i, j)`` with ``i < j`` by operand position.
        This order fixes each qubit's interaction neighbour order (see
        :func:`~repro.devices.coupling.neighbour_table`), by which
        noise-aware placement breaks ties.
        """
        pairs: List[Tuple[int, int]] = []
        multi = OP_IS_UNITARY[self.opcodes] & (self.qubits[:, 1] >= 0)
        for q0, q1, q2 in self.qubits[multi].tolist():
            pairs.append((q0, q1))
            if q2 >= 0:
                pairs.append((q0, q2))
                pairs.append((q1, q2))
        return pairs

    def interaction_graph(self) -> "nx.Graph":
        """Graph with one node per qubit and an edge per interacting pair.

        Edges are added in :meth:`interaction_pairs` order, so networkx's
        neighbour order is the one placement reads.
        """
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_qubits))
        graph.add_edges_from(self.interaction_pairs())
        return graph

    # ------------------------------------------------------------------
    # hashing / round trip
    # ------------------------------------------------------------------
    def buffers(self) -> Iterator[Tuple[str, np.ndarray]]:
        """The raw column buffers in a stable order (fingerprint input)."""
        yield "opcodes", self.opcodes
        yield "qubits", self.qubits
        yield "clbits", self.clbits
        yield "param_offsets", self.param_offsets
        yield "params", self.params
        yield "wide_rows", self.wide_rows
        yield "wide_offsets", self.wide_offsets
        yield "wide_qubits", self.wide_qubits

    def unpack(self) -> "Circuit":
        """The :class:`Circuit` whose rows are this pack (no row is copied).

        The circuit's ``packed()`` is this object, so fingerprint and feature
        consumers downstream reuse it; appending to the circuit builds a new
        pack and leaves this one as it is.
        """
        from .circuit import Circuit

        circuit = Circuit(self.num_qubits, self.num_clbits, self.name)
        circuit._rows = PackedBuilder.from_packed(self)
        circuit._packed = self
        return circuit


class PackedBuilder:
    """Mutable companion to :class:`PackedCircuit`.

    The builder lets packed consumers (vectorized transpiler passes, mainly)
    filter, rewrite and append rows without round-tripping through Python
    ``Instruction`` objects.  It keeps two stores:

    * **base** — the column arrays of an existing pack (entered via
      :meth:`from_packed`), edited wholesale by :meth:`keep` (boolean row
      mask, with param-pool and wide-pool compaction) and
      :meth:`set_first_params` (rewrite the first parameter of selected
      rows, e.g. rotation merging);
    * **tail** — rows appended one by one via :meth:`append` (opcode ids,
      not gate objects), overflowing >``QUBIT_SLOTS``-operand rows into the
      wide pool.

    :meth:`build` consolidates both stores into a frozen
    :class:`PackedCircuit` whose buffers are **byte-identical** to a fresh
    build of the same row sequence — a property the transpiler's
    golden-parity tests rely on, since circuit fingerprints hash those
    buffers directly.  Every :class:`~repro.circuits.circuit.Circuit` keeps
    its rows in one of these.
    """

    def __init__(self, num_qubits: int, num_clbits: int, name: str = "") -> None:
        self.num_qubits = int(num_qubits)
        self.num_clbits = int(num_clbits)
        self.name = name
        # base store (columns of an existing pack; None when building fresh)
        self._base: PackedCircuit | None = None
        self._base_params: np.ndarray | None = None  # mutable copy on rewrite
        # tail store (python lists, append order)
        self._opcodes: List[int] = []
        self._qubits: List[Tuple[int, ...]] = []
        self._clbits: List[int] = []
        self._offsets: List[int] = [0]
        self._params: List[float] = []
        self._wide_rows: List[int] = []
        self._wide_offsets: List[int] = [0]
        self._wide_pool: List[int] = []

    @classmethod
    def from_packed(cls, packed: PackedCircuit) -> "PackedBuilder":
        """Start from an existing pack (rows become the editable base)."""
        builder = cls(packed.num_qubits, packed.num_clbits, packed.name)
        builder._base = packed
        return builder

    def __len__(self) -> int:
        base = 0 if self._base is None else len(self._base)
        return base + len(self._opcodes)

    # ------------------------------------------------------------------
    # base-store edits (vectorized)
    # ------------------------------------------------------------------
    def keep(self, mask: np.ndarray) -> "PackedBuilder":
        """Drop every base row where ``mask`` is False (chainable).

        Compacts the parameter pool and the wide-operand pool so the kept
        rows lay out exactly as a fresh pack of the surviving instruction
        sequence would.  Only legal while no rows have been appended.
        """
        if self._base is None or self._opcodes:
            raise ValueError("keep() requires a base pack and no appended rows")
        base = self._base
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(base),):
            raise ValueError(f"mask must have shape ({len(base)},), got {mask.shape}")
        if mask.all():
            return self
        params = base.params if self._base_params is None else self._base_params
        counts = np.diff(base.param_offsets)
        new_offsets = np.zeros(int(mask.sum()) + 1, dtype=np.int64)
        np.cumsum(counts[mask], out=new_offsets[1:])
        new_params = params[np.repeat(mask, counts)]

        wide_rows = base.wide_rows
        wide_offsets = base.wide_offsets
        wide_qubits = base.wide_qubits
        if wide_rows.size:
            wide_keep = mask[wide_rows]
            new_row_of = np.cumsum(mask) - 1  # old row id -> new row id
            wide_counts = np.diff(wide_offsets)
            wide_rows = new_row_of[wide_rows[wide_keep]].astype(np.int64)
            new_wide_offsets = np.zeros(wide_rows.size + 1, dtype=np.int64)
            np.cumsum(wide_counts[wide_keep], out=new_wide_offsets[1:])
            wide_offsets = new_wide_offsets
            wide_qubits = wide_qubits[np.repeat(wide_keep, wide_counts)]

        self._base = replace(
            base,
            opcodes=_frozen(base.opcodes[mask]),
            qubits=_frozen(base.qubits[mask]),
            clbits=_frozen(base.clbits[mask]),
            param_offsets=_frozen(new_offsets),
            params=_frozen(np.ascontiguousarray(new_params)),
            wide_rows=_frozen(np.ascontiguousarray(wide_rows)),
            wide_offsets=_frozen(np.ascontiguousarray(wide_offsets)),
            wide_qubits=_frozen(np.ascontiguousarray(wide_qubits)),
        )
        self._base_params = None
        return self

    def set_first_params(self, rows: np.ndarray, values: np.ndarray) -> "PackedBuilder":
        """Rewrite the first parameter of the given base rows (chainable).

        The rotation-merge primitive: each targeted row must already own at
        least one parameter (its pool slot is overwritten in place).
        """
        if self._base is None:
            raise ValueError("set_first_params() requires a base pack")
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return self
        offsets = self._base.param_offsets
        counts = offsets[rows + 1] - offsets[rows]
        if counts.size and int(counts.min()) < 1:
            raise ValueError("set_first_params() targets a parameter-less row")
        if self._base_params is None:
            self._base_params = self._base.params.copy()
        self._base_params[offsets[rows]] = np.asarray(values, dtype=np.float64)
        return self

    # ------------------------------------------------------------------
    # tail-store edits (append order)
    # ------------------------------------------------------------------
    def append(
        self,
        opcode: int,
        qubits: Tuple[int, ...],
        params: Tuple[float, ...] = (),
        clbit: int = -1,
    ) -> "PackedBuilder":
        """Append one row (opcode id + operands)."""
        arity = len(qubits)
        row = len(self._opcodes)
        self._opcodes.append(int(opcode))
        if arity <= QUBIT_SLOTS:
            self._qubits.append(tuple(qubits) + _PAD[arity])
        else:
            self._qubits.append(_PAD[0])
            self._wide_rows.append(row)
            self._wide_pool.extend(qubits)
            self._wide_offsets.append(len(self._wide_pool))
        self._clbits.append(int(clbit))
        if params:
            self._params.extend(params)
        self._offsets.append(len(self._params))
        return self

    # ------------------------------------------------------------------
    def build(self) -> PackedCircuit:
        """Freeze the builder into an immutable :class:`PackedCircuit`."""
        base = self._base
        if base is not None and self._base_params is not None:
            base = self._base = replace(base, params=_frozen(self._base_params))
            self._base_params = None

        m = len(self._opcodes)
        tail = PackedCircuit(
            num_qubits=self.num_qubits,
            num_clbits=self.num_clbits,
            opcodes=_frozen(np.array(self._opcodes, dtype=np.uint16)),
            qubits=_frozen(np.array(self._qubits, dtype=np.int32).reshape(m, QUBIT_SLOTS)),
            clbits=_frozen(np.array(self._clbits, dtype=np.int32)),
            param_offsets=_frozen(np.array(self._offsets, dtype=np.int64)),
            params=_frozen(np.array(self._params, dtype=np.float64)),
            wide_rows=_frozen(np.array(self._wide_rows, dtype=np.int64)),
            wide_offsets=_frozen(np.array(self._wide_offsets, dtype=np.int64)),
            wide_qubits=_frozen(np.array(self._wide_pool, dtype=np.int32)),
            name=self.name,
        )
        if base is None:
            return tail
        if m == 0:
            return replace(
                base, num_qubits=self.num_qubits, num_clbits=self.num_clbits, name=self.name
            )
        shift = len(base)
        return PackedCircuit(
            num_qubits=self.num_qubits,
            num_clbits=self.num_clbits,
            opcodes=_frozen(np.concatenate([base.opcodes, tail.opcodes])),
            qubits=_frozen(np.concatenate([base.qubits, tail.qubits])),
            clbits=_frozen(np.concatenate([base.clbits, tail.clbits])),
            param_offsets=_frozen(
                np.concatenate(
                    [base.param_offsets, tail.param_offsets[1:] + base.params.size]
                )
            ),
            params=_frozen(np.concatenate([base.params, tail.params])),
            wide_rows=_frozen(np.concatenate([base.wide_rows, tail.wide_rows + shift])),
            wide_offsets=_frozen(
                np.concatenate(
                    [base.wide_offsets, tail.wide_offsets[1:] + base.wide_qubits.size]
                )
            ),
            wide_qubits=_frozen(np.concatenate([base.wide_qubits, tail.wide_qubits])),
            name=self.name,
        )
