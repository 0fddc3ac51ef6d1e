"""Gate definitions and unitary matrices.

A :class:`Gate` is an immutable description of a quantum operation: a name,
a qubit arity and a (possibly empty) tuple of real parameters.  Unitary
matrices follow the textbook convention in which the *first* qubit a gate is
applied to corresponds to the most significant bit of the matrix index.  For
example ``CX`` applied to ``(control, target)`` uses the basis ordering
``|control target>`` and therefore has the familiar matrix

    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]].

Non-unitary operations (measurement, reset, barrier) are represented by the
same class but report ``is_unitary() == False`` and have no matrix.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from ..exceptions import GateError

__all__ = [
    "Gate",
    "GateDefinition",
    "GATE_DEFINITIONS",
    "checked_params",
    "gate_matrix",
    "inverse_of",
    "is_known_gate",
    "standard_gate",
    "MEASURE",
    "RESET",
    "BARRIER",
    "NON_UNITARY_NAMES",
]

#: Names of operations that are not unitary gates.
NON_UNITARY_NAMES = frozenset({"measure", "reset", "barrier"})


def _mat(rows) -> np.ndarray:
    return np.array(rows, dtype=complex)


def _identity() -> np.ndarray:
    return np.eye(2, dtype=complex)


def _x() -> np.ndarray:
    return _mat([[0, 1], [1, 0]])


def _y() -> np.ndarray:
    return _mat([[0, -1j], [1j, 0]])


def _z() -> np.ndarray:
    return _mat([[1, 0], [0, -1]])


def _h() -> np.ndarray:
    return _mat([[1, 1], [1, -1]]) / math.sqrt(2)


def _s() -> np.ndarray:
    return _mat([[1, 0], [0, 1j]])


def _sdg() -> np.ndarray:
    return _mat([[1, 0], [0, -1j]])


def _t() -> np.ndarray:
    return _mat([[1, 0], [0, cmath.exp(1j * math.pi / 4)]])


def _tdg() -> np.ndarray:
    return _mat([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]])


def _sx() -> np.ndarray:
    return _mat([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2


def _sxdg() -> np.ndarray:
    return _mat([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]]) / 2


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _mat([[c, -1j * s], [-1j * s, c]])


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _mat([[c, -s], [s, c]])


def _rz(theta: float) -> np.ndarray:
    return _mat([[cmath.exp(-1j * theta / 2), 0], [0, cmath.exp(1j * theta / 2)]])


def _p(theta: float) -> np.ndarray:
    return _mat([[1, 0], [0, cmath.exp(1j * theta)]])


def _u(theta: float, phi: float, lam: float) -> np.ndarray:
    """General single-qubit rotation (OpenQASM ``U`` / Qiskit ``U3``)."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _mat(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ]
    )


def _r(theta: float, phi: float) -> np.ndarray:
    """Rotation by ``theta`` around the axis ``cos(phi) X + sin(phi) Y``."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _mat(
        [
            [c, -1j * cmath.exp(-1j * phi) * s],
            [-1j * cmath.exp(1j * phi) * s, c],
        ]
    )


def _cx() -> np.ndarray:
    return _mat(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ]
    )


def _cy() -> np.ndarray:
    return _mat(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, -1j],
            [0, 0, 1j, 0],
        ]
    )


def _cz() -> np.ndarray:
    return np.diag([1, 1, 1, -1]).astype(complex)


def _swap() -> np.ndarray:
    return _mat(
        [
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ]
    )


def _iswap() -> np.ndarray:
    return _mat(
        [
            [1, 0, 0, 0],
            [0, 0, 1j, 0],
            [0, 1j, 0, 0],
            [0, 0, 0, 1],
        ]
    )


def _cp(theta: float) -> np.ndarray:
    return np.diag([1, 1, 1, cmath.exp(1j * theta)]).astype(complex)


def _crz(theta: float) -> np.ndarray:
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = _rz(theta)
    return out


def _crx(theta: float) -> np.ndarray:
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = _rx(theta)
    return out


def _cry(theta: float) -> np.ndarray:
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = _ry(theta)
    return out


def _rzz(theta: float) -> np.ndarray:
    e_m = cmath.exp(-1j * theta / 2)
    e_p = cmath.exp(1j * theta / 2)
    return np.diag([e_m, e_p, e_p, e_m]).astype(complex)


def _rxx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _mat(
        [
            [c, 0, 0, -1j * s],
            [0, c, -1j * s, 0],
            [0, -1j * s, c, 0],
            [-1j * s, 0, 0, c],
        ]
    )


def _ryy(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _mat(
        [
            [c, 0, 0, 1j * s],
            [0, c, -1j * s, 0],
            [0, -1j * s, c, 0],
            [1j * s, 0, 0, c],
        ]
    )


def _zzswap(theta: float) -> np.ndarray:
    """Combined ``RZZ(theta)`` followed by a ``SWAP`` (used by SWAP networks)."""
    return _swap() @ _rzz(theta)


def _ccx() -> np.ndarray:
    out = np.eye(8, dtype=complex)
    out[6, 6] = 0.0
    out[7, 7] = 0.0
    out[6, 7] = 1.0
    out[7, 6] = 1.0
    return out


def _cswap() -> np.ndarray:
    out = np.eye(8, dtype=complex)
    out[[5, 6], [5, 6]] = 0.0
    out[5, 6] = 1.0
    out[6, 5] = 1.0
    return out


@dataclass(frozen=True)
class GateDefinition:
    """Static description of a gate type.

    Attributes:
        name: Canonical lower-case gate name (matches OpenQASM where one exists).
        num_qubits: Number of qubits the gate acts on.
        num_params: Number of real parameters.
        matrix_fn: Callable mapping the parameters to the unitary matrix, or
            ``None`` for non-unitary operations.
    """

    name: str
    num_qubits: int
    num_params: int
    matrix_fn: Callable[..., np.ndarray] | None = None

    @property
    def is_unitary(self) -> bool:
        return self.matrix_fn is not None


GATE_DEFINITIONS: Dict[str, GateDefinition] = {
    d.name: d
    for d in [
        GateDefinition("id", 1, 0, _identity),
        GateDefinition("x", 1, 0, _x),
        GateDefinition("y", 1, 0, _y),
        GateDefinition("z", 1, 0, _z),
        GateDefinition("h", 1, 0, _h),
        GateDefinition("s", 1, 0, _s),
        GateDefinition("sdg", 1, 0, _sdg),
        GateDefinition("t", 1, 0, _t),
        GateDefinition("tdg", 1, 0, _tdg),
        GateDefinition("sx", 1, 0, _sx),
        GateDefinition("sxdg", 1, 0, _sxdg),
        GateDefinition("rx", 1, 1, _rx),
        GateDefinition("ry", 1, 1, _ry),
        GateDefinition("rz", 1, 1, _rz),
        GateDefinition("p", 1, 1, _p),
        GateDefinition("u", 1, 3, _u),
        GateDefinition("r", 1, 2, _r),
        GateDefinition("cx", 2, 0, _cx),
        GateDefinition("cy", 2, 0, _cy),
        GateDefinition("cz", 2, 0, _cz),
        GateDefinition("swap", 2, 0, _swap),
        GateDefinition("iswap", 2, 0, _iswap),
        GateDefinition("cp", 2, 1, _cp),
        GateDefinition("crx", 2, 1, _crx),
        GateDefinition("cry", 2, 1, _cry),
        GateDefinition("crz", 2, 1, _crz),
        GateDefinition("rzz", 2, 1, _rzz),
        GateDefinition("rxx", 2, 1, _rxx),
        GateDefinition("ryy", 2, 1, _ryy),
        GateDefinition("zzswap", 2, 1, _zzswap),
        GateDefinition("ccx", 3, 0, _ccx),
        GateDefinition("cswap", 3, 0, _cswap),
        GateDefinition("measure", 1, 0, None),
        GateDefinition("reset", 1, 0, None),
        GateDefinition("barrier", 0, 0, None),
    ]
}

#: Gates whose parameters compose additively when applied back to back on the
#: same qubits (used by the transpiler's merge pass).
ADDITIVE_ROTATIONS = frozenset(
    {"rx", "ry", "rz", "p", "rzz", "rxx", "ryy", "cp", "crx", "cry", "crz"}
)

#: Self-inverse gates (used by the transpiler's cancellation pass).
SELF_INVERSE = frozenset({"id", "x", "y", "z", "h", "cx", "cy", "cz", "swap", "ccx", "cswap"})

#: Distinct gates that invert each other.
INVERSE_PAIRS = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t", "sx": "sxdg", "sxdg": "sx"}


def checked_params(name: str, params: Sequence[float]) -> Tuple[float, ...]:
    """The parameters of a gate named ``name`` as floats, after the name and count checks.

    Raises:
        GateError: for an unknown name, then for a wrong parameter count.
    """
    definition = GATE_DEFINITIONS.get(name)
    if definition is None:
        raise GateError(f"unknown gate {name!r}")
    if len(params) != definition.num_params:
        raise GateError(
            f"gate {name!r} expects {definition.num_params} parameters, got {len(params)}"
        )
    return tuple(map(float, params))


def inverse_of(name: str, params: Tuple[float, ...]) -> Tuple[str, Tuple[float, ...]]:
    """The ``(name, params)`` of the gate implementing the inverse unitary.

    Raises:
        GateError: for measure/reset/barrier, and for ``iswap`` and
            ``zzswap``, whose inverses are not standard gates.
    """
    if name in NON_UNITARY_NAMES:
        raise GateError(f"operation {name!r} has no inverse")
    if name in SELF_INVERSE:
        return name, params
    if name in INVERSE_PAIRS:
        return INVERSE_PAIRS[name], params
    if name in ADDITIVE_ROTATIONS:
        return name, (-params[0],)
    if name == "u":
        theta, phi, lam = params
        return "u", (-theta, -lam, -phi)
    if name == "r":
        theta, phi = params
        return "r", (-theta, phi)
    if name in ("iswap", "zzswap"):
        raise GateError(f"{name} inverse is not a standard gate; decompose first")
    raise GateError(f"no inverse rule for gate {name!r}")


@dataclass(frozen=True)
class Gate:
    """An instance of a gate type with concrete parameter values.

    ``Gate`` is hashable and immutable; the qubits a gate acts on are stored
    on the enclosing :class:`~repro.circuits.circuit.Instruction`, not here.
    """

    name: str
    params: Tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", checked_params(self.name, self.params))

    @property
    def definition(self) -> GateDefinition:
        return GATE_DEFINITIONS[self.name]

    @property
    def num_qubits(self) -> int:
        return self.definition.num_qubits

    def is_unitary(self) -> bool:
        return self.definition.is_unitary

    def matrix(self) -> np.ndarray:
        """Return the unitary matrix of the gate.

        Raises:
            GateError: if the operation is not unitary (measure/reset/barrier).
        """
        definition = self.definition
        if definition.matrix_fn is None:
            raise GateError(f"operation {self.name!r} has no unitary matrix")
        return definition.matrix_fn(*self.params)

    def inverse(self) -> "Gate":
        """Return a gate implementing the inverse unitary (see :func:`inverse_of`)."""
        return Gate(*inverse_of(self.name, self.params))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.params:
            args = ", ".join(f"{p:.6g}" for p in self.params)
            return f"{self.name}({args})"
        return self.name


def is_known_gate(name: str) -> bool:
    """Return True if ``name`` is a recognised gate or operation name."""
    return name in GATE_DEFINITIONS


def standard_gate(name: str, *params: float) -> Gate:
    """Convenience constructor: ``standard_gate('rx', 0.5)``."""
    return Gate(name, tuple(params))


def gate_matrix(name: str, *params: float) -> np.ndarray:
    """Return the unitary matrix for the named gate with the given parameters."""
    return Gate(name, tuple(params)).matrix()


#: Singleton gates for the non-unitary operations.
MEASURE = Gate("measure")
RESET = Gate("reset")
BARRIER = Gate("barrier")
