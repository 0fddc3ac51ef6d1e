"""Gate decomposition: canonical form and native basis translation.

The transpiler works in two stages.  First every gate is rewritten into the
*canonical* gate set ``{u, cx}`` (plus measure/reset/barrier).  Second the
canonical gates are translated to a device's native basis:

* ``ibm``-style superconducting devices: ``{rz, sx, x, cx}``
* ``aqt``-style superconducting devices:  ``{rz, sx, x, cz}``
* ``ionq``-style trapped-ion devices:     ``{rx, ry, rz, rxx}``

Both stages read :class:`~repro.circuits.columnar.PackedCircuit` rows and
write through :meth:`~repro.circuits.columnar.PackedBuilder.append`.  All
identities used here are verified (up to global phase) by the unit tests in
``tests/transpiler/test_decomposition.py``.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from ..circuits.columnar import (
    BARRIER_OP,
    MEASURE_OP,
    OP_NAMES,
    OPCODES,
    RESET_OP,
    PackedBuilder,
    PackedCircuit,
)
from ..exceptions import TranspilerError
from ..utils import normalize_angle

__all__ = [
    "zyz_angles",
    "decompose_to_canonical",
    "translate_to_basis",
    "basis_for_gates",
    "SUPPORTED_BASES",
]

_ANGLE_TOLERANCE = 1e-10

#: Recognised native basis names and their gate sets.
SUPPORTED_BASES: Dict[str, Tuple[str, ...]] = {
    "ibm": ("rz", "sx", "x", "cx"),
    "aqt": ("rz", "sx", "x", "cz"),
    "ionq": ("rx", "ry", "rz", "rxx"),
    "canonical": ("u", "cx"),
}


def basis_for_gates(basis_gates: Sequence[str]) -> str:
    """Map a device's native gate list to one of the supported basis names."""
    gates = set(basis_gates)
    if "rxx" in gates:
        return "ionq"
    if "cz" in gates and "cx" not in gates:
        return "aqt"
    if "cx" in gates:
        return "ibm"
    raise TranspilerError(f"no translation strategy for basis gates {sorted(gates)}")


# ---------------------------------------------------------------------------
# ZYZ Euler decomposition of arbitrary single-qubit unitaries
# ---------------------------------------------------------------------------


def zyz_angles(matrix: np.ndarray) -> Tuple[float, float, float]:
    """Return ``(theta, phi, lam)`` with ``U ~ Rz(phi) Ry(theta) Rz(lam)``.

    The result is correct up to a global phase, which is irrelevant for
    circuit execution.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):
        raise TranspilerError("zyz_angles expects a 2x2 matrix")
    # Remove the global phase so the matrix is special unitary:
    #   U = [[cos(t/2) e^{-i(p+l)/2}, -sin(t/2) e^{-i(p-l)/2}],
    #        [sin(t/2) e^{+i(p-l)/2},  cos(t/2) e^{+i(p+l)/2}]]
    determinant = np.linalg.det(matrix)
    matrix = matrix / np.sqrt(determinant)
    theta = 2.0 * math.atan2(abs(matrix[1, 0]), abs(matrix[0, 0]))
    if abs(matrix[0, 0]) < _ANGLE_TOLERANCE:
        # theta == pi: only phi - lam is determined.
        phi = 2.0 * cmath.phase(matrix[1, 0])
        lam = 0.0
    elif abs(matrix[1, 0]) < _ANGLE_TOLERANCE:
        # theta == 0: only phi + lam is determined.
        phi = -2.0 * cmath.phase(matrix[0, 0])
        lam = 0.0
    else:
        # Work with the half-angle phases directly to avoid mod-2pi ambiguity.
        half_sum = -cmath.phase(matrix[0, 0])  # (phi + lam) / 2
        half_diff = cmath.phase(matrix[1, 0])  # (phi - lam) / 2
        phi = half_sum + half_diff
        lam = half_sum - half_diff
    return normalize_angle(theta), normalize_angle(phi), normalize_angle(lam)


# ---------------------------------------------------------------------------
# canonical decomposition: everything -> {u, cx}
# ---------------------------------------------------------------------------

_SINGLE_QUBIT_AS_U: Dict[str, Callable[..., Tuple[float, float, float]]] = {
    "id": lambda: (0.0, 0.0, 0.0),
    "x": lambda: (math.pi, 0.0, math.pi),
    "y": lambda: (math.pi, math.pi / 2, math.pi / 2),
    "z": lambda: (0.0, 0.0, math.pi),
    "h": lambda: (math.pi / 2, 0.0, math.pi),
    "s": lambda: (0.0, 0.0, math.pi / 2),
    "sdg": lambda: (0.0, 0.0, -math.pi / 2),
    "t": lambda: (0.0, 0.0, math.pi / 4),
    "tdg": lambda: (0.0, 0.0, -math.pi / 4),
    "sx": lambda: (math.pi / 2, -math.pi / 2, math.pi / 2),
    "sxdg": lambda: (-math.pi / 2, -math.pi / 2, math.pi / 2),
    "rx": lambda theta: (theta, -math.pi / 2, math.pi / 2),
    "ry": lambda theta: (theta, 0.0, 0.0),
    "rz": lambda theta: (0.0, 0.0, theta),
    "p": lambda theta: (0.0, 0.0, theta),
    "r": lambda theta, phi: (theta, phi - math.pi / 2, math.pi / 2 - phi),
    "u": lambda theta, phi, lam: (theta, phi, lam),
}


_U = OPCODES["u"]
_CX = OPCODES["cx"]
_RZ = OPCODES["rz"]
_SX = OPCODES["sx"]
_X = OPCODES["x"]
_RX = OPCODES["rx"]
_RY = OPCODES["ry"]
_CZ = OPCODES["cz"]
_RXX = OPCODES["rxx"]

#: Rows every stage copies unchanged (operands, clbit and all).
_PASSTHROUGH = frozenset({MEASURE_OP, RESET_OP, BARRIER_OP})


def _u(out: PackedBuilder, qubit: int, theta: float, phi: float, lam: float) -> None:
    out.append(_U, (qubit,), (theta, phi, lam))


def _cx(out: PackedBuilder, control: int, target: int) -> None:
    out.append(_CX, (control, target))


def _emit_canonical(
    out: PackedBuilder, name: str, qubits: Tuple[int, ...], params: Tuple[float, ...]
) -> None:
    """Append gate ``name`` to ``out`` using only ``u`` and ``cx`` rows."""
    if name in _SINGLE_QUBIT_AS_U:
        theta, phi, lam = _SINGLE_QUBIT_AS_U[name](*params)
        _u(out, qubits[0], theta, phi, lam)
        return
    if name == "cx":
        _cx(out, *qubits)
        return
    if name == "cz":
        c, t = qubits
        _u(out, t, math.pi / 2, 0.0, math.pi)  # h
        _cx(out, c, t)
        _u(out, t, math.pi / 2, 0.0, math.pi)
        return
    if name == "cy":
        c, t = qubits
        _u(out, t, 0.0, 0.0, -math.pi / 2)  # sdg
        _cx(out, c, t)
        _u(out, t, 0.0, 0.0, math.pi / 2)  # s
        return
    if name == "swap":
        a, b = qubits
        _cx(out, a, b)
        _cx(out, b, a)
        _cx(out, a, b)
        return
    if name == "iswap":
        a, b = qubits
        _u(out, a, 0.0, 0.0, math.pi / 2)  # s
        _u(out, b, 0.0, 0.0, math.pi / 2)  # s
        _u(out, a, math.pi / 2, 0.0, math.pi)  # h
        _cx(out, a, b)
        _cx(out, b, a)
        _u(out, b, math.pi / 2, 0.0, math.pi)  # h
        return
    if name == "cp":
        theta = params[0]
        c, t = qubits
        _u(out, c, 0.0, 0.0, theta / 2)
        _cx(out, c, t)
        _u(out, t, 0.0, 0.0, -theta / 2)
        _cx(out, c, t)
        _u(out, t, 0.0, 0.0, theta / 2)
        return
    if name == "crz":
        theta = params[0]
        c, t = qubits
        _u(out, t, 0.0, 0.0, theta / 2)
        _cx(out, c, t)
        _u(out, t, 0.0, 0.0, -theta / 2)
        _cx(out, c, t)
        return
    if name == "cry":
        theta = params[0]
        c, t = qubits
        _u(out, t, theta / 2, 0.0, 0.0)
        _cx(out, c, t)
        _u(out, t, -theta / 2, 0.0, 0.0)
        _cx(out, c, t)
        return
    if name == "crx":
        theta = params[0]
        c, t = qubits
        _u(out, t, math.pi / 2, 0.0, math.pi)  # h
        _u(out, t, 0.0, 0.0, theta / 2)
        _cx(out, c, t)
        _u(out, t, 0.0, 0.0, -theta / 2)
        _cx(out, c, t)
        _u(out, t, math.pi / 2, 0.0, math.pi)
        return
    if name == "rzz":
        theta = params[0]
        a, b = qubits
        _cx(out, a, b)
        _u(out, b, 0.0, 0.0, theta)
        _cx(out, a, b)
        return
    if name == "rxx":
        theta = params[0]
        a, b = qubits
        for q in (a, b):
            _u(out, q, math.pi / 2, 0.0, math.pi)  # h
        _cx(out, a, b)
        _u(out, b, 0.0, 0.0, theta)
        _cx(out, a, b)
        for q in (a, b):
            _u(out, q, math.pi / 2, 0.0, math.pi)
        return
    if name == "ryy":
        theta = params[0]
        a, b = qubits
        for q in (a, b):
            _u(out, q, math.pi / 2, -math.pi / 2, math.pi / 2)  # rx(pi/2)
        _cx(out, a, b)
        _u(out, b, 0.0, 0.0, theta)
        _cx(out, a, b)
        for q in (a, b):
            _u(out, q, -math.pi / 2, -math.pi / 2, math.pi / 2)  # rx(-pi/2)
        return
    if name == "zzswap":
        _emit_canonical(out, "rzz", qubits, params)
        _emit_canonical(out, "swap", qubits, ())
        return
    if name == "ccx":
        a, b, c = qubits
        _u(out, c, math.pi / 2, 0.0, math.pi)  # h
        _cx(out, b, c)
        _u(out, c, 0.0, 0.0, -math.pi / 4)  # tdg
        _cx(out, a, c)
        _u(out, c, 0.0, 0.0, math.pi / 4)  # t
        _cx(out, b, c)
        _u(out, c, 0.0, 0.0, -math.pi / 4)
        _cx(out, a, c)
        _u(out, b, 0.0, 0.0, math.pi / 4)
        _u(out, c, 0.0, 0.0, math.pi / 4)
        _u(out, c, math.pi / 2, 0.0, math.pi)
        _cx(out, a, b)
        _u(out, a, 0.0, 0.0, math.pi / 4)
        _u(out, b, 0.0, 0.0, -math.pi / 4)
        _cx(out, a, b)
        return
    if name == "cswap":
        control, a, b = qubits
        # CSWAP = CX(b,a) CCX(control,a,b) CX(b,a)
        _cx(out, b, a)
        _emit_canonical(out, "ccx", (control, a, b), ())
        _cx(out, b, a)
        return
    raise TranspilerError(f"no canonical decomposition for gate {name!r}")


def decompose_to_canonical(packed: PackedCircuit) -> PackedCircuit:
    """Rewrite a circuit into the canonical gate set ``{u, cx}``."""
    out = PackedBuilder(packed.num_qubits, packed.num_clbits, packed.name)
    for _row, opcode, qubits, params, clbit in packed.iter_rows():
        if opcode in _PASSTHROUGH:
            out.append(opcode, qubits, params, clbit)
        else:
            _emit_canonical(out, OP_NAMES[opcode], qubits, params)
    return out.build()


# ---------------------------------------------------------------------------
# native basis translation
# ---------------------------------------------------------------------------


def _emit_u_ibm(out: PackedBuilder, qubit: int, theta: float, phi: float, lam: float) -> None:
    """u(theta, phi, lam) as rz/sx/x for IBM- and AQT-style devices."""
    theta = normalize_angle(theta)
    phi = normalize_angle(phi)
    lam = normalize_angle(lam)
    if abs(theta) < _ANGLE_TOLERANCE:
        angle = normalize_angle(phi + lam)
        if abs(angle) > _ANGLE_TOLERANCE:
            out.append(_RZ, (qubit,), (angle,))
        return
    if abs(theta - math.pi / 2) < _ANGLE_TOLERANCE:
        # u(pi/2, phi, lam) = rz(phi + pi/2) sx rz(lam - pi/2) up to phase.
        first = normalize_angle(lam - math.pi / 2)
        second = normalize_angle(phi + math.pi / 2)
        if abs(first) > _ANGLE_TOLERANCE:
            out.append(_RZ, (qubit,), (first,))
        out.append(_SX, (qubit,))
        if abs(second) > _ANGLE_TOLERANCE:
            out.append(_RZ, (qubit,), (second,))
        return
    if (
        abs(abs(theta) - math.pi) < _ANGLE_TOLERANCE
        and abs(phi) < _ANGLE_TOLERANCE
        and abs(abs(lam) - math.pi) < _ANGLE_TOLERANCE
    ):
        out.append(_X, (qubit,))
        return
    first = normalize_angle(lam)
    middle = normalize_angle(theta + math.pi)
    last = normalize_angle(phi + math.pi)
    if abs(first) > _ANGLE_TOLERANCE:
        out.append(_RZ, (qubit,), (first,))
    out.append(_SX, (qubit,))
    out.append(_RZ, (qubit,), (middle,))
    out.append(_SX, (qubit,))
    if abs(last) > _ANGLE_TOLERANCE:
        out.append(_RZ, (qubit,), (last,))


def _emit_u_ionq(out: PackedBuilder, qubit: int, theta: float, phi: float, lam: float) -> None:
    """u(theta, phi, lam) as rz/ry/rz for trapped-ion devices."""
    theta = normalize_angle(theta)
    phi = normalize_angle(phi)
    lam = normalize_angle(lam)
    if abs(theta) < _ANGLE_TOLERANCE:
        angle = normalize_angle(phi + lam)
        if abs(angle) > _ANGLE_TOLERANCE:
            out.append(_RZ, (qubit,), (angle,))
        return
    if abs(lam) > _ANGLE_TOLERANCE:
        out.append(_RZ, (qubit,), (lam,))
    out.append(_RY, (qubit,), (theta,))
    if abs(phi) > _ANGLE_TOLERANCE:
        out.append(_RZ, (qubit,), (phi,))


def _emit_cx_ionq(out: PackedBuilder, control: int, target: int) -> None:
    """CX via the Molmer-Sorensen interaction rxx(pi/2) plus local rotations."""
    out.append(_RY, (control,), (math.pi / 2,))
    out.append(_RXX, (control, target), (math.pi / 2,))
    out.append(_RX, (control,), (-math.pi / 2,))
    out.append(_RX, (target,), (-math.pi / 2,))
    out.append(_RY, (control,), (-math.pi / 2,))


def _emit_cx_aqt(out: PackedBuilder, control: int, target: int) -> None:
    """CX via the native CZ: H on the target on both sides."""
    _emit_u_ibm(out, target, math.pi / 2, 0.0, math.pi)
    out.append(_CZ, (control, target))
    _emit_u_ibm(out, target, math.pi / 2, 0.0, math.pi)


def translate_to_basis(packed: PackedCircuit, basis: str) -> PackedCircuit:
    """Translate a circuit to a native basis.

    The input may contain any supported gate (routing adds ``swap`` rows);
    it is first rewritten to the canonical set and then mapped to the
    requested basis.
    """
    if basis not in SUPPORTED_BASES:
        raise TranspilerError(
            f"unsupported basis {basis!r}; supported: {sorted(SUPPORTED_BASES)}"
        )
    canonical = decompose_to_canonical(packed)
    if basis == "canonical":
        return canonical
    out = PackedBuilder(packed.num_qubits, packed.num_clbits, packed.name)
    for _row, opcode, qubits, params, clbit in canonical.iter_rows():
        if opcode in _PASSTHROUGH:
            out.append(opcode, qubits, params, clbit)
            continue
        if opcode == _U:
            theta, phi, lam = params
            if basis == "ionq":
                _emit_u_ionq(out, qubits[0], theta, phi, lam)
            else:
                _emit_u_ibm(out, qubits[0], theta, phi, lam)
            continue
        if opcode == _CX:
            control, target = qubits
            if basis == "ibm":
                _cx(out, control, target)
            elif basis == "aqt":
                _emit_cx_aqt(out, control, target)
            else:
                _emit_cx_ionq(out, control, target)
            continue
        raise TranspilerError(f"unexpected canonical gate {OP_NAMES[opcode]!r}")
    return out.build()
