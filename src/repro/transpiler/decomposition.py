"""Gate decomposition: lowering to the canonical set or a native basis.

Every gate has one *canonical* rule over ``{u, cx}`` (plus measure, reset and
barrier, copied unchanged).  Each basis is a pair of emitters, one for ``u``
and one for ``cx``, and :func:`translate_to_basis` lowers a circuit in one
walk, sending each gate's rule through its basis's pair:

* ``canonical``: ``{u, cx}`` rows as they are
* ``ibm``-style superconducting devices: ``{rz, sx, x, cx}``
* ``aqt``-style superconducting devices:  ``{rz, sx, x, cz}``
* ``ionq``-style trapped-ion devices:     ``{rx, ry, rz, rxx}``

The walk reads :class:`~repro.circuits.columnar.PackedCircuit` rows and
writes through :meth:`~repro.circuits.columnar.PackedBuilder.append`.  All
identities used here are verified (up to global phase) by the unit tests in
``tests/transpiler/test_decomposition.py``.
"""

from __future__ import annotations

import cmath
import functools
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
    "translate_to_basis",
    "basis_for_gates",
    "SUPPORTED_BASES",
]

#: Angles closer to zero than this (after normalization) count as zero.
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


_U = OPCODES["u"]
_CX = OPCODES["cx"]
_RZ = OPCODES["rz"]
_SX = OPCODES["sx"]
_X = OPCODES["x"]
_RX = OPCODES["rx"]
_RY = OPCODES["ry"]
_CZ = OPCODES["cz"]
_RXX = OPCODES["rxx"]

#: Rows the lowering copies unchanged (operands, clbit and all).
_PASSTHROUGH = frozenset({MEASURE_OP, RESET_OP, BARRIER_OP})

_EmitU = Callable[[PackedBuilder, int, float, float, float], None]
_EmitCX = Callable[[PackedBuilder, int, int], None]


# ---------------------------------------------------------------------------
# basis emitters: how each basis writes a u and a cx
# ---------------------------------------------------------------------------


def _u(out: PackedBuilder, qubit: int, theta: float, phi: float, lam: float) -> None:
    out.append(_U, (qubit,), (theta, phi, lam))


def _cx(out: PackedBuilder, control: int, target: int) -> None:
    out.append(_CX, (control, target))


def _rz(out: PackedBuilder, qubit: int, angle: float) -> None:
    """rz(angle), or nothing when the angle is negligible."""
    if abs(angle) > _ANGLE_TOLERANCE:
        out.append(_RZ, (qubit,), (angle,))


def _u_emitter(body: _EmitU) -> _EmitU:
    """Give a native ``u`` emitter the prologue they all share.

    The angles are normalised, and a u whose theta is ~0 is written as the
    phase rz(phi + lam); only any other u reaches ``body``.
    """

    @functools.wraps(body)
    def emit(out: PackedBuilder, qubit: int, theta: float, phi: float, lam: float) -> None:
        theta = normalize_angle(theta)
        phi = normalize_angle(phi)
        lam = normalize_angle(lam)
        if abs(theta) < _ANGLE_TOLERANCE:
            _rz(out, qubit, normalize_angle(phi + lam))
        else:
            body(out, qubit, theta, phi, lam)

    return emit


@_u_emitter
def _emit_u_ibm(out: PackedBuilder, qubit: int, theta: float, phi: float, lam: float) -> None:
    """u(theta, phi, lam) as rz/sx/x for IBM- and AQT-style devices."""
    if abs(theta - math.pi / 2) < _ANGLE_TOLERANCE:
        # u(pi/2, phi, lam) = rz(phi + pi/2) sx rz(lam - pi/2) up to phase.
        _rz(out, qubit, normalize_angle(lam - math.pi / 2))
        out.append(_SX, (qubit,))
        _rz(out, qubit, normalize_angle(phi + math.pi / 2))
        return
    if (
        abs(abs(theta) - math.pi) < _ANGLE_TOLERANCE
        and abs(phi) < _ANGLE_TOLERANCE
        and abs(abs(lam) - math.pi) < _ANGLE_TOLERANCE
    ):
        out.append(_X, (qubit,))
        return
    _rz(out, qubit, normalize_angle(lam))
    out.append(_SX, (qubit,))
    out.append(_RZ, (qubit,), (normalize_angle(theta + math.pi),))
    out.append(_SX, (qubit,))
    _rz(out, qubit, normalize_angle(phi + math.pi))


@_u_emitter
def _emit_u_ionq(out: PackedBuilder, qubit: int, theta: float, phi: float, lam: float) -> None:
    """u(theta, phi, lam) as rz/ry/rz for trapped-ion devices."""
    _rz(out, qubit, lam)
    out.append(_RY, (qubit,), (theta,))
    _rz(out, qubit, phi)


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


#: Per basis, the ``(u, cx)`` emitter pair every canonical rule writes through.
_EMITTERS: Dict[str, Tuple[_EmitU, _EmitCX]] = {
    "canonical": (_u, _cx),
    "ibm": (_emit_u_ibm, _cx),
    "aqt": (_emit_u_ibm, _emit_cx_aqt),
    "ionq": (_emit_u_ionq, _emit_cx_ionq),
}


# ---------------------------------------------------------------------------
# canonical rules: every gate as u and cx
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


def _emit_canonical(
    out: PackedBuilder,
    u: _EmitU,
    cx: _EmitCX,
    name: str,
    qubits: Tuple[int, ...],
    params: Tuple[float, ...],
) -> None:
    """Append gate ``name`` to ``out`` by its rule, through a basis's ``u``/``cx`` emitters."""
    if name in _SINGLE_QUBIT_AS_U:
        theta, phi, lam = _SINGLE_QUBIT_AS_U[name](*params)
        u(out, qubits[0], theta, phi, lam)
        return
    if name == "cx":
        cx(out, *qubits)
        return
    if name == "cz":
        c, t = qubits
        u(out, t, math.pi / 2, 0.0, math.pi)  # h
        cx(out, c, t)
        u(out, t, math.pi / 2, 0.0, math.pi)
        return
    if name == "cy":
        c, t = qubits
        u(out, t, 0.0, 0.0, -math.pi / 2)  # sdg
        cx(out, c, t)
        u(out, t, 0.0, 0.0, math.pi / 2)  # s
        return
    if name == "swap":
        a, b = qubits
        cx(out, a, b)
        cx(out, b, a)
        cx(out, a, b)
        return
    if name == "iswap":
        a, b = qubits
        u(out, a, 0.0, 0.0, math.pi / 2)  # s
        u(out, b, 0.0, 0.0, math.pi / 2)  # s
        u(out, a, math.pi / 2, 0.0, math.pi)  # h
        cx(out, a, b)
        cx(out, b, a)
        u(out, b, math.pi / 2, 0.0, math.pi)  # h
        return
    if name == "cp":
        theta = params[0]
        c, t = qubits
        u(out, c, 0.0, 0.0, theta / 2)
        cx(out, c, t)
        u(out, t, 0.0, 0.0, -theta / 2)
        cx(out, c, t)
        u(out, t, 0.0, 0.0, theta / 2)
        return
    if name == "crz":
        theta = params[0]
        c, t = qubits
        u(out, t, 0.0, 0.0, theta / 2)
        cx(out, c, t)
        u(out, t, 0.0, 0.0, -theta / 2)
        cx(out, c, t)
        return
    if name == "cry":
        theta = params[0]
        c, t = qubits
        u(out, t, theta / 2, 0.0, 0.0)
        cx(out, c, t)
        u(out, t, -theta / 2, 0.0, 0.0)
        cx(out, c, t)
        return
    if name == "crx":
        theta = params[0]
        c, t = qubits
        u(out, t, math.pi / 2, 0.0, math.pi)  # h
        u(out, t, 0.0, 0.0, theta / 2)
        cx(out, c, t)
        u(out, t, 0.0, 0.0, -theta / 2)
        cx(out, c, t)
        u(out, t, math.pi / 2, 0.0, math.pi)
        return
    if name == "rzz":
        theta = params[0]
        a, b = qubits
        cx(out, a, b)
        u(out, b, 0.0, 0.0, theta)
        cx(out, a, b)
        return
    if name == "rxx":
        theta = params[0]
        a, b = qubits
        for q in (a, b):
            u(out, q, math.pi / 2, 0.0, math.pi)  # h
        cx(out, a, b)
        u(out, b, 0.0, 0.0, theta)
        cx(out, a, b)
        for q in (a, b):
            u(out, q, math.pi / 2, 0.0, math.pi)
        return
    if name == "ryy":
        theta = params[0]
        a, b = qubits
        for q in (a, b):
            u(out, q, math.pi / 2, -math.pi / 2, math.pi / 2)  # rx(pi/2)
        cx(out, a, b)
        u(out, b, 0.0, 0.0, theta)
        cx(out, a, b)
        for q in (a, b):
            u(out, q, -math.pi / 2, -math.pi / 2, math.pi / 2)  # rx(-pi/2)
        return
    if name == "zzswap":
        _emit_canonical(out, u, cx, "rzz", qubits, params)
        _emit_canonical(out, u, cx, "swap", qubits, ())
        return
    if name == "ccx":
        a, b, c = qubits
        u(out, c, math.pi / 2, 0.0, math.pi)  # h
        cx(out, b, c)
        u(out, c, 0.0, 0.0, -math.pi / 4)  # tdg
        cx(out, a, c)
        u(out, c, 0.0, 0.0, math.pi / 4)  # t
        cx(out, b, c)
        u(out, c, 0.0, 0.0, -math.pi / 4)
        cx(out, a, c)
        u(out, b, 0.0, 0.0, math.pi / 4)
        u(out, c, 0.0, 0.0, math.pi / 4)
        u(out, c, math.pi / 2, 0.0, math.pi)
        cx(out, a, b)
        u(out, a, 0.0, 0.0, math.pi / 4)
        u(out, b, 0.0, 0.0, -math.pi / 4)
        cx(out, a, b)
        return
    if name == "cswap":
        control, a, b = qubits
        # CSWAP = CX(b,a) CCX(control,a,b) CX(b,a)
        cx(out, b, a)
        _emit_canonical(out, u, cx, "ccx", (control, a, b), ())
        cx(out, b, a)
        return
    raise TranspilerError(f"no canonical decomposition for gate {name!r}")


def translate_to_basis(packed: PackedCircuit, basis: str) -> PackedCircuit:
    """Lower a circuit to ``basis`` in one walk over its rows.

    The input may contain any supported gate (routing adds ``swap`` rows);
    each gate's rule writes through the basis's ``(u, cx)`` emitter pair.
    """
    emitters = _EMITTERS.get(basis)
    if emitters is None:
        raise TranspilerError(
            f"unsupported basis {basis!r}; supported: {sorted(SUPPORTED_BASES)}"
        )
    u, cx = emitters
    out = PackedBuilder(packed.num_qubits, packed.num_clbits, packed.name)
    for _row, opcode, qubits, params, clbit in packed.iter_rows():
        if opcode in _PASSTHROUGH:
            out.append(opcode, qubits, params, clbit)
        else:
            _emit_canonical(out, u, cx, OP_NAMES[opcode], qubits, params)
    return out.build()
