"""OpenQASM 2.0 emission and parsing.

The paper argues (design principle 3, "full-system evaluation") that
benchmarks must be specified at a shared abstraction level — OpenQASM — and
that the compiler is part of the system under test.  This module gives every
:class:`~repro.circuits.circuit.Circuit` a faithful OpenQASM 2.0 round trip.

Only the subset of OpenQASM needed to express the benchmark circuits is
supported: a single quantum and classical register, the standard gate names
used by this library, ``measure``, ``reset`` and ``barrier``.  Parameter
expressions may use ``pi``, numeric literals and the ``+ - * /`` operators.
"""

from __future__ import annotations

import ast
import math
import re
from typing import List, Tuple

from ..exceptions import QasmError
from .circuit import Circuit
from .columnar import OP_NAMES
from .gates import GATE_DEFINITIONS

__all__ = ["circuit_to_qasm", "circuit_from_qasm"]

_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def _format_param(value: float) -> str:
    """Render a gate parameter, using multiples of pi when exact."""
    for denominator in (1, 2, 3, 4, 6, 8, 16):
        for numerator in range(-16 * denominator, 16 * denominator + 1):
            if numerator == 0:
                continue
            candidate = numerator * math.pi / denominator
            if abs(candidate - value) < 1e-12:
                if denominator == 1 and numerator == 1:
                    return "pi"
                if denominator == 1 and numerator == -1:
                    return "-pi"
                if denominator == 1:
                    return f"{numerator}*pi"
                if numerator == 1:
                    return f"pi/{denominator}"
                if numerator == -1:
                    return f"-pi/{denominator}"
                return f"{numerator}*pi/{denominator}"
    if abs(value) < 1e-12:
        return "0"
    return repr(float(value))


def circuit_to_qasm(circuit: Circuit) -> str:
    """Serialize a circuit to OpenQASM 2.0 text, one statement per row.

    Every unitary gate but ``zzswap`` has its ``qelib1.inc`` name;
    ``zzswap`` is written as its definition, ``rzz`` followed by ``swap``.
    """
    lines: List[str] = [_HEADER.rstrip("\n")]
    lines.append(f"qreg q[{max(circuit.num_qubits, 1)}];")
    if circuit.num_clbits > 0:
        lines.append(f"creg c[{circuit.num_clbits}];")
    for _row, opcode, qubits, params, clbit in circuit.packed().iter_rows():
        name = OP_NAMES[opcode]
        targets = ", ".join(f"q[{q}]" for q in qubits)
        if name == "barrier":
            lines.append(f"barrier {targets};" if targets else "barrier q;")
        elif name == "measure":
            lines.append(f"measure {targets} -> c[{clbit}];")
        elif name == "zzswap":
            lines.append(f"rzz({_format_param(params[0])}) {targets};")
            lines.append(f"swap {targets};")
        elif params:
            lines.append(f"{name}({', '.join(map(_format_param, params))}) {targets};")
        else:
            lines.append(f"{name} {targets};")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<stmt>[^;]+);      # a statement terminated by a semicolon
    """,
    re.VERBOSE,
)

_QREG_RE = re.compile(r"^qreg\s+(?P<name>\w+)\s*\[\s*(?P<size>\d+)\s*\]$")
_CREG_RE = re.compile(r"^creg\s+(?P<name>\w+)\s*\[\s*(?P<size>\d+)\s*\]$")
_MEASURE_RE = re.compile(
    r"^measure\s+(?P<q>\w+)\s*\[\s*(?P<qi>\d+)\s*\]\s*->\s*(?P<c>\w+)\s*\[\s*(?P<ci>\d+)\s*\]$"
)
_GATE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_][\w]*)\s*(?:\(\s*(?P<params>[^)]*)\s*\))?\s+(?P<args>.+)$"
)
_ARG_RE = re.compile(r"^(?P<reg>\w+)\s*\[\s*(?P<index>\d+)\s*\]$")

_ALLOWED_AST_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Num,
    ast.Constant,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.USub,
    ast.UAdd,
    ast.Name,
    ast.Load,
    ast.Pow,
)


def _eval_param(text: str) -> float:
    """Safely evaluate a QASM parameter expression (numbers, pi, + - * / **)."""
    cleaned = text.strip()
    if not cleaned:
        raise QasmError("empty parameter expression")
    try:
        tree = ast.parse(cleaned, mode="eval")
    except SyntaxError as exc:
        raise QasmError(f"invalid parameter expression {text!r}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_AST_NODES):
            raise QasmError(f"unsupported token in parameter expression {text!r}")
        if isinstance(node, ast.Name) and node.id != "pi":
            raise QasmError(f"unknown identifier {node.id!r} in parameter expression")
    return float(eval(compile(tree, "<qasm>", "eval"), {"__builtins__": {}}, {"pi": math.pi}))


def _strip_comments(text: str) -> str:
    return re.sub(r"//[^\n]*", "", text)


def circuit_from_qasm(text: str) -> Circuit:
    """Parse an OpenQASM 2.0 program into a :class:`Circuit`.

    Supports a single ``qreg`` and a single ``creg``; ``include`` and
    ``OPENQASM`` statements are ignored.
    """
    body = _strip_comments(text)
    statements = [match.group("stmt").strip() for match in _TOKEN_RE.finditer(body)]
    statements = [s for s in statements if s]

    num_qubits = 0
    num_clbits = 0
    operations: List[Tuple[str, List[float], List[int], List[int]]] = []

    for statement in statements:
        statement = " ".join(statement.split())
        if statement.startswith("OPENQASM") or statement.startswith("include"):
            continue
        qreg = _QREG_RE.match(statement)
        if qreg:
            num_qubits += int(qreg.group("size"))
            continue
        creg = _CREG_RE.match(statement)
        if creg:
            num_clbits += int(creg.group("size"))
            continue
        measure = _MEASURE_RE.match(statement)
        if measure:
            operations.append(
                ("measure", [], [int(measure.group("qi"))], [int(measure.group("ci"))])
            )
            continue
        if statement == "barrier q" or statement.startswith("barrier"):
            args = statement[len("barrier"):].strip()
            qubits: List[int] = []
            if args and args != "q":
                for arg in args.split(","):
                    arg_match = _ARG_RE.match(arg.strip())
                    if not arg_match:
                        raise QasmError(f"cannot parse barrier argument {arg!r}")
                    qubits.append(int(arg_match.group("index")))
            operations.append(("barrier", [], qubits, []))
            continue
        gate = _GATE_RE.match(statement)
        if not gate:
            raise QasmError(f"cannot parse statement {statement!r}")
        name = gate.group("name")
        if name == "u3":
            name = "u"
        if name == "u1":
            name = "p"
        if name not in GATE_DEFINITIONS:
            raise QasmError(f"unknown gate {name!r}")
        params_text = gate.group("params")
        params = (
            [_eval_param(p) for p in params_text.split(",")] if params_text else []
        )
        qubits = []
        for arg in gate.group("args").split(","):
            arg_match = _ARG_RE.match(arg.strip())
            if not arg_match:
                raise QasmError(f"cannot parse gate argument {arg!r}")
            qubits.append(int(arg_match.group("index")))
        operations.append((name, params, qubits, []))

    circuit = Circuit(num_qubits, num_clbits)
    for name, params, qubits, clbits in operations:
        if name == "measure":
            circuit.measure(qubits[0], clbits[0])
        elif name == "reset":
            circuit.reset(qubits[0])
        elif name == "barrier":
            circuit.barrier(*qubits)
        else:
            circuit.add_gate(name, qubits, params)
    return circuit
