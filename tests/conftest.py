"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.devices import get_device
from repro.simulation import StatevectorSimulator
from repro.utils import equivalent_up_to_global_phase


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def simulator():
    return StatevectorSimulator(seed=7)


@pytest.fixture
def ibm_device():
    return get_device("IBM-Casablanca-7Q")


@pytest.fixture
def ionq_device():
    return get_device("IonQ-11Q")


@pytest.fixture
def aqt_device():
    return get_device("AQT-4Q")


@pytest.fixture
def made_instructions(monkeypatch):
    """The :class:`Instruction` objects constructed while a test runs.

    Swaps the circuit module's ``Instruction`` for a subclass that records
    each construction, including the ones made through ``__new__`` without
    ``__init__``.  Objects made while the swap is active compare unequal to
    plain instructions, so compare circuits after ``monkeypatch.undo()``.
    """
    import repro.circuits.circuit as circuit_module

    made = []

    class CountingInstruction(circuit_module.Instruction):
        def __new__(cls, *args, **kwargs):
            made.append(cls)
            return super().__new__(cls)

    monkeypatch.setattr(circuit_module, "Instruction", CountingInstruction)
    return made


@pytest.fixture
def ghz3():
    """A 3-qubit GHZ circuit without measurements."""
    return Circuit(3).h(0).cx(0, 1).cx(1, 2)


def assert_unitary_equivalent(circuit_a: Circuit, circuit_b: Circuit, atol: float = 1e-7) -> None:
    """Assert two measurement-free circuits implement the same unitary up to phase."""
    from repro.simulation import circuit_unitary

    ua = circuit_unitary(circuit_a)
    ub = circuit_unitary(circuit_b)
    assert equivalent_up_to_global_phase(ua, ub, atol=atol), "circuits are not equivalent"


@pytest.fixture
def unitary_equivalent():
    return assert_unitary_equivalent
