"""Tests for the Closed-Division optimization passes, run through a PassManager."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import Circuit, random_clifford_circuit
from repro.devices import get_device
from repro.simulation import circuit_unitary
from repro.transpiler import (
    CancelAdjacentInverses,
    DecomposeToCanonical,
    DropNegligible,
    FuseSingleQubitRuns,
    MergeRotations,
    PassManager,
    preset_pipeline,
)
from repro.utils import equivalent_up_to_global_phase


def cancel_adjacent_inverses(circuit):
    return PassManager([CancelAdjacentInverses()]).run(circuit)


def merge_rotations(circuit):
    return PassManager([MergeRotations()]).run(circuit)


def fuse_single_qubit_runs(circuit):
    return PassManager([FuseSingleQubitRuns()]).run(circuit)


def drop_negligible(circuit):
    return PassManager([DropNegligible()]).run(circuit)


_PRE_ROUTING_PASSES = (DropNegligible, MergeRotations, CancelAdjacentInverses, FuseSingleQubitRuns)


def optimization_chain(level):
    """The pre-routing optimization passes of preset ``level``.

    Read from the preset pipeline itself: the run of optimization passes
    between the canonical decomposition and the layout pass.
    """
    decompose, *rest = preset_pipeline(get_device("IBM-Casablanca-7Q"), level).passes
    assert isinstance(decompose, DecomposeToCanonical)
    return PassManager(itertools.takewhile(lambda p: isinstance(p, _PRE_ROUTING_PASSES), rest))


class TestCancellation:
    def test_adjacent_cx_pair_removed(self):
        circuit = Circuit(2).cx(0, 1).cx(0, 1)
        assert len(cancel_adjacent_inverses(circuit)) == 0

    def test_h_pair_removed(self):
        circuit = Circuit(1).h(0).h(0).x(0)
        optimized = cancel_adjacent_inverses(circuit)
        assert [instruction.name for instruction in optimized] == ["x"]

    def test_s_sdg_pair_removed(self):
        circuit = Circuit(1).s(0).sdg(0)
        assert len(cancel_adjacent_inverses(circuit)) == 0

    def test_opposite_rotations_removed(self):
        circuit = Circuit(1).rz(0.4, 0).rz(-0.4, 0)
        assert len(cancel_adjacent_inverses(circuit)) == 0

    def test_intervening_gate_blocks_cancellation(self):
        circuit = Circuit(2).cx(0, 1).x(1).cx(0, 1)
        assert len(cancel_adjacent_inverses(circuit)) == 3

    def test_barrier_blocks_cancellation(self):
        circuit = Circuit(1).h(0).barrier().h(0)
        optimized = cancel_adjacent_inverses(circuit)
        assert optimized.count_ops().get("h", 0) == 2

    def test_cascaded_cancellation(self):
        # Removing the inner pair exposes the outer pair.
        circuit = Circuit(2).cx(0, 1).h(1).h(1).cx(0, 1)
        assert len(cancel_adjacent_inverses(circuit)) == 0

    def test_different_qubits_not_cancelled(self):
        circuit = Circuit(3).cx(0, 1).cx(1, 2)
        assert len(cancel_adjacent_inverses(circuit)) == 2


class TestRotationMerging:
    def test_adjacent_rz_merged(self):
        circuit = Circuit(1).rz(0.25, 0).rz(0.5, 0)
        merged = merge_rotations(circuit)
        assert len(merged) == 1
        assert merged[0].params[0] == pytest.approx(0.75)

    def test_merge_to_zero_removes_gate(self):
        circuit = Circuit(1).rz(0.3, 0).rz(-0.3, 0)
        assert len(merge_rotations(circuit)) == 0

    def test_two_qubit_rotation_merged(self):
        circuit = Circuit(2).rzz(0.2, 0, 1).rzz(0.3, 0, 1)
        merged = merge_rotations(circuit)
        assert len(merged) == 1
        assert merged[0].params[0] == pytest.approx(0.5)

    def test_different_axes_not_merged(self):
        circuit = Circuit(1).rz(0.2, 0).rx(0.3, 0)
        assert len(merge_rotations(circuit)) == 2


class TestFusion:
    def test_single_qubit_run_becomes_one_u(self):
        circuit = Circuit(1).h(0).t(0).s(0).rx(0.2, 0)
        fused = fuse_single_qubit_runs(circuit)
        assert fused.count_ops() == {"u": 1}
        assert equivalent_up_to_global_phase(circuit_unitary(circuit), circuit_unitary(fused))

    def test_identity_run_is_dropped(self):
        circuit = Circuit(1).h(0).h(0)
        assert len(fuse_single_qubit_runs(circuit)) == 0

    def test_two_qubit_gate_breaks_runs(self):
        circuit = Circuit(2).h(0).cx(0, 1).h(0)
        fused = fuse_single_qubit_runs(circuit)
        assert fused.count_ops()["u"] == 2
        assert equivalent_up_to_global_phase(circuit_unitary(circuit), circuit_unitary(fused))


class TestDropNegligible:
    def test_identity_and_zero_rotations_removed(self):
        circuit = Circuit(1).i(0).rz(0.0, 0).rz(2 * np.pi, 0).x(0)
        cleaned = drop_negligible(circuit)
        assert [instruction.name for instruction in cleaned] == ["x"]

    def test_zero_u_removed(self):
        circuit = Circuit(1).u(0.0, 0.0, 0.0, 0)
        assert len(drop_negligible(circuit)) == 0


class TestPipeline:
    def test_level_zero_is_identity(self):
        circuit = Circuit(1).h(0).h(0)
        assert len(optimization_chain(0)) == 0
        assert len(optimization_chain(0).run(circuit)) == 2
        assert len(optimization_chain(1).run(circuit)) == 0

    @pytest.mark.parametrize("level", [1, 2])
    @given(seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_optimization_preserves_unitary(self, level, seed):
        circuit = random_clifford_circuit(3, 25, rng=seed)
        optimized = optimization_chain(level).run(circuit)
        assert len(optimized) <= len(circuit)
        assert equivalent_up_to_global_phase(
            circuit_unitary(circuit), circuit_unitary(optimized), atol=1e-7
        )

    def test_measurements_survive_optimization(self):
        circuit = Circuit(2, 2).h(0).h(0).cx(0, 1).measure_all()
        optimized = optimization_chain(2).run(circuit)
        assert optimized.num_measurements() == 2
