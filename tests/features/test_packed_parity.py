"""Packed-vs-object parity of feature extraction and trajectory plans.

The columnar port keeps two extractor paths alive: the vectorised row-DAG
fast path (barrier-free, <=2-qubit circuits) and the general object-walk
port (everything else).  These tests pin the two paths to each other and pin
plan compilation from packed rows to an object-walk reference, across one
instance of each of the eight benchmark families plus randomized circuits.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.benchmarks import (
    BitCodeBenchmark,
    GHZBenchmark,
    HamiltonianSimulationBenchmark,
    MerminBellBenchmark,
    PhaseCodeBenchmark,
    VQEBenchmark,
    VanillaQAOABenchmark,
    ZZSwapQAOABenchmark,
)
from repro.circuits import OPCODES, Circuit, random_clifford_circuit
from repro.features import packed_profile
from repro.features.features import _packed_profile_fast, _packed_profile_general
from repro.simulation.kernels import kernel_for_operation
from repro.simulation.noise_model import NoiseModel
from repro.simulation.statevector import (
    _ChannelStep,
    _GateStep,
    _MeasureStep,
    _ResetStep,
    _compile_trajectory_plan,
)

FAMILY_INSTANCES = {
    "ghz": GHZBenchmark(5),
    "mermin_bell": MerminBellBenchmark(3),
    "bit_code": BitCodeBenchmark(3, 2),
    "phase_code": PhaseCodeBenchmark(3, 2),
    "vanilla_qaoa": VanillaQAOABenchmark(4),
    "zzswap_qaoa": ZZSwapQAOABenchmark(4),
    "vqe": VQEBenchmark(4, 1),
    "hamiltonian_simulation": HamiltonianSimulationBenchmark(4, steps=1),
}

PROFILE_FIELDS = (
    "num_qubits",
    "depth",
    "total_operations",
    "two_qubit_operations",
    "interaction_edges",
    "qubit_touches",
    "critical_length",
    "critical_two_qubit",
    "collapse_layers",
)


def _assert_profiles_equal(left, right, label=""):
    for name in PROFILE_FIELDS:
        assert getattr(left, name) == getattr(right, name), f"{label}:{name}"
    assert left.moment_operations.tolist() == right.moment_operations.tolist(), label
    # Moments of the operation rows (barrier rows are -1 and carry none).
    left_rows, right_rows = left.row_moments, right.row_moments
    assert (
        left_rows[left_rows >= 0].tolist() == right_rows[right_rows >= 0].tolist()
    ), label


def _fast_eligible(packed) -> bool:
    from repro.circuits import BARRIER_OP

    if len(packed) == 0 or packed.has_wide_rows:
        return False
    if bool((packed.qubits[:, 2] >= 0).any()):
        return False
    return not bool((packed.opcodes == BARRIER_OP).any())


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------
class TestFeatureParity:
    def test_families_fast_vs_general(self):
        # every family circuit: the dispatching extractor agrees field-by-field
        # with the general object-walk port, and with the fast path whenever
        # the circuit is fast-eligible.
        for family, benchmark in FAMILY_INSTANCES.items():
            for index, circuit in enumerate(benchmark.circuits()):
                packed = circuit.packed()
                label = f"{family}[{index}]"
                dispatched = packed_profile(packed)
                general = _packed_profile_general(packed)
                _assert_profiles_equal(dispatched, general, label)
                if _fast_eligible(packed):
                    _assert_profiles_equal(_packed_profile_fast(packed), general, label)

    def test_families_all_take_the_fast_path(self):
        # The eight families compile to barrier-free <=2-qubit streams, so the
        # hot suite path is the vectorised DP; if a family ever stops being
        # eligible this flags the (silent) perf regression.
        for family, benchmark in FAMILY_INSTANCES.items():
            for index, circuit in enumerate(benchmark.circuits()):
                assert _fast_eligible(circuit.packed()), f"{family}[{index}]"

    @given(num_qubits=st.integers(2, 7), seed=st.integers(0, 2000))
    @settings(max_examples=40, deadline=None)
    def test_trailing_barrier_routes_general_with_same_profile(self, num_qubits, seed):
        # A trailing barrier is profile-neutral (no operations follow it) but
        # disqualifies the fast path — so the same statistics computed by the
        # two paths must agree exactly.
        circuit = random_clifford_circuit(num_qubits, 30, rng=seed).measure_all()
        fast = packed_profile(circuit.packed())
        assert _fast_eligible(circuit.packed())
        circuit.barrier()
        packed = circuit.packed()
        assert not _fast_eligible(packed)
        general = packed_profile(packed)
        # total_operations/moments exclude barriers, so every field matches.
        _assert_profiles_equal(fast, general)
        assert general.row_moments.tolist() == fast.row_moments.tolist() + [-1]

    @given(num_qubits=st.integers(2, 7), seed=st.integers(0, 2000))
    @settings(max_examples=60, deadline=None)
    def test_random_fast_vs_general(self, num_qubits, seed):
        # barrier-free 1q/2q streams with mid-circuit measure/reset: always
        # fast-eligible, so this pins the DP fast path to the object-walk port.
        rng = np.random.default_rng(seed)
        circuit = random_clifford_circuit(num_qubits, int(rng.integers(1, 50)), rng=seed)
        for _ in range(int(rng.integers(0, 4))):
            circuit.measure(int(rng.integers(num_qubits)), 0)
            if rng.random() < 0.5:
                circuit.reset(int(rng.integers(num_qubits)))
            circuit.h(int(rng.integers(num_qubits)))
        circuit.measure_all()
        packed = circuit.packed()
        assert _fast_eligible(packed)
        _assert_profiles_equal(_packed_profile_fast(packed), _packed_profile_general(packed))


# ---------------------------------------------------------------------------
# trajectory plans
# ---------------------------------------------------------------------------
def _reference_plan_shape(circuit: Circuit, noise_model):
    """Object-walk reference of the compiled plan's step shape.

    Walks ``circuit.instructions`` (never the packed form) and mirrors the
    compile loop's semantics — barrier skipping, terminal-measurement
    deferral, per-gate noise channels, unitary runs — without fusing, so runs
    are described by their (qubits, kernel-kind) content rather than the
    fused kernels themselves.
    """
    terminal: dict[int, int] = {}
    last_touch: dict[int, int] = {}
    for index, instruction in enumerate(circuit):
        if instruction.is_barrier():
            continue
        for q in instruction.qubits:
            last_touch[q] = index
    shape = []
    for index, instruction in enumerate(circuit):
        if instruction.is_barrier():
            continue
        if instruction.is_measurement():
            qubit = instruction.qubits[0]
            if last_touch[qubit] == index:
                terminal[qubit] = instruction.clbits[0]
                continue
            shape.append(("measure", qubit, instruction.clbits[0]))
            if noise_model is not None:
                for _channel, qubits in noise_model.measurement_channels(qubit):
                    shape.append(("channel", tuple(qubits)))
            continue
        if instruction.is_reset():
            shape.append(("reset", instruction.qubits[0]))
            if noise_model is not None:
                for _channel, qubits in noise_model.reset_channels(instruction.qubits[0]):
                    shape.append(("channel", tuple(qubits)))
            continue
        channels = (
            noise_model.channels_for_gate(instruction.qubits) if noise_model is not None else []
        )
        kernel = kernel_for_operation(OPCODES[instruction.name], instruction.params)
        shape.append(("gate", instruction.qubits, kernel.kind))
        for _channel, qubits in channels:
            shape.append(("channel", tuple(qubits)))
    return shape, sorted(terminal.items())


def _compiled_plan_shape(circuit: Circuit, noise_model):
    """The same shape extracted from the packed-row compiled plan."""
    plan = _compile_trajectory_plan(circuit, noise_model)
    shape = []
    for step in plan.prefix + plan.suffix:
        if isinstance(step, _GateStep):
            shape.append(("gate", step.qubits, step.kernel.kind))
        elif isinstance(step, _ChannelStep):
            shape.append(("channel", step.qubits))
        elif isinstance(step, _MeasureStep):
            shape.append(("measure", step.qubit, step.clbit))
        elif isinstance(step, _ResetStep):
            shape.append(("reset", step.qubit))
    return shape, sorted(plan.terminal)


class TestPlanParity:
    def test_families_noisy_plan_matches_object_walk(self):
        # Under a noise model every gate flushes its own run, so the compiled
        # steps correspond 1:1 with the reference walk — an exact shape pin.
        for family, benchmark in FAMILY_INSTANCES.items():
            for index, circuit in enumerate(benchmark.circuits()):
                model = NoiseModel.uniform(circuit.num_qubits)
                expected = _reference_plan_shape(circuit, model)
                observed = _compiled_plan_shape(circuit, model)
                assert observed == expected, f"{family}[{index}]"

    def test_families_noiseless_plan_collapse_points_match(self):
        # Without noise, unitary runs fuse — but every collapse point
        # (mid-circuit measure/reset) and the terminal map must line up with
        # the object-walk reference exactly.
        for family, benchmark in FAMILY_INSTANCES.items():
            for index, circuit in enumerate(benchmark.circuits()):
                ref_shape, ref_terminal = _reference_plan_shape(circuit, None)
                obs_shape, obs_terminal = _compiled_plan_shape(circuit, None)
                keep = ("measure", "reset")
                assert [s for s in obs_shape if s[0] in keep] == [
                    s for s in ref_shape if s[0] in keep
                ], f"{family}[{index}]"
                assert obs_terminal == ref_terminal, f"{family}[{index}]"
