"""Cross-module integration tests: the paper's qualitative claims end to end."""

import numpy as np
import pytest

from repro.benchmarks import (
    BitCodeBenchmark,
    GHZBenchmark,
    MerminBellBenchmark,
    VanillaQAOABenchmark,
)
from repro.circuits import Circuit
from repro.devices import get_device
from repro.execution import ExecutionEngine, TrajectoryBackend
from repro.simulation import StatevectorSimulator
from repro.transpiler import transpile


def run_noisy(benchmark, device, *, shots, repetitions, trajectories, seed):
    """One benchmark on one device with trajectory noise."""
    backend = TrajectoryBackend(trajectories=trajectories)
    with ExecutionEngine(device, backend=backend) as engine:
        return engine.run(benchmark, shots=shots, repetitions=repetitions, seed=seed)


class TestQasmToExecutionRoundTrip:
    def test_benchmark_circuits_survive_qasm_round_trip_and_compilation(self):
        """Benchmarks are specified at the OpenQASM level (design principle 3)."""
        benchmark = GHZBenchmark(4)
        qasm = benchmark.circuits()[0].to_qasm()
        circuit = Circuit.from_qasm(qasm)
        device = get_device("IBM-Casablanca-7Q")
        compact, _physical = transpile(circuit, device).compact()
        counts = StatevectorSimulator(seed=0).run(compact, shots=300)
        assert benchmark.score([counts]) > 0.97


class TestPaperQualitativeClaims:
    def test_scores_degrade_with_benchmark_size(self):
        """Fig. 2: bigger instances score lower on the same noisy device."""
        device = get_device("IBM-Guadalupe-16Q")
        small = run_noisy(
            GHZBenchmark(3), device, shots=300, repetitions=2, trajectories=40, seed=7
        )
        large = run_noisy(
            GHZBenchmark(11), device, shots=300, repetitions=2, trajectories=40, seed=7
        )
        assert large.mean_score < small.mean_score

    def test_trapped_ion_wins_communication_heavy_benchmark(self):
        """Sec. VI: all-to-all connectivity compensates worse 2q fidelity on
        the Vanilla QAOA benchmark, because the superconducting device pays a
        large SWAP overhead."""
        benchmark = VanillaQAOABenchmark(5, seed=3)
        ion = run_noisy(
            benchmark, get_device("IonQ-11Q"), shots=250, repetitions=2, trajectories=40, seed=11
        )
        superconducting = run_noisy(
            benchmark,
            get_device("IBM-Toronto-27Q"),
            shots=250,
            repetitions=2,
            trajectories=40,
            seed=11,
        )
        # The superconducting compilation needs SWAPs, the trapped-ion one does not.
        assert superconducting.swap_count > 0
        assert ion.swap_count == 0
        assert ion.mean_score > superconducting.mean_score

    def test_error_correction_benchmarks_hit_superconducting_harder(self):
        """Fig. 2c-d / Sec. VI: mid-circuit measurement + reset is the dominant
        cost on superconducting devices (long readout relative to T1/T2), while
        the trapped-ion model's huge coherence times tolerate the idling."""
        benchmark = BitCodeBenchmark(3, 3)
        superconducting = run_noisy(
            benchmark,
            get_device("IBM-Toronto-27Q"),
            shots=200,
            repetitions=2,
            trajectories=50,
            seed=5,
        )
        ion = run_noisy(
            benchmark, get_device("IonQ-11Q"), shots=200, repetitions=2, trajectories=50, seed=5
        )
        assert ion.mean_score > superconducting.mean_score

    def test_mermin_bell_exceeds_classical_limit_on_good_device(self):
        """Fig. 2b: hardware with low enough error beats the local hidden-variable bound."""
        benchmark = MerminBellBenchmark(3)
        run = run_noisy(
            benchmark,
            get_device("IBM-Lagos-7Q"),
            shots=300,
            repetitions=1,
            trajectories=60,
            seed=9,
        )
        assert run.mean_score > benchmark.classical_limit_score()

    def test_feature_score_correlation_has_signal(self):
        """Fig. 3: on a noisy device, scores correlate with circuit-size features."""
        from repro.analysis import r_squared

        device = get_device("IBM-Montreal-27Q")
        runs = [
            run_noisy(
                GHZBenchmark(n), device, shots=300, repetitions=2, trajectories=75, seed=n
            )
            for n in (3, 5, 7, 9, 11)
        ]
        sizes = [run.typical["num_two_qubit_gates"] for run in runs]
        scores = [run.mean_score for run in runs]
        assert r_squared(sizes, scores) > 0.2
        assert scores[-1] < scores[0]
