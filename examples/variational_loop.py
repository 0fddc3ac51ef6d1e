#!/usr/bin/env python3
"""Full variational VQE loop on a noisy device model (extension of Sec. IV-E).

The paper scores a *single iteration* of VQE at classically pre-optimised
parameters because cloud queue latency makes full variational loops
impractical on real hardware.  With a local simulator that restriction
disappears, so this example runs the complete loop the paper describes as
future work: SPSA optimises the TFIM energy where every objective evaluation
is a shot-based, noisy execution on a Table II device model.

Run with:  python examples/variational_loop.py
"""

from __future__ import annotations

import numpy as np

from repro.benchmarks import VQEBenchmark
from repro.devices import get_device
from repro.optimize import minimize_spsa
from repro.simulation import StatevectorSimulator
from repro.transpiler import transpile


def main() -> None:
    num_qubits, num_layers = 3, 1
    benchmark = VQEBenchmark(num_qubits, num_layers, seed=1)
    device = get_device("IBM-Lagos-7Q")
    exact_energy = benchmark.exact_ground_energy()
    print(f"TFIM on {num_qubits} spins; exact ground energy = {exact_energy:.4f}")

    evaluations = 0

    def noisy_energy(parameters: np.ndarray) -> float:
        """Measure <H> on the noisy device model at the given ansatz parameters."""
        nonlocal evaluations
        evaluations += 1
        counts = []
        for basis in ("z", "x"):
            circuit = benchmark.ansatz(parameters, measure_basis=basis)
            compiled = transpile(circuit, device)
            compact, physical = compiled.compact()
            simulator = StatevectorSimulator(
                device.noise_model(physical), seed=evaluations, trajectories=25
            )
            counts.append(simulator.run(compact, shots=150))
        return benchmark.measured_energy(counts[0], counts[1])

    initial = np.random.default_rng(0).uniform(-0.3, 0.3, size=benchmark.num_parameters)
    print(f"initial noisy energy  = {noisy_energy(initial):.4f}")

    result = minimize_spsa(noisy_energy, initial, max_iterations=40, a=0.3, c=0.2, seed=2)
    print(f"optimised noisy energy = {result.value:.4f} after {result.evaluations} evaluations")

    ideal_at_result = benchmark._energy(result.parameters)
    print(f"noiseless energy at the optimised parameters = {ideal_at_result:.4f}")
    print(f"fraction of ground-state energy recovered    = {ideal_at_result / exact_energy:.2%}")


if __name__ == "__main__":
    main()
