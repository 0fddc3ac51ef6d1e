"""Engine integration of the mitigation subsystem.

Covers the ISSUE acceptance criteria: on the seeded noisy testbed, readout
mitigation and ZNE each improve Hellinger fidelity vs the ideal distribution
over raw execution for the GHZ and QAOA benchmarks, and repeated
``engine.run(..., mitigation=...)`` calls issue exactly one calibration job
per (device, qubit set, noise fingerprint) — verified by cache-stat
assertions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import hellinger_fidelity
from repro.benchmarks import GHZBenchmark, VanillaQAOABenchmark
from repro.execution import ExecutionEngine
from repro.mitigation import CalibrationCache, ReadoutMitigator, ZNEMitigator, resolve_mitigator
from repro.simulation import QuasiDistribution, final_statevector, probabilities_from_statevector


def ideal_distribution(circuit):
    """Noiseless output distribution of a terminally measured logical circuit."""
    body = [i for i in circuit if i.is_unitary()]
    from repro.circuits import Circuit

    unitary_part = Circuit(circuit.num_qubits).extend(body)
    probabilities = probabilities_from_statevector(final_statevector(unitary_part))
    n = circuit.num_qubits
    return {
        format(i, f"0{n}b")[::-1]: float(p)
        for i, p in enumerate(probabilities)
        if p > 1e-12
    }


@pytest.fixture
def engine(ibm_device):
    with ExecutionEngine(ibm_device, backend="density_matrix", max_workers=2) as engine:
        yield engine


class TestMitigatedScores:
    @pytest.mark.parametrize("benchmark_factory", [
        lambda: GHZBenchmark(4),
        lambda: VanillaQAOABenchmark(4, seed=1),
    ])
    @pytest.mark.parametrize("technique", ["readout", "zne"])
    def test_mitigation_improves_hellinger_fidelity(self, engine, benchmark_factory, technique):
        """Readout mitigation and ZNE each beat raw execution at fixed seed."""
        benchmark = benchmark_factory()
        circuit = benchmark.circuits()[0]
        ideal = ideal_distribution(circuit)
        raw = engine.run_circuits([circuit], shots=4096, seed=9)[0]
        mitigated = engine.run_circuits([circuit], shots=4096, seed=9, mitigation=technique)[0]
        assert isinstance(mitigated, QuasiDistribution)
        assert hellinger_fidelity(mitigated, ideal) > hellinger_fidelity(raw, ideal)

    def test_mitigated_benchmark_score_improves(self, engine):
        benchmark = GHZBenchmark(4)
        raw = engine.run(benchmark, shots=4096, repetitions=2, seed=7)
        mitigated = engine.run(benchmark, shots=4096, repetitions=2, seed=7, mitigation="readout")
        assert mitigated.mean_score > raw.mean_score
        assert mitigated.mitigation == "readout"
        assert raw.mitigation == ""


class TestCalibrationCaching:
    def test_exactly_one_calibration_job_per_key(self, engine):
        """Repeated mitigated runs reuse the cached calibration."""
        benchmark = GHZBenchmark(4)
        for _ in range(3):
            engine.run(benchmark, shots=512, repetitions=2, seed=7, mitigation="readout")
        stats = engine.stats()
        assert stats["calibration_misses"] == 1
        assert stats["calibration_entries"] == 1
        assert stats["calibration_hits"] == 2

    def test_distinct_qubit_sets_calibrate_separately(self, engine):
        engine.run(GHZBenchmark(3), shots=512, repetitions=1, seed=7, mitigation="readout")
        engine.run(GHZBenchmark(4), shots=512, repetitions=1, seed=7, mitigation="readout")
        stats = engine.stats()
        assert stats["calibration_misses"] == 2
        assert stats["calibration_entries"] == 2

    def test_calibration_key_shared_across_corrections(self, engine):
        """'inverse' and 'least_squares' differ only post-hoc: one calibration."""
        benchmark = GHZBenchmark(3)
        engine.run(benchmark, shots=512, repetitions=1, seed=7,
                   mitigation=ReadoutMitigator(correction="least_squares"))
        engine.run(benchmark, shots=512, repetitions=1, seed=7,
                   mitigation=ReadoutMitigator(correction="inverse"))
        assert engine.stats()["calibration_misses"] == 1

    def test_zne_needs_no_calibration(self, engine):
        engine.run(GHZBenchmark(3), shots=512, repetitions=1, seed=7, mitigation="zne")
        stats = engine.stats()
        assert stats["calibration_misses"] == 0
        assert stats["calibration_entries"] == 0

    def test_shared_cache_across_engines(self, ibm_device):
        shared = CalibrationCache()
        benchmark = GHZBenchmark(3)
        for _ in range(2):
            with ExecutionEngine(
                ibm_device, backend="density_matrix", calibration_cache=shared
            ) as engine:
                engine.run(benchmark, shots=512, repetitions=1, seed=7, mitigation="readout")
        assert shared.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_cache_stores_none_results(self):
        """Presence is tested by key: a None calibration still computes once."""
        cache = CalibrationCache()
        calls = []

        def compute():
            calls.append(1)
            return None

        key = ("device", (0, 1), "fingerprint", "technique")
        for _ in range(3):
            assert cache.get_or_compute(key, compute) is None
        assert len(calls) == 1
        assert cache.stats() == {"hits": 2, "misses": 1, "entries": 1}

    def test_calibration_is_deterministic(self, ibm_device):
        """A cleared cache re-issues the identical calibration job."""
        results = []
        for _ in range(2):
            with ExecutionEngine(ibm_device, backend="density_matrix") as engine:
                engine.run(GHZBenchmark(3), shots=512, repetitions=1, seed=7,
                           mitigation="readout")
                key = next(iter(engine.calibration_cache._entries))
                results.append(engine.calibration_cache.peek(key).matrices)
        assert np.allclose(results[0], results[1])


class TestEngineApi:
    @pytest.mark.parametrize("spec", [None, "raw", "none", "RAW"])
    def test_raw_specs_run_unmitigated(self, engine, spec):
        """None and the explicit "raw"/"none" strings all mean unmitigated."""
        assert resolve_mitigator(spec) is None
        counts = engine.run_circuits([GHZBenchmark(3).circuits()[0]], shots=128, seed=1,
                                     mitigation=spec)
        assert not isinstance(counts[0], QuasiDistribution)
        run = engine.run(GHZBenchmark(3), shots=128, repetitions=1, seed=1, mitigation=spec)
        assert run.mitigation == ""

    def test_stats_keeps_flat_transpile_keys(self, engine):
        engine.run(GHZBenchmark(3), shots=256, repetitions=1, seed=1)
        stats = engine.stats()
        for key in ("hits", "misses", "entries",
                    "calibration_hits", "calibration_misses", "calibration_entries"):
            assert key in stats
        assert stats["misses"] == 1

    def test_repr_shows_both_caches(self, engine):
        engine.run(GHZBenchmark(3), shots=256, repetitions=1, seed=1, mitigation="readout")
        rendered = repr(engine)
        assert "transpile_cache=" in rendered
        assert "calibration_cache=" in rendered

    def test_resolve_mitigator_names(self):
        assert resolve_mitigator(None) is None
        assert resolve_mitigator("readout").name == "readout"
        assert resolve_mitigator("zne").name == "zne"
        assert resolve_mitigator("dd").name == "dd"
        mitigator = ZNEMitigator(scale_factors=(1, 5))
        assert resolve_mitigator(mitigator) is mitigator

    def test_seeded_mitigated_runs_are_reproducible(self, ibm_device):
        scores = []
        for _ in range(2):
            with ExecutionEngine(ibm_device, backend="density_matrix", max_workers=3) as engine:
                run = engine.run(GHZBenchmark(4), shots=1024, repetitions=2, seed=42,
                                 mitigation="readout")
                scores.append(run.scores)
        assert scores[0] == scores[1]
