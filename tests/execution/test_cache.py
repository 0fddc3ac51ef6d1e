"""Tests for circuit fingerprinting and the transpile cache."""

import pytest

from repro.circuits import Circuit
from repro.devices import get_device
from repro.execution import TranspileCache, circuit_fingerprint


def _ghz(n: int, name: str = "") -> Circuit:
    circuit = Circuit(n, n, name)
    circuit.h(0)
    for q in range(n - 1):
        circuit.cx(q, q + 1)
    return circuit.measure_all()


class TestFingerprint:
    def test_equal_circuits_share_fingerprint(self):
        assert circuit_fingerprint(_ghz(3)) == circuit_fingerprint(_ghz(3))

    def test_name_does_not_affect_fingerprint(self):
        assert circuit_fingerprint(_ghz(3, "a")) == circuit_fingerprint(_ghz(3, "b"))

    def test_structure_changes_fingerprint(self):
        assert circuit_fingerprint(_ghz(3)) != circuit_fingerprint(_ghz(4))
        base = Circuit(2).rx(0.5, 0).measure_all()
        other = Circuit(2).rx(0.6, 0).measure_all()
        assert circuit_fingerprint(base) != circuit_fingerprint(other)

    def test_operand_order_changes_fingerprint(self):
        a = Circuit(2).cx(0, 1).measure_all()
        b = Circuit(2).cx(1, 0).measure_all()
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_params_hash_as_raw_float_bytes(self):
        # The v2 fingerprint hashes the raw float64 bytes, not a repr() string:
        # 0.1 + 0.2 and the literal 0.30000000000000004 are the same float and
        # must hash equal, while the (different) float 0.3 must not — even
        # though a "%.5f"-style textual scheme would conflate all three.
        computed = Circuit(1).rx(0.1 + 0.2, 0)
        literal = Circuit(1).rx(0.30000000000000004, 0)
        rounded = Circuit(1).rx(0.3, 0)
        assert circuit_fingerprint(computed) == circuit_fingerprint(literal)
        assert circuit_fingerprint(computed) != circuit_fingerprint(rounded)

    def test_sign_of_zero_is_structural(self):
        # -0.0 == 0.0 compares equal but has different bytes; the byte-level
        # scheme keeps them distinct (repr-level schemes did too).
        assert circuit_fingerprint(Circuit(1).rz(0.0, 0)) != circuit_fingerprint(
            Circuit(1).rz(-0.0, 0)
        )

    def test_clbit_wiring_changes_fingerprint(self):
        a = Circuit(2, 2).h(0).measure(0, 0)
        b = Circuit(2, 2).h(0).measure(0, 1)
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_pack_round_trip_preserves_fingerprint(self):
        circuit = _ghz(4).rx(0.1 + 0.2, 0).barrier(1, 3)
        assert circuit_fingerprint(circuit.packed().unpack()) == circuit_fingerprint(circuit)


class TestTranspileCache:
    def test_second_lookup_is_a_hit(self):
        cache = TranspileCache()
        device = get_device("IBM-Casablanca-7Q")
        first = cache.get_or_transpile(_ghz(3), device)
        second = cache.get_or_transpile(_ghz(3), device)
        assert first is second
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_structurally_equal_objects_hit(self):
        cache = TranspileCache()
        device = get_device("IBM-Casablanca-7Q")
        entry_a = cache.get_or_transpile(_ghz(3, "x"), device)
        entry_b = cache.get_or_transpile(_ghz(3, "y"), device)
        assert entry_a is entry_b

    def test_optimization_level_is_part_of_the_key(self):
        cache = TranspileCache()
        device = get_device("IBM-Casablanca-7Q")
        cache.get_or_transpile(_ghz(3), device, optimization_level=0)
        cache.get_or_transpile(_ghz(3), device, optimization_level=2)
        assert cache.stats()["misses"] == 2
        assert len(cache) == 2

    def test_different_devices_do_not_collide(self):
        cache = TranspileCache()
        cache.get_or_transpile(_ghz(3), get_device("IBM-Casablanca-7Q"))
        cache.get_or_transpile(_ghz(3), get_device("IonQ-11Q"))
        assert cache.stats() == {"hits": 0, "misses": 2, "entries": 2}

    def test_entry_contents(self):
        cache = TranspileCache()
        device = get_device("IBM-Casablanca-7Q")
        entry = cache.get_or_transpile(_ghz(3), device)
        assert entry.compact.num_qubits == len(entry.physical)
        assert entry.transpiled.device is device
        # The noise model is built lazily and memoised.
        model = entry.noise_model()
        assert entry.noise_model() is model

    def test_clear_resets_counters(self):
        cache = TranspileCache()
        device = get_device("IBM-Casablanca-7Q")
        cache.get_or_transpile(_ghz(3), device)
        cache.clear()
        assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0}


class TestPipelineAwareKeys:
    """Regression tests: the key folds in the full pipeline fingerprint.

    The historical cache keyed on ``(fingerprint, device, optimization_level)``
    only, so two calls differing in placement strategy (or initial layout)
    silently shared one entry — the second caller got a circuit compiled with
    the wrong placement.
    """

    def test_placement_is_part_of_the_key(self):
        cache = TranspileCache()
        device = get_device("IBM-Casablanca-7Q")
        noise_aware = cache.get_or_transpile(_ghz(3), device, placement="noise_aware")
        trivial = cache.get_or_transpile(_ghz(3), device, placement="trivial")
        assert cache.stats() == {"hits": 0, "misses": 2, "entries": 2}
        assert noise_aware is not trivial
        assert trivial.transpiled.initial_layout == {0: 0, 1: 1, 2: 2}
        # The noise-aware heuristic picks a high-connectivity region, which on
        # Casablanca differs from the identity layout.
        assert noise_aware.transpiled.initial_layout != trivial.transpiled.initial_layout

    def test_initial_layout_is_part_of_the_key(self):
        cache = TranspileCache()
        device = get_device("IBM-Casablanca-7Q")
        entry_a = cache.get_or_transpile(_ghz(2), device, initial_layout={0: 1, 1: 3})
        entry_b = cache.get_or_transpile(_ghz(2), device, initial_layout={0: 3, 1: 5})
        default = cache.get_or_transpile(_ghz(2), device)
        assert cache.stats()["misses"] == 3
        assert entry_a.transpiled.initial_layout == {0: 1, 1: 3}
        assert entry_b.transpiled.initial_layout == {0: 3, 1: 5}
        assert default is not entry_a and default is not entry_b

    def test_same_pipeline_still_hits(self):
        cache = TranspileCache()
        device = get_device("IBM-Casablanca-7Q")
        first = cache.get_or_transpile(_ghz(3), device, placement="trivial")
        second = cache.get_or_transpile(_ghz(3), device, placement="trivial")
        assert first is second
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_entry_records_pipeline_fingerprint(self):
        from repro.transpiler import preset_pipeline

        cache = TranspileCache()
        device = get_device("IBM-Casablanca-7Q")
        entry = cache.get_or_transpile(_ghz(3), device, optimization_level=2)
        assert entry.pipeline == preset_pipeline(device, optimization_level=2).fingerprint
        assert entry.transpiled.pipeline_fingerprint == entry.pipeline


class TestBatchApi:
    def test_batch_dedups_before_counting(self):
        cache = TranspileCache()
        device = get_device("IBM-Casablanca-7Q")
        entries = cache.get_or_transpile_many([_ghz(3)] * 5, device)
        assert len(entries) == 5
        assert all(entry is entries[0] for entry in entries)
        # five structural duplicates: one miss, zero hits, one compile
        assert cache.stats() == {"hits": 0, "misses": 1, "entries": 1}

    def test_batch_mixes_hits_and_misses(self):
        cache = TranspileCache()
        device = get_device("IBM-Casablanca-7Q")
        warm = cache.get_or_transpile(_ghz(3), device)
        entries = cache.get_or_transpile_many([_ghz(3), _ghz(4), _ghz(4)], device)
        assert entries[0] is warm
        assert entries[1] is entries[2]
        assert cache.stats() == {"hits": 1, "misses": 2, "entries": 2}

    def test_batch_matches_single_lookups(self):
        cache = TranspileCache()
        device = get_device("IBM-Casablanca-7Q")
        circuits = [_ghz(3), _ghz(4), _ghz(5)]
        batch = cache.get_or_transpile_many(circuits, device)
        singles = [cache.get_or_transpile(c, device) for c in circuits]
        assert all(a is b for a, b in zip(batch, singles))

    def test_batch_compiles_through_executor(self):
        from concurrent.futures import ThreadPoolExecutor

        cache = TranspileCache()
        device = get_device("IBM-Casablanca-7Q")
        with ThreadPoolExecutor(max_workers=2) as pool:
            entries = cache.get_or_transpile_many(
                [_ghz(3), _ghz(4), _ghz(3)], device, executor=pool
            )
        assert entries[0] is entries[2]
        assert cache.stats()["entries"] == 2

    def test_batch_respects_pipeline_keys(self):
        cache = TranspileCache()
        device = get_device("IBM-Casablanca-7Q")
        level1 = cache.get_or_transpile_many([_ghz(3)], device, optimization_level=1)
        level2 = cache.get_or_transpile_many([_ghz(3)], device, optimization_level=2)
        assert level1[0] is not level2[0]
        assert cache.stats()["entries"] == 2

