"""A fixed reference kernel that gauges the host's current speed.

The benchmark runs on a few vCPUs of a shared host whose speed drifts: a
fixed piece of work takes 1.0x or about 1.5x its fastest time in episodes
of a tenth of a second, and the share of slow episodes changes over
minutes, so a whole run can land in a slow stretch.

:func:`probe` times work that never changes (it does not import the
program, so no change to the program moves it) and that is built like the
sweeps: small statevector contractions, dense matrix-vector products and
Python container churn.  It runs its rounds on each CPU the process may
use in turn, since pool workers run on all of them.  A run probes before
its first pass and after every pass and divides its times by the mean of
:func:`host_factors` to report them at the reference host's speed.
"""

from __future__ import annotations

import gc
import os
import time
from typing import List

import numpy as np

#: Typical probe time on the 2-vCPU Xeon host of the ledger's measurements.
REFERENCE_SECONDS = 0.35


def _statevector(rng: np.random.Generator, qubits: int = 9, layers: int = 6) -> float:
    one = [np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
           for _ in range(4)]
    two = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    two = two.reshape(2, 2, 2, 2)
    psi = np.zeros((2,) * qubits, complex)
    psi[(0,) * qubits] = 1.0
    for layer in range(layers):
        for q in range(qubits):
            psi = np.moveaxis(np.tensordot(one[(layer + q) % 4], psi, axes=([1], [q])), 0, q)
        for q in range(layer % 2, qubits - 1, 2):
            psi = np.moveaxis(
                np.tensordot(two, psi, axes=([2, 3], [q, q + 1])), (0, 1), (q, q + 1)
            )
    return float(np.abs(psi.reshape(-1)[0]))


def _expectations(rng: np.random.Generator, size: int = 64, evaluations: int = 60) -> float:
    matrix = rng.standard_normal((size, size))
    vector = rng.standard_normal(size) + 0j
    total = 0.0
    for step in range(evaluations):
        vector = np.cos(vector + step * 0.01)
        total += float(np.real(np.vdot(vector, matrix @ vector)))
    return total


def _objects(steps: int = 6000) -> int:
    table = {}
    rows = 0
    for i in range(steps):
        key = ("cx", i % 97, (i * 7) % 31)
        entry = table.get(key)
        if entry is None:
            entry = table[key] = [key, 0, []]
        entry[1] += 1
        entry[2].append(i)
        if len(entry[2]) > 4:
            rows += len(tuple(entry[2]))
            entry[2].clear()
    return rows


def probe(rounds: int = 48) -> float:
    """Wall time of the reference work, its rounds spread over every usable CPU."""
    allowed = sorted(os.sched_getaffinity(0))
    rng = np.random.default_rng(12345)
    elapsed = 0.0
    # The cyclic collector would walk the program's heap, which grows over
    # a run; with it off the probe's cost does not depend on that heap.
    gc.disable()
    try:
        for index in range(rounds):
            os.sched_setaffinity(0, {allowed[index % len(allowed)]})
            started = time.perf_counter()
            _statevector(rng)
            _expectations(rng)
            _objects()
            elapsed += time.perf_counter() - started
    finally:
        os.sched_setaffinity(0, allowed)
        gc.enable()
    return elapsed


def host_factors(probes: List[float]) -> List[float]:
    """For each pass between two probes: how much slower than the reference
    host the host ran, from the mean of the probe before and the one after."""
    return [(before + after) / 2 / REFERENCE_SECONDS for before, after in zip(probes, probes[1:])]
