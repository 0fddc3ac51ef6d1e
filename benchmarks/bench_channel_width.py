"""Width sweep of the trajectory noise-channel step against the whole-batch oracle.

``StatevectorSimulator._apply_channel_batch`` computes only on the
trajectories (batch rows) whose draw can change them: relaxation rows whose
draw is within the channel's no-jump bound get one elementwise multiply, and
a Pauli mixture moves only the rows that drew a non-identity branch.  The
step it replaced ran the XOR gather over every row; it lives on as
``apply_channel_batch_reference`` in ``tests/oracle.py``.

This script times the two interleaved (alternating which goes first each
round, so drift on a shared host hits both alike) on 40 trajectories at 3
to 12 qubits, with the channels a two-qubit gate gets on IBM-Toronto-27Q:

* thermal relaxation with no row, one row and every row past the bound;
* two-qubit depolarizing with no row and one row moved.

Each call starts from the same batch, restored outside the timed region,
and frees its output inside it.  Per case it prints the median of each, the
median of the per-round ratios (step over oracle) and the rounds the step
won.  It exits 1 when an output of the step differs from the oracle's in
more than the sign of a zero; the timings themselves gate nothing.
``REPRO_BENCH_QUICK=1`` runs 3 to 8 qubits with fewer rounds.

    PYTHONPATH=src python benchmarks/bench_channel_width.py
"""

from __future__ import annotations

import os
import pathlib
import statistics
import sys
import time

import numpy as np

from repro.devices import get_device
from repro.simulation import StatevectorSimulator
from repro.simulation.statevector import _channel_step

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from oracle import apply_channel_batch_reference  # noqa: E402  (the whole-batch step lives with the tests)

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
TRAJECTORIES = 40
#: Interleaved rounds per state width: about a second of calls per case.
ROUNDS = {3: 801, 4: 801, 5: 801, 6: 601, 7: 401, 8: 301, 9: 151, 10: 81, 11: 41, 12: 21}
QUICK_ROUNDS = {3: 201, 4: 201, 5: 201, 6: 101, 7: 101, 8: 51}


class _Draws:
    """Hands out the same uniforms on every ``random(size)`` call."""

    def __init__(self, draws: np.ndarray) -> None:
        self.draws = draws

    def random(self, size=None) -> np.ndarray:
        return self.draws.copy()


def _bits(array: np.ndarray) -> np.ndarray:
    """Float bits of an array, with -0.0 folded into 0.0."""
    return (np.ascontiguousarray(array).reshape(-1).view(np.float64) + 0.0).view(np.uint64)


def cases(num_qubits: int):
    """(label, step, draws) for the two-qubit-gate channels on middle qubits."""
    middle = num_qubits // 2
    model = get_device("IBM-Toronto-27Q").noise_model(list(range(num_qubits)))
    steps = {
        channel.name: _channel_step(channel, tuple(qubits))
        for channel, qubits in model.channels_for_gate((middle, middle - 1))
    }
    relaxation, depolarizing = steps["thermal_relaxation"], steps["depolarizing2"]
    bound = relaxation.prepared.no_jump_bound(num_qubits)
    within = np.linspace(0.0, bound, TRAJECTORIES)
    past = np.linspace(bound, 1.0, TRAJECTORIES + 1)[1:]
    one_past = within.copy()
    one_past[TRAJECTORIES // 2] = past[-1]
    identity = np.linspace(0.0, depolarizing.prepared.cdf[0], TRAJECTORIES, endpoint=False)
    one_moved = identity.copy()
    one_moved[TRAJECTORIES // 2] = np.nextafter(1.0, 0.0)
    return [
        ("relaxation, no row past the bound", relaxation, within),
        ("relaxation, one row past the bound", relaxation, one_past),
        ("relaxation, every row past the bound", relaxation, past),
        ("2q depolarizing, no row moved", depolarizing, identity),
        ("2q depolarizing, one row moved", depolarizing, one_moved),
    ]


def interleaved_samples(num_qubits: int, step, draws: np.ndarray, rounds: int):
    """Per-round seconds of (step, oracle), and whether every output matched."""
    rng = np.random.default_rng(num_qubits)
    shape = (TRAJECTORIES, 1 << num_qubits)
    batch = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    batch /= np.linalg.norm(batch, axis=1)[:, None]
    batch = batch.reshape((TRAJECTORIES,) + (2,) * num_qubits)
    simulator = StatevectorSimulator(seed=0)
    simulator._rng = _Draws(draws)
    work = np.empty_like(batch)

    def new() -> np.ndarray:
        return simulator._apply_channel_batch(work, step, num_qubits)

    def old() -> np.ndarray:
        return apply_channel_batch_reference(work, step, num_qubits, _Draws(draws))

    outputs = []
    for function in (new, old):
        np.copyto(work, batch)
        outputs.append(_bits(function()))
    samples = {new: [], old: []}
    for index in range(rounds):
        pair = (new, old) if index % 2 == 0 else (old, new)
        for function in pair:
            np.copyto(work, batch)
            start = time.perf_counter()
            # The output is freed inside the timed region, as the simulator
            # frees the batch a step replaces: keeping it alive across the
            # other function's call would move where the allocator places
            # (and whether it trims) the large temporaries of the next call.
            function()
            samples[function].append(time.perf_counter() - start)
    return samples[new], samples[old], np.array_equal(*outputs)


def main() -> int:
    differ = 0
    for num_qubits, rounds in (QUICK_ROUNDS if QUICK else ROUNDS).items():
        for label, step, draws in cases(num_qubits):
            new, old, same = interleaved_samples(num_qubits, step, draws, rounds)
            new_median, old_median = statistics.median(new), statistics.median(old)
            ratio = statistics.median(a / b for a, b in zip(new, old))
            wins = sum(a < b for a, b in zip(new, old))
            differ += not same
            print(
                f"{num_qubits:2d} qubits, {label}, {rounds} rounds: "
                f"step {new_median * 1e6:9.1f} us, whole-batch oracle {old_median * 1e6:9.1f} us "
                f"(speedup {old_median / new_median:5.2f}x, median per-round ratio {ratio:.3f}, "
                f"step faster in {wins}){'' if same else '  OUTPUT DIFFERS'}",
                flush=True,
            )
    if differ:
        print(f"{differ} case(s) differ from the whole-batch oracle beyond the sign of a zero")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
