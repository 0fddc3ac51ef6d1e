"""The trajectory channel step against the implementations it replaced.

``_PerBranchSimulator`` keeps the earlier per-branch noise-channel path and
``Generator.choice`` terminal sampler as a test-local oracle: seeded counts
must match it exactly, and each trajectory's output must match the
reference contraction of its chosen operator.  ``TestWholeBatchParity``
holds the step, which touches only the rows a draw changes, to the
whole-batch XOR-gather step it replaced (``apply_channel_batch_reference``
in ``tests/oracle.py``): the same draws and the same output bytes, up to
the sign of a zero.
"""

import numpy as np
import pytest
from oracle import apply_channel_batch_reference, apply_matrix_reference

from repro.benchmarks import BitCodeBenchmark, GHZBenchmark, VanillaQAOABenchmark
from repro.circuits import Circuit
from repro.devices import get_device
from repro.exceptions import SimulationError
from repro.simulation import (
    KrausChannel,
    StatevectorSimulator,
    amplitude_damping_channel,
    depolarizing_channel,
    phase_damping_channel,
    thermal_relaxation_channel,
    two_qubit_depolarizing_channel,
)
from repro.simulation.kernels import analyze_matrix, apply_kernel, qubit_axis
from repro.simulation.statevector import (
    _channel_step,
    _choice_cdf,
    _compile_trajectory_plan,
)


def _is_identity_kernel(kernel):
    return bool(
        kernel.kind == "diagonal"
        and np.allclose(kernel.diagonal, 1.0, rtol=0.0, atol=1e-12)
    )


class _PerBranchSimulator(StatevectorSimulator):
    """The per-branch channel loop and per-trajectory ``choice`` sampler."""

    def _apply_channel_batch(self, batch, step, num_qubits):
        axes = [qubit_axis(q, num_qubits, offset=1) for q in step.qubits]
        size = batch.shape[0]
        mixture = step.channel.unitary_mixture()
        if mixture is not None:
            probabilities, unitaries = mixture
            unit_kernels = [analyze_matrix(u) for u in unitaries]
            identity_flags = [_is_identity_kernel(k) for k in unit_kernels]
            if len(unit_kernels) == 1:
                if not identity_flags[0]:
                    batch = apply_kernel(batch, unit_kernels[0], axes, strict=False)
                return batch
            choices = self._rng.choice(len(unit_kernels), size=size, p=probabilities)
            for branch in np.unique(choices):
                if identity_flags[branch]:
                    continue
                selected = choices == branch
                sub = apply_kernel(batch[selected], unit_kernels[branch], axes, strict=False)
                batch[selected] = sub
            return batch

        kraus_kernels = [ket for ket, _bra in step.channel.kraus_kernels()]
        num_branches = len(kraus_kernels)
        weights = np.empty((size, num_branches))
        for branch, kernel in enumerate(kraus_kernels):
            candidate = apply_kernel(batch, kernel, axes, strict=False, in_place=False)
            weights[:, branch] = (np.abs(candidate) ** 2).reshape(size, -1).sum(axis=1)
        totals = weights.sum(axis=1)
        cumulative = np.cumsum(weights / totals[:, None], axis=1)
        draws = self._rng.random(size)
        choices = np.minimum((draws[:, None] > cumulative).sum(axis=1), num_branches - 1)
        for branch in np.unique(choices):
            selected = choices == branch
            sub = apply_kernel(batch[selected], kraus_kernels[branch], axes, strict=False)
            norms = np.sqrt(weights[selected, branch])
            sub /= norms.reshape((-1,) + (1,) * (sub.ndim - 1))
            batch[selected] = sub
        return batch

    def _sample_terminal(self, plan, batch, bits, shots_per):
        if not plan.terminal or np.all(shots_per == 1):
            return super()._sample_terminal(plan, batch, bits, shots_per)
        size = len(shots_per)
        rows = np.repeat(bits, shots_per, axis=0)
        probabilities = np.abs(batch.reshape(size, -1)) ** 2
        probabilities /= probabilities.sum(axis=1)[:, None]
        pieces = [
            self._rng.choice(probabilities.shape[1], size=int(n), p=probabilities[t])
            for t, n in enumerate(shots_per)
        ]
        return np.concatenate(pieces).astype(np.int64), rows


CIRCUITS = {
    "ghz": lambda: GHZBenchmark(4).circuits()[0],
    "vanilla_qaoa": lambda: VanillaQAOABenchmark(4, seed=1).circuits()[0],
    "bit_code": lambda: BitCodeBenchmark(3, 2).circuits()[0],  # mid-circuit measure/reset
}


@pytest.mark.parametrize("device", ["IBM-Casablanca-7Q", "IonQ-11Q", "AQT-4Q"])
@pytest.mark.parametrize("family", sorted(CIRCUITS))
@pytest.mark.parametrize("trajectories", [None, 7], ids=["one-shot-each", "several-shots-each"])
def test_seeded_counts_equal_the_per_branch_oracle(device, family, trajectories):
    circuit = CIRCUITS[family]()
    model = get_device(device).noise_model(list(range(circuit.num_qubits)))
    for seed in (3, 11):
        expected = _PerBranchSimulator(
            noise_model=model, seed=seed, trajectories=trajectories
        ).run(circuit, shots=120)
        observed = StatevectorSimulator(
            noise_model=model, seed=seed, trajectories=trajectories
        ).run(circuit, shots=120)
        assert dict(observed) == dict(expected)


def _random_batch(rng, size, num_qubits):
    batch = rng.normal(size=(size, 2**num_qubits)) + 1j * rng.normal(size=(size, 2**num_qubits))
    batch /= np.linalg.norm(batch, axis=1)[:, None]
    return batch.reshape((size,) + (2,) * num_qubits)


def _random_channel(rng, num_qubits, branches=3):
    """A CPTP map with dense, complex Kraus operators (non-diagonal Grams)."""
    dim = 2**num_qubits
    raw = rng.normal(size=(branches * dim, dim)) + 1j * rng.normal(size=(branches * dim, dim))
    isometry, _ = np.linalg.qr(raw)
    return KrausChannel(tuple(isometry[b * dim : (b + 1) * dim] for b in range(branches)))


def _expected_outputs(channel, batch, qubits, num_qubits, seed):
    """Reference contraction of each trajectory's chosen ``K_c / sqrt(w_c)``."""
    rng = np.random.default_rng(seed)
    size = batch.shape[0]
    axes = [qubit_axis(q, num_qubits) for q in qubits]
    mixture = channel.unitary_mixture()
    if mixture is not None:
        probabilities, unitaries = mixture
        choices = rng.choice(len(unitaries), size=size, p=probabilities)
        operators = [unitaries[c] for c in choices]
    else:
        kraus = channel.kraus_operators
        candidates = [
            [apply_matrix_reference(batch[t], k, axes) for k in kraus] for t in range(size)
        ]
        weights = np.array([[np.sum(np.abs(c) ** 2) for c in row] for row in candidates])
        cumulative = np.cumsum(weights / weights.sum(axis=1)[:, None], axis=1)
        draws = rng.random(size)
        choices = np.minimum((draws[:, None] > cumulative).sum(axis=1), len(kraus) - 1)
        operators = [kraus[c] / np.sqrt(weights[t, c]) for t, c in enumerate(choices)]
    return np.array(
        [apply_matrix_reference(batch[t], operators[t], axes) for t in range(size)]
    )


@pytest.mark.parametrize("qubits", [(2,), (3, 0), (0, 3), (1, 2)])
def test_each_trajectory_gets_its_chosen_operator(qubits):
    num_qubits = 4
    rng = np.random.default_rng(len(qubits) * 10 + qubits[0])
    channels = [
        _random_channel(rng, len(qubits)),
        thermal_relaxation_channel(30.0, 25.0, 4.0),
        amplitude_damping_channel(0.4),
        depolarizing_channel(0.6),
        two_qubit_depolarizing_channel(0.7),
    ]
    for channel in channels:
        if channel.num_qubits != len(qubits):
            continue
        batch = _random_batch(rng, 40, num_qubits)
        expected = _expected_outputs(channel, batch, qubits, num_qubits, seed=5)
        simulator = StatevectorSimulator(seed=5)
        step = _channel_step(channel, qubits)
        observed = simulator._apply_channel_batch(batch.copy(), step, num_qubits)
        assert np.allclose(observed, expected, rtol=0.0, atol=1e-12), channel.name


class _StuckGenerator:
    """Returns one fixed value for every uniform draw."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None):
        return np.full(size, self.value)


@pytest.mark.parametrize(
    "channel,draw",
    [
        # Largest value Generator.random returns: past the rounded last
        # boundary, where the zero PD1 @ AD1 operator used to be taken.
        (thermal_relaxation_channel(30.0, 20.0, 5.0), np.nextafter(1.0, 0.0)),
        # A zero draw on |1>: the leading no-decay branch has zero weight.
        (amplitude_damping_channel(1.0), 0.0),
    ],
    ids=["thermal-top", "full-damping-zero"],
)
def test_no_zero_weight_branch_is_taken(channel, draw):
    rng = np.random.default_rng(17)
    states = _random_batch(rng, 64, 1)
    states[:8] = [0.0, 1.0]  # |1>, so K0 of full damping has no weight
    simulator = StatevectorSimulator(seed=0)
    simulator._rng = _StuckGenerator(draw)
    out = simulator._apply_channel_batch(states, _channel_step(channel, (0,)), 1)
    assert np.all(np.isfinite(out))
    assert np.allclose(np.linalg.norm(out.reshape(64, -1), axis=1), 1.0, atol=1e-12)


def test_top_draw_never_lands_on_a_trailing_zero_weight_branch():
    """Three branches share |0>'s weight and a fourth only acts on |1>.

    On states in |0> the normalised cumulative weight of the first three
    sometimes rounds below the largest draw, which must then stay on the
    third branch instead of dividing by the fourth's zero norm.  Varying
    the amplitude's magnitude varies that rounding (the kernel normalises).
    """
    rng = np.random.default_rng(23)
    for split in rng.dirichlet(np.ones(3), size=8):
        channel = KrausChannel(
            (
                np.diag([np.sqrt(split[0]), np.sqrt(0.5)]),
                np.diag([np.sqrt(split[1]), 0.0]),
                np.diag([np.sqrt(split[2]), 0.0]),
                np.array([[0.0, np.sqrt(0.5)], [0.0, 0.0]]),
            )
        )
        states = np.zeros((2000, 2), dtype=complex)
        states[:, 0] = rng.uniform(0.5, 2.0, 2000) * np.exp(2j * np.pi * rng.random(2000))
        simulator = StatevectorSimulator(seed=0)
        simulator._rng = _StuckGenerator(np.nextafter(1.0, 0.0))
        out = simulator._apply_channel_batch(states, _channel_step(channel, (0,)), 1)
        assert np.all(np.isfinite(out))
        assert np.allclose(np.abs(out[:, 0]), 1.0, atol=1e-12)


def test_zero_kraus_operators_are_dropped_from_the_prepared_channel():
    channel = thermal_relaxation_channel(30.0, 20.0, 5.0)
    assert not channel.kraus_operators[-1].any()  # PD1 @ AD1
    step = _channel_step(channel, (0,))
    assert len(step.prepared.operators) == len(channel.kraus_operators) - 1
    assert step.prepared.gram_terms == (0,)  # diagonal Grams: weights are |psi|^2 @ G_0


class TestChoiceCdf:
    @pytest.mark.parametrize("size", [1, 4, 16])
    def test_mixture_draws_equal_generator_choice(self, size):
        for seed in range(100):
            p = np.random.default_rng(seed + 1000).dirichlet(np.ones(size))
            by_choice = np.random.default_rng(seed)
            by_cdf = np.random.default_rng(seed)
            expected = by_choice.choice(size, size=40, p=p)
            observed = _choice_cdf(p).searchsorted(by_cdf.random(40), side="right")
            assert np.array_equal(observed, expected)
            assert by_cdf.bit_generator.state == by_choice.bit_generator.state

    @pytest.mark.parametrize("cap", [1 << 21, 8], ids=["one-block", "block-per-shot"])
    def test_terminal_draws_equal_per_trajectory_generator_choice(self, cap):
        circuit = Circuit(3, 3).measure(0, 0).measure(1, 1).measure(2, 2)
        plan = _compile_trajectory_plan(circuit, None)
        shots_per = np.array([3, 3, 2, 2, 2])
        bits = np.zeros((5, 3), dtype=np.uint8)
        for seed in range(50):
            batch = _random_batch(np.random.default_rng(seed + 2000), 5, 3).reshape(5, -1)
            probabilities = np.abs(batch) ** 2
            probabilities /= probabilities.sum(axis=1)[:, None]
            by_choice = np.random.default_rng(seed)
            expected = np.concatenate(
                [by_choice.choice(8, size=n, p=probabilities[t]) for t, n in enumerate(shots_per)]
            )
            simulator = StatevectorSimulator(seed=seed, max_batch_elements=cap)
            samples, _rows = simulator._sample_terminal(plan, batch, bits, shots_per)
            assert np.array_equal(samples, expected)
            assert simulator._rng.bit_generator.state == by_choice.bit_generator.state

    @pytest.mark.parametrize(
        "row",
        [[0.5, np.nan, 0.5], [1.2, -0.2, 0.0], [0.5, 0.25, 0.2]],
        ids=["nan", "negative", "short-sum"],
    )
    def test_rejects_what_choice_rejects(self, row):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(3, p=row)
        with pytest.raises(SimulationError):
            _choice_cdf(np.array([[1.0, 0.0, 0.0], row]))

    def test_terminal_sampler_checks_each_row(self):
        plan = _compile_trajectory_plan(Circuit(1, 1).h(0).measure(0, 0), None)
        batch = np.array([[1.0, 0.0], [np.nan, 0.0]], dtype=complex)
        bits = np.zeros((2, 1), dtype=np.uint8)
        simulator = StatevectorSimulator(seed=0)
        with pytest.raises(SimulationError):
            simulator._sample_terminal(plan, batch, bits, np.array([2, 2]))


class _FixedDraws:
    """Returns the given uniforms for a ``random(size)`` call and logs the sizes."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=float)
        self.sizes = []

    def random(self, size=None):
        self.sizes.append(size)
        assert size == len(self.draws)
        return self.draws.copy()


def _bits(array):
    """The array's float bits, with -0.0 folded into 0.0."""
    floats = np.ascontiguousarray(array).reshape(-1).view(np.float64) + 0.0
    return floats.view(np.uint64)


def _scaled_batch(rng, size, num_qubits):
    """Random states of random norm and phase: the step normalises, the rounding varies."""
    batch = _random_batch(rng, size, num_qubits).reshape(size, -1)
    batch *= (rng.uniform(0.5, 2.0, size) * np.exp(2j * np.pi * rng.random(size)))[:, None]
    return batch.reshape((size,) + (2,) * num_qubits)


def _assert_same_step(channel, qubits, num_qubits, batch, draws):
    """The step and the whole-batch oracle: same draws taken, same output bytes."""
    step = _channel_step(channel, qubits)
    oracle_draws = _FixedDraws(draws)
    expected = apply_channel_batch_reference(batch.copy(), step, num_qubits, oracle_draws)
    simulator = StatevectorSimulator(seed=0)
    simulator._rng = _FixedDraws(draws)
    observed = simulator._apply_channel_batch(batch.copy(order="K"), step, num_qubits)
    assert simulator._rng.sizes == oracle_draws.sizes
    assert observed.shape == batch.shape
    assert np.array_equal(_bits(observed), _bits(expected)), (channel.name, qubits)


def _phased_channel(rng):
    """A diagonal K_0 with complex entries, and dense remaining operators."""
    k0 = np.diag(np.sqrt([0.97, 0.9]) * np.exp(2j * np.pi * rng.random(2)))
    values, vectors = np.linalg.eigh(np.eye(2) - k0.conj().T @ k0)
    rest = vectors @ np.diag(np.sqrt(np.maximum(values, 0.0))) @ vectors.conj().T
    mixer = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    return KrausChannel((k0, mixer @ rest / np.sqrt(2), 1j * rest / np.sqrt(2)))


#: Widths of the parity cases, and the trajectory counts of each.
WIDTHS = [1, 2, 3, 4, 5, 6, 7, 8, 12]
ROWS = [1, 7, 40]


class TestWholeBatchParity:
    @pytest.mark.parametrize("size", ROWS)
    @pytest.mark.parametrize("num_qubits", WIDTHS)
    def test_general_channels(self, num_qubits, size):
        """No row, one row and every row past the no-jump bound, on channels
        with a diagonal K_0 and on a dense one, where every row jumps."""
        rng = np.random.default_rng(100 * num_qubits + size)
        qubit = (num_qubits - 1) // 2
        channels = [
            thermal_relaxation_channel(30.0, 25.0, 4.0),
            amplitude_damping_channel(0.4),
            phase_damping_channel(0.3),
            _phased_channel(rng),
            _random_channel(rng, 1),
        ]
        if num_qubits >= 2:
            channels.append(_random_channel(rng, 2))
        for channel in channels:
            qubits = (qubit,) if channel.num_qubits == 1 else (num_qubits - 1, 0)
            prepared = _channel_step(channel, qubits).prepared
            bound = prepared.no_jump_bound(num_qubits)
            k0 = channel.kraus_operators[0]
            if not np.array_equal(k0, np.diag(np.diag(k0))):
                assert prepared.no_jump == 0.0 and bound < 0.0  # every row jumps
            within = rng.uniform(0.0, max(bound, 0.0), size)
            past = rng.uniform(max(bound, 0.0), 1.0, size)
            one = within.copy()
            one[size // 2] = past[0]
            for draws in (within, one, past):
                batch = _scaled_batch(rng, size, num_qubits)
                _assert_same_step(channel, qubits, num_qubits, batch, draws)

    @pytest.mark.parametrize("size", ROWS)
    @pytest.mark.parametrize("num_qubits", WIDTHS)
    def test_unitary_mixtures(self, num_qubits, size):
        """One- and two-qubit depolarizing with no row, one row and every row
        moved, and a one-branch mixture that moves every row without a draw."""
        rng = np.random.default_rng(200 * num_qubits + size)
        channels = [depolarizing_channel(0.3), KrausChannel((np.array([[0, 1], [1, 0]]),))]
        if num_qubits >= 2:
            channels.append(two_qubit_depolarizing_channel(0.4))
        for channel in channels:
            k = channel.num_qubits
            qubits = ((num_qubits - 1) // 2,) if k == 1 else (num_qubits - 1, 0)
            cdf = _channel_step(channel, qubits).prepared.cdf
            draws = rng.uniform(0.0, cdf[0], size)
            one = draws.copy()
            one[size // 2] = rng.uniform(cdf[0], 1.0)
            moved = rng.uniform(cdf[0], 1.0, size)
            for pattern in (draws, one, moved):
                batch = _scaled_batch(rng, size, num_qubits)
                _assert_same_step(channel, qubits, num_qubits, batch, pattern)

    @pytest.mark.parametrize("num_qubits", [1, 4, 12])
    def test_draws_on_the_bound(self, num_qubits):
        """States wholly on K_0's smallest diagonal entry, where the exact share
        of branch 0 is the bound itself: draws at the width's bound (taken as
        no jump), at the exact share and an ulp either side (rounding decides)."""
        rng = np.random.default_rng(300 + num_qubits)
        size = 40
        for channel in (
            thermal_relaxation_channel(30.0, 25.0, 4.0),
            amplitude_damping_channel(0.4),
            thermal_relaxation_channel(30.0, 20.0, 9.0),
        ):
            qubits = (num_qubits // 2,)
            prepared = _channel_step(channel, qubits).prepared
            bound = prepared.no_jump_bound(num_qubits)
            exact = prepared.no_jump
            for draw in (bound, np.nextafter(exact, 0.0), exact, np.nextafter(exact, 1.0)):
                batch = _scaled_batch(rng, size, num_qubits).reshape(size, -1)
                low = (np.arange(batch.shape[1]) >> qubits[0]) & 1 == 0
                batch[:, low] = 0.0  # all weight where K_0 is smallest: |1> on the qubit
                batch = batch.reshape((size,) + (2,) * num_qubits)
                _assert_same_step(channel, qubits, num_qubits, batch, np.full(size, draw))

    @pytest.mark.parametrize(
        "channel,draw",
        [
            (thermal_relaxation_channel(30.0, 20.0, 5.0), np.nextafter(1.0, 0.0)),
            (amplitude_damping_channel(1.0), 0.0),
            (amplitude_damping_channel(1.0), np.nextafter(1.0, 0.0)),
            (thermal_relaxation_channel(30.0, 20.0, 5.0), 0.0),
        ],
        ids=["thermal-top", "full-damping-zero", "full-damping-top", "thermal-zero"],
    )
    def test_stuck_edge_draws(self, channel, draw):
        """The extreme draws of ``_StuckGenerator``, on states with rows in |1>."""
        rng = np.random.default_rng(17)
        states = _random_batch(rng, 64, 1)
        states[:8] = [0.0, 1.0]
        step = _channel_step(channel, (0,))
        simulator = StatevectorSimulator(seed=0)
        simulator._rng = _StuckGenerator(draw)
        observed = simulator._apply_channel_batch(states.copy(), step, 1)
        expected = apply_channel_batch_reference(states.copy(), step, 1, _StuckGenerator(draw))
        assert np.array_equal(_bits(observed), _bits(expected))

    def test_rows_are_written_through_a_non_contiguous_batch(self):
        """A batch whose rows do not flatten to a view is copied once, so the
        rows written are the ones returned."""
        rng = np.random.default_rng(29)
        batch = np.swapaxes(_scaled_batch(rng, 40, 5), 1, 3)
        copied = batch.copy(order="K")  # what the step is given: the same layout
        assert not np.shares_memory(copied.reshape(40, -1), copied)
        draws = np.full(40, 0.5)
        draws[3] = 0.999
        _assert_same_step(thermal_relaxation_channel(30.0, 25.0, 4.0), (2,), 5, batch, draws)
        _assert_same_step(depolarizing_channel(0.3), (2,), 5, batch, np.r_[draws[:-1], 0.99])
