"""The repository's standard sweeps and scenarios, as data.

Everything the seed code hard-coded as Python instance lists —
``figure2_benchmarks``, ``scaling_suite``, the Fig. 1 representative
instances — is defined here once as registry-driven sweep definitions.
``repro.benchmarks.suite`` and the experiment drivers are thin wrappers over
these, so the historical duplication between the Fig. 2 lists, the coverage
suite and the experiment loops is gone: adding a benchmark size (or a whole
family) means editing one declaration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .spec import BenchmarkSpec
from .sweep import Scenario, Sweep

__all__ = [
    "FIGURE2_FULL_SWEEPS",
    "FIGURE2_SMALL_SWEEPS",
    "FIGURE1_SPECS",
    "NAMED_SCENARIOS",
    "SCALING_SIZES",
    "SCALING_RULES",
    "figure2_sweeps",
    "figure2_specs",
    "figure2_scenario",
    "mitigated_scenario",
    "scaling_specs",
]

# ---------------------------------------------------------------------------
# Figure 2 — the paper's per-subfigure instance lists (Section IV)
# ---------------------------------------------------------------------------

#: The exact instances evaluated in Fig. 2 of the paper, one sweep per
#: subfigure, in the paper's family order.  Grid expansion is last-axis
#: fastest, matching the published instance ordering.
FIGURE2_FULL_SWEEPS: Tuple[Sweep, ...] = (
    Sweep.of("ghz", num_qubits=(3, 5, 7, 11)),
    Sweep.of("mermin_bell", num_qubits=(3, 4)),
    Sweep.of("bit_code", num_data_qubits=(3, 5), num_rounds=(2, 3)),
    Sweep.of("phase_code", num_data_qubits=(3, 5), num_rounds=(2, 3)),
    Sweep.of("vqe", num_qubits=(4, 7), num_layers=(1, 2)),
    Sweep.of("hamiltonian_simulation", num_qubits=(4, 7, 11), steps=(1, 3)),
    Sweep.of("zzswap_qaoa", num_qubits=(4, 5, 7, 11)),
    Sweep.of("vanilla_qaoa", num_qubits=(4, 5, 7, 11)),
)

#: Reduced set (smallest one or two instances per family) keeping the full
#: cross-platform sweep fast enough for continuous testing.
FIGURE2_SMALL_SWEEPS: Tuple[Sweep, ...] = (
    Sweep.of("ghz", num_qubits=(3, 5)),
    Sweep.of("mermin_bell", num_qubits=(3,)),
    Sweep.of("bit_code", num_data_qubits=(3,), num_rounds=(2,)),
    Sweep.of("phase_code", num_data_qubits=(3,), num_rounds=(2,)),
    Sweep.of("vqe", num_qubits=(4,), num_layers=(1,)),
    Sweep.of("hamiltonian_simulation", num_qubits=(4,), steps=(1,)),
    Sweep.of("zzswap_qaoa", num_qubits=(4,)),
    Sweep.of("vanilla_qaoa", num_qubits=(4,)),
)


def figure2_sweeps(
    small: bool = False, families: Optional[Sequence[str]] = None
) -> Tuple[Sweep, ...]:
    """The Fig. 2 sweep definitions, optionally restricted to some families.

    Args:
        small: Use the reduced instance set.
        families: Keep only these families, **in the given order** (matching
            the historical ``figure2_benchmarks`` filtering semantics).

    Raises:
        UnknownBenchmarkError: when ``families`` names an unknown family.
    """
    sweeps = FIGURE2_SMALL_SWEEPS if small else FIGURE2_FULL_SWEEPS
    if families is None:
        return sweeps
    by_family = {sweep.family: sweep for sweep in sweeps}
    from ..exceptions import unknown_benchmark

    selected = []
    for family in families:
        if family not in by_family:
            raise unknown_benchmark(family, by_family)
        selected.append(by_family[family])
    return tuple(selected)


def figure2_specs(small: bool = False) -> List[BenchmarkSpec]:
    """The Fig. 2 instances as a flat spec list, in paper order."""
    return [spec for sweep in figure2_sweeps(small) for spec in sweep.specs()]


def figure2_scenario(
    small: bool = True,
    devices: Optional[Sequence[str]] = None,
    families: Optional[Sequence[str]] = None,
    optimization_level: int = 1,
    placement: str = "noise_aware",
    backend: Optional[str] = None,
) -> Scenario:
    """The Fig. 2 benchmark sweep as a declarative scenario."""
    return Scenario(
        name="figure2",
        sweeps=figure2_sweeps(small=small, families=families),
        devices=tuple(devices) if devices else (),
        backends=(backend,),
        optimization_levels=(optimization_level,),
        placements=(placement,),
    )


def mitigated_scenario(
    techniques: Sequence[Any] = ("raw", "readout", "zne"),
    small: bool = True,
    devices: Optional[Sequence[str]] = None,
    families: Optional[Sequence[str]] = None,
    optimization_level: int = 1,
    placement: str = "noise_aware",
    backend: Optional[str] = None,
) -> Scenario:
    """The Fig. 2 sweep crossed with a mitigation-technique axis."""
    return Scenario(
        name="mitigated_scores",
        sweeps=figure2_sweeps(small=small, families=families),
        devices=tuple(devices) if devices else (),
        mitigations=tuple(techniques),
        backends=(backend,),
        optimization_levels=(optimization_level,),
        placements=(placement,),
    )


#: The scenario factories ``repro run`` and ``POST /scenarios`` name.
NAMED_SCENARIOS: Dict[str, Callable[..., Scenario]] = {
    "figure2": figure2_scenario,
    "mitigated": mitigated_scenario,
    "mitigated_scores": mitigated_scenario,
}


# ---------------------------------------------------------------------------
# Figure 1 — representative instances for the feature maps
# ---------------------------------------------------------------------------

#: Instances matching the sample circuits shown in Fig. 1 of the paper.
FIGURE1_SPECS: Tuple[BenchmarkSpec, ...] = (
    BenchmarkSpec.make("ghz", num_qubits=3),
    BenchmarkSpec.make("mermin_bell", num_qubits=3),
    BenchmarkSpec.make("phase_code", num_data_qubits=3, num_rounds=1),
    BenchmarkSpec.make("bit_code", num_data_qubits=3, num_rounds=1),
    BenchmarkSpec.make("zzswap_qaoa", num_qubits=4),
    BenchmarkSpec.make("vanilla_qaoa", num_qubits=3),
    BenchmarkSpec.make("vqe", num_qubits=4, num_layers=1),
    BenchmarkSpec.make("hamiltonian_simulation", num_qubits=4, steps=1),
)


# ---------------------------------------------------------------------------
# Scaling suite — NISQ to early-FT coverage instances (Table I)
# ---------------------------------------------------------------------------

#: The qubit sizes the coverage analysis sweeps (NISQ up to early-FT).
SCALING_SIZES: Tuple[int, ...] = (3, 5, 7, 11, 16, 27, 50, 100, 250, 500, 1000)


@dataclass(frozen=True)
class ScalingRule:
    """How one family scales with the suite's nominal size parameter.

    Attributes:
        family: Registered benchmark family name.
        params: Maps the nominal size to the family's constructor params.
        max_size: Families whose construction involves classical
            pre-optimisation are only instantiated up to this size, keeping
            suite construction cheap at the very large sizes.
    """

    family: str
    params: Callable[[int], Dict[str, Any]]
    max_size: Optional[int] = None

    def spec(self, size: int) -> Optional[BenchmarkSpec]:
        if self.max_size is not None and size > self.max_size:
            return None
        return BenchmarkSpec.make(self.family, **self.params(size))


#: Per-size family rules, in the historical ``scaling_suite`` emission order.
SCALING_RULES: Tuple[ScalingRule, ...] = (
    ScalingRule("ghz", lambda size: {"num_qubits": max(size, 2)}),
    ScalingRule(
        "bit_code",
        lambda size: {"num_data_qubits": max((size + 1) // 2, 2), "num_rounds": 2},
    ),
    ScalingRule(
        "phase_code",
        lambda size: {"num_data_qubits": max((size + 1) // 2, 2), "num_rounds": 2},
    ),
    ScalingRule("hamiltonian_simulation", lambda size: {"num_qubits": max(size, 2), "steps": 1}),
    ScalingRule("mermin_bell", lambda size: {"num_qubits": max(size, 3)}, max_size=7),
    ScalingRule("vqe", lambda size: {"num_qubits": max(size, 2), "num_layers": 1}, max_size=12),
    ScalingRule("vanilla_qaoa", lambda size: {"num_qubits": max(size, 3)}, max_size=12),
    ScalingRule("zzswap_qaoa", lambda size: {"num_qubits": max(size, 3)}, max_size=12),
)


def scaling_specs(sizes: Sequence[int] = SCALING_SIZES) -> List[BenchmarkSpec]:
    """Benchmark specs spanning NISQ to early-FT sizes for coverage analysis.

    The expansion iterates sizes in the outer loop and the family rules in
    the inner loop, reproducing the historical ``scaling_suite`` instance
    list exactly (asserted byte-for-byte by the parity tests).
    """
    specs: List[BenchmarkSpec] = []
    for size in sizes:
        for rule in SCALING_RULES:
            spec = rule.spec(size)
            if spec is not None:
                specs.append(spec)
    return specs
