"""Workload definitions, sweep passes and output checks.

A workload is one scenario sweep driven through the public
``repro.suite.runner.run_scenario`` API.  :meth:`Runner.run_pass` executes
it once and :func:`check_pass` verifies every planned unit's outcome, so
each timed pass is also a correctness check.
"""

from __future__ import annotations

import hashlib
import math
import resource
import shutil
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.devices import device_names, get_device
from repro.store import ResultStore
from repro.suite import Scenario, Sweep, figure2_scenario, mitigated_scenario
from repro.suite.registry import BenchmarkRegistry, get_registry
from repro.suite.runner import run_scenario

#: Families whose mid-circuit measurements ZNE folding cannot handle.
ZNE_INCOMPATIBLE = frozenset({"bit_code", "phase_code"})
MITIGATED_DEVICES = ("IBM-Casablanca-7Q", "IBM-Toronto-27Q", "IonQ-11Q")
#: Execution settings shared by every workload.
SHOTS = 250
REPETITIONS = 2
TRAJECTORIES = 40


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a scenario plus the knobs it runs with.

    ``fresh_store`` gives every pass a new file-backed store, so every unit
    misses and writes; otherwise no store is used.  ``pass_seconds`` sets
    the work in a run: a budget of ``s`` seconds makes
    ``round(s / pass_seconds)`` passes, a count that does not depend on how
    fast the code under test is (a faster commit must not be charged for the
    history of extra passes).  On the process path that history has a cliff:
    once the program's 100,000-span ring buffer is full, every recorded span
    shifts the whole buffer, and passes there take minutes.  The
    mitigated-process pass time is set so that a run stays below it.
    """

    name: str
    scenario: Scenario
    pass_seconds: float
    executor: str = "thread"
    fresh_store: bool = False

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_seconds))

    @property
    def devices(self) -> Tuple[str, ...]:
        return self.scenario.devices or tuple(device_names())


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "fig2-thread-cold", figure2_scenario(small=True), pass_seconds=6.5, fresh_store=True,
        ),
        Workload(
            "mitigated-process",
            mitigated_scenario(small=True, devices=MITIGATED_DEVICES),
            pass_seconds=7.5,
            executor="process",
        ),
    )
}


def fresh_registry() -> BenchmarkRegistry:
    """A registry with every family but no memoized instances.

    Each pass builds its benchmarks from scratch, as a new process would;
    the default registry stays empty, so forked pool workers inherit no
    built benchmarks either.
    """
    registry = BenchmarkRegistry()
    default = get_registry()
    for family in default.families():
        registry.register(family)(default.family(family))
    return registry


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ---------------------------------------------------------------------------
# expected outcomes
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Plan:
    """Every unit a pass must produce and the status each must have."""

    expected: Dict[str, str]  # unit key -> "ok" | "skipped"
    specs: int  # distinct benchmark specs


def plan_for(workload: Workload) -> Plan:
    """Expected statuses: oversized circuits and ZNE on the codes skip."""
    scenario = workload.scenario
    registry = fresh_registry()
    widths: Dict[str, int] = {}
    expected: Dict[str, str] = {}
    for unit in scenario.expand():
        spec_key = unit.spec.key()
        if spec_key not in widths:
            widths[spec_key] = unit.spec.build(registry).num_qubits()
        oversized = widths[spec_key] > get_device(unit.engine.device).num_qubits
        incompatible = unit.mitigation_label == "zne" and unit.spec.family in ZNE_INCOMPATIBLE
        expected[unit.key()] = "skipped" if oversized or incompatible else "ok"
    return Plan(expected=expected, specs=len(widths))


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------
@dataclass
class PassResult:
    wall: float
    cpu: float
    result: object  # SuiteResult
    streamed: Counter  # unit key -> outcomes streamed for it


class Runner:
    """Runs passes of one workload at one seed inside a scratch directory."""

    def __init__(self, workload: Workload, seed: int, scratch: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self._passes = 0

    def _sweep(self, store: Optional[ResultStore], streamed: Counter):
        def count(outcome) -> None:
            streamed[outcome.key] += 1

        return run_scenario(
            self.workload.scenario,
            shots=SHOTS,
            repetitions=REPETITIONS,
            seed=self.seed,
            trajectories=TRAJECTORIES,
            max_workers=1,
            registry=fresh_registry(),
            on_outcome=count,
            store=store,
            executor=self.workload.executor,
            processes=2,
        )

    def run_pass(self) -> PassResult:
        self._passes += 1
        path = self.scratch / f"pass-{self._passes}.db"
        streamed: Counter = Counter()
        cpu0 = cpu_seconds()
        started = time.perf_counter()
        if self.workload.fresh_store:
            with ResultStore(path) as store:
                result = self._sweep(store, streamed)
        else:
            result = self._sweep(None, streamed)
        wall = time.perf_counter() - started
        cpu = cpu_seconds() - cpu0
        for leftover in self.scratch.glob(f"{path.name}*"):
            leftover.unlink()
        return PassResult(wall, cpu, result, streamed)

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def warm_up(devices: Tuple[str, ...]) -> None:
    """Device and noise-model warm-up: a tiny sweep on every device."""
    scenario = Scenario(
        name="warmup", sweeps=(Sweep.of("ghz", num_qubits=(3,)),), devices=devices
    )
    run_scenario(
        scenario, shots=16, repetitions=1, seed=0, trajectories=4,
        registry=fresh_registry(),
    )


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------
def scores_of(outcome) -> Tuple[float, ...]:
    return tuple(outcome.run.scores) if outcome.run is not None else ()


def unit_scores(result) -> Dict[str, Tuple[float, ...]]:
    """Per-unit scores (empty tuple for skips)."""
    return {outcome.key: scores_of(outcome) for outcome in result.outcomes()}


def digest(scores: Dict[str, Tuple[float, ...]]) -> str:
    """Order-independent fingerprint of every unit's exact scores."""
    hasher = hashlib.sha256()
    for key in sorted(scores):
        hasher.update(f"{key}={[float(s).hex() for s in scores[key]]}\n".encode())
    return hasher.hexdigest()[:16]


def check_pass(
    plan: Plan, done: PassResult, reference: Optional[Dict[str, Tuple[float, ...]]]
) -> List[str]:
    """Check one pass; returns one description per failed unit.

    A unit fails when it streamed no outcome or more than one, has an
    unexpected status, has a score that is not finite or outside [0, 1], or
    (given a reference pass) has scores that are not bit-identical to the
    reference.
    """
    failures = [f"unplanned outcome {key}" for key in done.streamed if key not in plan.expected]
    by_key = {outcome.key: outcome for outcome in done.result.outcomes()}
    for key, status in plan.expected.items():
        outcome = by_key.get(key)
        if outcome is None or done.streamed[key] != 1:
            failures.append(f"{key}: {done.streamed[key]} outcomes")
        elif outcome.status != status:
            failures.append(f"{key}: status {outcome.status}, expected {status}")
        elif status == "ok" and not all(
            math.isfinite(s) and 0.0 <= s <= 1.0
            for s in (*outcome.run.scores, outcome.run.mean_score)
        ):
            failures.append(f"{key}: score out of range {outcome.run.scores}")
        elif reference is not None and reference.get(key) != scores_of(outcome):
            failures.append(f"{key}: scores differ from the reference pass")
    return failures
