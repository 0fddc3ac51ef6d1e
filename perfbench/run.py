"""End-to-end and per-layer benchmark of scenario sweeps.

Run from the repository root::

    python3 perfbench/run.py --workload fig2-thread-cold --seed 1234 --seconds 36 --trace 0

Workloads are defined in ``workloads.py``; their rationale and the mapping
from per-layer to end-to-end metrics are in ``ledger.json``.

With ``--trace 0`` the run sets up, then makes the untraced sweep passes
that ``--seconds`` buys at the workload's nominal pass time and reports the
end-to-end metrics.  With ``--trace 1`` it spends half the passes untraced
and half traced, with the per-layer wrappers of ``layers.py`` installed, and
reports the per-layer metrics (means over traced passes).  Every pass is
checked; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

The program runs as users run it: its tracer keeps its default state
(enabled), so the span ring buffer and the metric registry accumulate
history over the passes of a run; every pass counts in the figures, which
keeps the cost of that history in view.

The host's speed drifts by up to 1.5x over minutes, so a whole run can
land in a slow stretch.  Before the first pass and after every pass the
run times a fixed reference kernel (``reference.py``) that does not use
the program; each pass gets a host factor, the mean of the probes around
it over the reference host's probe time, and the run's host factor is
their mean.  The declared time metrics are at the reference host's speed:
``ref_wall_s`` and ``ref_cpu_s`` are the mean pass over the run's host
factor, ``ref_units_per_s`` is scored units over ``ref_wall_s``, and
``setup_s`` is the median set-up over the run's host factor.  The measured
figures (``wall_s``, ``units_per_s`` and ``cpu_s`` from the median pass,
``raw_setup_s``) and the host factor are printed alongside.

Set-up is a fresh interpreter that imports the program and runs the device
and noise-model warm-up sweep, timed from outside.  A run starts ``SETUPS``
interpreters, spread between the passes so that they meet the same phases
of the host's speed as the passes.  The interpreters are reaped only after
``peak_rss_mb`` is read, so they do not count in it.

The launcher pins numpy's BLAS to one thread before numpy is imported: the
thread budget is one generating process with one engine worker thread, plus
at most two pool processes on the process path.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh-interpreter set-ups per run.
SETUPS = 5
ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1234


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--warm-up-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def per_layer_units() -> Dict[str, str]:
    """The per-layer metrics BENCHMARK.json declares (name -> unit)."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in declared["per_layer"]}


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads_in_use() -> Optional[int]:
    """Thread count reported by the loaded OpenBLAS, when it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        if (ROOT / ".git" / ref).is_file():
            return (ROOT / ".git" / ref).read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(processes: int) -> Dict[str, object]:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": _blas_threads_in_use(),
        "processes": processes,
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for variable in BLAS_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    warnings.filterwarnings("ignore", message="skipping")

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.warm_up_only:
        workloads.warm_up(workload.devices)
        return 0

    scratch = ROOT / ".perfbench_tmp" / f"{workload.name}-{os.getpid()}"
    scratch.mkdir(parents=True)
    runner = workloads.Runner(workload, args.seed, scratch)
    try:
        return _run(args, workload, runner)
    finally:
        runner.close()
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _fresh_warm_up(workload_name: str) -> Tuple[float, subprocess.Popen]:
    """Wall time of a fresh interpreter importing the program and warming up.

    The interpreter is left unreaped, so that its memory does not count in
    ``peak_rss_mb`` until the caller reaps it with ``wait()``.
    """
    started = time.perf_counter()
    interpreter = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
         "--warm-up-only"],
        cwd=ROOT,
    )
    os.waitid(os.P_PID, interpreter.pid, os.WEXITED | os.WNOWAIT)
    return time.perf_counter() - started, interpreter


def _run(args, workload, runner) -> int:
    # Not imported at module level: numpy must load after main() pins BLAS.
    import reference
    import workloads
    from repro.telemetry import get_tracer

    plan = workloads.plan_for(workload)
    units = len(plan.expected)
    failures: List[str] = []
    attempted = 0
    first_scores = None
    digests = set()

    def check(done) -> None:
        nonlocal attempted, first_scores
        attempted += units
        failures.extend(workloads.check_pass(plan, done, first_scores))
        scores = workloads.unit_scores(done.result)
        digests.add(workloads.digest(scores))
        if first_scores is None:
            first_scores = scores

    workloads.warm_up(workload.devices)

    budget = args.seconds / 2 if args.trace else args.seconds
    passes = workload.passes(budget)
    walls: List[float] = []
    cpus: List[float] = []
    probes = [reference.probe()]
    interpreters: List[Tuple[float, subprocess.Popen]] = []
    for index in range(passes):
        # Set-up k runs before pass k * passes // SETUPS: spread over the
        # run, the set-ups meet the same phases of the host's speed as the
        # passes.
        while len(interpreters) < SETUPS and len(interpreters) * passes < (index + 1) * SETUPS:
            interpreters.append(_fresh_warm_up(workload.name))
        done = runner.run_pass()
        probes.append(reference.probe())
        check(done)
        walls.append(done.wall)
        cpus.append(done.cpu)
    wall_s = statistics.median(walls)
    cpu_s = statistics.median(cpus)
    host = statistics.fmean(reference.host_factors(probes))
    peak_rss_mb = workloads.peak_rss_mb()
    for _, interpreter in interpreters:
        if interpreter.wait() != 0:
            raise RuntimeError(f"set-up interpreter exited with {interpreter.returncode}")
    setups = [seconds for seconds, _ in interpreters]
    ref_wall_s = statistics.fmean(walls) / host

    per_layer: Dict[str, float] = {}
    units_of = per_layer_units()
    if args.trace:
        per_layer, traced_ref_wall_s = _traced(
            runner, get_tracer(), plan, check, passes, units_of,
        )
        per_layer["trace.overhead_frac"] = traced_ref_wall_s / ref_wall_s - 1.0

    ok_units = sum(status == "ok" for status in plan.expected.values())
    end_to_end = {
        "ref_wall_s": (ref_wall_s, "s"),
        "ref_units_per_s": (ok_units / ref_wall_s, "1/s"),
        "ref_cpu_s": (statistics.fmean(cpus) / host, "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "setup_s": (statistics.median(setups) / host, "s"),
    }

    failed = len(failures)
    measured = {
        "wall_s": (wall_s, "s"),
        "units_per_s": (ok_units / wall_s, "1/s"),
        "cpu_s": (cpu_s, "s"),
        "raw_setup_s": (statistics.median(setups), "s"),
        "failed_frac": (failed / attempted, "ratio"),
        "host_factor": (host, "ratio"),
    }
    print(f"machine {json.dumps(machine(3 if workload.executor == 'process' else 1))}")
    print(f"workload {workload.name} seed {args.seed}: {len(walls)} untraced passes, "
          f"{units} units per pass ({ok_units} scored)")
    for name, (value, unit) in {**measured, **end_to_end}.items():
        print(f"  {name:<16} {value:.6g} {unit}")
    print(f"  score_digest     {' '.join(sorted(digests))}")
    print(f"  setups           {json.dumps([round(s, 6) for s in setups])}")
    print(f"  pass_walls       {json.dumps([round(w, 6) for w in walls])}")
    print(f"  probes           {json.dumps([round(p, 6) for p in probes])}")
    for problem in failures[:20]:
        print(f"  FAILED {problem}")
    if args.trace:
        for name, value in per_layer.items():
            print(f"  {name:<32} {value:.6g} {units_of[name]}")
        metrics = {name: {"value": value, "unit": units_of[name]}
                   for name, value in per_layer.items()}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _traced(runner, tracer, plan, check, count: int, units_of: Dict[str, str]):
    """Traced passes: per-layer metrics averaged over passes, and the mean
    traced pass at the reference host's speed.

    The program's tracer is left as it is; each pass reads only the spans
    it added to the ring buffer.
    """
    import layers
    import reference

    names = [name for name in units_of if name != "trace.overhead_frac"]
    samples: List[Dict[str, float]] = []
    walls: List[float] = []
    probes = [reference.probe()]
    with layers.Instrumentation() as instrumentation:
        for _ in range(count):
            instrumentation.timers.reset()
            kept, dropped = len(tracer.finished()), tracer.dropped
            done = runner.run_pass()
            spans = tracer.finished()
            first_new = kept - (tracer.dropped - dropped)
            if first_new < 0:
                raise RuntimeError("the span ring buffer dropped spans of the traced pass")
            probes.append(reference.probe())
            check(done)
            walls.append(done.wall)
            samples.append(layers.layer_metrics(
                instrumentation.timers, spans[first_new:], done.result.engine_stats,
                done.wall, len(plan.expected), plan.specs, names,
            ))
    metrics = {name: statistics.fmean(sample[name] for sample in samples) for name in names}
    return metrics, statistics.fmean(walls) / statistics.fmean(reference.host_factors(probes))


if __name__ == "__main__":
    sys.exit(main())
