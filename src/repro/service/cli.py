"""The ``repro`` command-line entry point: ``serve`` / ``run`` / ``query``.

Installed as a console script (``[project.scripts]`` in pyproject) and
runnable without installation via ``python -m repro.service.cli``.

* ``repro serve``  — start the HTTP benchmark service over a store file.
* ``repro run``    — execute a named scenario through the store (warm runs
  are answered from cache with zero backend executions) and print scores.
* ``repro query``  — inspect stored results: filter by family / device /
  mitigation / scenario, as a table or NDJSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional

from ..store import ResultStore

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SupermarQ reproduction benchmark service: serve, run and "
        "query content-addressed benchmark results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="start the HTTP benchmark service")
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    serve.add_argument("--port", type=int, default=8736, help="bind port (default: %(default)s)")
    serve.add_argument(
        "--store", default="results.sqlite",
        help="result-store sqlite file (default: %(default)s; ':memory:' for ephemeral)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="job-queue worker threads (default: %(default)s)"
    )

    run = sub.add_parser("run", help="run a scenario through the result store")
    run.add_argument(
        "scenario", choices=("figure2", "mitigated"), help="named scenario to execute"
    )
    run.add_argument("--store", default=None, help="result-store sqlite file (default: no store)")
    run.add_argument("--devices", nargs="*", default=None, help="device names (default: all)")
    run.add_argument("--families", nargs="*", default=None, help="benchmark families")
    run.add_argument("--full", action="store_true", help="full paper instance set (default: small)")
    run.add_argument("--shots", type=int, default=250)
    run.add_argument("--repetitions", type=int, default=2)
    run.add_argument("--seed", type=int, default=1234)
    run.add_argument("--trajectories", type=int, default=40)
    run.add_argument("--max-workers", type=int, default=1, dest="max_workers")
    run.add_argument(
        "--processes", type=int, default=None, metavar="N",
        help="run the sweep on N worker processes via the leased-shard "
        "scheduler (breaks the GIL ceiling; scores are bit-identical to the "
        "default threaded path)",
    )
    run.add_argument("--save", default=None, help="persist the SuiteResult JSON to this path")
    run.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a trace of the run and write it as Chrome trace-event "
        "JSON (open in Perfetto or chrome://tracing); multi-process runs "
        "merge worker spans into the same file",
    )

    query = sub.add_parser("query", help="inspect stored benchmark results")
    query.add_argument("--store", default="results.sqlite", help="result-store sqlite file")
    query.add_argument("--scenario", default=None)
    query.add_argument("--family", default=None)
    query.add_argument("--device", default=None)
    query.add_argument("--mitigation", default=None)
    query.add_argument(
        "--kind", default="outcome", choices=("outcome", "run"), help="row kind to list"
    )
    query.add_argument("--limit", type=int, default=50)
    query.add_argument("--json", action="store_true", help="emit NDJSON instead of a table")
    query.add_argument("--stats", action="store_true", help="also print store counters")
    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------
def _cmd_serve(args: argparse.Namespace) -> int:
    from .http import BenchmarkService

    store = ResultStore(args.store)
    service = BenchmarkService(
        store=store, host=args.host, port=args.port, workers=args.workers
    )
    host, port = service.address
    print(f"repro service on http://{host}:{port} (store: {args.store})", flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        service.shutdown()
        store.close()
    return 0


def _emit_startup_span(tracer) -> None:
    """Record import and warm-up, up to the start of the sweep, as ``cli.startup``."""
    from .. import _IMPORT_CLOCKS

    wall, monotonic, cpu = _IMPORT_CLOCKS
    tracer.emit(
        "cli.startup",
        time.perf_counter() - monotonic,
        cpu=time.process_time() - cpu,
        start=wall,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from ..experiments import reproduce_figure2_result, reproduce_mitigated_scores_result
    from ..experiments.figure2 import render_figure2

    driver = (
        reproduce_figure2_result if args.scenario == "figure2"
        else reproduce_mitigated_scores_result
    )
    tracer = None
    if args.trace:
        from ..telemetry import configure_tracing

        tracer = configure_tracing(enabled=True, seed=args.seed)
    store = ResultStore(args.store) if args.store else None
    try:
        if tracer is not None:
            _emit_startup_span(tracer)
        result = driver(
            devices=args.devices,
            small=not args.full,
            shots=args.shots,
            repetitions=args.repetitions,
            trajectories=args.trajectories,
            families=args.families,
            seed=args.seed,
            max_workers=args.max_workers,
            store=store,
            executor="process" if args.processes else "thread",
            processes=args.processes or 2,
        )
        if args.save:
            result.to_json(args.save)
        if tracer is not None:
            from ..telemetry.export import spans_to_chrome_trace

            with open(args.trace, "w", encoding="utf-8") as handle:
                json.dump(spans_to_chrome_trace(tracer.finished()), handle)
            print(f"trace written to {args.trace} ({len(tracer.finished())} spans)")
        print(render_figure2(result))
        totals: Dict[str, int] = {}
        for stats in result.engine_stats.values():
            for name in ("store_hits", "store_misses", "executions"):
                totals[name] = totals.get(name, 0) + stats.get(name, 0)
        print(
            f"\n{len(result.runs())} runs, {len(result.skipped())} skips; "
            f"store hits {totals.get('store_hits', 0)}, "
            f"misses {totals.get('store_misses', 0)}, "
            f"executions {totals.get('executions', 0)}"
        )
        workers = {
            key: stats for key, stats in result.engine_stats.items()
            if key.startswith("worker-")
        }
        for key in sorted(workers):
            stats = workers[key]
            print(
                f"  {key}: {stats.get('leases', 0)} leases, "
                f"{stats.get('executions', 0)} executions, "
                f"cache {stats.get('hits', 0)}h/{stats.get('misses', 0)}m, "
                f"{stats.get('seconds', 0.0):.2f}s busy"
            )
    finally:
        if store is not None:
            store.close()
    return 0


def _format_rows(rows: List[Dict[str, Any]]) -> str:
    from ..experiments.formatting import format_table

    table = []
    for row in rows:
        payload = row.get("payload", {})
        # Both row kinds nest the scored run under "run" (absent for skips);
        # mean_score is a property, so recompute it from the score list.
        run = payload.get("run") if isinstance(payload, dict) else None
        scores = run.get("scores") if isinstance(run, dict) else None
        score = sum(scores) / len(scores) if scores else None
        table.append(
            {
                "scenario": row.get("scenario", ""),
                "family": row.get("family", ""),
                "benchmark": row.get("benchmark", ""),
                "device": row.get("device", ""),
                "mitigation": row.get("mitigation", ""),
                "score": round(score, 3) if isinstance(score, (int, float)) else "-",
                "key": row["key"][:12],
            }
        )
    return format_table(table)


def _cmd_query(args: argparse.Namespace) -> int:
    with ResultStore(args.store) as store:
        rows = store.query(
            kind=args.kind,
            scenario=args.scenario,
            family=args.family,
            device=args.device,
            mitigation=args.mitigation,
            limit=args.limit,
        )
        if args.json:
            for row in rows:
                print(json.dumps(row, sort_keys=True))
        elif not rows:
            print("(no matching rows)")
        else:
            print(_format_rows(rows))
        if args.stats:
            print(json.dumps(store.stats(), sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_query(args)


if __name__ == "__main__":
    sys.exit(main())
