"""Benchmark service layer: job queue, REST surface and the ``repro`` CLI.

The service turns the declarative suite layer into a long-running benchmark
server: clients submit scenarios over HTTP (or enqueue them in-process via
:class:`JobQueue`), worker threads execute them through
:func:`~repro.suite.runner.run_scenario` with read-through caching against a
shared content-addressed :class:`~repro.store.ResultStore`, and results
stream back as NDJSON while the sweep runs.
"""

__all__ = ["BenchmarkService", "JobQueue", "JobRecord", "resolve_scenario"]

#: Exported name -> the submodule defining it.
_EXPORTS = {
    "BenchmarkService": "http",
    "resolve_scenario": "http",
    "JobQueue": "jobs",
    "JobRecord": "jobs",
}


def __getattr__(name: str):
    # ``repro run`` enters through ``repro.service.cli`` and needs neither the
    # HTTP server (http.server, ssl) nor the job queue: each loads on first use.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
