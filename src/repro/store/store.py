"""Content-addressed, sqlite-backed persistence of benchmark results.

:class:`ResultStore` persists scored payloads —
:class:`~repro.execution.results.BenchmarkRun` rows written by the execution
engine and :class:`~repro.suite.results.SpecOutcome` rows written by the
suite runner — under the canonical :func:`~repro.store.keys.content_key`.
Because the key hashes every score-affecting input and execution is
seed-deterministic, a key hit *is* the result: repeat queries become reads
instead of re-simulations.

Storage properties:

* **WAL mode** — readers never block the single writer; safe for concurrent
  threads and processes on one host.
* **Connection per thread** — each thread (and each process) talks to sqlite
  through its own connection; a generous ``busy_timeout`` absorbs writer
  contention instead of surfacing ``database is locked``.
* **Idempotent puts** — re-putting a key upserts; overlapping writers of the
  same (deterministic) payload converge on one row.
* **Schema-versioned migrations** — the database records its schema version
  and is migrated forward step-by-step on open; a database written by a
  *newer* release fails loudly with :class:`~repro.exceptions.SchemaVersionError`.
* **Counters** — per-instance ``hits`` / ``misses`` / ``puts`` /
  ``evictions``, surfaced by :meth:`stats`; every event also adds to the
  process totals ``repro_store_*``.
"""

from __future__ import annotations

import json
import os
import pathlib
import sqlite3
import threading
import time
import weakref
from dataclasses import asdict
from typing import Any, Dict, List, Mapping, Optional, Union

from ..exceptions import SchemaVersionError, StoreError
from ..execution.results import BenchmarkRun
from ..telemetry import LiveSet, get_metrics, get_tracer
from .keys import KEY_SCHEMA

__all__ = ["ResultStore", "STORE_SCHEMA_VERSION", "PAYLOAD_VERSION"]

_LOOKUPS = get_metrics().counter(
    "repro_store_lookups_total",
    "Result-store reads by result.",
    ("result",),
)
_HITS = _LOOKUPS.labels(result="hit")
_MISSES = _LOOKUPS.labels(result="miss")
_PUTS = get_metrics().counter("repro_store_puts_total", "Result-store row upserts.").labels()
_EVICTIONS = get_metrics().counter(
    "repro_store_evictions_total", "Rows evicted past the row cap."
).labels()
_OP_SECONDS = get_metrics().histogram(
    "repro_store_op_seconds",
    "Result-store operation latency by operation.",
    ("op",),
)
_OP_GET = _OP_SECONDS.labels(op="get")
_OP_PUT = _OP_SECONDS.labels(op="put")
_OP_QUERY = _OP_SECONDS.labels(op="query")
#: Open stores (a store leaves in :meth:`ResultStore.close`).
_LIVE = LiveSet()
get_metrics().gauge(
    "repro_store_rows", "Rows in the databases of the open stores of this process."
).set_callback(lambda: _LIVE.total(len))

#: Version of the *database* schema (tables, columns, indexes).  Bump it by
#: appending to :data:`_MIGRATIONS`.
STORE_SCHEMA_VERSION = 2

#: Version of the *row payload* format.  Stored per row; reading a row whose
#: payload version is newer than this release understands raises
#: :class:`SchemaVersionError` instead of misinterpreting the JSON.
PAYLOAD_VERSION = 2

#: Ordered migrations: entry ``i`` upgrades a version-``i`` database to
#: version ``i+1``.  Each entry is a list of SQL statements applied in one
#: transaction together with the version bump.
_MIGRATIONS: List[List[str]] = [
    # 0 -> 1: initial schema.
    [
        """
        CREATE TABLE IF NOT EXISTS results (
            key            TEXT NOT NULL,
            kind           TEXT NOT NULL,
            scenario       TEXT NOT NULL DEFAULT '',
            family         TEXT NOT NULL DEFAULT '',
            benchmark      TEXT NOT NULL DEFAULT '',
            device         TEXT NOT NULL DEFAULT '',
            backend        TEXT NOT NULL DEFAULT '',
            mitigation     TEXT NOT NULL DEFAULT '',
            schema_version INTEGER NOT NULL,
            payload        TEXT NOT NULL,
            key_payload    TEXT NOT NULL DEFAULT '',
            created_at     REAL NOT NULL,
            accessed_at    REAL NOT NULL,
            access_count   INTEGER NOT NULL DEFAULT 0,
            PRIMARY KEY (key, kind)
        )
        """,
    ],
    # 1 -> 2: covering index for the query API's equality filters.
    [
        """
        CREATE INDEX IF NOT EXISTS idx_results_query
        ON results (family, device, mitigation)
        """,
    ],
]


class _ThreadConnection:
    """One thread's connection, closed as soon as the thread's locals go.

    A sqlite3 connection sits in a reference cycle with its statement cache,
    so dropping the last reference to it leaves it open until the next
    garbage collection; this holder has no cycle and closes it at once.
    """

    __slots__ = ("connection", "__weakref__")

    def __init__(self, connection: sqlite3.Connection) -> None:
        self.connection = connection

    def __del__(self) -> None:
        self.connection.close()


class ResultStore:
    """A thread- and process-safe content-addressed result store.

    Args:
        path: Database file path, or ``":memory:"`` for an in-process store
            (single-connection; still handy for tests and ephemeral runs).
        max_rows: Optional row cap.  When a put pushes the row count past the
            cap, the least-recently-accessed rows are evicted (and counted).

    Each thread opens its own connection on first use.  The connection
    closes when its thread ends (the store holds it only weakly), so a
    thread per request does not accumulate connections; :meth:`close`
    closes the ones still open.  The store can be used as a context manager.
    """

    def __init__(
        self,
        path: Union[str, pathlib.Path] = ":memory:",
        max_rows: Optional[int] = None,
    ) -> None:
        self.path = str(path)
        self._memory = self.path == ":memory:"
        if max_rows is not None and max_rows < 1:
            raise StoreError("max_rows must be at least 1 (or None for unbounded)")
        self.max_rows = max_rows
        self._local = threading.local()
        self._connections: "weakref.WeakSet[_ThreadConnection]" = weakref.WeakSet()
        self._counter_lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        if not self._memory:
            parent = pathlib.Path(self.path).resolve().parent
            parent.mkdir(parents=True, exist_ok=True)
        # An in-memory store must share its single connection across threads
        # (each sqlite :memory: connection is a distinct database).
        self._shared: Optional[sqlite3.Connection] = None
        if self._memory:
            self._shared = self._open()
        self._migrate()
        _LIVE.add(self)

    # ------------------------------------------------------------------
    # connections & migrations
    # ------------------------------------------------------------------
    def _open(self) -> sqlite3.Connection:
        # check_same_thread=False: thread confinement is enforced by the
        # threading.local connection map instead (and the shared :memory:
        # connection is internally serialized by sqlite); relaxing the check
        # lets close() reap connections opened by worker threads.
        connection = sqlite3.connect(
            self.path,
            timeout=30.0,
            check_same_thread=False,
            isolation_level=None,  # autocommit; explicit BEGIN where needed
        )
        connection.row_factory = sqlite3.Row
        connection.execute("PRAGMA busy_timeout = 30000")
        if not self._memory:
            connection.execute("PRAGMA journal_mode = WAL")
            connection.execute("PRAGMA synchronous = NORMAL")
        return connection

    def _connection(self) -> sqlite3.Connection:
        if self._shared is not None:
            return self._shared
        holder = getattr(self._local, "holder", None)
        if holder is None:
            # The thread-local holds the only strong reference: when the
            # thread ends, the holder goes and closes the connection.
            holder = _ThreadConnection(self._open())
            self._local.holder = holder
            with self._counter_lock:
                self._connections.add(holder)
        return holder.connection

    def _migrate(self) -> None:
        connection = self._connection()
        version = int(connection.execute("PRAGMA user_version").fetchone()[0])
        if version > STORE_SCHEMA_VERSION:
            raise SchemaVersionError(
                f"result store {self.path!r} has schema version {version}, but this "
                f"release understands at most {STORE_SCHEMA_VERSION} — it was written "
                f"by a newer release; refusing to open it"
            )
        while version < STORE_SCHEMA_VERSION:
            statements = _MIGRATIONS[version]
            try:
                connection.execute("BEGIN IMMEDIATE")
                for statement in statements:
                    connection.execute(statement)
                connection.execute(f"PRAGMA user_version = {version + 1}")
                connection.execute("COMMIT")
            except sqlite3.DatabaseError as error:
                connection.execute("ROLLBACK")
                raise StoreError(
                    f"migrating result store {self.path!r} from schema {version} "
                    f"to {version + 1} failed: {error}"
                ) from error
            version += 1

    def close(self) -> None:
        """Close every connection of this instance still open (idempotent)."""
        _LIVE.discard(self)
        with self._counter_lock:
            holders = list(self._connections)
            self._connections.clear()
        for holder in holders:
            holder.connection.close()
        if self._shared is not None:
            self._shared.close()
            self._shared = None
        self._local = threading.local()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _count(self, counter: str, total, amount: int = 1) -> None:
        """Add ``amount`` to one of this store's counters and to its process total."""
        with self._counter_lock:
            setattr(self, counter, getattr(self, counter) + amount)
        total.add(float(amount))

    # ------------------------------------------------------------------
    # generic row access
    # ------------------------------------------------------------------
    def put(
        self,
        key: str,
        kind: str,
        payload: Mapping[str, Any],
        *,
        meta: Optional[Mapping[str, str]] = None,
        key_payload: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Upsert one row (idempotent: a repeated put converges on one row).

        Args:
            key: Canonical content key (see :mod:`repro.store.keys`).
            kind: Payload kind — ``"run"`` or ``"outcome"``.
            payload: JSON-serialisable payload dict.
            meta: Optional indexed columns (``scenario`` / ``family`` /
                ``benchmark`` / ``device`` / ``backend`` / ``mitigation``).
            key_payload: The raw key composition, stored for debuggability.
        """
        meta = dict(meta or {})
        now = time.time()
        started = time.perf_counter()
        connection = self._connection()
        connection.execute(
            """
            INSERT INTO results (
                key, kind, scenario, family, benchmark, device, backend,
                mitigation, schema_version, payload, key_payload,
                created_at, accessed_at, access_count
            ) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, 0)
            ON CONFLICT (key, kind) DO UPDATE SET
                payload = excluded.payload,
                schema_version = excluded.schema_version,
                accessed_at = excluded.accessed_at
            """,
            (
                key,
                kind,
                str(meta.get("scenario", "")),
                str(meta.get("family", "")),
                str(meta.get("benchmark", "")),
                str(meta.get("device", "")),
                str(meta.get("backend", "")),
                str(meta.get("mitigation", "")),
                PAYLOAD_VERSION,
                json.dumps(payload, sort_keys=True),
                json.dumps(dict(key_payload), sort_keys=True) if key_payload else "",
                now,
                now,
            ),
        )
        self._count("puts", _PUTS)
        if self.max_rows is not None:
            self._evict(connection)
        elapsed = time.perf_counter() - started
        _OP_PUT.observe(elapsed)
        get_tracer().emit("store.put", elapsed, kind=kind, store=self.path)

    def get(self, key: str, kind: str) -> Optional[Dict[str, Any]]:
        """The payload stored under ``(key, kind)``, or ``None`` (counted)."""
        started = time.perf_counter()
        connection = self._connection()
        row = connection.execute(
            "SELECT payload, schema_version FROM results WHERE key = ? AND kind = ?",
            (key, kind),
        ).fetchone()
        if row is None:
            self._count("misses", _MISSES)
            elapsed = time.perf_counter() - started
            _OP_GET.observe(elapsed)
            get_tracer().emit("store.get", elapsed, kind=kind, result="miss", store=self.path)
            return None
        version = int(row["schema_version"])
        if version > PAYLOAD_VERSION:
            raise SchemaVersionError(
                f"store row {key!r} ({kind}) carries payload version {version}, but "
                f"this release understands at most {PAYLOAD_VERSION} — it was written "
                f"by a newer release"
            )
        connection.execute(
            "UPDATE results SET accessed_at = ?, access_count = access_count + 1 "
            "WHERE key = ? AND kind = ?",
            (time.time(), key, kind),
        )
        self._count("hits", _HITS)
        elapsed = time.perf_counter() - started
        _OP_GET.observe(elapsed)
        get_tracer().emit("store.get", elapsed, kind=kind, result="hit", store=self.path)
        return json.loads(row["payload"])

    def _evict(self, connection: sqlite3.Connection) -> None:
        (count,) = connection.execute("SELECT COUNT(*) FROM results").fetchone()
        overflow = int(count) - self.max_rows
        if overflow <= 0:
            return
        victims = connection.execute(
            "SELECT key, kind FROM results ORDER BY accessed_at ASC, key ASC LIMIT ?",
            (overflow,),
        ).fetchall()
        for victim in victims:
            connection.execute(
                "DELETE FROM results WHERE key = ? AND kind = ?",
                (victim["key"], victim["kind"]),
            )
        self._count("evictions", _EVICTIONS, len(victims))

    def purge_stale_keys(self) -> int:
        """Delete rows whose keys were derived under an older ``KEY_SCHEMA``.

        A :data:`~repro.store.keys.KEY_SCHEMA` bump (e.g. the v2 packed
        circuit-fingerprint migration, see docs/ir.md) makes previously
        stored rows unreachable: their content keys simply stop matching,
        so reads miss and re-execute.  This maintenance call reclaims the
        dead rows by inspecting the debug ``key_payload`` column (rows
        without one are kept — their schema cannot be determined).  Returns
        the number of rows deleted.
        """
        connection = self._connection()
        rows = connection.execute(
            "SELECT key, kind, key_payload FROM results WHERE key_payload != ''"
        ).fetchall()
        stale = []
        for row in rows:
            try:
                schema = json.loads(row["key_payload"]).get("key_schema")
            except (json.JSONDecodeError, AttributeError):
                continue
            if schema != KEY_SCHEMA:
                stale.append((row["key"], row["kind"]))
        for key, kind in stale:
            connection.execute(
                "DELETE FROM results WHERE key = ? AND kind = ?", (key, kind)
            )
        return len(stale)

    # ------------------------------------------------------------------
    # typed helpers
    # ------------------------------------------------------------------
    def put_run(
        self,
        key: str,
        run: BenchmarkRun,
        *,
        meta: Optional[Mapping[str, str]] = None,
        key_payload: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Persist one :class:`BenchmarkRun` under its content key."""
        row_meta = {
            "family": run.family,
            "benchmark": run.benchmark,
            "device": run.device,
            "backend": run.backend,
            "mitigation": run.mitigation or "raw",
        }
        row_meta.update(meta or {})
        self.put(
            key,
            "run",
            {"schema_version": PAYLOAD_VERSION, "run": asdict(run)},
            meta=row_meta,
            key_payload=key_payload,
        )

    def get_run(self, key: str) -> Optional[BenchmarkRun]:
        """The :class:`BenchmarkRun` stored under ``key``, or ``None``."""
        payload = self.get(key, "run")
        if payload is None:
            return None
        try:
            return BenchmarkRun(**payload["run"])
        except (KeyError, TypeError) as error:
            raise StoreError(f"malformed run payload under key {key!r}: {error}") from error

    def put_outcome(
        self,
        key: str,
        outcome,
        *,
        scenario: str = "",
        key_payload: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Persist one :class:`~repro.suite.results.SpecOutcome` (runs *and* skips)."""
        payload = outcome.as_dict()
        meta = {
            "scenario": scenario,
            "family": str(payload.get("spec", {}).get("family", "")),
            "benchmark": payload["key"].split("|", 1)[0],
            "device": outcome.device,
            "mitigation": outcome.mitigation or "raw",
        }
        if outcome.run is not None:
            meta["backend"] = outcome.run.backend
        self.put(key, "outcome", payload, meta=meta, key_payload=key_payload)

    def get_outcome(self, key: str):
        """The :class:`~repro.suite.results.SpecOutcome` under ``key``, or ``None``."""
        payload = self.get(key, "outcome")
        if payload is None:
            return None
        from ..suite.results import SpecOutcome

        try:
            return SpecOutcome.from_dict(payload)
        except SchemaVersionError:
            raise
        except (KeyError, TypeError) as error:
            raise StoreError(f"malformed outcome payload under key {key!r}: {error}") from error

    # ------------------------------------------------------------------
    # query API
    # ------------------------------------------------------------------
    def query(
        self,
        *,
        kind: Optional[str] = None,
        scenario: Optional[str] = None,
        family: Optional[str] = None,
        device: Optional[str] = None,
        mitigation: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Rows matching every given equality filter, newest first.

        Returns row dicts with the indexed columns plus the parsed
        ``payload`` — the shape served by ``GET /results`` and
        ``repro query``.
        """
        clauses, parameters = [], []
        for column, value in (
            ("kind", kind),
            ("scenario", scenario),
            ("family", family),
            ("device", device),
            ("mitigation", mitigation),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                parameters.append(value)
        sql = (
            "SELECT key, kind, scenario, family, benchmark, device, backend, "
            "mitigation, schema_version, payload, created_at, accessed_at, "
            "access_count FROM results"
        )
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY created_at DESC, key ASC"
        if limit is not None:
            sql += " LIMIT ?"
            parameters.append(int(limit))
        started = time.perf_counter()
        rows = self._connection().execute(sql, parameters).fetchall()
        results = []
        for row in rows:
            record = {name: row[name] for name in row.keys()}
            record["payload"] = json.loads(record["payload"])
            results.append(record)
        _OP_QUERY.observe(time.perf_counter() - started)
        return results

    def __len__(self) -> int:
        (count,) = self._connection().execute("SELECT COUNT(*) FROM results").fetchone()
        return int(count)

    def __contains__(self, key: str) -> bool:
        row = self._connection().execute(
            "SELECT 1 FROM results WHERE key = ? LIMIT 1", (key,)
        ).fetchone()
        return row is not None

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Hit/miss/put/eviction counters plus the current row count.

        Counters are per-instance (other processes sharing the file keep
        their own); ``rows`` reflects the shared database.
        """
        with self._counter_lock:
            counters = {
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "evictions": self.evictions,
            }
        counters["rows"] = len(self)
        return counters

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResultStore(path={self.path!r}, rows={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
