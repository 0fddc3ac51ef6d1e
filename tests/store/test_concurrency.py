"""Concurrent-access tests: threads and processes sharing one store file.

The satellite contract: two threads and two processes writing disjoint and
overlapping key sets lose no rows, never surface sqlite's ``database is
locked``, and converge on one row per key under idempotent re-puts.
"""

import multiprocessing
import sqlite3
import sys
import threading

import pytest

from repro.store import ResultStore

from test_store import make_run  # noqa: E402 - sibling test module (pytest path mode)

WRITES_PER_WORKER = 40


def _thread_writer(store, keys, errors):
    try:
        for key in keys:
            store.put_run(key, make_run())
    except Exception as error:  # noqa: BLE001 - collected for the assertion
        errors.append(error)


def _process_writer(path, keys):
    """Runs in a child process: open the file independently and write."""
    with ResultStore(path) as store:
        for key in keys:
            store.put_run(key, make_run())
            assert store.get_run(key) is not None


def _spawn_processes(path, key_sets):
    context = multiprocessing.get_context("fork")
    processes = [
        context.Process(target=_process_writer, args=(str(path), keys))
        for keys in key_sets
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
    return processes


class TestThreadConcurrency:
    def test_disjoint_keys_no_lost_rows(self, tmp_path):
        with ResultStore(tmp_path / "threads.sqlite") as store:
            sets = [
                [f"t{worker}-{i}" for i in range(WRITES_PER_WORKER)]
                for worker in range(2)
            ]
            errors = []
            threads = [
                threading.Thread(target=_thread_writer, args=(store, keys, errors))
                for keys in sets
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            assert len(store) == 2 * WRITES_PER_WORKER
            for keys in sets:
                for key in keys:
                    assert store.get_run(key) is not None

    def test_overlapping_keys_idempotent(self, tmp_path):
        with ResultStore(tmp_path / "overlap.sqlite") as store:
            shared = [f"shared-{i}" for i in range(WRITES_PER_WORKER)]
            errors = []
            threads = [
                threading.Thread(target=_thread_writer, args=(store, shared, errors))
                for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            assert len(store) == WRITES_PER_WORKER
            for key in shared:
                assert store.get_run(key) == make_run()

    def test_memory_store_shared_across_threads(self):
        with ResultStore() as store:
            errors = []
            thread = threading.Thread(
                target=_thread_writer, args=(store, ["from-thread"], errors)
            )
            thread.start()
            thread.join(timeout=30)
            assert not errors
            assert store.get_run("from-thread") is not None


class TestThreadConnections:
    """A connection lives as long as its thread: a thread per request (as
    ``repro serve`` runs them) must not leave connections open behind it."""

    def test_finished_readers_leave_only_live_connections(self, tmp_path):
        with ResultStore(tmp_path / "readers.sqlite") as store:
            store.put_run("k", make_run())
            opened, errors = [], []

            def read():
                try:
                    opened.append(store._connection())
                    assert store.get_run("k") == make_run()
                except Exception as error:  # noqa: BLE001 - collected for the assertion
                    errors.append(error)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for _ in range(5):  # 50 readers, 10 at a time
                    threads = [threading.Thread(target=read) for _ in range(10)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=30)
                        assert not thread.is_alive()
            finally:
                sys.setswitchinterval(interval)
            assert not errors and len(opened) == 50
            # Only the constructing thread's connection is still held...
            assert len(store._connections) == 1
            # ...and the readers' connections are closed, not just dropped.
            for connection in opened:
                with pytest.raises(sqlite3.ProgrammingError):
                    connection.execute("SELECT 1")

            holding, release = threading.Event(), threading.Event()

            def hold():
                read()
                holding.set()
                release.wait(timeout=30)

            live = threading.Thread(target=hold)
            live.start()
            assert holding.wait(timeout=30)
            assert len(store._connections) == 2
            store.close()  # closes the live thread's connection too
            with pytest.raises(sqlite3.ProgrammingError):
                opened[-1].execute("SELECT 1")
            release.set()
            live.join(timeout=30)
            assert not live.is_alive()
        assert len(store._connections) == 0


class TestProcessConcurrency:
    def test_disjoint_keys_across_processes(self, tmp_path):
        path = tmp_path / "procs.sqlite"
        ResultStore(path).close()  # create + migrate before forking
        sets = [
            [f"p{worker}-{i}" for i in range(WRITES_PER_WORKER)]
            for worker in range(2)
        ]
        processes = _spawn_processes(path, sets)
        assert all(process.exitcode == 0 for process in processes)
        with ResultStore(path) as store:
            assert len(store) == 2 * WRITES_PER_WORKER

    def test_overlapping_keys_across_processes(self, tmp_path):
        path = tmp_path / "procs-overlap.sqlite"
        ResultStore(path).close()
        shared = [f"shared-{i}" for i in range(WRITES_PER_WORKER)]
        processes = _spawn_processes(path, [shared, shared])
        assert all(process.exitcode == 0 for process in processes)
        with ResultStore(path) as store:
            assert len(store) == WRITES_PER_WORKER
            for key in shared:
                assert store.get_run(key) == make_run()
