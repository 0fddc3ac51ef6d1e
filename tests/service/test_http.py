"""Integration tests for the REST surface (the `repro serve` acceptance path)."""

import json
import os
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.exceptions import ServiceError
from repro.service import BenchmarkService, JobQueue
from repro.service.http import _Handler, resolve_scenario
from repro.store import ResultStore
from repro.suite import SuiteResult, figure2_scenario
from repro.suite.results import SpecOutcome

KNOBS = {"shots": 60, "repetitions": 1, "seed": 99, "trajectories": 12}

SUBMISSION = {
    "scenario": "figure2",
    "options": {"small": True, "devices": ["IonQ-11Q"], "families": ["ghz"]},
    "knobs": KNOBS,
}


@pytest.fixture(scope="module")
def service():
    with ResultStore() as store:
        with BenchmarkService(store=store, port=0, workers=1) as service:
            yield service


def get_json(service, path):
    with urllib.request.urlopen(service.url + path) as response:
        return response.status, json.loads(response.read())


def post_json(service, path, body):
    request = urllib.request.Request(
        service.url + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


class TestEndToEnd:
    def test_submit_stream_and_query(self, service):
        """The acceptance test: a submitted scenario is answered end-to-end
        over HTTP with streamed NDJSON outcomes."""
        status, body = post_json(service, "/scenarios", SUBMISSION)
        assert status == 202
        job_id = body["job_id"]
        assert body["scenario"] == "figure2"

        # NDJSON stream: one outcome per line while the job runs, then an
        # end-of-stream marker.
        lines = []
        with urllib.request.urlopen(f"{service.url}/jobs/{job_id}/outcomes") as response:
            assert response.headers["Content-Type"] == "application/x-ndjson"
            for line in response:
                lines.append(json.loads(line))
        assert lines[-1]["event"] == "end"
        assert lines[-1]["status"] == "done"
        outcomes = lines[:-1]
        assert len(outcomes) == 2
        assert all(outcome["status"] == "ok" for outcome in outcomes)
        assert {outcome["key"].split("|", 1)[0] for outcome in outcomes} == {
            "ghz(num_qubits=3)", "ghz(num_qubits=5)",
        }

        status, job = get_json(service, f"/jobs/{job_id}")
        assert status == 200
        assert job["status"] == "done"
        assert job["executed"] == 2

        status, results = get_json(service, "/results?family=ghz&device=IonQ-11Q")
        assert status == 200
        assert len(results["results"]) == 2

    def test_healthz_and_stats(self, service):
        assert get_json(service, "/healthz") == (200, {"status": "ok"})
        status, stats = get_json(service, "/stats")
        assert status == 200
        assert "queue" in stats and "store" in stats

    def test_jobs_listing(self, service):
        post_json(service, "/scenarios", SUBMISSION)
        status, body = get_json(service, "/jobs")
        assert status == 200
        assert len(body["jobs"]) >= 1

    def test_full_definition_submission(self, service):
        definition = figure2_scenario(
            small=True, devices=["IonQ-11Q"], families=["ghz"]
        ).as_dict()
        status, body = post_json(
            service, "/scenarios", {"definition": definition, "knobs": KNOBS}
        )
        assert status == 202
        status, job = get_json(service, f"/jobs/{body['job_id']}")
        assert job["scenario"] == "figure2"

    def test_cancel_endpoint(self, service):
        _, body = post_json(service, "/scenarios", SUBMISSION)
        request = urllib.request.Request(
            f"{service.url}/jobs/{body['job_id']}", method="DELETE"
        )
        with urllib.request.urlopen(request) as response:
            cancelled = json.loads(response.read())
        assert cancelled["cancelled"] in (True, False)


class TestErrorHandling:
    def expect_error(self, service, path, body=None, method=None):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(service.url + path, data=data, method=method)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        return excinfo.value.code, json.loads(excinfo.value.read())

    def test_unknown_endpoint(self, service):
        code, body = self.expect_error(service, "/nope")
        assert code == 404
        assert "no such endpoint" in body["error"]

    def test_unknown_job(self, service):
        code, body = self.expect_error(service, "/jobs/job-999")
        assert code == 404

    def test_unknown_scenario_name(self, service):
        code, body = self.expect_error(
            service, "/scenarios", {"scenario": "nope"}, method="POST"
        )
        assert code == 400
        assert "unknown scenario" in body["error"]

    def test_unknown_family_option(self, service):
        code, body = self.expect_error(
            service, "/scenarios",
            {"scenario": "figure2", "options": {"families": ["nope"]}}, method="POST",
        )
        assert code == 400
        assert "bad options" in body["error"]

    def test_empty_body(self, service):
        code, body = self.expect_error(service, "/scenarios", method="POST")
        assert code == 400

    def test_bad_query_filter(self, service):
        code, body = self.expect_error(service, "/results?bogus=1")
        assert code == 400
        assert "unknown query parameters" in body["error"]


@pytest.fixture()
def stub():
    """A service whose runner records its knobs instead of running anything."""
    calls = []

    def recording_runner(scenario, partial=None, on_outcome=None, **knobs):
        calls.append(knobs)
        return SuiteResult(scenario=scenario.name)

    with BenchmarkService(queue=JobQueue(workers=1, runner=recording_runner)) as service:
        yield service, calls


def post_body(service, body):
    try:
        return post_json(service, "/scenarios", body)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestKnobValidation:
    """Only execution knobs reach the runner: a request can neither name a
    server-side path nor ask for more worker processes than the host has."""

    def post(self, service, knobs):
        return post_body(service, dict(SUBMISSION, knobs=knobs))

    @pytest.mark.parametrize(
        "knobs",
        [
            dict(KNOBS, executor="process", processes=(os.cpu_count() or 1) + 1),
            dict(KNOBS, max_workers=0),
            dict(KNOBS, shots=True),
            dict(KNOBS, seed="7"),
            dict(KNOBS, seed=-1),
            dict(KNOBS, trajectories=0),
            dict(KNOBS, devices="IonQ-11Q"),
            dict(KNOBS, executor="carrier-pigeon"),
        ],
        ids=["processes", "max_workers", "bool", "seed", "negative-seed", "trajectories",
             "devices", "executor"],
    )
    def test_rejected_knobs_start_nothing(self, stub, knobs):
        service, calls = stub
        status, body = self.post(service, knobs)
        assert status == 400
        assert "knob" in body["error"]
        assert service.queue.jobs() == []
        assert calls == []

    def test_save_path_is_rejected_with_the_allowed_names(self, stub, tmp_path):
        service, calls = stub
        target = tmp_path / "written_by_http.json"
        status, body = self.post(service, dict(KNOBS, save_path=str(target)))
        assert status == 400
        for name in ("shots", "repetitions", "seed", "trajectories", "devices",
                     "executor", "processes", "max_workers"):
            assert name in body["error"]
        assert service.queue.jobs() == []
        assert calls == []
        assert not target.exists()

    def test_valid_knobs_reach_the_runner_unchanged(self, stub):
        service, calls = stub
        knobs = dict(
            KNOBS, seed=None, devices=["IonQ-11Q"], executor="process",
            processes=1, max_workers=os.cpu_count() or 1,
        )
        status, body = self.post(service, knobs)
        assert status == 202
        service.queue.result(body["job_id"], timeout=30)
        assert calls == [dict(knobs, store=None)]


GHZ_DEFINITION = figure2_scenario(small=True, devices=["IonQ-11Q"], families=["ghz"]).as_dict()


class TestNameValidation:
    """Unknown or ambiguous devices and unknown families, techniques and
    backends would fail every attempt of the job the same way: they are a
    400 before queueing."""

    @pytest.mark.parametrize(
        "body, message",
        [
            (dict(SUBMISSION, knobs=dict(KNOBS, devices=["Nope-1Q"])), "unknown device"),
            (dict(SUBMISSION, knobs=dict(KNOBS, devices=["IBM"])), "ambiguous device"),
            ({"scenario": "figure2", "options": {"devices": ["Nope-1Q"], "families": ["ghz"]}},
             "unknown device"),
            ({"scenario": "mitigated", "options": {"devices": ["IonQ-11Q"],
                                                   "techniques": ["readuot"]}},
             "unknown mitigation"),
            ({"definition": dict(GHZ_DEFINITION, sweeps=[
                {"family": "no_such_family", "grid": {"num_qubits": [3]}}])},
             "unknown benchmark family 'no_such_family'"),
            ({"definition": dict(GHZ_DEFINITION, backends=["no_such_backend"])},
             "unknown backend 'no_such_backend'"),
        ],
        ids=["device-knob", "ambiguous-prefix", "scenario-device", "technique",
             "definition-family", "definition-backend"],
    )
    def test_rejected_names_start_nothing(self, stub, body, message):
        service, calls = stub
        status, response = post_body(service, body)
        assert status == 400
        assert message in response["error"]
        assert service.queue.jobs() == []
        assert calls == []

    def test_unique_prefix_and_overridden_scenario_devices_are_accepted(self, stub):
        service, calls = stub
        body = {
            "scenario": "figure2",
            "options": {"devices": ["Nope-1Q"], "families": ["ghz"]},
            "knobs": dict(KNOBS, devices=["IonQ"]),
        }
        status, response = post_body(service, body)
        assert status == 202
        service.queue.result(response["job_id"], timeout=30)
        assert calls[0]["devices"] == ["IonQ"]


def raw_post(service, content_length, body=b""):
    """POST over a raw socket; the response status, or None when the server
    closed the connection without one.  Times out (an error) after 3 s."""
    request = (
        "POST /scenarios HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"
        f"Content-Length: {content_length}\r\n\r\n"
    ).encode() + body
    with socket.create_connection(service.address, timeout=3) as connection:
        connection.sendall(request)
        response = b""
        while b"\r\n" not in response:
            chunk = connection.recv(4096)
            if not chunk:
                return None
            response += chunk
    return int(response.split(b"\r\n", 1)[0].split()[1])


class TestRequestBodyLength:
    """Content-Length comes from outside the program: bound it before reading."""

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_length_is_a_400(self, stub, length):
        service, calls = stub
        assert raw_post(service, length) == 400
        assert service.queue.jobs() == []

    def test_oversized_length_is_a_413_without_reading(self, stub):
        service, calls = stub
        assert raw_post(service, "99999999999") == 413
        assert service.queue.jobs() == []

    def test_normal_post_is_accepted(self, stub):
        service, calls = stub
        body = json.dumps(SUBMISSION).encode()
        assert raw_post(service, str(len(body)), body) == 202

    def test_short_body_is_a_408_after_the_read_timeout(self, stub, monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", 0.5)
        service, calls = stub
        assert raw_post(service, "10", b'{"sc') == 408
        assert service.queue.jobs() == []


class TestStreamTimeout:
    def test_a_timed_out_stream_ends_with_a_timeout_line(self):
        """The 200 headers are out before the timeout, so the body must end
        with an NDJSON end line, not carry a second HTTP response."""
        emitted, release = threading.Event(), threading.Event()

        def blocked_runner(scenario, partial=None, on_outcome=None, **knobs):
            on_outcome(
                SpecOutcome(key="unit-0", spec={"family": "ghz"}, device="IonQ-11Q",
                            mitigation="raw", index=0, status="skipped", reason="test")
            )
            emitted.set()
            release.wait(timeout=30)
            return partial

        queue = JobQueue(workers=1, runner=blocked_runner)
        with BenchmarkService(queue=queue, stream_timeout=0.5) as service:
            try:
                _, body = post_json(service, "/scenarios", SUBMISSION)
                assert emitted.wait(timeout=30)
                url = f"{service.url}/jobs/{body['job_id']}/outcomes"
                with urllib.request.urlopen(url) as response:
                    assert response.status == 200
                    raw = response.read().decode("utf-8")
            finally:
                release.set()
        assert "HTTP/1.1" not in raw
        lines = [json.loads(line) for line in raw.splitlines()]
        assert [line.get("key") for line in lines[:-1]] == ["unit-0"]
        assert lines[-1] == {"event": "end", "status": "timeout", "outcomes": 1}


class TestResolveScenario:
    def test_named(self):
        scenario = resolve_scenario({"scenario": "figure2", "options": {"small": True}})
        assert scenario.name == "figure2"

    def test_mitigated_alias(self):
        assert resolve_scenario({"scenario": "mitigated"}).name == "mitigated_scores"

    def test_definition(self):
        definition = figure2_scenario(small=True).as_dict()
        assert resolve_scenario({"definition": definition}).name == "figure2"

    def test_missing(self):
        with pytest.raises(ServiceError, match="needs a 'scenario'"):
            resolve_scenario({})

    def test_bad_options(self):
        with pytest.raises(ServiceError, match="bad options"):
            resolve_scenario({"scenario": "figure2", "options": {"bogus": 1}})

    def test_malformed_definition(self):
        with pytest.raises(ServiceError, match="malformed"):
            resolve_scenario({"definition": {"sweeps": []}})
