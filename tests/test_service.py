"""Tests for the analysis service: daemon, job queue wiring, client.

The acceptance contract: a running daemon handles many concurrent
analyze requests through one shared worker pool; identical concurrent
requests coalesce to a single computation (verified by scan counters);
warm repeat requests perform zero scans; every response is bit-identical
to offline ``repro analyze``; the backlog is bounded (429) and deadlines
cancel pending work naming the task the plan stopped at.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import re
import socket
import threading
import time
from dataclasses import dataclass
from urllib.parse import urlparse

import pytest

from repro.core import analyze_stream
from repro.engine import (
    MeasureSpec,
    SweepCache,
    SweepEngine,
    parse_measures_arg,
    register_measure,
    unregister_measure,
)
from repro.engine import jobs as jobs_module
from repro.generators import time_uniform_stream
from repro.linkstream import read_tsv, write_tsv
from repro.reporting import render_analysis
from repro.service import AnalysisService, ServiceClient
from repro.service import daemon as daemon_module
from repro.service.daemon import MAX_BODY_BYTES, ServiceServer
from repro.temporal.reachability import SCAN_COUNTS
from repro.utils.errors import (
    AdmissionError,
    JobCancelled,
    ReproError,
    ServiceError,
)


@dataclass(frozen=True)
class SnailMeasure(MeasureSpec):
    """A deliberately slow payload measure: keeps computations in flight
    long enough for coalescing/deadline tests to be deterministic."""

    pause: float = 0.05

    has_payload = True

    @property
    def name(self) -> str:
        return "snail"

    def series_payload(self, series):
        time.sleep(self.pause)
        return len(series)

    def finalize(self, delta, geometry, payload, collector):
        return payload


@pytest.fixture(scope="module", autouse=True)
def _snail_registered():
    register_measure(SnailMeasure)
    yield
    unregister_measure("snail")


@pytest.fixture(scope="module")
def stream():
    return time_uniform_stream(12, 6, 5000.0, seed=3)


@pytest.fixture
def service():
    # Two pool workers and two runners: each Δ is one task on the shared
    # thread pool, so scan counts stay exactly one per Δ.
    with AnalysisService(jobs=2, runners=2, max_pending=8) as svc:
        yield svc


def offline_text(stream, *, measures="occupancy", **kwargs) -> str:
    """What `repro analyze` prints for this stream, computed offline on a
    private engine (fresh cache, serial backend)."""
    if isinstance(measures, str):
        measures = parse_measures_arg(measures)
    with SweepEngine("serial", cache=SweepCache.build()) as engine:
        report = analyze_stream(
            stream, validate=False, engine=engine, measures=measures, **kwargs
        )
    return render_analysis(report)


def wait_for_running(job, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while job.state == "queued" and time.monotonic() < deadline:
        time.sleep(0.005)
    assert job.state == "running"


class TestServiceCore:
    def test_register_stream_is_idempotent(self, service, stream):
        first = service.register_stream(stream)
        second = service.register_stream(stream)
        assert first == second
        assert len(service.list_streams()) == 1

    def test_unknown_fingerprint_is_404(self, service):
        with pytest.raises(ServiceError, match="unknown stream") as excinfo:
            service.submit_analyze("deadbeef")
        assert excinfo.value.status == 404

    def test_unknown_job_is_404(self, service):
        with pytest.raises(ServiceError, match="unknown job") as excinfo:
            service.status("nope")
        assert excinfo.value.status == 404

    def test_analyze_result_matches_offline(self, service, stream):
        fingerprint = service.register_stream(stream)
        job = service.submit_analyze(fingerprint, num_deltas=8)
        result = job.result(60)
        assert result["kind"] == "analyze"
        assert result["text"] == offline_text(stream, num_deltas=8)
        assert result["gamma"] > 0

    def test_concurrent_requests_bit_identical(self, service, stream):
        """8 concurrent analyze requests through the one shared pool, all
        byte-for-byte equal to the offline rendering."""
        fingerprint = service.register_stream(stream)
        jobs, errors = [], []
        lock = threading.Lock()

        def submit():
            try:
                job = service.submit_analyze(fingerprint, num_deltas=8)
                with lock:
                    jobs.append(job)
            except Exception as exc:  # pragma: no cover - fail loudly below
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        expected = offline_text(stream, num_deltas=8)
        texts = {job.result(60)["text"] for job in jobs}
        assert texts == {expected}

    def test_identical_concurrent_submissions_coalesce_to_one_scan(
        self, service, stream
    ):
        """N identical in-flight submissions -> exactly one computation:
        the scan counters advance by a single request's worth."""
        fingerprint = service.register_stream(stream)
        kwargs = dict(measures="occupancy,snail:pause=0.08", num_deltas=6)
        before = SCAN_COUNTS["series"]
        first = service.submit_analyze(fingerprint, **kwargs)
        attached = [service.submit_analyze(fingerprint, **kwargs) for _ in range(5)]
        results = [job.result(60) for job in [first, *attached]]
        burst_scans = SCAN_COUNTS["series"] - before
        assert all(job.coalesced for job in attached)
        assert service.queue.stats()["coalesced"] == 5
        # The 6-request burst cost exactly what one offline run costs on
        # the same stream and grid — one computation, not six.
        before = SCAN_COUNTS["series"]
        expected = offline_text(stream, **kwargs)
        single_scans = SCAN_COUNTS["series"] - before
        assert single_scans > 0
        assert burst_scans == single_scans
        assert {r["text"] for r in results} == {expected}

    def test_warm_repeat_performs_zero_scans(self, service, stream):
        fingerprint = service.register_stream(stream)
        first = service.submit_analyze(fingerprint, num_deltas=6).result(60)
        before_series = SCAN_COUNTS["series"]
        before_stream = SCAN_COUNTS["stream"]
        again = service.submit_analyze(fingerprint, num_deltas=6).result(60)
        assert SCAN_COUNTS["series"] == before_series
        assert SCAN_COUNTS["stream"] == before_stream
        assert again["text"] == first["text"]

    def test_admission_control_rejects_when_full(self, stream):
        with AnalysisService(jobs=2, runners=1, max_pending=1) as svc:
            fingerprint = svc.register_stream(stream)
            slow = svc.submit_analyze(
                fingerprint, measures="occupancy,snail:pause=0.2", num_deltas=4
            )
            wait_for_running(slow)
            # The runner is busy: this distinct request fills the single
            # backlog slot, the next one is turned away.
            queued = svc.submit_analyze(fingerprint, num_deltas=5)
            with pytest.raises(AdmissionError, match="job queue full"):
                svc.submit_analyze(fingerprint, num_deltas=7)
            assert svc.queue.stats()["rejected"] == 1
            slow.result(60)
            queued.result(60)

    def test_deadline_cancellation_names_delta_and_kind(self, stream):
        with AnalysisService(jobs=2, runners=1) as svc:
            fingerprint = svc.register_stream(stream)
            job = svc.submit_analyze(
                fingerprint,
                measures="occupancy,snail:pause=0.1",
                num_deltas=12,
                timeout=0.25,
            )
            with pytest.raises(JobCancelled) as excinfo:
                job.result(60)
            assert job.state == "cancelled"
            # The deadline cut the sweep mid-plan: the error names the
            # fused task kind and the Δ it stopped at.
            assert re.search(
                r"deadline exceeded before analysis task at delta=[0-9.e+-]+",
                str(excinfo.value),
            )

    def test_append_registers_grown_stream_with_lineage(self, service, stream):
        fingerprint = service.register_stream(stream)
        t0 = int(stream.t_max)
        response = service.append_events(
            fingerprint, [[0, 1, t0 + 1], [2, 3, t0 + 2]]
        )
        assert response["parent"] == fingerprint
        assert response["appended"] == 2
        assert response["num_events"] == stream.num_events + 2
        grown = service.stream(response["fingerprint"])
        assert grown.fingerprint_chain[-1] == (stream.num_events, fingerprint)
        # Both registrations stay addressable.
        fingerprints = {s["fingerprint"] for s in service.list_streams()}
        assert {fingerprint, response["fingerprint"]} <= fingerprints

    def test_append_rejects_out_of_order_batch(self, service, stream):
        fingerprint = service.register_stream(stream)
        with pytest.raises(ReproError, match="strictly greater"):
            service.append_events(fingerprint, [[0, 1, int(stream.t_min)]])

    def test_append_validates_triples(self, service, stream):
        fingerprint = service.register_stream(stream)
        with pytest.raises(ServiceError, match="triple") as excinfo:
            service.append_events(fingerprint, [[0, 1]])
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError, match="number"):
            service.append_events(fingerprint, [[0, 1, "soon"]])

    def test_append_then_analyze_matches_offline(self, service, stream):
        fingerprint = service.register_stream(stream)
        service.submit_analyze(fingerprint, num_deltas=6).result(60)
        t0 = int(stream.t_max)
        events = [[0, 1, t0 + 40], [4, 5, t0 + 90], [1, 2, t0 + 130]]
        response = service.append_events(fingerprint, events)
        warm = service.submit_analyze(
            response["fingerprint"], num_deltas=6
        ).result(60)
        grown = stream.extend([tuple(e) for e in events])
        assert warm["text"] == offline_text(grown, num_deltas=6)

    def test_sweep_job(self, service, stream):
        fingerprint = service.register_stream(stream)
        job = service.submit_sweep(
            fingerprint, measures="occupancy,trips:max_samples=4", num_deltas=5
        )
        result = job.result(60)
        assert result["kind"] == "sweep"
        assert result["measures"] == ["occupancy", "trips"]
        assert len(result["deltas"]) == len(result["summaries"]["trips"])


@pytest.fixture(scope="module")
def daemon(stream, _snail_registered):
    """A live HTTP daemon on an ephemeral port (module-scoped: warm
    state across requests is exactly the daemon's value proposition)."""
    service = AnalysisService(jobs=2, runners=2, max_pending=8)
    server = ServiceServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    yield client
    server.shutdown()
    server.server_close()
    service.close()


@pytest.fixture(scope="module")
def events_file(tmp_path_factory, stream):
    path = tmp_path_factory.mktemp("service") / "events.tsv"
    write_tsv(stream, path)
    return path


class TestHTTPDaemon:
    def test_health(self, daemon):
        payload = daemon.health()
        assert payload["status"] == "ok"
        assert "queue" in payload

    def test_upload_analyze_fetch_roundtrip(self, daemon, events_file):
        fingerprint = daemon.upload_stream(str(events_file))
        job = daemon.analyze(fingerprint, num_deltas=8)
        assert job["state"] in ("queued", "running", "done")
        result = daemon.fetch(job["job_id"], wait=60)
        # Bit-identity against an offline analyze of the same file (the
        # file, not the in-memory stream: TSV rounds timestamps).
        assert result["text"] == offline_text(read_tsv(events_file), num_deltas=8)

    def test_upload_is_idempotent(self, daemon, events_file):
        first = daemon.upload_stream(str(events_file))
        second = daemon.upload_stream(str(events_file))
        assert first == second
        assert len([s for s in daemon.streams() if s["fingerprint"] == first]) == 1

    def test_status_and_jobs_listing(self, daemon, events_file):
        fingerprint = daemon.upload_stream(str(events_file))
        job = daemon.analyze(fingerprint, num_deltas=6)
        status = daemon.status(job["job_id"])
        assert status["job_id"] == job["job_id"]
        assert any(j["job_id"] == job["job_id"] for j in daemon.jobs())
        daemon.fetch(job["job_id"], wait=60)

    def test_result_before_done_is_409(self, daemon, events_file):
        fingerprint = daemon.upload_stream(str(events_file))
        job = daemon.analyze(
            fingerprint, measures="occupancy,snail:pause=0.2", num_deltas=4
        )
        with pytest.raises(ServiceError, match="not done yet") as excinfo:
            daemon.fetch(job["job_id"])
        assert excinfo.value.status == 409
        daemon.fetch(job["job_id"], wait=60)  # drain

    def test_client_error_mapping(self, daemon):
        # Unknown stream -> 404 ServiceError.
        with pytest.raises(ServiceError) as excinfo:
            daemon.analyze("deadbeef")
        assert excinfo.value.status == 404
        # Unknown job -> 404.
        with pytest.raises(ServiceError) as excinfo:
            daemon.status("nope")
        assert excinfo.value.status == 404
        # Unknown path -> 404 with the API hint.
        with pytest.raises(ServiceError, match="API is under") as excinfo:
            daemon._request("GET", "/v2/health")
        assert excinfo.value.status == 404

    def test_bad_measures_is_client_error(self, daemon, events_file):
        fingerprint = daemon.upload_stream(str(events_file))
        with pytest.raises(ServiceError) as excinfo:
            daemon.analyze(fingerprint, measures="doesnotexist")
        assert excinfo.value.status == 400

    def test_cancelled_job_maps_to_jobcancelled(self, daemon, events_file):
        fingerprint = daemon.upload_stream(str(events_file))
        job = daemon.analyze(
            fingerprint,
            measures="occupancy,snail:pause=0.1",
            num_deltas=12,
            timeout=0.25,
        )
        with pytest.raises(JobCancelled, match="task at delta="):
            daemon.fetch(job["job_id"], wait=60)

    def test_admission_maps_to_admissionerror(self, stream):
        service = AnalysisService(jobs=2, runners=1, max_pending=1)
        server = ServiceServer(("127.0.0.1", 0), service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
        try:
            fingerprint = service.register_stream(stream)
            slow = service.submit_analyze(
                fingerprint, measures="occupancy,snail:pause=0.3", num_deltas=4
            )
            wait_for_running(slow)
            client.analyze(fingerprint, num_deltas=5)  # fills the backlog
            with pytest.raises(AdmissionError):
                client.analyze(fingerprint, num_deltas=7)
            slow.result(60)
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_explicit_cancel_roundtrip(self, daemon, events_file):
        fingerprint = daemon.upload_stream(str(events_file))
        job = daemon.analyze(
            fingerprint, measures="occupancy,snail:pause=0.3", num_deltas=6
        )
        cancelled = daemon.cancel(job["job_id"])
        assert cancelled["state"] == "cancelled"
        with pytest.raises(JobCancelled):
            daemon.fetch(job["job_id"], wait=10)

    def test_forgotten_job_is_404_and_health_counts_retained(
        self, stream, monkeypatch
    ):
        monkeypatch.setattr(jobs_module, "MAX_FINISHED_JOBS", 1)
        service = AnalysisService(jobs=2, runners=1)
        server = ServiceServer(("127.0.0.1", 0), service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
        try:
            fingerprint = service.register_stream(stream)
            old = client.analyze(fingerprint, num_deltas=4)
            client.fetch(old["job_id"], wait=60)
            new = client.analyze(fingerprint, num_deltas=5)
            client.fetch(new["job_id"], wait=60)
            service.queue.close()  # the runner has retired both jobs
            assert client.health()["queue"]["retained"] == 1
            assert client.status(new["job_id"])["state"] == "done"
            parsed = urlparse(client.base_url)
            conn = http.client.HTTPConnection(parsed.hostname, parsed.port)
            conn.request("GET", f"/v1/jobs/{old['job_id']}")
            response = conn.getresponse()
            payload = json.loads(response.read())
            conn.close()
            assert response.status == 404
            assert payload["kind"] == "not_found"
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_shutdown_endpoint(self, stream):
        service = AnalysisService(jobs=2, runners=1)
        server = ServiceServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
        try:
            assert client.shutdown()["status"] == "shutting down"
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            server.server_close()
            service.close()

    def test_listen_backlog_takes_a_connect_burst(self, service):
        # Nothing accepts: every connect must complete from the backlog
        # alone, well inside the kernel's 1 s SYN retransmit.
        server = ServiceServer(("127.0.0.1", 0), service)
        sockets = []
        try:
            connected = 0
            for _ in range(16):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sockets.append(sock)
                sock.settimeout(0.5)
                try:
                    sock.connect(server.server_address)
                    connected += 1
                except OSError:
                    pass
            assert connected == 16
        finally:
            for sock in sockets:
                sock.close()
            server.server_close()

    def test_unreachable_daemon_is_service_error(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=2)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()


def _raw_post(client, path, content_length, body=b""):
    """POST with a hand-written Content-Length header (http.client
    would otherwise compute it); returns (status, payload, headers)."""
    url = urlparse(client.base_url)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
    try:
        conn.putrequest("POST", path)
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", content_length)
        conn.endheaders()
        if body:
            conn.send(body)
        response = conn.getresponse()
        payload = json.loads(response.read())
        return response.status, payload, response
    finally:
        conn.close()


class TestRequestBodyLimits:
    @pytest.mark.parametrize("value", ["abc", "12x", "1.5", "0x10", "1_0"])
    def test_non_integer_content_length_is_400(self, daemon, value):
        status, payload, _ = _raw_post(daemon, "/v1/analyze", value)
        assert status == 400
        assert payload["kind"] == "bad_request"
        assert "Content-Length" in payload["error"]

    def test_negative_content_length_is_400_without_blocking(self, daemon):
        # Before the fix this read rfile.read(-1), blocking until the
        # client hung up; the 10 s socket timeout would fail the test.
        status, payload, response = _raw_post(daemon, "/v1/append", "-5")
        assert status == 400
        assert "non-negative" in payload["error"]
        assert response.getheader("Connection") == "close"

    def test_oversized_body_is_413_unread(self, daemon):
        status, payload, response = _raw_post(
            daemon, "/v1/streams", str(MAX_BODY_BYTES + 1)
        )
        assert status == 413
        assert payload["kind"] == "too_large"
        assert response.getheader("Connection") == "close"

    def test_valid_body_still_served(self, daemon):
        body = json.dumps({"fingerprint": "deadbeef"}).encode()
        status, payload, _ = _raw_post(
            daemon, "/v1/analyze", str(len(body)), body
        )
        assert status == 404  # parsed fine; the stream is unknown
        assert payload["kind"] == "not_found"

    def test_daemon_healthy_after_rejections(self, daemon):
        _raw_post(daemon, "/v1/analyze", "-1")
        _raw_post(daemon, "/v1/streams", str(MAX_BODY_BYTES + 1))
        assert daemon.health()["status"] == "ok"


@contextlib.contextmanager
def live_daemon(**service_kwargs):
    """A private daemon on an ephemeral port: (server, service, url)."""
    service_kwargs.setdefault("runners", 2)
    service = AnalysisService(jobs=2, **service_kwargs)
    server = ServiceServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, service, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _handler_threads(exclude=()) -> list[threading.Thread]:
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.endswith("(process_request_thread)") and thread not in exclude
    ]


class TestKeepAlive:
    def test_requests_on_one_client_share_one_connection(self, stream):
        with live_daemon() as (server, service, url):
            fingerprint = service.register_stream(stream)
            with ServiceClient(url) as client:
                for _ in range(5):
                    client.health()
                job = client.analyze(fingerprint, num_deltas=6)
                client.status(job["job_id"])
                client.fetch(job["job_id"], wait=60)
                client.jobs()
                assert client.health()["connections"] == {
                    "open": 1, "accepted": 1, "refused": 0,
                }
            # Leaving the block closed the connection; its handler ends.
            assert wait_until(lambda: server.connection_stats()["open"] == 0)

    def test_threads_get_their_own_connection(self, stream):
        with live_daemon() as (server, service, url):
            fingerprint = service.register_stream(stream)
            client = ServiceClient(url)
            job = client.analyze(
                fingerprint, measures="occupancy,snail:pause=0.5", num_deltas=8
            )
            results = []
            poller = threading.Thread(
                target=lambda: results.append(client.fetch(job["job_id"], wait=60))
            )
            poller.start()
            assert wait_until(lambda: server.connection_stats()["accepted"] == 2)
            # The long-poll holds its own thread's connection, not this one.
            start = time.monotonic()
            health = client.health()
            assert time.monotonic() - start < 1.0
            assert poller.is_alive()
            poller.join(60)
            assert results and results[0]["kind"] == "analyze"
            assert health["connections"]["accepted"] == 2
            assert client.health()["connections"]["accepted"] == 2
            client.close()

    def test_connection_closed_while_idle_is_replaced(self, monkeypatch):
        monkeypatch.setattr(daemon_module, "IDLE_TIMEOUT", 0.2)
        with live_daemon() as (server, _, url):
            with ServiceClient(url) as client:
                client.health()
                time.sleep(0.5)
                # The daemon timed the idle connection out and freed its
                # thread; the next request notices and reconnects.
                assert wait_until(lambda: server.connection_stats()["open"] == 0)
                assert client.health()["connections"] == {
                    "open": 1, "accepted": 2, "refused": 0,
                }

    def test_error_responses_keep_the_connection(self, stream):
        with live_daemon(runners=1, max_pending=1) as (server, service, url):
            fingerprint = service.register_stream(stream)
            with ServiceClient(url) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.status("nope")
                assert excinfo.value.status == 404
                # A body sent to an unknown path is read, not left behind
                # to be parsed as the next request.
                with pytest.raises(ServiceError, match="API is under"):
                    client._request("POST", "/v2/analyze", json_body={"x": 1})
                slow = client.analyze(
                    fingerprint, measures="occupancy,snail:pause=0.3", num_deltas=4
                )
                with pytest.raises(ServiceError, match="not done yet") as excinfo:
                    client.fetch(slow["job_id"])
                assert excinfo.value.status == 409
                wait_for_running(service.queue.job(slow["job_id"]))
                queued = client.analyze(fingerprint, num_deltas=5)
                with pytest.raises(AdmissionError):
                    client.analyze(fingerprint, num_deltas=7)
                client.fetch(slow["job_id"], wait=60)
                client.fetch(queued["job_id"], wait=60)
                cut = client.analyze(
                    fingerprint,
                    measures="occupancy,snail:pause=0.1",
                    num_deltas=12,
                    timeout=0.25,
                )
                with pytest.raises(JobCancelled, match="task at delta="):
                    client.fetch(cut["job_id"], wait=60)
                assert client.health()["connections"] == {
                    "open": 1, "accepted": 1, "refused": 0,
                }

    def test_bad_content_length_closes_then_client_reconnects(self):
        with live_daemon() as (_, _, url):
            with ServiceClient(url) as client:
                client.health()
                connection = client._local.connection
                connection.putrequest("POST", "/v1/append")
                connection.putheader("Content-Length", "-5")
                connection.endheaders()
                response = connection.getresponse()
                response.read()
                assert response.status == 400
                assert response.getheader("Connection") == "close"
                assert client.health()["connections"]["accepted"] == 2

    def test_accepted_sockets_disable_nagle(self):
        with live_daemon() as (server, _, url):
            with ServiceClient(url) as client:
                client.health()
                with server._connections_lock:
                    sockets = list(server._connections)
                assert len(sockets) == 1
                assert sockets[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_connections_over_the_cap_are_refused(self, monkeypatch):
        monkeypatch.setattr(daemon_module, "MAX_CONNECTIONS", 2)
        before = set(threading.enumerate())
        with live_daemon() as (server, _, url):
            first, second, third = (ServiceClient(url) for _ in range(3))
            first.health()
            second.health()
            assert server.connection_stats()["open"] == 2
            # Both keep their connections open: the third is one too many.
            with pytest.raises(ServiceError) as excinfo:
                third.health()
            assert excinfo.value.status == 503
            assert server.connection_stats() == {
                "open": 2, "accepted": 2, "refused": 1,
            }
            # The refused connection never got a handler thread.
            assert len(_handler_threads(exclude=before)) == 2
            first.close()
            assert wait_until(lambda: server.connection_stats()["open"] == 1)
            # A slot is free again: the refused client gets in.
            assert third.health()["connections"] == {
                "open": 2, "accepted": 3, "refused": 1,
            }
            with pytest.raises(ServiceError) as excinfo:
                first.health()
            assert excinfo.value.status == 503
            assert server.connection_stats()["open"] == 2
            second.close()
            third.close()

    def test_server_close_releases_idle_handler_threads(self):
        before = set(threading.enumerate())
        with live_daemon() as (server, _, url):
            client = ServiceClient(url)
            client.health()
            handlers = _handler_threads(exclude=before)
            assert len(handlers) == 1
            server.shutdown()
            server.server_close()
            # The idle timeout is far off: only server_close can have
            # woken the handler blocked reading the idle connection.
            for thread in handlers:
                thread.join(5)
                assert not thread.is_alive()
            assert server.connection_stats()["open"] == 0
            client.close()


class TestLongPoll:
    def test_long_poll_outlives_the_socket_timeout(self, stream):
        with live_daemon() as (_, service, url):
            fingerprint = service.register_stream(stream)
            client = ServiceClient(url, timeout=0.5)
            job = client.analyze(
                fingerprint, measures="occupancy,snail:pause=0.3", num_deltas=6
            )
            start = time.monotonic()
            result = client.fetch(job["job_id"], wait=30)
            assert time.monotonic() - start > 0.5
            assert result["kind"] == "analyze"

    def test_transport_timeout_is_service_error(self):
        # A listener that never answers: connects complete from the
        # backlog, the response never comes.
        with socket.socket() as silent:
            silent.bind(("127.0.0.1", 0))
            silent.listen()
            client = ServiceClient(
                f"http://127.0.0.1:{silent.getsockname()[1]}", timeout=0.2
            )
            with pytest.raises(ServiceError, match="timed out") as excinfo:
                client.health()
            assert excinfo.value.status is None

    def test_client_gone_mid_long_poll_leaves_no_traceback(self, stream, capsys):
        before = set(threading.enumerate())
        with live_daemon() as (_, service, url):
            fingerprint = service.register_stream(stream)
            job = service.submit_analyze(
                fingerprint, measures="occupancy,snail:pause=0.3", num_deltas=6
            )
            parsed = urlparse(url)
            conn = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=0.2)
            with pytest.raises(TimeoutError):
                conn.request("GET", f"/v1/jobs/{job.id}/result?wait=30")
                conn.getresponse()
            conn.close()
            job.result(60)
            # The handler answers into the closed connection, then ends.
            for thread in _handler_threads(exclude=before):
                thread.join(10)
                assert not thread.is_alive()
        assert "Traceback" not in capsys.readouterr().err
