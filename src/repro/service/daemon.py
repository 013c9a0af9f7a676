"""The analysis daemon: warm state, bounded concurrency, HTTP+JSON.

Two layers, deliberately separable:

* :class:`AnalysisService` — the transport-free core.  It owns the
  registered streams (keyed by content fingerprint), one shared
  :class:`~repro.engine.SweepEngine` (``thread`` backend + sweep cache:
  every request of every client warms the same store), and a
  :class:`~repro.engine.JobQueue` that bounds the backlog, enforces
  per-request deadlines, and coalesces identical in-flight requests.
  Tests drive this object directly — no sockets required.
* the HTTP handler + :func:`serve` — a thin JSON wire over the core
  (stdlib :mod:`http.server`; the daemon adds no dependencies).  It
  speaks HTTP/1.1 keep-alive: one handler thread per open connection,
  which an idle connection releases after :data:`IDLE_TIMEOUT` seconds.

API sketch (all JSON unless noted)::

    GET    /v1/health            liveness + queue/engine statistics
    POST   /v1/streams           upload an event file body (TSV/CSV);
                                 query: columns, format, directed
                                 -> {"fingerprint": ...}   (idempotent)
    GET    /v1/streams           registered streams
    POST   /v1/datasets          {"name", "root"?, "verify"?} — register a
                                 dataset from the partitioned catalog
                                 (:mod:`repro.datasets.catalog`) without
                                 materializing it; partitions load lazily
                                 when the first analysis touches them
                                 -> {"fingerprint": ...}
    POST   /v1/append           {"fingerprint", "events": [[u, v, t], ...]}
                                 -> {"fingerprint": grown, "parent": ...};
                                 the grown stream registers alongside its
                                 parent and analyses of it reuse the
                                 parent's warm series and scan state
    POST   /v1/analyze           {"fingerprint", "measures", "num_deltas",
                                  "method", "refine", "validate",
                                  "timeout"} -> 202 {"job_id", ...}
    POST   /v1/sweep             {"fingerprint", "measures", "num_deltas",
                                  "timeout"} -> 202 {"job_id", ...}
    GET    /v1/jobs              every job's status
    GET    /v1/jobs/<id>         one job's status
    GET    /v1/jobs/<id>/result  the result; ?wait=SECONDS long-polls
    DELETE /v1/jobs/<id>         cancel the job
    POST   /v1/shutdown          stop the daemon (used by smoke tests)

**Coalescing semantics.**  Two analyze submissions are *identical* when
their stream fingerprint, measure tokens (parameters included), Δ-grid
size, selection method, refinement rounds, and validate flag all match.
An identical submission arriving while the first is queued or running
does not start new work: it attaches to the in-flight computation, may
extend (never tighten) its deadline, and receives the identical result
object.  A submission arriving *after* completion starts a new job, but
the sweep cache serves it without recomputing — warm repeats perform
zero scans.

**Error mapping** (mirrored by the client): admission-control rejection
→ 429, unknown stream/job → 404, result not ready → 409, cancelled or
deadline-expired job → 504 (the body names the task the plan stopped
at), invalid request → 400 (a ``Content-Length`` that is not a
non-negative integer included), request body above
:data:`MAX_BODY_BYTES` → 413, anything else → 500.  Bodies are
``{"error": message, "kind": ...}``; a rejected body is never read, so
its connection closes after the error response.  Every other request's
body is read in full before routing, so an error response leaves the
keep-alive connection ready for the next request.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.core import analyze_stream, log_delta_grid
from repro.datasets import open_dataset
from repro.engine import (
    JobQueue,
    SweepCache,
    SweepEngine,
    normalize_measures,
    parse_measures_arg,
    plan_measure_sweep,
)
from repro.engine.jobs import DONE, FAILED, CANCELLED, Job
from repro.linkstream import read_csv, read_tsv
from repro.linkstream.stream import LinkStream
from repro.reporting import render_analysis
from repro.utils.errors import (
    AdmissionError,
    JobCancelled,
    ReproError,
    ServiceError,
)
from repro.utils.timeunits import format_duration

#: Service protocol version (the ``/v1/`` URL prefix).
API_VERSION = "v1"


def _coalesce_key(kind: str, fingerprint: str, specs, **params) -> str:
    """Identity of a request for coalescing: the stream fingerprint, the
    measure tokens (parameters included), and every sweep-shaping
    parameter.  Matches the cache-key identity, so coalesced requests
    are exactly those whose results would be bit-identical anyway."""
    payload = repr(
        (
            kind,
            fingerprint,
            tuple(m.token() for m in specs),
            tuple(sorted(params.items())),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class AnalysisService:
    """Transport-free service core: streams, engine, job queue.

    Parameters
    ----------
    backend:
        Engine backend spec (default ``"thread"`` — the shared thread
        pool all jobs' sweeps run on).
    jobs:
        Backend worker count (default: the CPU count).
    runners:
        Concurrent jobs; each runner blocks on its job's sweeps, the
        parallelism lives in the backend pool below.
    max_pending:
        Admission limit — queued computations beyond this are rejected
        with a 429-style :class:`~repro.utils.errors.AdmissionError`.
    default_timeout:
        Deadline (seconds) applied to requests that don't set their own.
    cache_dir:
        Optional persistent sweep-cache directory.
    """

    def __init__(
        self,
        *,
        backend: str = "thread",
        jobs: int | None = None,
        runners: int = 4,
        max_pending: int = 32,
        default_timeout: float | None = None,
        cache_dir: str | None = None,
    ) -> None:
        self.engine = SweepEngine(
            backend,
            jobs=jobs,
            cache=SweepCache.build(disk_dir=cache_dir),
        )
        self.queue = JobQueue(runners=runners, max_pending=max_pending)
        self.default_timeout = default_timeout
        self._streams: dict[str, LinkStream] = {}
        self._lock = threading.Lock()

    # -- streams -----------------------------------------------------------

    def register_stream(self, stream: LinkStream) -> str:
        """Register a stream under its content fingerprint (idempotent:
        re-uploading the same events lands on the same entry)."""
        fingerprint = stream.fingerprint()
        with self._lock:
            self._streams.setdefault(fingerprint, stream)
        return fingerprint

    def register_stream_text(
        self,
        text: str,
        *,
        columns: str = "u v t",
        fmt: str = "tsv",
        directed: bool = True,
    ) -> str:
        """Register a stream from an uploaded event-file body in one of
        ``repro analyze --format``'s formats, ``tsv`` or ``csv``; any
        other ``fmt`` is a 400."""
        if fmt not in ("tsv", "csv"):
            raise ServiceError(
                f"unknown upload format {fmt!r}; expected 'tsv' or 'csv'",
                status=400,
            )
        reader = read_csv if fmt == "csv" else read_tsv
        handle = tempfile.NamedTemporaryFile(
            "w", suffix=".events", encoding="utf-8", delete=False
        )
        try:
            handle.write(text)
            handle.close()
            stream = reader(handle.name, columns=columns, directed=directed)
        finally:
            os.unlink(handle.name)
        return self.register_stream(stream)

    def register_dataset(
        self, name: str, *, root: str | None = None, verify: bool = False
    ) -> str:
        """Register a dataset from the partitioned catalog by name.

        The stream arrives as a lazy :class:`PartitionedStorage` handle:
        its fingerprint comes from the catalog manifest, so registration
        opens no partition files, and analyses load only the partitions
        their windows overlap.  Cache keys match the in-memory stream's
        bit for bit, so a sweep warmed offline serves here without a
        single scan.
        """
        stream = open_dataset(name, root=root, verify=verify)
        return self.register_stream(stream)

    def stream(self, fingerprint: str) -> LinkStream:
        with self._lock:
            stream = self._streams.get(fingerprint)
        if stream is None:
            raise ServiceError(
                f"unknown stream fingerprint {fingerprint!r}; upload it first",
                status=404,
            )
        return stream

    def _resolve_node(self, stream: LinkStream, value) -> int:
        if isinstance(value, bool):
            raise ServiceError(
                f"node must be an index or label, got {value!r}", status=400
            )
        try:
            return stream.index_of(value)
        except ReproError:
            if isinstance(value, int) and value >= 0:
                # A node index beyond the current set: unlabeled streams
                # grow on append (extend rejects growth for labeled ones).
                return value
            raise

    def append_events(self, fingerprint: str, events) -> dict:
        """Append an event batch to a registered stream.

        ``events`` is a list of ``[u, v, t]`` triples; ``u``/``v`` are
        node labels (for labeled streams) or indices, ``t`` must be
        strictly later than the stream's last event (the append-only
        contract — violations map to 400).  The grown stream registers
        under its own fingerprint *alongside* its parent, whose
        fingerprint stays valid; because the chained fingerprint links
        the two, any analysis of the grown stream reuses the parent's
        warm series, scan checkpoints, and cached sweep results, and
        only re-examines the appended suffix.  Coalescing is untouched:
        requests against the new fingerprint coalesce among themselves.
        """
        stream = self.stream(fingerprint)
        rows = []
        for entry in events:
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise ServiceError(
                    "each appended event must be a [u, v, t] triple",
                    status=400,
                )
            u, v, t = entry
            if not isinstance(t, (int, float)) or isinstance(t, bool):
                raise ServiceError(
                    f"timestamp must be a number, got {t!r}", status=400
                )
            rows.append(
                (self._resolve_node(stream, u), self._resolve_node(stream, v), t)
            )
        grown = stream.extend(rows)
        new_fingerprint = self.register_stream(grown)
        return {
            "fingerprint": new_fingerprint,
            "parent": fingerprint,
            "appended": len(rows),
            "num_events": grown.num_events,
            "num_nodes": grown.num_nodes,
        }

    def list_streams(self) -> list[dict]:
        with self._lock:
            streams = dict(self._streams)
        return [
            {
                "fingerprint": fingerprint,
                "num_events": stream.num_events,
                "num_nodes": stream.num_nodes,
                "span": stream.t_max - stream.t_min,
            }
            for fingerprint, stream in sorted(streams.items())
        ]

    # -- job submission ----------------------------------------------------

    def _parse_measures(self, measures) -> tuple:
        if measures is None:
            measures = "occupancy"
        if isinstance(measures, str):
            return parse_measures_arg(measures)
        return normalize_measures(measures)

    def submit_analyze(
        self,
        fingerprint: str,
        *,
        measures="occupancy",
        num_deltas: int = 40,
        method: str = "mk",
        refine: int = 0,
        validate: bool = False,
        timeout: float | None = None,
    ) -> Job:
        """Queue a full ``analyze`` of a registered stream.

        Defaults mirror the CLI (``validate`` included — off unless
        asked, so warm repeats touch no scan at all), and the rendered
        result text is bit-identical to offline ``repro analyze``.
        """
        stream = self.stream(fingerprint)
        specs = self._parse_measures(measures)
        key = _coalesce_key(
            "analyze",
            fingerprint,
            specs,
            num_deltas=num_deltas,
            method=method,
            refine=refine,
            validate=validate,
        )
        engine = self.engine

        def run_analysis() -> dict:
            report = analyze_stream(
                stream,
                validate=validate,
                measures=specs,
                num_deltas=num_deltas,
                method=method,
                refine_rounds=refine,
                engine=engine,
            )
            return {
                "kind": "analyze",
                "fingerprint": fingerprint,
                "gamma": report.gamma,
                "gamma_human": format_duration(report.gamma),
                "text": render_analysis(report),
            }

        return self.queue.submit(
            run_analysis,
            key=key,
            timeout=self.default_timeout if timeout is None else timeout,
            label=f"analyze {fingerprint[:12]}",
        )

    def submit_sweep(
        self,
        fingerprint: str,
        *,
        measures="occupancy",
        num_deltas: int = 40,
        timeout: float | None = None,
    ) -> Job:
        """Queue a raw measure sweep (no γ selection): every measure at
        every grid Δ, summarized per point."""
        stream = self.stream(fingerprint)
        specs = self._parse_measures(measures)
        key = _coalesce_key("sweep", fingerprint, specs, num_deltas=num_deltas)
        engine = self.engine

        def run_sweep() -> dict:
            deltas = log_delta_grid(stream, num=num_deltas)
            tasks = plan_measure_sweep(deltas, specs)
            results = engine.run(stream, tasks)
            summaries: dict[str, list[str]] = {m.name: [] for m in specs}
            for per_delta in results:
                for spec in specs:
                    value = per_delta[spec.name]
                    describe = getattr(value, "describe", None)
                    summaries[spec.name].append(
                        describe() if callable(describe) else repr(value)
                    )
            return {
                "kind": "sweep",
                "fingerprint": fingerprint,
                "deltas": [float(d) for d in deltas],
                "measures": [m.name for m in specs],
                "summaries": summaries,
            }

        return self.queue.submit(
            run_sweep,
            key=key,
            timeout=self.default_timeout if timeout is None else timeout,
            label=f"sweep {fingerprint[:12]}",
        )

    # -- job inspection ----------------------------------------------------

    def _job(self, job_id: str) -> Job:
        job = self.queue.job(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}", status=404)
        return job

    def status(self, job_id: str) -> dict:
        return self.describe_job(self._job(job_id))

    @staticmethod
    def describe_job(job: Job) -> dict:
        record = {
            "job_id": job.id,
            "state": job.state,
            "label": job.label,
            "coalesced": job.coalesced,
        }
        error = job.error
        if error is not None:
            record["error"] = str(error)
        return record

    def result(self, job_id: str, *, wait: float | None = None) -> dict:
        """A finished job's result payload.

        ``wait`` long-polls up to that many seconds.  A job that is
        still live afterwards raises 409; a cancelled job raises 504
        with the cancellation message (which names the task the plan
        stopped at when a deadline cut a sweep short); a failed job
        raises 500 carrying the failure.
        """
        job = self._job(job_id)
        if wait:
            job.wait(wait)
        state = job.state
        if state == DONE:
            return {"job_id": job.id, "state": state, "result": job.result(0)}
        if state == CANCELLED:
            raise ServiceError(f"job {job.id} cancelled: {job.error}", status=504)
        if state == FAILED:
            raise ServiceError(f"job {job.id} failed: {job.error}", status=500)
        raise ServiceError(
            f"job {job.id} not done yet (state: {state}); poll again or "
            "pass ?wait=SECONDS",
            status=409,
        )

    def cancel(self, job_id: str) -> dict:
        job = self._job(job_id)
        job.cancel()
        return self.describe_job(job)

    def stats(self) -> dict:
        """Liveness and queue/engine statistics (``/v1/health`` adds the
        HTTP server's ``connections``)."""
        return {
            "status": "ok",
            "api": API_VERSION,
            "streams": len(self._streams),
            "queue": self.queue.stats(),
            "backend": repr(self.engine.backend),
        }

    def close(self) -> None:
        self.queue.close()
        self.engine.close()

    def __enter__(self) -> "AnalysisService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# The HTTP transport.
# ---------------------------------------------------------------------------

_ERROR_KINDS = {
    404: "not_found",
    409: "pending",
    413: "too_large",
    429: "admission",
    504: "cancelled",
    400: "bad_request",
    500: "internal",
}

#: Largest request body the daemon reads, in bytes (a stream upload of a
#: few million events fits); larger bodies are refused with 413 unread.
MAX_BODY_BYTES = 256 * 1024 * 1024

#: Socket timeout of every daemon connection, in seconds: a keep-alive
#: connection idle this long between requests (or a request stalled this
#: long mid-transfer) is closed, releasing the handler thread serving it.
IDLE_TIMEOUT = 30.0

#: Most connections the daemon keeps open at once.  Each open connection
#: holds a handler thread (an idle one for up to :data:`IDLE_TIMEOUT`
#: seconds); a connection over the cap is answered ``503`` with
#: ``Connection: close`` on the accepting thread and gets no handler.
MAX_CONNECTIONS = 64

#: Seconds the accepting thread waits for a refused client's request
#: before answering it, and for the client to close after the answer.
_REFUSE_TIMEOUT = 1.0


def _content_length(header: str | None) -> int:
    """Validate a request's ``Content-Length`` (absent means 0): 400
    unless it is a non-negative integer, 413 above
    :data:`MAX_BODY_BYTES`."""
    raw = (header or "").strip()
    if not raw:
        return 0
    digits = raw[1:] if raw.startswith("-") else raw
    if not (digits.isascii() and digits.isdigit()):
        raise ServiceError(
            f"Content-Length must be an integer, got {raw!r}", status=400
        )
    length = int(raw)
    if length < 0:
        raise ServiceError(
            f"Content-Length must be non-negative, got {length}", status=400
        )
    if length > MAX_BODY_BYTES:
        raise ServiceError(
            f"request body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit",
            status=413,
        )
    return length


class _ServiceHandler(BaseHTTPRequestHandler):
    """JSON wire over :class:`AnalysisService`.

    One instance per connection, on its own thread, serving that
    connection's requests in turn (HTTP/1.1 keep-alive) until the client
    closes it, an error response closes it, or it sits idle for
    :data:`IDLE_TIMEOUT` seconds.  Nagle's algorithm is off: a response
    goes out as two writes (headers, then body), and on a kept-alive
    connection Nagle would hold the body back until the client's delayed
    ACK of the headers — tens of milliseconds per request.
    """

    server_version = "repro-serve/" + API_VERSION
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self) -> None:
        self.timeout = IDLE_TIMEOUT
        super().setup()

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:
            # The client hung up mid-exchange (say, gave up on a
            # long-poll): nobody is left to answer, and nothing is wrong
            # with the daemon.
            self.close_connection = True

    @property
    def service(self) -> AnalysisService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # -- plumbing ----------------------------------------------------------

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, status: int, message: str) -> None:
        kind = _ERROR_KINDS.get(status, "error")
        self._send_json(status, {"error": message, "kind": kind})

    def _read_body(self) -> bytes:
        try:
            length = _content_length(self.headers.get("Content-Length"))
        except ServiceError:
            # The body stays unread, so the connection cannot carry
            # another request: close it after the error response.
            self.close_connection = True
            raise
        return self.rfile.read(length) if length else b""

    @staticmethod
    def _parse_json(body: bytes) -> dict:
        if not body:
            return {}
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"invalid JSON body: {exc}", status=400) from None
        if not isinstance(payload, dict):
            raise ServiceError("JSON body must be an object", status=400)
        return payload

    def _dispatch(self, method: str) -> None:
        url = urlparse(self.path)
        query = {key: values[-1] for key, values in parse_qs(url.query).items()}
        parts = [part for part in url.path.split("/") if part]
        try:
            # Read the body whatever the route: left unread, it would be
            # parsed as the connection's next request.
            body = self._read_body()
            if not parts or parts[0] != API_VERSION:
                raise ServiceError(
                    f"unknown path {url.path!r} (API is under /{API_VERSION}/)",
                    status=404,
                )
            self._route(method, parts[1:], query, body)
        except ConnectionError:
            raise  # the client is gone; handle() drops the connection
        except AdmissionError as exc:
            self._send_error(429, str(exc))
        except JobCancelled as exc:
            self._send_error(504, str(exc))
        except ServiceError as exc:
            self._send_error(exc.status or 500, str(exc))
        except ReproError as exc:
            self._send_error(400, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error(500, f"{type(exc).__name__}: {exc}")

    def _route(
        self, method: str, parts: list[str], query: dict, body: bytes
    ) -> None:
        service = self.service
        route = (method, *parts[:1])
        if route == ("GET", "health"):
            stats = service.stats()
            stats["connections"] = self.server.connection_stats()  # type: ignore
            self._send_json(200, stats)
        elif route == ("GET", "streams"):
            self._send_json(200, {"streams": service.list_streams()})
        elif route == ("POST", "streams"):
            text = body.decode("utf-8")
            fingerprint = service.register_stream_text(
                text,
                columns=query.get("columns", "u v t"),
                fmt=query.get("format", "tsv"),
                directed=query.get("directed", "1") not in ("0", "false", "no"),
            )
            self._send_json(201, {"fingerprint": fingerprint})
        elif route == ("POST", "datasets"):
            payload = self._parse_json(body)
            name = payload.get("name")
            if not name:
                raise ServiceError(
                    "missing 'name' (a catalog dataset name)", status=400
                )
            fingerprint = service.register_dataset(
                name,
                root=payload.get("root"),
                verify=bool(payload.get("verify", False)),
            )
            self._send_json(201, {"fingerprint": fingerprint, "name": name})
        elif route == ("POST", "append"):
            payload = self._parse_json(body)
            fingerprint = payload.get("fingerprint")
            if not fingerprint:
                raise ServiceError("missing 'fingerprint'", status=400)
            events = payload.get("events")
            if not isinstance(events, list):
                raise ServiceError(
                    "missing 'events' (a list of [u, v, t] triples)",
                    status=400,
                )
            self._send_json(200, service.append_events(fingerprint, events))
        elif route in (("POST", "analyze"), ("POST", "sweep")):
            payload = self._parse_json(body)
            fingerprint = payload.get("fingerprint")
            if not fingerprint:
                raise ServiceError("missing 'fingerprint'", status=400)
            common = {
                "measures": payload.get("measures", "occupancy"),
                "num_deltas": int(payload.get("num_deltas", 40)),
                "timeout": payload.get("timeout"),
            }
            if parts[0] == "analyze":
                job = service.submit_analyze(
                    fingerprint,
                    method=payload.get("method", "mk"),
                    refine=int(payload.get("refine", 0)),
                    validate=bool(payload.get("validate", False)),
                    **common,
                )
            else:
                job = service.submit_sweep(fingerprint, **common)
            self._send_json(202, service.describe_job(job))
        elif route == ("GET", "jobs") and len(parts) == 1:
            self._send_json(
                200,
                {"jobs": [service.describe_job(j) for j in service.queue.jobs()]},
            )
        elif parts[:1] == ["jobs"] and len(parts) >= 2:
            job_id = parts[1]
            if method == "GET" and len(parts) == 3 and parts[2] == "result":
                wait = float(query["wait"]) if "wait" in query else None
                self._send_json(200, service.result(job_id, wait=wait))
            elif method == "GET" and len(parts) == 2:
                self._send_json(200, service.status(job_id))
            elif method == "DELETE" and len(parts) == 2:
                self._send_json(200, service.cancel(job_id))
            else:
                raise ServiceError(f"unknown route {self.path!r}", status=404)
        elif route == ("POST", "shutdown"):
            self._send_json(200, {"status": "shutting down"})
            threading.Thread(target=self.server.shutdown, daemon=True).start()
        else:
            raise ServiceError(f"unknown route {self.path!r}", status=404)

    # -- verbs -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


class ServiceServer(ThreadingHTTPServer):
    """The daemon's HTTP server, bound to one :class:`AnalysisService`.

    Threading: each accepted connection gets its own handler thread,
    which serves the connection's keep-alive requests in turn (the heavy
    lifting is delegated to the shared queue and engine anyway).  An
    idle connection gives its thread back after :data:`IDLE_TIMEOUT`
    seconds.  At most :data:`MAX_CONNECTIONS` are open at once: one more
    is refused (``503``, see :meth:`process_request`).  The server
    counts the connections it accepted and refused and keeps the open
    ones, so ``/v1/health`` can report them and :meth:`server_close`
    can shut the open ones down, waking every handler thread that waits
    on its client.
    """

    daemon_threads = True
    #: Listen backlog.  ``socketserver``'s default of 5 makes a burst of
    #: concurrent connects wait out the kernel's SYN retransmit (~1 s).
    request_queue_size = 128

    def __init__(self, address, service: AnalysisService, *, verbose: bool = False):
        super().__init__(address, _ServiceHandler)
        self.service = service
        self.verbose = verbose
        self._connections: set[socket.socket] = set()
        self._accepted = 0
        self._refused = 0
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            full = len(self._connections) >= MAX_CONNECTIONS
            if full:
                self._refused += 1
            else:
                self._connections.add(request)
                self._accepted += 1
        if full:
            self._refuse(request)
        else:
            super().process_request(request, client_address)

    def _refuse(self, request) -> None:
        """Answer a connection over :data:`MAX_CONNECTIONS` with ``503``
        and close it, on the accepting thread.  The client's request is
        read first (briefly) and the socket drained after the answer:
        closing a socket with unread input resets the connection, and
        the client would see the reset instead of the ``503``."""
        body = json.dumps(
            {
                "error": f"too many connections (at most {MAX_CONNECTIONS})",
                "kind": "error",
            }
        ).encode("utf-8")
        head = (
            "HTTP/1.1 503 Service Unavailable\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("ascii")
        try:
            request.settimeout(_REFUSE_TIMEOUT)
            request.recv(65536)
            request.sendall(head + body)
            request.shutdown(socket.SHUT_WR)
            while request.recv(65536):
                pass
        except OSError:
            pass  # the client went away or stalled: just close
        self.close_request(request)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def connection_stats(self) -> dict:
        """``{"open": connections now open, "accepted": ever accepted,
        "refused": ever refused over the cap}``."""
        with self._connections_lock:
            return {
                "open": len(self._connections),
                "accepted": self._accepted,
                "refused": self._refused,
            }

    def server_close(self) -> None:
        super().server_close()
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its handler


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    service: AnalysisService | None = None,
    verbose: bool = False,
    **service_kwargs,
) -> None:
    """Run the analysis daemon until interrupted (or ``POST
    /v1/shutdown``).  ``service_kwargs`` go to :class:`AnalysisService`
    when no pre-built ``service`` is passed."""
    owns = service is None
    if service is None:
        service = AnalysisService(**service_kwargs)
    server = ServiceServer((host, port), service, verbose=verbose)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        if owns:
            service.close()
