"""Client for the analysis daemon: the offline UX, served.

:class:`ServiceClient` wraps the daemon's JSON API in methods mirroring
the service core, over stdlib :mod:`http.client` (no dependencies, same
as the daemon).  Each thread that uses a client keeps one keep-alive
connection to the daemon, so a request after the first costs one round
trip and no TCP handshake; a client shared by several threads opens one
connection per thread, and a long-poll on one never blocks another.

Errors map back onto the library's exception hierarchy, so code written
against the offline API keeps its ``except`` clauses: a 429 admission
rejection raises :class:`~repro.utils.errors.AdmissionError`, a
cancelled or deadline-expired job raises
:class:`~repro.utils.errors.JobCancelled` (message intact — it still
names the task the plan stopped at), and every other failure raises
:class:`~repro.utils.errors.ServiceError`: an error response carries
its HTTP status, a transport failure (refused, reset, timed out) has
``status=None``.  A request that failed after it was sent is never sent
again — ``POST /v1/append`` is not idempotent.
"""

from __future__ import annotations

import http.client
import json
import selectors
import socket
import threading
import weakref
from urllib.parse import urlencode, urlsplit

from repro.utils.errors import AdmissionError, JobCancelled, ServiceError

#: Error ``kind`` in a daemon response body -> the exception it becomes.
_KIND_ERRORS = {
    "admission": AdmissionError,
    "cancelled": JobCancelled,
}


class _Connection(http.client.HTTPConnection):
    """One thread's keep-alive connection.  Closed with its owner: when
    the thread that holds it ends, or by :meth:`ServiceClient.close`."""

    def __del__(self) -> None:
        self.close()


def _closed_by_peer(sock: socket.socket) -> bool:
    """Whether an idle keep-alive socket can no longer carry a request.

    Between requests the daemon sends nothing, so a readable socket means
    it closed the connection (EOF or reset).  Zero-timeout test through
    :mod:`selectors` (``select.select`` fails on descriptors >= 1024).
    """
    with selectors.DefaultSelector() as selector:
        selector.register(sock, selectors.EVENT_READ)
        return bool(selector.select(0))


class ServiceClient:
    """Talk to a running ``repro serve`` daemon.

    Parameters
    ----------
    base_url:
        Daemon address, e.g. ``"http://127.0.0.1:8765"``.
    timeout:
        Socket timeout (seconds) for each HTTP call — transport-level,
        distinct from the per-job deadlines the daemon enforces.  A
        long-poll (:meth:`fetch` with ``wait``) allows ``wait`` on top.

    The client is thread-safe: each thread gets its own connection.
    :meth:`close` (or leaving a ``with`` block) closes them all; a later
    request reconnects.
    """

    def __init__(self, base_url: str = "http://127.0.0.1:8765", *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        url = urlsplit(self.base_url)
        if url.scheme != "http" or not url.hostname:
            raise ServiceError(
                f"daemon URL must look like http://host:port, got {base_url!r}"
            )
        self._host = url.hostname
        self._port = url.port or 80
        self._prefix = url.path
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: weakref.WeakSet = weakref.WeakSet()

    def close(self) -> None:
        """Close every thread's connection (call it with no request in
        flight); the client stays usable and reconnects on demand."""
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plumbing ----------------------------------------------------------

    def _connection(self, timeout: float) -> http.client.HTTPConnection:
        """This thread's connection, open and ready for a request."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = _Connection(self._host, self._port)
            self._local.connection = connection
            with self._lock:
                self._connections.add(connection)
        if connection.sock is not None and _closed_by_peer(connection.sock):
            connection.close()  # the daemon's idle timeout closed it
        connection.timeout = timeout
        if connection.sock is None:
            try:
                connection.connect()
            except OSError as exc:
                raise ServiceError(
                    f"cannot reach analysis daemon at {self.base_url}: {exc}"
                ) from None
        elif connection.sock.gettimeout() != timeout:
            connection.sock.settimeout(timeout)
        return connection

    def _request(
        self,
        method: str,
        path: str,
        *,
        query: dict | None = None,
        json_body: dict | None = None,
        raw_body: bytes | None = None,
        wait: float = 0.0,
    ) -> dict:
        target = self._prefix + path
        if query:
            target += "?" + urlencode(query)
        body = None
        headers = {"Accept": "application/json"}
        if json_body is not None:
            body = json.dumps(json_body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        elif raw_body is not None:
            body = raw_body
            headers["Content-Type"] = "application/octet-stream"
        connection = self._connection(self.timeout + wait)
        try:
            connection.request(method, target, body=body, headers=headers)
            response = connection.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException) as exc:
            # The request may have reached the daemon: report, never resend.
            connection.close()
            raise ServiceError(
                f"{method} {path} to analysis daemon at {self.base_url} "
                f"failed: {type(exc).__name__}: {exc}"
            ) from None
        if not 200 <= response.status < 300:
            raise self._map_error(response.status, response.reason, payload)
        return json.loads(payload.decode("utf-8"))

    @staticmethod
    def _map_error(status: int, reason: str, body: bytes) -> Exception:
        try:
            payload = json.loads(body.decode("utf-8"))
            message = payload["error"]
            kind = payload.get("kind", "error")
        except Exception:
            message, kind = f"HTTP {status}: {reason}", "error"
        error_cls = _KIND_ERRORS.get(kind)
        if error_cls is not None:
            return error_cls(message)
        return ServiceError(message, status=status)

    # -- API ---------------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/v1/health")

    def upload_stream(
        self,
        path: str,
        *,
        columns: str = "u v t",
        fmt: str = "tsv",
        directed: bool = True,
    ) -> str:
        """Upload an event file; returns the stream's fingerprint
        (idempotent — same events, same fingerprint, no duplicate)."""
        with open(path, "rb") as handle:
            body = handle.read()
        return self.upload_stream_bytes(
            body, columns=columns, fmt=fmt, directed=directed
        )

    def upload_stream_bytes(
        self,
        body: bytes,
        *,
        columns: str = "u v t",
        fmt: str = "tsv",
        directed: bool = True,
    ) -> str:
        response = self._request(
            "POST",
            "/v1/streams",
            query={
                "columns": columns,
                "format": fmt,
                "directed": "1" if directed else "0",
            },
            raw_body=body,
        )
        return response["fingerprint"]

    def register_dataset(
        self, name: str, *, root: str | None = None, verify: bool = False
    ) -> str:
        """Register a partitioned catalog dataset by name (the daemon
        resolves ``root`` or its own ``REPRO_DATASETS_DIR``); returns the
        stream's fingerprint without materializing any partition."""
        payload: dict = {"name": name, "verify": verify}
        if root is not None:
            payload["root"] = root
        return self._request("POST", "/v1/datasets", json_body=payload)[
            "fingerprint"
        ]

    def streams(self) -> list[dict]:
        return self._request("GET", "/v1/streams")["streams"]

    def append(self, fingerprint: str, events) -> dict:
        """Append ``[u, v, t]`` triples to a registered stream.

        Returns the daemon's record for the grown stream —
        ``{"fingerprint", "parent", "appended", "num_events",
        "num_nodes"}``.  Analyze the returned fingerprint: the daemon
        reuses the parent's warm aggregation and scan state, so only
        the appended suffix is re-examined.  Out-of-order events are
        rejected (the append-only contract).
        """
        return self._request(
            "POST",
            "/v1/append",
            json_body={"fingerprint": fingerprint, "events": list(events)},
        )

    def analyze(
        self,
        fingerprint: str,
        *,
        measures: str = "occupancy",
        num_deltas: int = 40,
        method: str = "mk",
        refine: int = 0,
        validate: bool = False,
        timeout: float | None = None,
    ) -> dict:
        """Submit an analyze job; returns its status record (``job_id``,
        ``state``, ``coalesced``) without waiting."""
        payload = {
            "fingerprint": fingerprint,
            "measures": measures,
            "num_deltas": num_deltas,
            "method": method,
            "refine": refine,
            "validate": validate,
        }
        if timeout is not None:
            payload["timeout"] = timeout
        return self._request("POST", "/v1/analyze", json_body=payload)

    def sweep(
        self,
        fingerprint: str,
        *,
        measures: str = "occupancy",
        num_deltas: int = 40,
        timeout: float | None = None,
    ) -> dict:
        payload = {
            "fingerprint": fingerprint,
            "measures": measures,
            "num_deltas": num_deltas,
        }
        if timeout is not None:
            payload["timeout"] = timeout
        return self._request("POST", "/v1/sweep", json_body=payload)

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> list[dict]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def fetch(self, job_id: str, *, wait: float | None = None) -> dict:
        """A finished job's result payload; ``wait`` long-polls."""
        query = {"wait": f"{wait:g}"} if wait is not None else None
        response = self._request(
            "GET", f"/v1/jobs/{job_id}/result", query=query, wait=wait or 0.0
        )
        return response["result"]

    def cancel(self, job_id: str) -> dict:
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def shutdown(self) -> dict:
        """Ask the daemon to stop serving (it finishes in-flight work)."""
        return self._request("POST", "/v1/shutdown")
