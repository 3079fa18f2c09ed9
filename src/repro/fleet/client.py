"""Stdlib HTTP client for the fleet service, with retries and backpressure.

The service front-end (:mod:`repro.fleet.service`) sheds load with 429 +
``Retry-After`` and sequences ingests with per-device ``seq`` numbers; this
client is the other half of those contracts.  :class:`FleetClient` speaks
HTTP/1.1 over ``http.client`` (no new dependencies), keeping one persistent
connection per calling thread so a stream of small ingests pays for one TCP
handshake, not one per chunk.  It retries transient failures — connection
errors, timeouts, 5xx, 408 and 429 — with exponential backoff, honouring
the server's ``Retry-After`` when it sends one and otherwise jittering the
delay from a *seeded* generator, so a swarm of restarted clients never
thunders back in lockstep yet every run of the chaos harness is
reproducible.

Because ingests carry ``seq``, a retry after an ambiguous failure (the
request may or may not have been applied before the connection died) is
safe: the server answers a replayed chunk with ``{"duplicate": true}``
instead of double-evaluating it, and the client surfaces that as success.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from typing import Any, Dict, Optional, Set, Tuple

import numpy as np

import repro.obs as obs

__all__ = ["FleetClient", "FleetServiceError"]

#: HTTP statuses worth retrying: the request never ran (408/429/503) or the
#: server hit a transient internal condition (5xx).
_RETRYABLE_STATUSES = frozenset({408, 429, 500, 502, 503, 504})

#: How a kept-alive connection the server has since closed (idle timeout,
#: restart) fails when it is reused: before any byte of the reply arrives.
_STALE_CONNECTION_ERRORS = (
    http.client.RemoteDisconnected,
    ConnectionResetError,
    BrokenPipeError,
)

_RETRIES = obs.counter(
    "repro_fleet_client_retries_total",
    "Requests retried by the fleet client, by reason.",
    labels=("reason",),
)


class FleetServiceError(Exception):
    """A non-retryable (or retry-exhausted) error reply from the service."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class _Connection(http.client.HTTPConnection):
    """An HTTP/1.1 connection with Nagle's algorithm off.

    ``http.client`` writes a POST's headers and body in two ``send()``
    calls; with Nagle on, the body waits for the server's delayed ACK of
    the headers (tens of milliseconds per request on a kept-alive socket).
    """

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class FleetClient:
    """Convenience wrapper over the fleet service's JSON endpoints.

    Each calling thread gets its own persistent HTTP/1.1 connection, opened
    on first use and kept alive across requests; one client may be shared
    by many threads.  A connection is dropped when the server answers
    ``Connection: close`` (every error reply to a POST does) and reopened
    by the next request.  A *reused* connection
    the server has meanwhile closed fails before any reply byte arrives;
    the client then reconnects once, immediately, without spending a retry
    (counted as ``reason="stale_connection"``).  :meth:`close` — or leaving
    a ``with`` block — closes every thread's connection.

    Parameters
    ----------
    base_url:
        Service root, e.g. ``http://127.0.0.1:8080``.
    timeout_s:
        Per-request socket timeout.
    retries:
        Transient failures retried per request before giving up.
    backoff_s / backoff_cap_s:
        Exponential backoff base and ceiling: attempt ``k`` sleeps
        ``min(cap, backoff_s * 2**k)`` scaled by a jitter factor in
        ``[0.5, 1.5)`` — unless the server sent ``Retry-After``, which
        wins.
    jitter_seed:
        Seed of the jitter generator (determinism rule: no unseeded
        randomness anywhere in the project, clients included).
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout_s: float = 10.0,
        retries: int = 5,
        backoff_s: float = 0.1,
        backoff_cap_s: float = 2.0,
        jitter_seed: int = 0,
    ):
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.base_url = base_url.rstrip("/")
        scheme, _, location = self.base_url.partition("://")
        self._netloc, _, path = location.partition("/")
        if scheme != "http" or not self._netloc:
            raise ValueError(f"base_url must be an http://host[:port] URL, got {base_url!r}")
        self._path_prefix = f"/{path}" if path else ""
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self._rng = np.random.default_rng(jitter_seed)
        self._local = threading.local()
        # Every thread's connection, so close() can reach them all.
        self._connections: Set[_Connection] = set()
        self._connections_lock = threading.Lock()

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close every thread's connection; call it with no request in flight.

        A later request on the same client simply opens a new connection.
        """
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -------------------------------------------------------------- endpoints
    def register_device(
        self,
        device_id: str,
        scenario: Optional[str] = None,
        seed: Optional[int] = None,
        exist_ok: bool = False,
    ) -> Dict[str, Any]:
        """Register a device; with ``exist_ok`` a 409 reads as success.

        ``exist_ok=True`` is the recovery idiom: a client resuming after a
        server restart re-registers blindly and proceeds either way.
        """
        payload: Dict[str, Any] = {"device_id": device_id}
        if scenario is not None:
            payload["scenario"] = scenario
        if seed is not None:
            payload["seed"] = seed
        try:
            return self._request("POST", "/devices", payload)
        except FleetServiceError as exc:
            if exist_ok and exc.status == 409:
                return self.device_health(device_id)
            raise

    def ingest(
        self, device_id: str, bits: str, seq: Optional[int] = None
    ) -> Dict[str, Any]:
        """Submit one chunk of bits; pass ``seq`` for idempotent retries."""
        payload: Dict[str, Any] = {"device_id": device_id, "bits": bits}
        if seq is not None:
            payload["seq"] = seq
        return self._request("POST", "/ingest", payload)

    def device_health(self, device_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/devices/{device_id}/health")

    def fleet_summary(self) -> Dict[str, Any]:
        return self._request("GET", "/fleet/summary")

    def metrics_text(self) -> str:
        body = self._request_raw("GET", "/metrics")
        return body.decode("utf-8")

    # -------------------------------------------------------------- plumbing
    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        body = self._request_raw(method, path, payload)
        decoded = json.loads(body)
        if not isinstance(decoded, dict):
            raise FleetServiceError(502, "service returned a non-object JSON body")
        return decoded

    def _request_raw(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> bytes:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        target = self._path_prefix + path
        last_error: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            try:
                status, reason, retry_after, data = self._exchange(
                    method, target, body, headers
                )
            except (OSError, http.client.HTTPException) as exc:
                # Connection refused / reset / timed out: the server may be
                # mid-restart (the chaos harness guarantees it sometimes is).
                if attempt == self.retries:
                    raise FleetServiceError(503, f"service unreachable: {exc}")
                last_error = exc
                _RETRIES.inc(reason="connection")
                self._sleep(attempt, None)
                continue
            if 200 <= status < 300:
                return data
            detail = self._error_message(data, reason)
            if status not in _RETRYABLE_STATUSES or attempt == self.retries:
                raise FleetServiceError(status, detail)
            last_error = FleetServiceError(status, detail)
            _RETRIES.inc(reason=f"http_{status}")
            self._sleep(attempt, self._retry_after(retry_after))
        raise FleetServiceError(503, f"service unreachable: {last_error}")

    def _connection(self) -> _Connection:
        connection: Optional[_Connection] = getattr(self._local, "connection", None)
        if connection is None:
            connection = _Connection(self._netloc, timeout=self.timeout_s)
            self._local.connection = connection
            with self._connections_lock:
                self._connections.add(connection)
        return connection

    def _exchange(
        self, method: str, target: str, body: Optional[bytes], headers: Dict[str, str]
    ) -> Tuple[int, str, Optional[str], bytes]:
        """One request/reply on this thread's connection.

        Returns ``(status, reason, Retry-After header, body)``.  On a reply
        marked ``Connection: close`` ``http.client`` has already dropped
        the socket, so the next request opens a fresh one.
        """
        connection = self._connection()
        reused = connection.sock is not None
        try:
            try:
                connection.request(method, target, body=body, headers=headers)
                reply = connection.getresponse()
            except _STALE_CONNECTION_ERRORS:
                if not reused:
                    raise
                # The server closed the kept-alive socket while it sat idle
                # (timeout, restart), so it never read this request: resend
                # it once on a fresh socket.
                connection.close()
                _RETRIES.inc(reason="stale_connection")
                connection.request(method, target, body=body, headers=headers)
                reply = connection.getresponse()
            data = reply.read()
        except BaseException:
            connection.close()
            raise
        return reply.status, reply.reason, reply.getheader("Retry-After"), data

    @staticmethod
    def _error_message(data: bytes, reason: str) -> str:
        try:
            decoded = json.loads(data)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return reason
        if isinstance(decoded, dict) and isinstance(decoded.get("error"), str):
            return decoded["error"]
        return str(decoded)

    @staticmethod
    def _retry_after(raw: Optional[str]) -> Optional[float]:
        if raw is None:
            return None
        try:
            value = float(raw)
        except ValueError:
            return None
        return value if value >= 0 else None

    def _sleep(self, attempt: int, retry_after: Optional[float]) -> None:
        if retry_after is not None:
            delay = retry_after
        else:
            delay = min(self.backoff_cap_s, self.backoff_s * (2.0**attempt))
            delay *= 0.5 + float(self._rng.random())
        if delay > 0:
            time.sleep(delay)
