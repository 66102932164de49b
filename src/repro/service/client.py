"""Clients for the ``repro-serve`` wire protocol.

* :class:`InProcessClient` — answers each request through the server's one
  request path (:func:`~repro.service.server.handle_line` on its own
  :class:`~repro.service.batching.MicroBatcher`), without a process
  boundary.  Every request runs one ``asyncio.run``, which costs about
  2 ms; it is a client for tests and examples, not for load.
* :class:`TCPClient` — a blocking, reconnecting client for the TCP front
  end.

Both retry retryable error replies under a
:class:`~repro.service.resilience.RetryPolicy`; that is safe because every
ranking request is idempotent by content fingerprint.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from typing import Any, Callable, Mapping

from repro.service.api import PredictionService, RankingQuery, RankingReply
from repro.service.batching import MicroBatcher
from repro.service.errors import RETRYABLE_CODES
from repro.service.resilience import RetryPolicy
from repro.service.server import handle_line

__all__ = ["InProcessClient", "TCPClient"]


class InProcessClient:
    """Synchronous client driving a service through the wire protocol.

    Useful in examples and tests: requests and replies take exactly the
    shape the stdio/TCP servers exchange, and travel the same request path
    (JSON parsing, protocol verbs, micro-batch admission, deadline check),
    without a process boundary.  When built with a
    :class:`~repro.service.resilience.RetryPolicy`, a reply whose error
    code is retryable (``OVERLOADED`` / ``BACKEND_FAILURE``) is retried
    with full-jitter exponential backoff.

    Examples::

        >>> from repro.core import BatchedLinearTransposition
        >>> from repro.data import build_default_dataset
        >>> dataset = build_default_dataset()
        >>> client = InProcessClient(
        ...     PredictionService(dataset, {"NN^T": BatchedLinearTransposition()})
        ... )
        >>> reply = client.request({
        ...     "application": "gcc",
        ...     "predictive_machines": dataset.machine_ids[:4],
        ...     "top_n": 1,
        ... })
        >>> reply["ok"], len(reply["ranking"])
        (True, 1)
    """

    def __init__(
        self,
        service: PredictionService,
        retry: RetryPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.service = service
        self.retry = retry
        self._sleep = sleep
        self._batcher = MicroBatcher(service)
        #: Requests re-sent after a retryable error reply.
        self.retries = 0

    def _answer(self, line: str) -> dict[str, Any]:
        return asyncio.run(handle_line(self.service, self._batcher, line))

    def request(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Send one request object, get its reply object (retrying if configured)."""
        line = json.dumps(payload)
        reply = self._answer(line)
        if self.retry is None:
            return reply
        for delay in self.retry.delays():
            if reply.get("ok") or reply.get("code") not in RETRYABLE_CODES:
                return reply
            self._sleep(delay)
            self.retries += 1
            reply = self._answer(line)
        return reply

    def rank(self, query: RankingQuery) -> RankingReply:
        """Typed convenience bypassing JSON: answer one query directly."""
        return self.service.rank(query)


class TCPClient:
    """Blocking JSON-lines client for the TCP front end, with retries.

    Maintains one connection, re-establishing it transparently when the
    server (or an injected ``conn_drop`` fault) closes it mid-conversation.
    Connection failures and retryable error replies are retried under the
    :class:`~repro.service.resilience.RetryPolicy` — full-jitter backoff,
    safe because ranking requests are idempotent by content fingerprint.
    A non-retryable error reply is returned as-is; exhausting every
    attempt on connection failures re-raises the last ``OSError``.

    Use as a context manager::

        with TCPClient("127.0.0.1", 8077) as client:
            reply = client.request({"op": "health"})
    """

    def __init__(
        self,
        host: str,
        port: int,
        retry: RetryPolicy | None = None,
        timeout: float = 10.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeout = timeout
        self._sleep = sleep
        self._sock: socket.socket | None = None
        self._file = None
        #: Requests re-sent after a drop or retryable error reply.
        self.retries = 0

    # --------------------------------------------------------- connection
    def connect(self) -> None:
        """Ensure a live connection (no-op when already connected)."""
        if self._sock is not None:
            return
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._file = self._sock.makefile("rwb")

    def close(self) -> None:
        """Drop the connection (a later request reconnects)."""
        if self._file is not None:
            try:
                self._file.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
            self._sock = None

    def __enter__(self) -> "TCPClient":
        self.connect()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ----------------------------------------------------------- requests
    def _roundtrip(self, line: bytes) -> dict[str, Any]:
        self.connect()
        assert self._file is not None
        self._file.write(line + b"\n")
        self._file.flush()
        reply_line = self._file.readline()
        if not reply_line:
            raise ConnectionError("server closed the connection")
        return json.loads(reply_line.decode())

    def request(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Send one request object, get its reply object (with retries)."""
        line = json.dumps(payload).encode()
        delays = list(self.retry.delays())
        last_error: OSError | None = None
        for attempt in range(self.retry.max_attempts):
            try:
                reply = self._roundtrip(line)
            except (OSError, ValueError) as exc:
                # OSError covers ConnectionError + timeouts; ValueError is a
                # torn JSON line from a connection dropped mid-reply.
                self.close()
                last_error = exc if isinstance(exc, OSError) else ConnectionError(str(exc))
            else:
                if reply.get("ok") or reply.get("code") not in RETRYABLE_CODES:
                    return reply
                last_error = None
            if attempt < len(delays):
                self._sleep(delays[attempt])
                self.retries += 1
        if last_error is not None:
            raise last_error
        return reply
