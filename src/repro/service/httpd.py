"""A minimal stdlib-asyncio HTTP front end for the service.

Just enough HTTP/1.1 to drive :class:`ControlPlaneService` from curl or
a load generator -- no framework, no dependency, one connection per
request (``Connection: close``):

    GET  /healthz                  -> 200 {"state": ..., "mode": ...}
    GET  /stats                    -> 200 full service stats
    POST /v1/<tenant>/<op>         -> typed ServiceResponse as JSON

The POST body (optional) is a JSON object passed through as the op
payload; ``priority`` and ``deadline_s`` ride as top-level keys. The
HTTP status code IS the typed admission answer (200/400/409/429/503/
504), so a load balancer's retry policy can read shed-vs-retry straight
off the wire. A request the edge will not read whole is typed too: a
body shorter than its ``Content-Length`` is 400, one declared over
1 MiB is 413 before any of it is read, a line past the stream's 64 KiB
limit is 431, and one not read whole within 10 s of its connection
opening is 408. A connection that arrives while 64 others are open is
503 before any of it is read. An answer given before the request was
read whole reads and drops the request's rest before the close.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from .core import ControlPlaneService

_MAX_BODY = 1 << 20  # 1 MiB request-body cap
#: most connections open at once, one past it answered 503 unread: each
#: holds a handler, a 64 KiB line buffer and up to a 1 MiB body for up
#: to ``_READ_S``, so stalled clients pin at most about 70 MiB; and the
#: service queues no more than 64 requests (``max_queue_depth``) anyway
_MAX_OPEN = 64
#: how long a refused request's rest may keep its connection open
_LINGER_S = 1.0
#: how long a request's line, headers and body may take to arrive: a
#: client that stalls part-way is answered 408, not waited on forever
_READ_S = 10.0


class _Refused(Exception):
    """A request answered ``status`` before it was read whole."""

    def __init__(self, status: int, error: str):
        super().__init__(error)
        self.status = status


async def _line(reader: asyncio.StreamReader) -> str:
    try:
        line = await reader.readline()
    except ValueError:  # the line ran past the stream's limit
        raise _Refused(431, "header line too long")
    return line.decode("ascii", "replace")


async def _within(awaitable: Any, deadline: float) -> Any:
    """``awaitable``'s result, or 408 once the request's read
    ``deadline`` (loop time) has passed."""
    left = deadline - asyncio.get_running_loop().time()
    try:
        return await asyncio.wait_for(awaitable, max(left, 0.0))
    except asyncio.TimeoutError:
        raise _Refused(408, f"request not read within {_READ_S:g} s")


async def _head(reader: asyncio.StreamReader) -> Tuple[str, str, int]:
    """The request line's method and path, and the declared body length."""
    parts = (await _line(reader)).split()
    if len(parts) < 2:
        raise _Refused(400, "malformed request line")
    content_length = 0
    while True:
        line = await _line(reader)
        if line in ("\r\n", "\n", ""):
            break
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                content_length = -1
            if content_length < 0:
                raise _Refused(400, "bad content-length")
    return parts[0], parts[1], content_length


async def _request(reader: asyncio.StreamReader) -> Tuple[str, str, bytes]:
    """The request's method, path and body, read whole within
    :data:`_READ_S` of now."""
    deadline = asyncio.get_running_loop().time() + _READ_S
    method, path, content_length = await _within(_head(reader), deadline)
    if content_length > _MAX_BODY:
        raise _Refused(413, f"body over {_MAX_BODY} bytes")
    try:
        body = await _within(reader.readexactly(content_length), deadline)
    except asyncio.IncompleteReadError:
        raise _Refused(400, "body shorter than content-length")
    return method, path, body


async def _drop_rest(reader: asyncio.StreamReader) -> None:
    """Read and drop what the client still sends, until it closes or
    :data:`_LINGER_S` has passed."""

    async def to_eof() -> None:
        while await reader.read(1 << 16):
            pass

    try:
        await asyncio.wait_for(to_eof(), _LINGER_S)
    except (asyncio.TimeoutError, ConnectionError):
        pass


class ServiceHTTPD:
    """asyncio.start_server wrapper around one ControlPlaneService."""

    def __init__(
        self,
        service: ControlPlaneService,
        host: str = "127.0.0.1",
        port: int = 8787,
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        #: connections open now, refused ones too (:data:`_MAX_OPEN`)
        self._open = 0

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def address(self) -> Tuple[str, int]:
        assert self._server is not None and self._server.sockets
        sock = self._server.sockets[0].getsockname()
        return sock[0], sock[1]

    # -- request handling ---------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._open += 1
        try:
            whole = False  # was the request read whole before its answer?
            try:
                if self._open > _MAX_OPEN:
                    raise _Refused(503, "too many open connections")
                method, path, raw = await _request(reader)
                whole = True
                status, body = await self._respond(method, path, raw)
            except _Refused as exc:
                status, body = exc.status, {"error": str(exc)}
            except Exception as exc:
                status, body = 500, {"error": str(exc)}
            payload = json.dumps(body).encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode("ascii")
            writer.write(head + payload)
            await writer.drain()
            if not whole:
                # closing on unread bytes resets the connection, and the
                # client never reads the answer: drop them first
                writer.write_eof()
                await _drop_rest(reader)
        finally:
            writer.close()
            self._open -= 1

    async def _respond(
        self, method: str, path: str, raw: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        """The answer to a request read whole; the service call runs
        outside the read deadline."""
        if method == "GET" and path == "/healthz":
            stats = self.service.stats()
            return 200, {"state": stats["state"], "mode": stats["mode"]}
        if method == "GET" and path == "/stats":
            return 200, self.service.stats()
        if method == "POST" and path.startswith("/v1/"):
            segments = path.strip("/").split("/")
            if len(segments) != 3:
                return 404, {"error": "expected /v1/<tenant>/<op>"}
            _, tenant, op = segments
            try:
                payload = json.loads(raw) if raw else {}
            except ValueError:
                return 400, {"error": "body is not JSON"}
            if not isinstance(payload, dict):
                return 400, {"error": "body must be a JSON object"}
            priority = payload.pop("priority", None)
            deadline_s = payload.pop("deadline_s", None)
            response = await self.service.request(
                tenant, op, payload=payload,
                priority=priority, deadline_s=deadline_s,
            )
            return response.status, {
                "tenant": response.tenant,
                "op": response.op,
                "status": response.status,
                "reason": response.reason,
                "body": response.body,
                "queued_s": round(response.queued_s, 6),
                "service_s": round(response.service_s, 6),
            }
        return 404, {"error": f"no route for {method} {path}"}


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    409: "Conflict",
    413: "Content Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}
