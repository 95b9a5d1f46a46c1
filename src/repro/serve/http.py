"""A deliberately small HTTP/1.1 wire layer over asyncio streams.

The serve API needs exactly one verb (GET), JSON bodies, strong ETags
and keep-alive — a hand-rolled request parser and response serialiser
over ``asyncio.start_server`` covers that in a page of code and keeps
the dependency surface at zero (no ``http.server`` threading model, no
third-party framework).  Anything outside the subset — another verb, an
oversized request line, a malformed header — maps to a clean 4xx via
:class:`HttpError` rather than undefined behaviour.

:func:`http_get` is the matching client: the tests and the smoke script
both speak to the server through it, so the protocol subset is
exercised end to end from both sides.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from urllib.parse import parse_qs, unquote, urlsplit

__all__ = [
    "HTTP_VERSION",
    "MAX_HEADERS",
    "MAX_LINE_BYTES",
    "HttpError",
    "Request",
    "http_get",
    "read_request",
    "response_bytes",
]

HTTP_VERSION = "HTTP/1.1"

#: Bound on one request line or header line; longer lines are a 431.
MAX_LINE_BYTES = 8192

#: Bound on the number of header lines per request.
MAX_HEADERS = 100

_REASONS = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request outside the supported subset; carries the status to send.

    ``headers`` ride along into the response (e.g. ``Retry-After`` on a
    503, ``Allow`` on a 405).
    """

    def __init__(
        self, status: int, detail: str, headers: dict[str, str] | None = None
    ):
        super().__init__(detail)
        self.status = status
        self.detail = detail
        self.headers = dict(headers or {})


@dataclass
class Request:
    """One parsed request: method, split target, lower-cased headers."""

    method: str
    target: str
    path: str
    #: Query parameters, each name mapped to every value it appeared with
    #: (``set=`` is repeatable).
    query: dict[str, list[str]] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"

    def first(self, name: str, default: str | None = None) -> str | None:
        """The first value of query parameter ``name``, or ``default``."""
        values = self.query.get(name)
        return values[0] if values else default


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return b""  # clean EOF between requests
        raise HttpError(400, "truncated request") from None
    except asyncio.LimitOverrunError:
        raise HttpError(431, "request line too long") from None
    if len(line) > MAX_LINE_BYTES:
        raise HttpError(431, "request line too long")
    return line.rstrip(b"\r\n")


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request from the stream; None on clean connection close.

    Only the served subset is accepted: a well-formed request line, at
    most :data:`MAX_HEADERS` headers, and no request body (a
    ``Content-Length``/``Transfer-Encoding`` request is refused rather
    than mis-framed).  Violations raise :class:`HttpError`, which the
    connection handler turns into a 4xx response.
    """
    request_line = await _read_line(reader)
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {request_line!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = await _read_line(reader)
        if not line:
            break
        name, separator, value = line.decode("latin-1").partition(":")
        if not separator:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise HttpError(431, "too many headers")
    if headers.get("content-length", "0") not in ("", "0") or (
        "transfer-encoding" in headers
    ):
        raise HttpError(400, "request bodies are not supported")
    split = urlsplit(target)
    return Request(
        method=method.upper(),
        target=target,
        path=unquote(split.path) or "/",
        query=parse_qs(split.query, keep_blank_values=True),
        headers=headers,
    )


def response_bytes(
    status: int,
    body: bytes = b"",
    headers: dict[str, str] | None = None,
    keep_alive: bool = True,
) -> bytes:
    """Serialise one response, Content-Length framed (no chunking)."""
    reason = _REASONS.get(status, "Unknown")
    lines = [f"{HTTP_VERSION} {status} {reason}"]
    merged = {"content-length": str(len(body))}
    if headers:
        merged.update({name.lower(): value for name, value in headers.items()})
    if not keep_alive:
        merged["connection"] = "close"
    lines.extend(f"{name}: {value}" for name, value in sorted(merged.items()))
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


async def http_get(
    host: str,
    port: int,
    target: str,
    headers: dict[str, str] | None = None,
    timeout: float = 30.0,
) -> tuple[int, dict[str, str], bytes]:
    """One GET against a running server: ``(status, headers, body)``.

    Opens a fresh connection per call (``Connection: close``), so each
    call is independent — the shape every test and the load generator
    needs.  The body is framed by ``Content-Length``, never by EOF: a
    forked build worker can hold an inherited duplicate of the
    connection fd open, so EOF is not a reliable end-of-response signal.
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    try:
        request_headers = {"host": f"{host}:{port}", "connection": "close"}
        if headers:
            request_headers.update(
                {name.lower(): value for name, value in headers.items()}
            )
        lines = [f"GET {target} {HTTP_VERSION}"]
        lines.extend(
            f"{name}: {value}" for name, value in sorted(request_headers.items())
        )
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        await writer.drain()
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout
        )
        status_line, *header_lines = (
            head.rstrip(b"\r\n").decode("latin-1").split("\r\n")
        )
        status = int(status_line.split()[1])
        response_headers = {}
        for line in header_lines:
            name, separator, value = line.partition(":")
            if separator:
                response_headers[name.strip().lower()] = value.strip()
        length = int(response_headers.get("content-length", "0"))
        body = await asyncio.wait_for(reader.readexactly(length), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, asyncio.CancelledError):
            pass
    return status, response_headers, body
