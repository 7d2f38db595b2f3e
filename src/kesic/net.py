"""Client-side transport abstraction, and the ticket API's HTTP framing.

The SDK speaks to the KDC and devices over ``udp_call`` and to the ticket
API over ``http_post``. The socket implementation below is used in live
mode; the harness provides a virtual-transport implementation with the
same interface so the SDK code path is identical in both modes.

``read_head`` is the one HTTP/1.1 head reader: the client reads replies
with it and the daemon's ticket API reads requests with it.
"""

from __future__ import annotations

import json
import re
import socket
import threading
from typing import BinaryIO, NamedTuple, Optional

from .errors import FieldFormatError, Timeout

HTTP_TIMEOUT_S = 5.0
_RECV_SIZE = 65535

# HTTP/1.1 framing (RFC 9112), the subset both ends of the ticket API use.
MAX_LINE_BYTES = 8192  # one start line or header line, with its CRLF
MAX_HEADERS = 64
MAX_BODY_BYTES = 64 * 1024  # a ticket request or reply is a few hundred bytes
_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
_CTL = bytes(range(32)).replace(b"\t", b"") + b"\x7f"  # controls other than HTAB
_LENGTH_DIGITS = len(str(MAX_BODY_BYTES))
_VERSIONS = ("HTTP/1.0", "HTTP/1.1")


class Head(NamedTuple):
    """A message's start line and its header fields, names as sent."""

    start: str
    headers: dict[str, str]


def _read_line(rfile: BinaryIO) -> Optional[str]:
    """One line of a head without its line end; None at the end of the stream."""
    raw = rfile.readline(MAX_LINE_BYTES + 1)
    if not raw.endswith(b"\n"):
        if len(raw) > MAX_LINE_BYTES:
            raise FieldFormatError(f"HTTP line longer than {MAX_LINE_BYTES} bytes")
        if raw:
            raise FieldFormatError("HTTP head cut short")
        return None
    # RFC 9112 2.2: a bare LF may end a line as CRLF does.
    line = raw[:-1].removesuffix(b"\r")
    if len(line.translate(None, _CTL)) != len(line):
        raise FieldFormatError("control character in HTTP head")
    return line.decode("latin-1")


def read_head(rfile: BinaryIO) -> Optional[Head]:
    """Read one HTTP/1.x head: the start line, the header fields, the blank line.

    Returns None when the stream ends before the first byte. Reads nothing
    past the blank line, so the body stays in ``rfile``. Raises
    FieldFormatError for anything malformed: an over-long line, more than
    MAX_HEADERS fields, a folded line or one without a colon, a repeated
    Content-Length, or an end of stream inside the head.
    """
    start = _read_line(rfile)
    if start is None:
        return None
    if not start:
        raise FieldFormatError("empty HTTP start line")
    headers: dict[str, str] = {}
    names: dict[str, str] = {}  # lower-case name -> the name as first sent
    for count in range(MAX_HEADERS + 1):
        line = _read_line(rfile)
        if line is None:
            raise FieldFormatError("HTTP head cut short")
        if not line:
            return Head(start, headers)
        if count == MAX_HEADERS:
            break
        # A folded line starts with whitespace, so its name is not a token.
        name, colon, value = line.partition(":")
        if not colon or not _TOKEN.fullmatch(name):
            raise FieldFormatError(f"malformed HTTP header line {line[:40]!r}")
        value = value.strip(" \t")
        key = name.lower()
        first = names.get(key)
        if first is None:
            names[key] = name
            headers[name] = value
        elif key == "content-length":
            raise FieldFormatError("repeated Content-Length")
        else:
            headers[first] += ", " + value  # RFC 9110 5.3: a repeated field is a list
    raise FieldFormatError(f"more than {MAX_HEADERS} HTTP header fields")


def header(headers: dict[str, str], name: str) -> Optional[str]:
    """The value of header field ``name``, matched without regard to case."""
    name = name.lower()
    return next((v for k, v in headers.items() if k.lower() == name), None)


def wants_close(headers: dict[str, str]) -> bool:
    """Whether a head's Connection field asks to close after this message."""
    value = header(headers, "Connection")
    return value is not None and "close" in (t.strip().lower() for t in value.split(","))


def body_length(headers: dict[str, str]) -> Optional[int]:
    """A head's Content-Length, or None when it has none.

    Raises FieldFormatError unless the value is plain decimal digits, and for
    any Transfer-Encoding: only Content-Length bodies are served. A value
    with more digits than MAX_BODY_BYTES reads as MAX_BODY_BYTES + 1, so no
    huge number is ever parsed.
    """
    if header(headers, "Transfer-Encoding") is not None:
        raise FieldFormatError("Transfer-Encoding is not supported; send a Content-Length")
    value = header(headers, "Content-Length")
    if value is None:
        return None
    if not (value.isascii() and value.isdigit()):
        raise FieldFormatError(f"Content-Length must be a decimal byte count, got {value!r}")
    return int(value) if len(value) <= _LENGTH_DIGITS else MAX_BODY_BYTES + 1


def parse_request_line(start: str) -> tuple[str, str, str]:
    """(method, target, version) of a request line, checked."""
    parts = start.split(" ")
    if len(parts) != 3 or not _TOKEN.fullmatch(parts[0]) or not parts[1] or parts[2] not in _VERSIONS:
        raise FieldFormatError(f"malformed HTTP request line {start[:40]!r}")
    method, target, version = parts
    return method, target, version


def _parse_status_line(start: str) -> tuple[str, int]:
    """(version, status) of a status line, checked."""
    version, _, rest = start.partition(" ")
    code, reason_sep = rest[:3], rest[3:4]
    if version not in _VERSIONS or not (code.isascii() and code.isdigit()) or len(code) != 3 or reason_sep not in ("", " "):
        raise FieldFormatError(f"malformed HTTP status line {start[:40]!r}")
    return version, int(code)


def _render_request(host: str, target: str, headers: dict[str, str], body: bytes) -> bytes:
    """A POST request, head and body, as one buffer for one send."""
    lines = [f"POST {target} HTTP/1.1"]
    if header(headers, "Host") is None:
        lines.append(f"Host: {host}")
    if header(headers, "Content-Length") is None:
        lines.append(f"Content-Length: {len(body)}")
    lines += [f"{name}: {value}" for name, value in headers.items()]
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    # The line ends must be the head's only control bytes.
    if " " in target or len(head) - len(head.translate(None, _CTL)) != 2 * len(lines) + 2:
        raise FieldFormatError(f"malformed request to {target!r}")
    if not all(_TOKEN.fullmatch(name) for name in headers):
        raise FieldFormatError(f"malformed request header name in {list(headers)!r}")
    return head + body


class Network:
    def udp_call(self, addr: object, payload: bytes, timeout: float = 2.0) -> bytes:
        raise NotImplementedError

    def http_post(
        self, url: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, dict[str, str], bytes]:
        raise NotImplementedError


def parse_hostport(addr: str) -> tuple[str, int]:
    host, _, port = addr.rpartition(":")
    return host or "127.0.0.1", int(port)


class _HttpConnection:
    """One kept-alive HTTP/1.1 connection to a ticket-API host."""

    def __init__(self, host: str) -> None:
        self.sock = socket.create_connection(parse_hostport(host), timeout=HTTP_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")
        self.reusable = True

    def exchange(self, request: bytes) -> Optional[tuple[int, dict[str, str], bytes]]:
        """Send one request and read its reply.

        Returns None when the server closed or reset the connection before
        a byte of reply: it never read the request, so sending it again is
        safe. Raises FieldFormatError for a malformed reply.
        """
        try:
            self.sock.sendall(request)
            if not self.rfile.peek(1):
                return None
        except (ConnectionResetError, BrokenPipeError):
            return None
        head = read_head(self.rfile)
        if head is None:
            return None
        version, status = _parse_status_line(head.start)
        length = body_length(head.headers)
        if length is None or length > MAX_BODY_BYTES:
            raise FieldFormatError(f"reply needs a Content-Length of at most {MAX_BODY_BYTES}")
        body = self.rfile.read(length)
        if len(body) != length:
            raise FieldFormatError("HTTP reply body cut short")
        self.reusable = version == "HTTP/1.1" and not wants_close(head.headers)
        return status, head.headers, body

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class _Connections(threading.local):
    """One thread's open sockets, so no thread reads another's reply."""

    def __init__(self) -> None:
        self.udp: dict[str, socket.socket] = {}
        self.http: dict[str, _HttpConnection] = {}


class SocketNetwork(Network):
    """Real sockets, kept open across calls.

    Each thread holds one connected UDP socket per peer and one HTTP/1.1
    connection per ticket-API host.
    """

    def __init__(self) -> None:
        self._conns = _Connections()

    def udp_call(self, addr: object, payload: bytes, timeout: float = 2.0) -> bytes:
        key = str(addr)
        socks = self._conns.udp
        sock = socks.get(key)
        if sock is None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.connect(parse_hostport(key))
            socks[key] = sock
        sock.settimeout(timeout)
        try:
            sock.send(payload)
            return sock.recv(_RECV_SIZE)
        except OSError as exc:
            # A late reply to this call must never answer the next one.
            del socks[key]
            sock.close()
            if isinstance(exc, socket.timeout):
                raise Timeout(f"no reply from {addr}") from exc
            raise

    def http_post(
        self, url: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, dict[str, str], bytes]:
        scheme, _, rest = url.partition("://")
        host, _, path = rest.partition("/")
        if scheme != "http" or not host:
            raise FieldFormatError(f"ticket API URL must be http://host:port/..., got {url!r}")
        request = _render_request(host, "/" + path, headers, body)
        conn = self._conns.http.pop(host, None)
        try:
            if conn is not None:
                reply = conn.exchange(request)
                if reply is None:
                    # The server closed the idle connection; one fresh one.
                    conn.close()
                    conn = None
            if conn is None:
                conn = _HttpConnection(host)
                reply = conn.exchange(request)
                if reply is None:
                    raise ConnectionResetError("connection closed before a status line")
        except (FieldFormatError, OSError) as exc:
            if conn is not None:
                conn.close()
            raise Timeout(f"ticket API unreachable at {url}: {exc}") from exc
        if conn.reusable:
            self._conns.http[host] = conn
        else:
            conn.close()
        return reply

    def close(self) -> None:
        """Close the calling thread's sockets; later calls open new ones."""
        for sock in self._conns.udp.values():
            sock.close()
        for conn in self._conns.http.values():
            conn.close()
        self._conns.udp.clear()
        self._conns.http.clear()


def sim_http_payload(method: str, path: str, headers: dict[str, str], body: bytes) -> bytes:
    """JSON envelope used to carry HTTP over the simulated transport."""
    return json.dumps(
        {"method": method, "path": path, "headers": headers, "body": body.decode("utf-8")},
        sort_keys=True,
    ).encode("utf-8")


def sim_http_response(status: int, headers: dict[str, str], body: bytes) -> bytes:
    return json.dumps(
        {"status": status, "headers": headers, "body": body.decode("utf-8")},
        sort_keys=True,
    ).encode("utf-8")
