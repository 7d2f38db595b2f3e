"""Client-side transport abstraction.

The SDK speaks to the KDC and devices over ``udp_call`` and to the ticket
API over ``http_post``. The socket implementation below is used in live
mode; the harness provides a virtual-transport implementation with the
same interface so the SDK code path is identical in both modes.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading

from .errors import FieldFormatError, Timeout

HTTP_TIMEOUT_S = 5.0
_RECV_SIZE = 65535
# How a kept-alive connection looks when the server closed it while idle.
# The request never reached a handler, so sending it again is safe.
_IDLE_CLOSE = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)


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


class _Connections(threading.local):
    """One thread's open sockets, so no thread reads another's reply."""

    def __init__(self) -> None:
        self.udp: dict[str, socket.socket] = {}
        self.http: dict[str, http.client.HTTPConnection] = {}


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
        conns = self._conns.http
        conn = conns.get(host)
        if conn is None:
            conn = conns[host] = http.client.HTTPConnection(host, timeout=HTTP_TIMEOUT_S)
        reused = conn.sock is not None
        try:
            try:
                conn.request("POST", "/" + path, body, headers)
                resp = conn.getresponse()
            except _IDLE_CLOSE:
                if not reused:
                    raise
                # The server closed the idle connection; one fresh one.
                conn.close()
                conn.request("POST", "/" + path, body, headers)
                resp = conn.getresponse()
            return resp.status, dict(resp.headers.items()), resp.read()
        except (http.client.HTTPException, OSError) as exc:
            conn.close()
            raise Timeout(f"ticket API unreachable at {url}: {exc}") from exc

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
