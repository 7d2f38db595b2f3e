"""Long-running service entry points: KDC, IoT server, emulated device.

Each main binds real sockets around the transport-agnostic handlers and
prints ``READY`` on stdout once it is serving, which is what the live
harness (and shell scripts) wait for. All services are UDP
request/response except the ticket API, which is plain HTTP.
"""

from __future__ import annotations

import argparse
import logging
import socket
import socketserver
import sys
import threading

from .clock import SystemClock
from .device import DEVICE_CLASSES, DeviceProfile
from .isv import Isv, IsvConfig
from .kdc import Kdc
from .net import _RECV_SIZE, parse_hostport, serve_http
from .wire import parse_json

logger = logging.getLogger(__name__)

# A kept-alive ticket API connection that carries no request for this long
# is closed; so is one whose request stalls for this long.
HTTP_IDLE_TIMEOUT_S = 10.0


def _bind_udp(port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(("127.0.0.1", port))
    return sock


def _announce_ready(what: str) -> None:
    print(f"READY {what}", flush=True)


def _load_json(path: str) -> object:
    with open(path, "rb") as fh:
        return parse_json(fh.read(), path)


# --- KDC ----------------------------------------------------------------------


def kdc_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="kesic-kdc", description="Kerberos KDC (UDP)")
    parser.add_argument("--db", required=True, help="principals and ticket policy JSON")
    parser.add_argument("--port", type=int, default=8750)
    args = parser.parse_args(argv)

    center = Kdc.from_json_obj(_load_json(args.db))

    def handle(data: bytes, src, send) -> None:
        send(src, center.handle_datagram(data, src))

    sock = _bind_udp(args.port)
    _announce_ready(f"kdc 127.0.0.1:{args.port}")
    try:
        _udp_pump(sock, handle)
    except KeyboardInterrupt:
        return 0
    finally:
        sock.close()
    return 1  # the socket failed


# --- IoT server ---------------------------------------------------------------


class _TicketHttpHandler(socketserver.StreamRequestHandler):
    """Serves ticket API requests on one connection, kept alive until the
    client closes it, asks to, speaks HTTP/1.0, or idles past the timeout."""

    # Each reply leaves in one write; Nagle must not hold it back either.
    disable_nagle_algorithm = True
    timeout = HTTP_IDLE_TIMEOUT_S

    def handle(self) -> None:
        isv = self.server.isv
        try:
            while serve_http(self.rfile, self.wfile, isv.tickets.handle_http, isv.clock):
                pass
        except TimeoutError:
            pass  # idle, or a request stalled: hang up


class _TicketHttpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    block_on_close = False  # closing must not wait out kept-alive connections
    isv: Isv

    def handle_error(self, request, client_address) -> None:
        # socketserver's default prints a traceback to stderr, which the live
        # harness reads only after the daemon exits.
        if isinstance(sys.exc_info()[1], ConnectionError):
            logger.debug("ticket API client %s went away", client_address, exc_info=True)
        else:
            logger.exception("ticket API connection from %s failed", client_address)


def _udp_pump(sock: socket.socket, handler, tick=None) -> None:
    """recvfrom loop feeding a (data, src, send) handler.

    With a short socket timeout the loop doubles as a ticker, invoking
    ``tick`` periodically (used for attestation-deadline expiry).
    """

    def send(addr, payload: bytes) -> None:
        sock.sendto(payload, addr)

    sock.settimeout(0.25)
    while True:
        try:
            data, src = sock.recvfrom(_RECV_SIZE)
        except socket.timeout:
            if tick is not None:
                tick()
            continue
        except OSError:
            return
        try:
            handler(data, src, send)
        except Exception:
            # Last resort: a handler bug or a failed write must not stop
            # the service for every other peer.
            logger.exception("handler failed on %d bytes from %s", len(data), src)


def isv_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="kesic-isv", description="IoT server (HTTP + UDP)")
    parser.add_argument("--devices", required=True, help="server config JSON")
    parser.add_argument("--http-port", type=int, default=8751)
    parser.add_argument("--sync-port", type=int, default=8752)
    parser.add_argument("--attest-port", type=int, default=8753)
    parser.add_argument("--state", default=None, help="counter journal (created if missing)")
    args = parser.parse_args(argv)

    config, records = IsvConfig.from_json_obj(_load_json(args.devices))
    isv = Isv(config, records, state_path=args.state)

    sync_sock = _bind_udp(args.sync_port)
    attest_sock = _bind_udp(args.attest_port)
    threading.Thread(
        target=_udp_pump,
        args=(sync_sock, isv.sync.handle_sync),
        kwargs={"tick": isv.sync.expire_pending},
        daemon=True,
    ).start()
    threading.Thread(
        target=_udp_pump, args=(attest_sock, isv.sync.handle_attest), daemon=True
    ).start()

    httpd = _TicketHttpServer(("127.0.0.1", args.http_port), _TicketHttpHandler)
    httpd.isv = isv
    _announce_ready(
        f"isv http=127.0.0.1:{args.http_port} sync=:{args.sync_port} attest=:{args.attest_port}"
    )
    try:
        httpd.serve_forever(poll_interval=0.25)
    except KeyboardInterrupt:
        return 0
    finally:
        httpd.server_close()
        sync_sock.close()
        attest_sock.close()
        isv.registry.close()


# --- Emulated device ------------------------------------------------------------


def device_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="kesic-device", description="Emulated IoT device (UDP)")
    parser.add_argument("--profile", required=True, help="device profile JSON")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--isv-addr", required=True, metavar="HOST:PORT", help="server sync port")
    parser.add_argument(
        "--isv-attest-addr",
        default=None,
        metavar="HOST:PORT",
        help="server attestation port (default: sync port + 1)",
    )
    parser.add_argument("--memory-image", required=True, help="initial memory contents")
    parser.add_argument("--state", default=None, help="sync-counter persistence JSON")
    args = parser.parse_args(argv)

    with open(args.memory_image, "rb") as fh:
        memory = fh.read()
    sync_host, sync_port = parse_hostport(args.isv_addr)
    if args.isv_attest_addr is not None:
        attest_addr = parse_hostport(args.isv_attest_addr)
    else:
        attest_addr = (sync_host, sync_port + 1)
    profile = DeviceProfile.from_json_obj(
        _load_json(args.profile),
        memory=memory,
        isv_sync_addr=(sync_host, sync_port),
        isv_attest_addr=attest_addr,
        state_path=args.state,
    )
    device = DEVICE_CLASSES[profile.dtype](profile, SystemClock())

    sock = _bind_udp(args.port)

    def send(addr, payload: bytes) -> None:
        sock.sendto(payload, addr)

    # Sync before serving: first contact initializes time (general) or the
    # counter window (power-constrained, via the attestation round trip).
    sock.settimeout(0.5)
    device.boot(send)
    for _ in range(20):
        if device.synced:
            break
        try:
            data, src = sock.recvfrom(_RECV_SIZE)
        except socket.timeout:
            device.boot(send)  # retransmit the pending sync request
            continue
        device.handle_datagram(data, src, send)
    if not device.synced:
        print("ERROR sync with server failed", file=sys.stderr, flush=True)
        return 1

    _announce_ready(f"device {profile.name} 127.0.0.1:{args.port}")
    try:
        _udp_pump(sock, device.handle_datagram)
    except KeyboardInterrupt:
        return 0
    finally:
        sock.close()
    return 1  # the socket failed


if __name__ == "__main__":
    name = sys.argv[1] if len(sys.argv) > 1 else ""
    mains = {"kdc": kdc_main, "isv": isv_main, "device": device_main}
    if name not in mains:
        print("usage: python -m kesic.daemon {kdc|isv|device} ...", file=sys.stderr)
        sys.exit(2)
    sys.exit(mains[name](sys.argv[2:]))
