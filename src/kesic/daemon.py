"""Long-running service entry points: KDC, IoT server, emulated device.

Each main binds real sockets around the transport-agnostic handlers and
prints ``READY`` on stdout once it is serving, which is what the live
harness (and shell scripts) wait for. All services are UDP
request/response except the ticket API, which is plain HTTP.

``python -m kesic.daemon launch`` is the launcher the live harness starts:
it imports every role once and forks one daemon per argv it is given.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import select
import shlex
import signal
import socket
import socketserver
import sys
import threading
import traceback

from .clock import SystemClock
from .device import DEVICE_CLASSES, DeviceProfile
from .errors import FieldFormatError, KesicError
from .isv import Isv, IsvConfig
from .kdc import Kdc
from .net import _RECV_SIZE, parse_hostport, serve_http
from .wire import parse_json

logger = logging.getLogger(__name__)

# A kept-alive ticket API connection that carries no request for this long
# is closed; so is one whose request stalls for this long.
HTTP_IDLE_TIMEOUT_S = 10.0
# The ticket API serves at most this many connections at once; a connection
# over the cap is closed unanswered.
HTTP_MAX_CONNECTIONS = 64


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


def _start_failed(exc: Exception) -> int:
    """A config or --state file that cannot be loaded ends a daemon with one
    line on stderr and status 2, before it binds a socket."""
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 2


# --- KDC ----------------------------------------------------------------------


def kdc_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="kesic-kdc", description="Kerberos KDC (UDP)")
    parser.add_argument("--db", required=True, help="principals and ticket policy JSON")
    parser.add_argument("--port", type=int, default=8750)
    args = parser.parse_args(argv)

    try:
        center = Kdc.from_json_obj(_load_json(args.db))
    except (KesicError, OSError) as exc:
        return _start_failed(exc)

    sock = _bind_udp(args.port)
    _announce_ready(f"kdc 127.0.0.1:{args.port}")
    try:
        _udp_pump(sock, lambda data, src, send: send(src, center.handle_datagram(data)))
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

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._slots = threading.BoundedSemaphore(HTTP_MAX_CONNECTIONS)

    def process_request(self, request, client_address) -> None:
        if not self._slots.acquire(blocking=False):
            self.shutdown_request(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._slots.release()  # no handler thread started to release it
            raise

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()

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

    try:
        config, records = IsvConfig.from_json_obj(_load_json(args.devices))
        isv = Isv(config, records, state_path=args.state)
    except (KesicError, OSError) as exc:
        return _start_failed(exc)

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

    try:
        sync_host, sync_port = parse_hostport(args.isv_addr)
        if args.isv_attest_addr is not None:
            attest_addr = parse_hostport(args.isv_attest_addr)
        else:
            attest_addr = (sync_host, sync_port + 1)
        with open(args.memory_image, "rb") as fh:
            memory = fh.read()
        profile = DeviceProfile.from_json_obj(
            _load_json(args.profile),
            memory=memory,
            isv_sync_addr=(sync_host, sync_port),
            isv_attest_addr=attest_addr,
            state_path=args.state,
        )
        device = DEVICE_CLASSES[profile.dtype](profile, SystemClock())
    except (KesicError, OSError) as exc:
        return _start_failed(exc)

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


# --- Launcher -------------------------------------------------------------------

ROLES = {"kdc": kdc_main, "isv": isv_main, "device": device_main}

# How long the launcher waits for a line before it looks for exited daemons.
_WATCH_S = 0.1


def launch_main(argv: list[str]) -> int:
    """Forks one daemon per argv: ``argv`` itself if it is not empty, then
    one JSON list per stdin line, such as ``["kdc", "--db", "kdc.json"]``.

    Every role is imported once, here, so a daemon starts without paying for
    the interpreter and the package again. On stdin EOF or SIGTERM the
    launcher stops its daemons and exits 0. A daemon that exits on its own
    stops the others too; the launcher then names it in one stderr line and
    exits 1. A line that is not a daemon argv is one ``error:`` line, exit 2.
    """
    stop_signals: list[int] = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stop_signals.append(signum))
    # Each daemon holds the read end; the launcher alone holds the write end,
    # so the daemons see EOF once the launcher is gone, however it died.
    lifeline = os.pipe()
    children: dict[int, list[str]] = {}
    status, message = 0, ""
    try:
        if argv:
            _fork_daemon(_checked_role(argv), lifeline, children)
        pending = b""
        while not stop_signals:
            if select.select([0], [], [], _WATCH_S)[0]:
                data = os.read(0, 65536)
                if not data:
                    break
                *lines, pending = (pending + data).split(b"\n")
                for line in lines:
                    _fork_daemon(_daemon_argv(line), lifeline, children)
            if children:
                pid, wait_status = os.waitpid(-1, os.WNOHANG)
                if pid:
                    code = os.waitstatus_to_exitcode(wait_status)
                    status = 1
                    message = f"error: daemon {shlex.join(children.pop(pid))} (pid {pid}) exited with {code}"
                    break
    except FieldFormatError as exc:
        status, message = 2, f"error: {type(exc).__name__}: {exc}"
    finally:
        for pid in children:
            os.kill(pid, signal.SIGTERM)
        for pid in children:
            os.waitpid(pid, 0)
    if message:
        print(message, file=sys.stderr)
    return status


def _checked_role(argv: list[str]) -> list[str]:
    if argv[0] not in ROLES:
        raise FieldFormatError(f"launcher: unknown daemon role {argv[0]!r}; choose from {sorted(ROLES)}")
    return argv


def _daemon_argv(line: bytes) -> list[str]:
    try:
        argv = json.loads(line)
    except (ValueError, RecursionError):
        argv = None
    if not (isinstance(argv, list) and argv and all(isinstance(arg, str) for arg in argv)):
        raise FieldFormatError(f"launcher: line is not a JSON list of strings: {line[:80]!r}")
    return _checked_role(argv)


def _fork_daemon(argv: list[str], lifeline: tuple[int, int], children: dict[int, list[str]]) -> None:
    # A fork copies only the calling thread; the daemon must not inherit a
    # lock another thread held, nor any random state (Rng() draws from the OS).
    assert threading.active_count() == 1, "the launcher forks from its only thread"
    sys.stdout.flush()
    sys.stderr.flush()
    # A SIGTERM between the fork and the child's reset must kill the child,
    # not run the launcher's handler there.
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    pid = os.fork()
    if pid:
        children[pid] = argv
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
        return
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
        os._exit(_run_daemon(argv, lifeline))
    finally:
        os._exit(1)  # never back into the launcher's loop


def _run_daemon(argv: list[str], lifeline: tuple[int, int]) -> int:
    """The forked child: the role's main, as a fresh process would run it."""
    read_end, write_end = lifeline
    os.close(write_end)
    threading.Thread(target=_exit_with_launcher, args=(read_end,), daemon=True).start()
    devnull = os.open(os.devnull, os.O_RDONLY)
    os.dup2(devnull, 0)
    os.close(devnull)
    try:
        status = ROLES[argv[0]](argv[1:])
    except SystemExit as exc:  # argparse's usage error or --help
        status = exc.code
    except BaseException:
        traceback.print_exc()
        status = 1
    sys.stdout.flush()
    sys.stderr.flush()
    return status or 0


def _exit_with_launcher(read_end: int) -> None:
    os.read(read_end, 1)  # returns only at EOF: nothing is ever written
    os._exit(1)


if __name__ == "__main__":
    name = sys.argv[1] if len(sys.argv) > 1 else ""
    mains = {**ROLES, "launch": launch_main}
    if name not in mains:
        print("usage: python -m kesic.daemon {kdc|isv|device|launch} ...", file=sys.stderr)
        sys.exit(2)
    sys.exit(mains[name](sys.argv[2:]))
