"""Daemon socket loops: hostile HTTP framing, handler failures, the connection
cap, and the launcher's refusal of a bad line."""

import contextlib
import json
import logging
import os
import pathlib
import shutil
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

import kesic
from kesic import cli, daemon, net
from kesic.errors import FieldFormatError
from kesic.provision import provision
from kesic.rng import Rng

from conftest import HOSTILE_HEADS, SMALL_FLEET


@contextlib.contextmanager
def serving(isv):
    """A ticket API server for ``isv`` on a free loopback port; yields its address."""
    httpd = daemon._TicketHttpServer(("127.0.0.1", 0), daemon._TicketHttpHandler)
    httpd.isv = isv
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield httpd.server_address
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture
def ticket_server(cold_world):
    with serving(cold_world.isv) as addr:
        yield addr


def send_head(sock, head: str) -> tuple[int, dict]:
    """Send a request head (and no body); read one reply by its Content-Length."""
    sock.sendall(head.encode("latin-1") + b"\r\n")
    return read_reply(sock.makefile("rb"))


def read_reply(reader) -> tuple[int, dict]:
    status, _, body, _ = net.read_reply(reader)
    return status, json.loads(body)


def http_exchange(addr, head: str) -> tuple[int, dict]:
    with socket.create_connection(addr, timeout=5) as sock:
        return send_head(sock, head)


def refused_exchange(addr, head: str) -> tuple[int, dict]:
    """Like http_exchange, for a reply after which the server must hang up."""
    with socket.create_connection(addr, timeout=5) as sock:
        reply = send_head(sock, head)
        assert sock.recv(1) == b"", "a refused request must close its connection"
    return reply


@pytest.mark.parametrize(
    "length_header",
    ["", "Content-Length: -5\r\n", "Content-Length: 12abc\r\n", "Content-Length: \r\n",
     "Content-Length: +12\r\n", "Content-Length: ²\r\n"],
    ids=["missing", "negative", "non-integer", "blank", "signed", "non-ascii-digit"],
)
def test_malformed_content_length_is_400(ticket_server, length_header):
    status, obj = refused_exchange(ticket_server, f"POST /ticket HTTP/1.1\r\nHost: isv\r\n{length_header}")
    assert (status, obj["error"]) == (400, "FieldFormatError")


@pytest.mark.parametrize(
    "length",
    [str(net.MAX_BODY_BYTES + 1), str(10**12), "9" * 5000],
    ids=["cap-plus-one", "terabyte", "5000-digits"],
)
def test_oversized_content_length_is_413_without_reading_the_body(ticket_server, length):
    # No body follows: a server that tried to read it would hang until the timeout.
    head = f"POST /ticket HTTP/1.1\r\nHost: isv\r\nContent-Length: {length}\r\n"
    status, obj = refused_exchange(ticket_server, head)
    assert (status, obj["error"]) == (413, "FieldFormatError")


def read_refusal(sock) -> tuple[int, dict]:
    """Read one reply, then check that the server hung up after it."""
    reader = sock.makefile("rb")
    reply = read_reply(reader)
    try:
        rest = reader.read(1)
    except ConnectionResetError:  # request bytes left unread turn the close into a reset
        rest = b""
    assert rest == b"", "a refused request must close its connection"
    return reply


@pytest.mark.parametrize("raw", HOSTILE_HEADS.values(), ids=HOSTILE_HEADS.keys())
def test_hostile_request_head_is_400_and_the_server_keeps_serving(ticket_server, raw):
    with socket.create_connection(ticket_server, timeout=5) as sock:
        sock.sendall(raw.encode("latin-1"))
        sock.shutdown(socket.SHUT_WR)  # ends any head that is still open
        status, obj = read_refusal(sock)
    assert (status, obj["error"]) == (400, "FieldFormatError")
    assert http_exchange(ticket_server, "GET /healthz HTTP/1.1\r\nHost: isv\r\n") == (200, {"ok": True})


def test_head_at_the_limits_is_served(ticket_server):
    fields = "".join(f"X-{i}: v\r\n" for i in range(net.MAX_HEADERS - 1))
    long_value = "a" * (net.MAX_LINE_BYTES - len("X-Long: \r\n"))
    head = f"GET /healthz HTTP/1.1\r\n{fields}X-Long: {long_value}\r\n"
    assert http_exchange(ticket_server, head) == (200, {"ok": True})


def test_unserved_method_is_refused(ticket_server):
    status, obj = refused_exchange(ticket_server, "PUT /ticket HTTP/1.1\r\nContent-Length: 0\r\n")
    assert (status, obj["error"]) == (501, "FieldFormatError")


def test_keep_alive_follows_version_and_connection(ticket_server):
    healthz = "GET /healthz HTTP/1.1\r\nHost: isv\r\n"
    with socket.create_connection(ticket_server, timeout=5) as sock:
        for _ in range(3):  # one connection carries many HTTP/1.1 requests
            assert send_head(sock, healthz) == (200, {"ok": True})
    assert refused_exchange(ticket_server, healthz + "Connection: close\r\n") == (200, {"ok": True})
    assert refused_exchange(ticket_server, "GET /healthz HTTP/1.0\r\n") == (200, {"ok": True})


def test_well_framed_requests_still_reach_the_ticket_api(ticket_server):
    status, obj = http_exchange(ticket_server, "GET /healthz HTTP/1.1\r\nHost: isv\r\n")
    assert (status, obj) == (200, {"ok": True})
    status, obj = http_exchange(
        ticket_server, "POST /ticket HTTP/1.1\r\nHost: isv\r\nContent-Length: 0\r\n"
    )
    assert (status, obj["error"]) == (401, "KerberosAuthFailure")


def closed_unanswered(sock) -> bool:
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:  # the request was still unread when the server hung up
        return True


def test_a_connection_over_the_cap_is_closed_unanswered(cold_world, monkeypatch):
    monkeypatch.setattr(daemon, "HTTP_MAX_CONNECTIONS", 4)
    healthz = "GET /healthz HTTP/1.1\r\nHost: isv\r\n"
    with serving(cold_world.isv) as addr, contextlib.ExitStack() as stack:
        held = [stack.enter_context(socket.create_connection(addr, timeout=5)) for _ in range(4)]
        for sock in held:  # each of the four has its handler
            assert send_head(sock, healthz) == (200, {"ok": True})
        with socket.create_connection(addr, timeout=5) as extra:
            extra.sendall(healthz.encode("latin-1") + b"\r\n")
            assert closed_unanswered(extra)
        held[0].close()
        # Its slot comes back once its handler has seen the close.
        deadline = time.monotonic() + 2
        while True:
            with socket.create_connection(addr, timeout=5) as sock:
                sock.sendall(healthz.encode("latin-1") + b"\r\n")
                try:
                    reply = read_reply(sock.makefile("rb"))
                    break
                except (ConnectionError, FieldFormatError):
                    assert time.monotonic() < deadline, "a freed slot was never reused"
            time.sleep(0.02)
        assert reply == (200, {"ok": True})


def test_handler_failure_is_a_500_and_the_server_keeps_serving(ticket_server, cold_world, monkeypatch, caplog):
    def broken(*args):
        raise RuntimeError("handler bug")

    head = "GET /healthz HTTP/1.1\r\nHost: isv\r\n"
    with monkeypatch.context() as patch:
        patch.setattr(cold_world.isv.tickets, "handle_http", broken)
        with caplog.at_level(logging.ERROR, logger="kesic.net"):
            assert refused_exchange(ticket_server, head) == (500, {"error": "InternalError"})
    assert any(r.exc_info and r.exc_info[0] is RuntimeError for r in caplog.records)
    assert http_exchange(ticket_server, head) == (200, {"ok": True})


def test_udp_pump_keeps_serving_after_a_handler_fails(caplog):
    server = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    server.bind(("127.0.0.1", 0))
    client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    client.settimeout(5)

    def handler(data, src, send):
        if data == b"boom":
            raise RuntimeError("handler bug")
        send(src, data)

    pump = threading.Thread(target=daemon._udp_pump, args=(server, handler))
    pump.start()
    try:
        with caplog.at_level(logging.ERROR, logger="kesic.daemon"):
            client.sendto(b"boom", server.getsockname())
            client.sendto(b"ping", server.getsockname())
            assert client.recvfrom(64)[0] == b"ping"
        assert any(r.exc_info and r.exc_info[0] is RuntimeError for r in caplog.records)
    finally:
        server.close()
        client.close()
        pump.join(timeout=5)
    assert not pump.is_alive()


def test_a_client_hanging_up_before_its_reply_leaves_no_traceback(ticket_server, monkeypatch, capfd, caplog):
    done = threading.Event()
    real_shutdown_request = daemon._TicketHttpServer.shutdown_request

    def shutdown_request(self, request):
        real_shutdown_request(self, request)
        done.set()

    monkeypatch.setattr(daemon._TicketHttpServer, "shutdown_request", shutdown_request)
    with caplog.at_level(logging.DEBUG, logger="kesic.daemon"):
        with socket.create_connection(ticket_server, timeout=5) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: isv\r\n\r\n")
            # Reset on close, so the server's reply meets a dead connection.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        assert done.wait(timeout=5)
    assert "Traceback" not in capfd.readouterr().err
    assert any(r.exc_info and issubclass(r.exc_info[0], ConnectionError) for r in caplog.records)


@pytest.fixture(scope="module")
def config_files(tmp_path_factory):
    """A provisioned fleet's kdc.json, isv.json, bulb's profile and memory
    image, and alice's identity."""
    root = tmp_path_factory.mktemp("configs")
    fleet = provision(SMALL_FLEET, Rng(8))
    fleet.write_kdc_db(str(root / "kdc.json"))
    fleet.write_isv_config(str(root / "isv.json"))
    fleet.write_device_profile("bulb", str(root / "bulb.json"), str(root / "bulb.mem"))
    fleet.write_client_identity("alice", str(root / "alice.json"))
    return root


MAINS = {  # the arguments each main needs besides its config file
    "kesic-kdc": (daemon.kdc_main, ["--db", "kdc.json", "--port", "0"]),
    "kesic-isv": (daemon.isv_main, ["--devices", "isv.json", "--sync-port", "0", "--attest-port", "0"]),
    "kesic-device": (
        daemon.device_main,
        ["--profile", "bulb.json", "--port", "0", "--isv-addr", "127.0.0.1:9", "--memory-image", "bulb.mem"],
    ),
    "kesic-client": (cli.main, ["--identity", "alice.json", "cache"]),
}
DAEMONS = ["kesic-kdc", "kesic-isv", "kesic-device"]


def _argv(config_files, args):
    return [str(config_files / a) if a.endswith((".json", ".mem")) else a for a in args]


@pytest.fixture
def no_socket(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(socket, "socket", refuse)


@pytest.mark.parametrize("name", sorted(MAINS))
def test_deterministic_seed_flag_is_refused_before_any_socket(name, config_files, no_socket):
    """A seeded Rng replays AES-GCM nonces across restarts, so no main takes a seed."""
    main, args = MAINS[name]
    with pytest.raises(SystemExit) as exc:
        main(["--deterministic-seed", "7", *_argv(config_files, args)])
    assert exc.value.code == 2


def assert_one_line_error(capsys, prefix: str) -> None:
    err = capsys.readouterr().err
    assert err.startswith(f"error: {prefix}") and err.count("\n") == 1, err


@pytest.mark.parametrize("name", DAEMONS)
def test_config_file_that_is_not_json_is_a_named_error(name, config_files, tmp_path, capsys, no_socket):
    """A daemon reports a bad config in one line and exits 2 before any
    socket, as kesic-client and kesic-sim do."""
    main, args = MAINS[name]
    shutil.copytree(config_files, tmp_path, dirs_exist_ok=True)
    (tmp_path / args[1]).write_text("{not json")
    assert main(_argv(tmp_path, args)) == 2
    assert_one_line_error(capsys, f"FieldFormatError: {tmp_path / args[1]} is not JSON")


@pytest.mark.parametrize("name", DAEMONS)
def test_missing_config_file_is_a_one_line_error(name, tmp_path, capsys, no_socket):
    main, args = MAINS[name]
    assert main(_argv(tmp_path, args)) == 2
    assert_one_line_error(capsys, "FileNotFoundError: ")


@pytest.mark.parametrize("name", ["kesic-isv", "kesic-device"])
def test_corrupt_state_file_is_a_one_line_error(name, config_files, tmp_path, capsys, no_socket):
    state = tmp_path / "state"
    state.write_text("{not a counter file")
    main, args = MAINS[name]
    assert main([*_argv(config_files, args), "--state", str(state)]) == 2
    assert_one_line_error(capsys, f"CorruptState: {state} is not a")


def test_client_identity_that_is_not_json_is_a_named_error(tmp_path, capsys):
    (tmp_path / "alice.json").write_text("")
    assert cli.main(_argv(tmp_path, MAINS["kesic-client"][1])) == cli.EXIT_ERROR
    assert "error: FieldFormatError: " in capsys.readouterr().err


BAD_ADDRS = ["localhost", "127.0.0.1:", "127.0.0.1:http", "127.0.0.1:70000", "127.0.0.1:-1", "127.0.0.1:٣"]
BAD_ADDR_IDS = ["no-port", "empty-port", "named-port", "port-too-large", "negative-port", "non-ascii-digit"]


@pytest.mark.parametrize("option", ["--isv-addr", "--isv-attest-addr"])
@pytest.mark.parametrize("addr", BAD_ADDRS, ids=BAD_ADDR_IDS)
def test_device_address_without_a_valid_port_is_a_one_line_error(option, addr, config_files, capsys, no_socket):
    main, args = MAINS["kesic-device"]
    assert main([*_argv(config_files, args), option, addr]) == 2
    assert_one_line_error(capsys, f"FieldFormatError: address must be host:port with a port of 0-65535, got {addr!r}")


@pytest.mark.parametrize("addr", BAD_ADDRS, ids=BAD_ADDR_IDS)
def test_client_kdc_address_without_a_valid_port_is_a_named_error(addr, config_files, tmp_path, capsys, no_socket):
    argv = [
        "--identity", str(config_files / "alice.json"), "--kdc-addr", addr,
        "--cache", str(tmp_path / "alice.cache.json"), "login", "--password", "pw-1",
    ]
    assert cli.main(argv) == cli.EXIT_ERROR
    assert_one_line_error(capsys, f"FieldFormatError: address must be host:port with a port of 0-65535, got {addr!r}")


BAD_LAUNCHER_INPUT = {  # (launcher command line, stdin)
    "not-json": ([], b"kdc --db kdc.json\n"),
    "an-object": ([], b'{"role": "kdc"}\n'),
    "empty-list": ([], b"[]\n"),
    "non-string-argument": ([], b'["kdc", "--port", 8750]\n'),
    "unknown-role": ([], b'["ghost", "--port", "8750"]\n'),
    "launcher-role": ([], b'["launch"]\n'),
    "unknown-role-on-the-command-line": (["ghost"], b""),
}


@pytest.mark.parametrize("args, stdin", BAD_LAUNCHER_INPUT.values(), ids=BAD_LAUNCHER_INPUT.keys())
def test_a_bad_launcher_line_is_a_one_line_error(args, stdin):
    """The launcher refuses the line before it forks, the way a daemon
    refuses a bad config: one line on stderr and status 2."""
    src = pathlib.Path(kesic.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-m", "kesic.daemon", "launch", *args],
        input=stdin,
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    err = out.stderr.decode()
    assert (out.returncode, out.stdout) == (2, b""), err
    assert err.startswith("error: FieldFormatError: launcher: ") and err.count("\n") == 1, err
