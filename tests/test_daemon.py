"""Daemon socket loops: hostile HTTP framing and handler failures."""

import json
import logging
import socket
import struct
import threading

import pytest

from kesic import cli, daemon, net
from kesic.errors import FieldFormatError
from kesic.provision import provision
from kesic.rng import Rng

from conftest import HOSTILE_HEADS, SMALL_FLEET


@pytest.fixture
def ticket_server(cold_world):
    httpd = daemon._TicketHttpServer(("127.0.0.1", 0), daemon._TicketHttpHandler)
    httpd.isv = cold_world.isv
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield httpd.server_address
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


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
    """A provisioned fleet's kdc.json, isv.json and alice's identity."""
    root = tmp_path_factory.mktemp("configs")
    fleet = provision(SMALL_FLEET, Rng(8))
    fleet.write_kdc_db(str(root / "kdc.json"))
    fleet.write_isv_config(str(root / "isv.json"))
    fleet.write_client_identity("alice", str(root / "alice.json"))
    return root


MAINS = {  # the arguments each main needs besides its config file
    "kesic-kdc": (daemon.kdc_main, ["--db", "kdc.json", "--port", "0"]),
    "kesic-isv": (daemon.isv_main, ["--devices", "isv.json", "--sync-port", "0", "--attest-port", "0"]),
    "kesic-client": (cli.main, ["--identity", "alice.json", "cache"]),
}


def _argv(config_files, args):
    return [str(config_files / a) if a.endswith(".json") else a for a in args]


@pytest.mark.parametrize("name", sorted(MAINS))
def test_deterministic_seed_flag_is_refused_before_any_socket(name, config_files, monkeypatch):
    """A seeded Rng replays AES-GCM nonces across restarts, so no main takes a seed."""

    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(socket, "socket", no_socket)
    main, args = MAINS[name]
    with pytest.raises(SystemExit) as exc:
        main(["--deterministic-seed", "7", *_argv(config_files, args)])
    assert exc.value.code == 2


@pytest.mark.parametrize("name", ["kesic-kdc", "kesic-isv"])
def test_config_file_that_is_not_json_is_a_named_error(name, tmp_path):
    main, args = MAINS[name]
    (tmp_path / args[1]).write_text("{not json")
    with pytest.raises(FieldFormatError, match=f"{args[1]} is not JSON"):
        main(_argv(tmp_path, args))


def test_client_identity_that_is_not_json_is_a_named_error(tmp_path, capsys):
    (tmp_path / "alice.json").write_text("")
    assert cli.main(_argv(tmp_path, MAINS["kesic-client"][1])) == cli.EXIT_ERROR
    assert "error: FieldFormatError: " in capsys.readouterr().err
