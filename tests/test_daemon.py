"""Daemon socket loops: hostile HTTP framing and handler failures."""

import json
import logging
import socket
import struct
import threading

import pytest

from kesic import daemon


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
    reader = sock.makefile("rb")
    status = int(reader.readline().split()[1])
    length = 0
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, json.loads(reader.read(length))


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
    [str(daemon.MAX_BODY_BYTES + 1), str(10**12), "9" * 5000],
    ids=["cap-plus-one", "terabyte", "5000-digits"],
)
def test_oversized_content_length_is_413_without_reading_the_body(ticket_server, length):
    # No body follows: a server that tried to read it would hang until the timeout.
    head = f"POST /ticket HTTP/1.1\r\nHost: isv\r\nContent-Length: {length}\r\n"
    status, obj = refused_exchange(ticket_server, head)
    assert (status, obj["error"]) == (413, "FieldFormatError")


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
        with caplog.at_level(logging.ERROR, logger="kesic.daemon"):
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
