"""Live transport: kept-alive HTTP and UDP sockets, against in-process servers."""

import io
import socket
import sys
import threading
import time
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kesic import daemon, net
from kesic.clock import SystemClock
from kesic.errors import FieldFormatError, Timeout


class EchoTickets:
    """Stands in for the ticket API: answers each POST with its own body."""

    def __init__(self) -> None:
        self.requests = 0
        self.hold = None  # an Event that a request waits on before it is answered

    def handle_http(self, method, path, headers, body):
        self.requests += 1
        if self.hold is not None:
            self.hold.wait(5)
        return 200, {"Content-Type": "application/octet-stream"}, body


class CountingServer(daemon._TicketHttpServer):
    """The daemon's ticket server, recording every connection it accepts."""

    def __init__(self, handler) -> None:
        super().__init__(("127.0.0.1", 0), handler)
        self.accepted: list[socket.socket] = []

    def get_request(self):
        conn, addr = super().get_request()
        self.accepted.append(conn)
        return conn, addr

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}/ticket"


class ShortIdleHandler(daemon._TicketHttpHandler):
    timeout = 0.2


@pytest.fixture
def network():
    network = net.SocketNetwork()
    yield network
    network.close()


@pytest.fixture
def serve():
    running = []

    def start(handler=daemon._TicketHttpHandler, tickets=None) -> CountingServer:
        server = CountingServer(handler)
        server.isv = types.SimpleNamespace(tickets=tickets or EchoTickets(), clock=SystemClock())
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
        thread.start()
        running.append((server, thread))
        return server

    yield start
    for server, thread in running:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture
def udp_server():
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.settimeout(5)
    yield sock
    sock.close()


def udp_echo(sock: socket.socket, count: int, sources: list) -> threading.Thread:
    """Answer ``count`` datagrams with "re:" + payload, noting each sender."""

    def run():
        for _ in range(count):
            data, src = sock.recvfrom(64)
            sources.append((data, src))
            sock.sendto(b"re:" + data, src)

    thread = threading.Thread(target=run)
    thread.start()
    return thread


def join(*threads: threading.Thread) -> None:
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()


def addr_of(sock: socket.socket) -> str:
    return "127.0.0.1:%d" % sock.getsockname()[1]


class TestHttp:
    def test_many_posts_share_one_connection(self, serve, network):
        server = serve()
        for i in range(5):
            status, _, body = network.http_post(server.url, {}, b"post %d" % i)
            assert (status, body) == (200, b"post %d" % i)
        assert len(server.accepted) == 1

    def test_server_turns_nagle_off(self, serve, network):
        # With Nagle on, the reply's body waits for the client's delayed ACK
        # of its head: about 40 ms per request on a kept-alive connection.
        server = serve()
        network.http_post(server.url, {}, b"x")
        assert server.accepted[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_connection_closed_while_idle_is_reopened_once(self, serve, network):
        tickets = EchoTickets()
        server = serve(ShortIdleHandler, tickets)
        assert network.http_post(server.url, {}, b"a")[2] == b"a"
        deadline = time.monotonic() + 5
        while server.accepted[0].fileno() != -1:  # the server hangs up after its idle timeout
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert network.http_post(server.url, {}, b"b")[2] == b"b"
        assert (len(server.accepted), tickets.requests) == (2, 2)

    def test_fresh_connection_that_fails_is_not_retried(self, network):
        accepted = []
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(0.5)

            def hang_up():
                try:
                    while True:
                        conn, _ = listener.accept()
                        accepted.append(conn)
                        conn.close()
                except OSError:
                    pass

            thread = threading.Thread(target=hang_up)
            thread.start()
            with pytest.raises(Timeout):
                network.http_post(f"http://{addr_of(listener)}/ticket", {}, b"x")
            join(thread)
        assert len(accepted) == 1

    def test_reply_timeout_is_not_retried(self, serve, network, monkeypatch):
        monkeypatch.setattr(net, "HTTP_TIMEOUT_S", 0.2)
        tickets = EchoTickets()
        server = serve(tickets=tickets)
        network.http_post(server.url, {}, b"a")
        tickets.hold = threading.Event()
        try:
            with pytest.raises(Timeout):
                network.http_post(server.url, {}, b"b")
        finally:
            tickets.hold.set()
        assert (len(server.accepted), tickets.requests) == (1, 2)

    def test_refusal_closes_and_the_next_post_reconnects(self, serve, network):
        server = serve()
        status, headers, _ = network.http_post(
            server.url, {"Content-Length": str(net.MAX_BODY_BYTES + 1)}, b""
        )
        assert (status, headers["Connection"]) == (413, "close")
        assert network.http_post(server.url, {}, b"ok")[0::2] == (200, b"ok")
        assert len(server.accepted) == 2

    def test_only_plain_http_urls(self, network):
        with pytest.raises(FieldFormatError):
            network.http_post("https://127.0.0.1:1/ticket", {}, b"")


OK_REPLY = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"


class ScriptedServer:
    """Answers each POST with the next canned reply, one connection at a time.

    Each reply is (bytes, hang_up): with hang_up the server closes the
    connection once the reply is out.
    """

    def __init__(self, replies: list[tuple[bytes, bool]]) -> None:
        self.replies = list(replies)
        self.accepted = self.requests = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(5)
        self.url = f"http://{addr_of(self.listener)}/ticket"
        self.thread = threading.Thread(target=self._run)
        self.thread.start()

    def _run(self) -> None:
        while self.replies:
            conn, _ = self.listener.accept()
            self.accepted += 1
            with conn, conn.makefile("rb") as reader:
                while self.replies and self._answer(conn, reader):
                    pass

    def _answer(self, conn, reader) -> bool:
        length = None
        while (line := reader.readline()) not in (b"\r\n", b""):
            name, _, value = line.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        if length is None:
            return False  # the client closed the connection
        reader.read(length)
        self.requests += 1
        reply, hang_up = self.replies.pop(0)
        conn.sendall(reply)
        return not hang_up

    def close(self) -> None:
        join(self.thread)
        self.listener.close()


@pytest.fixture
def scripted():
    servers = []

    def start(replies) -> ScriptedServer:
        servers.append(ScriptedServer(replies))
        return servers[-1]

    yield start
    for server in servers:
        server.close()


HOSTILE_REPLIES = {
    "garbage-status-line": b"garbage\r\n\r\n",
    "no-content-length": b"HTTP/1.1 200 OK\r\n\r\nok",
    "body-cut-short": b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nok",
    "chunked": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n",
    "four-digit-status": b"HTTP/1.1 2000 OK\r\nContent-Length: 2\r\n\r\nok",
}


class TestHostileReplies:
    @pytest.mark.parametrize("reply", HOSTILE_REPLIES.values(), ids=HOSTILE_REPLIES.keys())
    def test_malformed_reply_is_a_timeout_and_never_retried(self, scripted, network, reply):
        server = scripted([(OK_REPLY, False), (reply, True), (OK_REPLY, False)])
        assert network.http_post(server.url, {}, b"a")[0::2] == (200, b"ok")
        with pytest.raises(Timeout):
            network.http_post(server.url, {}, b"b")
        assert network.http_post(server.url, {}, b"c")[0::2] == (200, b"ok")
        assert (server.accepted, server.requests) == (2, 3)

    @pytest.mark.parametrize(
        "reply",
        [b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok",
         b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok"],
        ids=["connection-close", "http-1.0"],
    )
    def test_reply_that_closes_drops_the_connection(self, scripted, network, reply):
        # The server keeps its end open: only the client can make the next
        # POST use a fresh connection.
        server = scripted([(reply, False), (OK_REPLY, False)])
        assert network.http_post(server.url, {}, b"a")[0::2] == (200, b"ok")
        assert network.http_post(server.url, {}, b"b")[0::2] == (200, b"ok")
        assert (server.accepted, server.requests) == (2, 2)

    def test_each_request_is_one_well_formed_head(self, scripted, network):
        server = scripted([(OK_REPLY, False)])
        with pytest.raises(FieldFormatError):
            network.http_post(server.url, {"X-Bad": "a\r\nInjected: yes"}, b"")
        network.http_post(server.url, {"x-custom": "v"}, b"body")
        assert server.requests == 1


def heads():
    """Bytes that look like HTTP heads: some well-formed, some with junk lines."""
    good_start = st.sampled_from([b"POST /ticket HTTP/1.1", b"HTTP/1.1 200 OK"])
    good_field = st.sampled_from([b"Content-Length: 3", b"content-length: 4", b"Host: isv", b"X-A:\tb "])
    junk = st.sampled_from([b"", b" folded", b"no colon", b"X: a\rb"]) | st.binary(max_size=40)

    def head(start, field, end):
        lines = st.tuples(start, st.lists(field, max_size=6), end)
        return lines.map(lambda p: b"\r\n".join([p[0], *p[1]]) + p[2])

    return head(good_start, good_field, st.just(b"\r\n\r\n")) | head(
        good_start | junk, good_field | junk, st.sampled_from([b"\r\n\r\n", b"\n\n", b"\r\n", b""])
    )


class TestReadHead:
    @given(st.one_of(heads(), st.binary(max_size=200)), st.binary(max_size=20))
    def test_reads_a_head_or_refuses_and_leaves_the_body(self, head, body):
        data = head + body
        rfile = io.BufferedReader(io.BytesIO(data))
        try:
            result = net.read_head(rfile)
        except FieldFormatError:
            return
        if result is None:
            assert data == b""
            return
        assert isinstance(result, net.Head)
        rest = rfile.read()
        consumed = data[: len(data) - len(rest)]
        assert consumed.endswith(b"\n\n") or consumed.endswith(b"\n\r\n")
        assert b"\n\n" not in consumed[:-2] and b"\n\r\n" not in consumed[:-3]

    def test_field_names_keep_their_case_and_repeats_are_joined(self):
        rfile = io.BytesIO(b"HTTP/1.1 200 OK\r\nX-Nonce-Kind: counter\r\nVia: a\r\nvia: b\r\n\r\nbody")
        head = net.read_head(rfile)
        assert head == net.Head("HTTP/1.1 200 OK", {"X-Nonce-Kind": "counter", "Via": "a, b"})
        assert net.header(head.headers, "x-nonce-kind") == "counter"
        assert rfile.read() == b"body"


@pytest.mark.parametrize(
    "addr, expected",
    [("127.0.0.1:0", ("127.0.0.1", 0)), (":8750", ("127.0.0.1", 8750)), ("kdc.example:65535", ("kdc.example", 65535))],
)
def test_parse_hostport(addr, expected):
    assert net.parse_hostport(addr) == expected


@pytest.mark.parametrize("addr", ["localhost", "h:", "h:65536", "h:+1", "h: 1", "h:1_0", "h:²", "h:" + "9" * 5000])
def test_address_without_a_port_of_0_to_65535_is_a_named_error(addr):
    with pytest.raises(FieldFormatError, match="address must be host:port"):
        net.parse_hostport(addr)


class TestUdp:
    def test_calls_to_one_peer_reuse_one_socket(self, udp_server, network):
        sources = []
        thread = udp_echo(udp_server, 3, sources)
        for i in range(3):
            assert network.udp_call(addr_of(udp_server), b"%d" % i) == b"re:%d" % i
        join(thread)
        assert len({src for _, src in sources}) == 1

    def test_a_socket_is_given_its_timeout_only_when_it_changes(self, udp_server, network, monkeypatch):
        # settimeout is a syscall that releases the GIL; another client
        # thread can take it there, so the call path makes as few as it can.
        timeouts = []
        real_settimeout = socket.socket.settimeout

        def recording(sock, value):
            timeouts.append(value)
            real_settimeout(sock, value)

        monkeypatch.setattr(socket.socket, "settimeout", recording)
        thread = udp_echo(udp_server, 4, [])
        for timeout in (2.0, 2.0, 2.0, 1.5):
            assert network.udp_call(addr_of(udp_server), b"x", timeout=timeout) == b"re:x"
        join(thread)
        assert timeouts == [2.0, 1.5]

    def test_late_reply_never_answers_the_next_call(self, udp_server, network):
        addr = addr_of(udp_server)
        with pytest.raises(Timeout):
            network.udp_call(addr, b"first", timeout=0.1)
        data, src = udp_server.recvfrom(64)
        assert data == b"first"
        udp_server.sendto(b"re:first", src)  # late: the call has given up
        thread = udp_echo(udp_server, 1, [])
        assert network.udp_call(addr, b"second") == b"re:second"
        join(thread)

    def test_threads_sharing_a_network_use_their_own_sockets(self, udp_server, network):
        tags, calls = [b"%d" % i for i in range(4)], 10
        sources = []
        echo = udp_echo(udp_server, len(tags) * calls, sources)
        replies = {}
        done = threading.Barrier(len(tags))

        def client(tag: bytes):
            replies[tag] = [network.udp_call(addr_of(udp_server), tag) for _ in range(calls)]
            done.wait(timeout=5)  # every socket stays open, so no port is handed out twice
            network.close()

        clients = [threading.Thread(target=client, args=(tag,)) for tag in tags]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in clients:
                thread.start()
            join(*clients, echo)
        finally:
            sys.setswitchinterval(interval)
        assert replies == {tag: [b"re:" + tag] * calls for tag in tags}
        ports = [{src for data, src in sources if data == tag} for tag in tags]
        assert all(len(p) == 1 for p in ports)
        assert len(set().union(*ports)) == len(tags)
