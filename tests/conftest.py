import hmac
from collections import Counter

import pytest

from kesic import crypto, net, wire
from kesic.harness.scenario import World
from kesic.provision import ClientSpec, DeviceSpec, FleetSpec

# A compact fleet used by unit tests that want direct actor access.
SMALL_FLEET = FleetSpec(
    clients=(
        ClientSpec(name="alice", password="correct-horse-battery-9"),
        ClientSpec(name="bob", password="swordfish-tuesday-17"),
        ClientSpec(name="mallory", password="n0-service-f0r-you", services=()),
    ),
    devices=(
        DeviceSpec(name="bulb", dtype="general"),
        DeviceSpec(name="sensor", dtype="power"),
        DeviceSpec(name="lock", dtype="general", allow=("alice",)),
    ),
)


def count_calls(monkeypatch) -> Counter:
    """Counts HMACs, field renders and constant-time comparisons from now on."""
    counts: Counter = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(crypto, "hmac_sha256", counting("hmac", crypto.hmac_sha256))
    monkeypatch.setattr(wire, "render", counting("render", wire.render))
    monkeypatch.setattr(hmac, "compare_digest", counting("compare_digest", hmac.compare_digest))
    return counts


@pytest.fixture
def world() -> World:
    """A booted simulated world with the small fleet."""
    w = World.build(SMALL_FLEET, seed=1234)
    w.boot_all()
    return w


@pytest.fixture
def cold_world() -> World:
    """Same fleet, but no device has synced yet."""
    return World.build(SMALL_FLEET, seed=1234)


# Request heads the ticket API must refuse with 400, live and simulated.
LONG = "a" * net.MAX_LINE_BYTES
HOSTILE_HEADS = {
    "long-start-line": f"GET /{LONG} HTTP/1.1\r\n\r\n",
    "long-header-line": f"GET /healthz HTTP/1.1\r\nX-Long: {LONG}\r\n\r\n",
    "too-many-headers": "GET /healthz HTTP/1.1\r\n"
    + "".join(f"X-{i}: v\r\n" for i in range(net.MAX_HEADERS + 1))
    + "\r\n",
    "obs-fold": "GET /healthz HTTP/1.1\r\nX-Folded: a\r\n b\r\n\r\n",
    "no-colon": "GET /healthz HTTP/1.1\r\nHost isv\r\n\r\n",
    "space-before-colon": "GET /healthz HTTP/1.1\r\nHost : isv\r\n\r\n",
    "two-part-request-line": "GET /healthz\r\n\r\n",
    "double-space-request-line": "GET  /healthz HTTP/1.1\r\n\r\n",
    "empty-request-line": "\r\n\r\n",
    "http-2": "GET /healthz HTTP/2.0\r\n\r\n",
    "lower-case-version": "GET /healthz http/1.1\r\n\r\n",
    "bare-cr": "GET /healthz HTTP/1.1\r\nX-A: b\rc\r\n\r\n",
    "two-content-lengths": "POST /ticket HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 5\r\n\r\n",
    "chunked": "POST /ticket HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
    "eof-inside-head": "GET /healthz HTTP/1.1\r\nHost: isv\r\n",
    "eof-inside-start-line": "GET /heal",
}
