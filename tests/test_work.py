"""Work per op, counted in calls: flat in fleet size and in history.

A count of Python and C calls does not drift with the host the way a timing
does. Each simulated flow runs on a 20- and a 2,000-device fleet and is
counted over one block of ops after N ops and another after 10N. The
windows are short, so every replay cache has turned over before the first
block, and each block spans whole seconds of virtual time, so it prunes
the same number of entries. Power calls run without a counter journal;
its compaction is amortised over the fleet and not counted here. Calls
are counted, not bytecodes: a loop that makes no call per item escapes.
"""

import functools
import gc
import itertools
import sys

import pytest

from kesic import crypto
from kesic.harness.scenario import World
from kesic.provision import ClientSpec, DeviceSpec, FleetSpec
from kesic.wire import CMD_LED_OFF, CMD_LED_ON

PASSWORD = "work-per-op-9"
WINDOW_S = 5  # the general device's freshness window and the ticket API's skew
POWER_WINDOW = 16  # counter tickets per wake cycle


def build(devices: int) -> World:
    spec = FleetSpec(
        clients=(ClientSpec(name="alice", password=PASSWORD),),
        devices=(
            DeviceSpec(name="gen0", dtype="general", freshness_window=WINDOW_S),
            DeviceSpec(name="pow0", dtype="power", window=POWER_WINDOW),
            *(DeviceSpec(name=f"pad{i:04d}", dtype="power") for i in range(devices - 2)),
        ),
        clock_skew=WINDOW_S,
    )
    world = World.build(spec, seed=1)
    world.clients["alice"].login(PASSWORD)
    return world


def general_calls(world: World):
    """Cached-ticket general calls, 10 a virtual second: the device's replay
    window holds 100 of them and turns over every 100 calls."""
    session = world.clients["alice"]
    world.devices["gen0"].boot(world.transport.sender_for("dev:gen0"))
    world.transport.pump()
    for i in itertools.count(1):
        yield functools.partial(session.call_device, "gen0", CMD_LED_ON if i % 2 else CMD_LED_OFF)
        if i % 10 == 0:
            world.clock.advance(1)


def power_calls(world: World):
    """Counter-ticket fetch and call, 4 a virtual second, 16 to a wake cycle:
    the ticket API's replay window holds 40 of them."""
    session, device = world.clients["alice"], world.devices["pow0"]

    def fetch_and_call(cmd: str):
        session.get_iot_ticket("pow0")
        return session.call_device("pow0", cmd)

    for i in itertools.count(0):
        if i % POWER_WINDOW == 0:
            device.sleep()
            world.isv.registry.mark_asleep("pow0")
            device.wake(world.transport.sender_for("dev:pow0"))
            world.transport.pump()
        yield functools.partial(fetch_and_call, CMD_LED_ON if i % 2 else CMD_LED_OFF)
        if (i + 1) % 4 == 0:
            world.clock.advance(1)


def login_and_fetch(world: World):
    """Login, then a general ticket fetch, which takes a new service ticket
    from the TGS, 4 a virtual second: the KDC's and the ticket API's replay
    windows hold 40 of them."""
    session = world.clients["alice"]

    def login_then_fetch():
        session.login(PASSWORD)
        return session.get_iot_ticket("gen0")

    for i in itertools.count(1):
        yield login_then_fetch
        if i % 4 == 0:
            world.clock.advance(1)


def wake_and_attest(world: World):
    """A power device's wake cycle, 4 a virtual second: its sync request,
    the IoT server's challenge, its report and the sync response."""
    device, send = world.devices["pow0"], world.transport.sender_for("dev:pow0")

    def wake():
        device.wake(send)
        world.transport.pump()

    for i in itertools.count(1):
        device.sleep()
        world.isv.registry.mark_asleep("pow0")
        yield wake
        assert device.synced and world.isv.registry.by_name["pow0"].awake
        if i % 4 == 0:
            world.clock.advance(1)


def calls_in(op) -> int:
    """Python and C calls made while ``op()`` runs, with the collector off."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    gc.disable()
    sys.setprofile(profile)
    try:
        op()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def calls_per_op(plan, devices: int, n: int, block: int) -> list[float]:
    """Calls per op over ``block`` ops after ``n`` ops and after ``10 * n``;
    the bookkeeping between ops is not counted."""
    ops = plan(build(devices))
    overhead = calls_in(lambda: None)
    counts, done = [], 0
    for start in (n, 10 * n):
        for _ in range(start - done):
            next(ops)()
        counts.append(sum(calls_in(next(ops)) - overhead for _ in range(block)) / block)
        done = start + block
    return counts


@pytest.mark.parametrize(
    "plan, n, block",
    [(general_calls, 120, 100), (power_calls, 64, 64), (login_and_fetch, 64, 64), (wake_and_attest, 64, 64)],
    ids=["general-call", "power-fetch-and-call", "login-and-fetch", "wake-and-attest"],
)
def test_calls_per_op_are_flat_in_fleet_size_and_history(plan, n, block):
    counts = {
        (devices, f"after {after}"): count
        for devices in (20, 2_000)
        for after, count in zip((n, 10 * n), calls_per_op(plan, devices, n, block))
    }
    assert len(set(counts.values())) == 1, f"calls per op by (devices, ops before the block): {counts}"


def test_the_server_keeps_one_report_per_device_however_many_wake_cycles(monkeypatch):
    """500 wake cycles leave pow0's record holding only the last accepted
    attestation report: the IoT server's state does not grow with them."""
    accepted = []
    digest = crypto.attest_digest

    def recorded(*args):
        report = digest(*args)
        accepted.append(report)
        return report

    monkeypatch.setattr(crypto, "attest_digest", recorded)
    world = build(20)
    ops = wake_and_attest(world)
    for _ in range(500):
        next(ops)()
    rec = world.isv.registry.by_name["pow0"]
    reports = set(accepted)
    held = [
        item
        for value in vars(rec).values()
        for item in (value if isinstance(value, (set, frozenset, list, tuple, dict)) else (value,))
        if isinstance(item, str) and item in reports
    ]
    assert len(reports) == 500
    assert held == [accepted[-1]], f"pow0 holds {len(held)} of {len(reports)} accepted reports"
