"""Acceptance suite: one test per release criterion, C1 through C11.

Each test exercises a full slice of the system at the tolerance the criterion
demands (exact byte counts, trial counts, permutation counts, timing bounds)
and prints a single summary line with the measured numbers.  Run with
``pytest tests/test_acceptance.py -v`` for one pass/fail line per criterion.
"""

import itertools
import json
import random
import time

import pytest

from kesic import crypto, kdc, wire
from kesic.clock import VirtualClock
from kesic.device import DeviceProfile, PowerDevice
from kesic.errors import (
    AuthFailure,
    IdMismatch,
    KesicError,
    ReplayDetected,
    TicketExpired,
)
from kesic.harness.attacks import ATTACKS, suite_report_json
from kesic.harness.scenario import ScenarioRunner, World
from kesic.provision import ClientSpec, DeviceSpec, FleetSpec, provision
from kesic.rng import Rng

from conftest import SMALL_FLEET
from test_client import cached_session, password_of
from test_device import ID_ISV, START, US, Rig
from test_isv import Setup, last_attest_challenge, wake_sensor


def _flip(data: bytes, offset: int, xor: int) -> bytes:
    out = bytearray(data)
    out[offset] ^= xor
    return bytes(out)


# --------------------------------------------------------------------------
# C1: wire formats
# --------------------------------------------------------------------------


GOLDEN_FRAMES = [
    (wire.SyncRequest(id_dev=5001, co_sync=7, mac="ab" * 32), 104),
    (
        wire.SyncResponse(id_isv=1, co_sync=7, sync_val=START, mac="ab" * 32),
        136,
    ),
    (wire.AttestRequest(id_isv=1, challenge="cd" * 16, mac="ab" * 32), 104),
    (wire.AttestResponse(id_dev=5001, attst_hmac="ab" * 32), 72),
    (
        wire.ServiceRequestG(
            cmd="LED_ON", id_c=4242, ad_c=17, lifetime=START + 600,
            ticket="ab" * 32, ts=START * US, authenticator="cd" * 32,
        ),
        208,
    ),
    (
        wire.ServiceRequestPC(
            cmd="LED_ON", id_c=4242, ad_c=17, co_pc=START + 3, ticket="ab" * 32
        ),
        112,
    ),
]


def test_c01_wire_frame_sizes_match_golden_values():
    sizes = {}
    for frame, expected in GOLDEN_FRAMES:
        cls = type(frame)
        assert cls.size() == expected, f"{cls.__name__} declares {cls.size()}"
        encoded = frame.encode()
        assert len(encoded) == expected, f"{cls.__name__} encodes {len(encoded)}B"
        assert cls.decode(encoded) == frame
        sizes[cls.__name__] = expected
    print(f"C1 PASS - frame sizes exact: {sizes}")


# --------------------------------------------------------------------------
# C2: happy paths complete quickly
# --------------------------------------------------------------------------


def test_c02_both_happy_paths_complete_in_under_one_second():
    t0 = time.perf_counter()
    world = World.build(SMALL_FLEET, seed=11)
    sim_start = world.clock.now()
    world.boot_all()  # includes the power device's wake -> sync -> attest leg
    alice = world.client("alice")
    alice.login(password_of(world, "alice"))

    out = alice.call_device("bulb", "LED_ON")
    assert out.accepted and out.payload == b"LED=ON"
    general_elapsed = time.perf_counter() - t0

    t1 = time.perf_counter()
    out = alice.call_device("sensor", "LED_ON")
    assert out.accepted
    power_elapsed = time.perf_counter() - t1

    assert world.isv.registry.by_name["sensor"].awake
    assert world.clock.now() == sim_start, "happy paths needed no clock advance"
    assert general_elapsed < 1.0, f"general path took {general_elapsed:.3f}s"
    assert power_elapsed < 1.0, f"power path took {power_elapsed:.3f}s"
    print(
        "C2 PASS - happy paths: general "
        f"{general_elapsed * 1000:.1f}ms, power {power_elapsed * 1000:.1f}ms "
        "(0s simulated time consumed)"
    )


# --------------------------------------------------------------------------
# C3: replay suite, six scenarios, each rejected with its specific error
# --------------------------------------------------------------------------


REPLAY_EXPECTATIONS = {
    "replay-stale-sync-request": {
        "actor": "isv", "event": "sync-reject", "error": "CounterOutOfRange",
    },
    "replay-sync-response": {
        "actor": "dev:bulb", "event": "sync-reject", "error": "AuthFailure",
    },
    "replay-attestation-report": {
        "actor": "isv", "event": "attest-reject", "error": "AuthFailure",
    },
    "replay-service-request-beyond-window": {
        "actor": "dev:bulb", "event": "service", "verdict": "invalid-request",
    },
    "replay-consumed-counter-ticket": {
        "actor": "dev:sensor", "event": "service", "verdict": "invalid-counter",
    },
    "replay-ticket-api-token": {
        "actor": "isv", "event": "ticket-denied", "error": "KerberosAuthFailure",
    },
}


def test_c03_every_replayed_message_is_rejected_with_the_right_error():
    scripts = {s["name"]: s for s in ATTACKS}
    rejected = []
    for name, expected in REPLAY_EXPECTATIONS.items():
        runner = ScenarioRunner(scripts[name], seed=7)
        report = runner.run()
        assert report["ok"], f"{name}: {report['failures']}"
        matches = [
            e for e in report["events"]
            if all(e.get(k) == v for k, v in expected.items())
        ]
        assert matches, f"{name}: no event matching {expected}"
        if name == "replay-ticket-api-token":
            assert any("ReplayDetected" in e.get("detail", "") for e in matches)
        rejected.append(name)
    assert len(rejected) == 6
    print(f"C3 PASS - replay scenarios rejected 6/6: {rejected}")


# --------------------------------------------------------------------------
# C4: single-byte tamper sweep over every authenticated field
# --------------------------------------------------------------------------


def _tamper_sync_requests(rnd, trials):
    """Tampered device->server sync requests are dropped without a reply."""
    s = Setup()
    spans = [(0, 8), (8, 40), (40, 104)]  # id_dev, co_sync, mac
    frame = s.sync_frame("bulb", s.record("bulb").co_sync + 1)
    for i in range(trials):
        span = spans[i % len(spans)]
        tampered = _flip(frame, rnd.randrange(*span), rnd.randrange(1, 256))
        sent, co = len(s.sent), s.record("bulb").co_sync
        s.isv.sync.handle_sync(tampered, "dev", s.send)
        assert len(s.sent) == sent, f"sync-request trial {i} got a response"
        assert s.record("bulb").co_sync == co
    s.isv.sync.handle_sync(frame, "dev", s.send)  # untampered control
    assert s.sent and s.record("bulb").co_sync == 1
    return trials


def _tamper_sync_responses(rnd, trials):
    """Tampered server->device sync responses never complete the handshake."""
    rig = Rig("bulb")
    rig.device.boot(rig.send)
    req = rig.last_sync_request()
    frame = rig.sync_response(req.co_sync, START)
    spans = [(0, 8), (8, 40), (40, 72), (72, 136)]  # id_isv, co, sync_val, mac
    for i in range(trials):
        span = spans[i % len(spans)]
        tampered = _flip(frame, rnd.randrange(*span), rnd.randrange(1, 256))
        rig.deliver(tampered, "isv:sync")
        assert not rig.device.synced, f"sync-response trial {i} accepted"
    rig.deliver(frame, "isv:sync")  # untampered control
    assert rig.device.synced
    return trials


def _tamper_attest_requests(rnd, trials):
    """Tampered attestation challenges draw no report from the device."""
    rig = Rig("sensor")
    rig.device.wake(rig.send)  # leaves the device mid-sync, ready to attest
    challenge = "5f" * 16
    mac = crypto.attest_request_mac(rig.mat.kl_sync, ID_ISV, challenge)
    frame = wire.AttestRequest(id_isv=ID_ISV, challenge=challenge, mac=mac).encode()
    spans = [(0, 8), (8, 40), (40, 104)]  # id_isv, challenge, mac
    for i in range(trials):
        span = spans[i % len(spans)]
        tampered = _flip(frame, rnd.randrange(*span), rnd.randrange(1, 256))
        sent = len(rig.sent)
        rig.deliver(tampered, "isv:attest")
        assert len(rig.sent) == sent, f"attest-request trial {i} was answered"
    sent = len(rig.sent)
    rig.deliver(frame, "isv:attest")  # untampered control
    assert len(rig.sent) == sent + 1
    return trials


def _tamper_attest_responses(rnd, trials):
    """Tampered attestation reports never wake the device's server record."""
    s = Setup()
    spans = [(0, 8), (8, 72)]  # id_dev, attst_hmac
    for i in range(trials):
        s.push_sync("sensor", s.record("sensor").co_sync + 1)
        frame = s.report_frame("sensor", last_attest_challenge(s))
        span = spans[i % len(spans)]
        tampered = _flip(frame, rnd.randrange(*span), rnd.randrange(1, 256))
        sent = len(s.sent)
        s.isv.sync.handle_attest(tampered, "dev", s.send)
        assert len(s.sent) == sent, f"attest-response trial {i} got a sync reply"
        assert not s.record("sensor").awake
    wake_sensor(s, co=s.record("sensor").co_sync + 1)  # untampered control
    assert s.record("sensor").awake
    return trials


def _tamper_service_requests_general(rnd, trials):
    """Tampering any authenticated byte of a multi-use request is refused."""
    rig = Rig("bulb")
    rig.sync()
    lifetime = START + 600
    # Everything after the 8-byte command field is ticket- or
    # authenticator-protected: id_c, ad_c, lifetime, ticket, ts, authenticator.
    spans = [(8, 16), (16, 24), (24, 52), (52, 116), (116, 144), (144, 208)]
    controls = 0
    for i in range(trials):
        frame = rig.g_frame(lifetime, (START + 1 + i) * US)
        span = spans[i % len(spans)]
        tampered = _flip(frame, rnd.randrange(*span), rnd.randrange(1, 256))
        assert rig.call(tampered).startswith(b"ERR"), f"general trial {i} accepted"
        if i % 10 == 9:  # untampered control with its own fresh timestamp
            reply = rig.call(rig.g_frame(lifetime, (START + 250 + i // 10) * US))
            assert reply.startswith(b"OK")
            controls += 1
    assert controls == trials // 10
    return trials


def _tamper_service_requests_power(rnd, trials):
    """Tampered single-use requests are refused and never burn the counter."""
    rig = Rig("sensor")
    rig.sync()  # anchors the counter window at START
    spans = [(8, 16), (16, 24), (24, 48), (48, 112)]  # id_c, ad_c, co_pc, ticket
    frame = rig.pc_frame(START + 1)
    next_control = START + 2
    for i in range(trials):
        span = spans[i % len(spans)]
        tampered = _flip(frame, rnd.randrange(*span), rnd.randrange(1, 256))
        assert rig.call(tampered).startswith(b"ERR"), f"power trial {i} accepted"
        if i % 10 == 9:  # untampered control burns its own distinct counter
            assert rig.call(rig.pc_frame(next_control)).startswith(b"OK")
            next_control += 1
    # The tampering trials must not have burned the original ticket's slot.
    assert rig.call(frame) == b"OK LED=ON"
    return trials


def test_c04_tampered_frames_rejected_and_lifetime_extension_refused():
    rnd = random.Random(404)
    totals = {
        "sync-request": _tamper_sync_requests(rnd, 40),
        "sync-response": _tamper_sync_responses(rnd, 40),
        "attest-request": _tamper_attest_requests(rnd, 30),
        "attest-response": _tamper_attest_responses(rnd, 30),
        "service-general": _tamper_service_requests_general(rnd, 60),
        "service-power": _tamper_service_requests_power(rnd, 40),
    }
    total = sum(totals.values())
    assert total >= 200

    # Replaying a genuine ticket+authenticator with a stretched lifetime must
    # fail outright: both MACs bind the lifetime the server actually granted.
    rig = Rig("bulb")
    rig.sync()
    lifetime = START + 600
    ticket = crypto.make_iot_ticket_g(
        rig.mat.kl_tkt, rig.id_c, rig.ad_c, lifetime, rig.mat.id_dev
    )
    ts = (START + 5) * US
    authenticator = crypto.service_authenticator_g(rig.session_key_g(lifetime), ts)
    assert rig.call(rig.g_frame(lifetime, ts, ticket=ticket, authenticator=authenticator)) == b"OK LED=ON"
    stretched = rig.g_frame(lifetime + 9000, ts + US, ticket=ticket, authenticator=authenticator)
    assert rig.call(stretched) == b"ERR AUTH_FAILURE"
    print(
        f"C4 PASS - {total} single-byte mutations across {len(totals)} frame "
        f"kinds all rejected {totals}; lifetime extension refused"
    )


# --------------------------------------------------------------------------
# C5: counter-window race, every arrival order
# --------------------------------------------------------------------------


RACE_FLEET = FleetSpec(
    clients=(ClientSpec("alice", "permutation-pw-7"),),
    devices=(DeviceSpec("meter", "power", window=4),),
)


class _PowerBench:
    """A window-4 single-use device driven directly, no server in the loop."""

    def __init__(self):
        self.clock = VirtualClock(START)
        self.fleet = provision(RACE_FLEET, Rng(97))
        self.mat = self.fleet.devices["meter"]
        ident = self.fleet.clients["alice"]
        self.id_c, self.ad_c = ident.id_c, ident.ad_c
        profile = DeviceProfile(
            name="meter",
            id_dev=self.mat.id_dev,
            dtype="power",
            id_isv=ID_ISV,
            kl_sync=self.mat.kl_sync,
            kl_tkt=self.mat.kl_tkt,
            kl_key=self.mat.kl_key,
            memory=self.mat.memory,
            isv_sync_addr="isv:sync",
            isv_attest_addr="isv:attest",
            window=4,
            freshness_window=self.mat.spec.freshness_window,
        )
        self.device = PowerDevice(profile, self.clock)
        self.sent = []

    def send(self, addr, data):
        self.sent.append((addr, data))

    def wake_cycle(self, base):
        """Sleep, wake, and complete a sync anchoring the window at base."""
        self.device.sleep()
        self.device.wake(self.send)
        addr, payload = self.sent[-1]
        assert addr == "isv:sync"
        req = wire.SyncRequest.decode(payload)
        mac = crypto.sync_response_mac(self.mat.kl_sync, ID_ISV, req.co_sync, base)
        resp = wire.SyncResponse(
            id_isv=ID_ISV, co_sync=req.co_sync, sync_val=base, mac=mac
        ).encode()
        self.device.handle_datagram(resp, "isv:sync", self.send)
        assert self.device.synced

    def frame(self, co_pc):
        ticket = crypto.make_iot_ticket_pc(
            self.mat.kl_tkt, self.id_c, self.ad_c, co_pc, self.mat.id_dev
        )
        return wire.ServiceRequestPC(
            cmd="LED_ON", id_c=self.id_c, ad_c=self.ad_c, co_pc=co_pc, ticket=ticket
        ).encode()

    def call(self, frame):
        n = len(self.sent)
        self.device.handle_datagram(frame, "client", self.send)
        assert len(self.sent) == n + 1
        return self.sent[-1][1]


def test_c05_four_tickets_race_in_every_order_each_accepted_exactly_once():
    bench = _PowerBench()
    base = START
    frames = [bench.frame(base + 1 + k) for k in range(4)]
    perms = list(itertools.permutations(range(4)))
    assert len(perms) == 24
    for perm in perms:
        bench.wake_cycle(base)  # fresh window, same anchor, nothing consumed
        for k in perm:
            assert bench.call(frames[k]) == b"OK LED=ON", f"order {perm} slot {k}"
        for k in perm:  # second presentation within the same wake cycle
            assert bench.call(frames[k]) == b"ERR INVALID_COUNTER"
    # The window boundary itself: base is excluded, base+window+1 is excluded.
    bench.wake_cycle(base)
    assert bench.call(bench.frame(base)) == b"ERR INVALID_COUNTER"
    assert bench.call(bench.frame(base + 5)) == b"ERR INVALID_COUNTER"
    print(
        "C5 PASS - 24/24 arrival orders: 4 tickets each accepted exactly "
        "once, 96 duplicate presentations rejected"
    )


# --------------------------------------------------------------------------
# C6: sync counter acceptance rule and counter monotonicity
# --------------------------------------------------------------------------


def test_c06_counter_rule_exact_and_counters_never_regress():
    # Exhaustive rule check around local counter value 3.
    outcomes = {}
    for delta, should_accept in [(-1, False), (0, True), (1, True), (2, False)]:
        s = Setup()
        for co in (1, 2, 3):
            s.push_sync("bulb", co)
        assert s.record("bulb").co_sync == 3
        sent = len(s.sent)
        s.push_sync("bulb", 3 + delta)
        accepted = len(s.sent) == sent + 1
        assert accepted == should_accept, f"local=3, presented={3 + delta}"
        outcomes[f"local{delta:+d}"] = "accept" if accepted else "reject"

    # Monotonicity under randomized interleavings of every counter-touching
    # operation: syncs (valid and invalid), attestation replies (genuine and
    # corrupt), pending-expiry sweeps, and ticket-counter allocations.
    s = Setup()
    rnd = random.Random(606)
    sensor_id = s.mat("sensor").id_dev
    watermarks = {
        name: (rec.co_sync, rec.co_pc)
        for name, rec in s.isv.registry.by_name.items()
    }
    challenge = None
    ops = 1000
    for _ in range(ops):
        op = rnd.randrange(6)
        try:
            if op in (0, 1):
                name = ("bulb", "lock")[op]
                rec = s.record(name)
                s.push_sync(name, rec.co_sync + rnd.choice((-1, 0, 1, 2)))
            elif op == 2:
                rec = s.record("sensor")
                s.push_sync("sensor", rec.co_sync + rnd.choice((-1, 0, 1, 2)))
                if s.sent and s.sent[-1][1][:1] != b"{":
                    try:
                        challenge = wire.AttestRequest.decode(s.sent[-1][1]).challenge
                    except KesicError:
                        pass
            elif op == 3 and challenge is not None:
                memory = s.mat("sensor").memory
                if rnd.random() < 0.5:
                    memory = _flip(memory, rnd.randrange(len(memory)), 0xFF)
                frame = s.report_frame("sensor", challenge, memory=memory)
                s.isv.sync.handle_attest(frame, "dev", s.send)
            elif op == 4:
                s.clock.advance(rnd.choice((1, 31)))
                s.isv.sync.expire_pending()
            elif op == 5:
                s.isv.registry.next_co_pc(sensor_id)
        except KesicError:
            pass
        for name, rec in s.isv.registry.by_name.items():
            lo_sync, lo_pc = watermarks[name]
            assert rec.co_sync >= lo_sync, f"{name} co_sync regressed"
            assert rec.co_pc >= lo_pc, f"{name} co_pc regressed"
            watermarks[name] = (rec.co_sync, rec.co_pc)
    print(
        f"C6 PASS - counter rule {outcomes}; no counter regressed across "
        f"{ops} randomized operations"
    )


# --------------------------------------------------------------------------
# C7: attestation catches every mutation; quarantine starves tickets
# --------------------------------------------------------------------------


def test_c07_attestation_mismatch_on_any_mutation_and_quarantine_holds():
    # A pristine image verifies end-to-end through the client.
    world = World.build(SMALL_FLEET, seed=21)
    world.boot_all()
    alice = world.client("alice")
    alice.login(password_of(world, "alice"))
    assert alice.verify_attestation("bulb", world.fleet.devices["bulb"].memory) == "healthy"

    # 100 random single-byte mutations, each through a full wake attempt.
    s = Setup()
    rnd = random.Random(707)
    memory = s.mat("sensor").memory
    mismatches = 0
    for i in range(100):
        s.isv.registry.mark_asleep("sensor")  # each trial is a fresh wake attempt
        s.push_sync("sensor", s.record("sensor").co_sync + 1)
        challenge = last_attest_challenge(s)
        mutated = _flip(memory, rnd.randrange(len(memory)), rnd.randrange(1, 256))
        before = len(s.events(event="attest-reject", error="AttestationMismatch"))
        s.isv.sync.handle_attest(
            s.report_frame("sensor", challenge, memory=mutated), "dev", s.send
        )
        rec = s.record("sensor")
        assert not rec.awake and rec.healthy is False, f"offset trial {i}"
        assert len(s.events(event="attest-reject", error="AttestationMismatch")) == before + 1
        mismatches += 1

        # While quarantined, the ticket API must refuse this device...
        status, _, payload, _ = s.request_ticket("sensor")
        assert status == 424 and payload["error"] == "DeviceUnhealthy"
        # ...while an uncompromised device is still served normally.
        if i % 25 == 0:
            status, _, payload, _ = s.request_ticket("bulb")
            assert status == 200 and "sealed" in payload

        # Restore the image and complete a genuine wake before the next trial.
        wake_sensor(s, co=s.record("sensor").co_sync + 1)
        assert s.record("sensor").healthy and s.record("sensor").awake

    # Quarantine persists for an entire wake cycle's worth of requests.
    s.isv.registry.mark_asleep("sensor")
    s.push_sync("sensor", s.record("sensor").co_sync + 1)
    challenge = last_attest_challenge(s)
    mutated = _flip(memory, 3, 0x10)
    s.isv.sync.handle_attest(
        s.report_frame("sensor", challenge, memory=mutated), "dev", s.send
    )
    refusals = 0
    for _ in range(10):
        status, _, payload, _ = s.request_ticket("sensor")
        assert status == 424 and payload["error"] == "DeviceUnhealthy"
        refusals += 1
    wake_sensor(s, co=s.record("sensor").co_sync + 1)  # clean image again
    status, _, payload, _ = s.request_ticket("sensor")
    assert status == 200
    print(
        f"C7 PASS - healthy image verifies; {mismatches}/100 mutations "
        f"flagged; quarantine refused {refusals}/10 ticket requests until a "
        "clean re-attestation"
    )


# --------------------------------------------------------------------------
# C8: ticket use-counts — multi-use until expiry vs strictly single-use
# --------------------------------------------------------------------------


def test_c08_general_ticket_multi_use_until_expiry_power_ticket_single_use():
    world = World.build(SMALL_FLEET, seed=31)
    world.boot_all()
    alice = world.client("alice")
    alice.login(password_of(world, "alice"))

    # General device: one ticket, at least three accepted commands.
    entry = alice.get_iot_ticket("bulb")
    accepted = 0
    for cmd in ("LED_ON", "LED_OFF", "LED_ON"):
        out = alice.call_device("bulb", cmd)
        assert out.accepted
        assert alice.cache.devices["bulb"]["ticket"] == entry["ticket"]
        accepted += 1

    # After its lifetime passes the client won't even present the ticket...
    world.clock.advance(world.spec.iot_ticket_lifetime + 1)
    with pytest.raises(TicketExpired):
        alice.call_device("bulb", "LED_ON")
    assert "bulb" not in alice.cache.devices
    # ...and if an expired one is forced onto the wire anyway, the device
    # refuses it: zero accepted uses past the lifetime.
    stale = alice.get_iot_ticket("bulb")
    world.clock.advance(world.spec.iot_ticket_lifetime + 1)
    out = alice.call_device("bulb", "LED_ON", force=True)
    assert out.verdict == "ticket-expired"
    assert stale["ticket"] != entry["ticket"]
    assert "bulb" not in alice.cache.devices

    # Power device: the ticket works exactly once; a byte-identical replay
    # of the accepted frame is refused by the counter window.
    world.transport.capture_next("burned", dst="dev:sensor")
    out = alice.call_device("sensor", "LED_ON")
    assert out.accepted
    sensor = world.device("sensor")
    accepts = [e for e in sensor.events if e.get("verdict") == "accept"]
    world.transport.replay_slot("burned")
    world.transport.pump()
    assert sensor.events[-1]["verdict"] == "invalid-counter"
    assert [e for e in sensor.events if e.get("verdict") == "accept"] == accepts
    print(
        f"C8 PASS - general ticket: {accepted} uses before expiry, 0 after; "
        "power ticket: 1 use, replay refused"
    )


# --------------------------------------------------------------------------
# C9: authentication-service core behaviours
# --------------------------------------------------------------------------


def test_c09_login_core_rejects_bad_password_expiry_id_mismatch_and_replay(
    tmp_path,
):
    # Wrong password: client-visible failure, and no credentials written.
    world = World.build(SMALL_FLEET, seed=41)
    world.boot_all()
    session = cached_session(world, "alice", tmp_path)
    with pytest.raises(AuthFailure):
        session.login("not-the-password")
    assert not (tmp_path / "alice.cache.json").exists()

    # Expired ticket-granting ticket is refused at the exchange itself.
    s = Setup()
    ident = s.fleet.clients["alice"]
    resp = s.kdc.as_exchange(
        {"op": "as", "id_c": "alice", "id_tgs": "tgs", "ts": s.clock.now()}
    )
    key = crypto.derive_password_key(ident.spec.password, b"alice")
    payload = crypto.open_json(key, resp["sealed"])
    k_c_tgs = kdc.key_from_b64(payload["k"])
    s.clock.advance(SMALL_FLEET.tgt_lifetime + 1)
    authn = kdc.make_authenticator(k_c_tgs, "alice", ident.ad_c, s.clock.now_us(), s.rng)
    with pytest.raises(TicketExpired):
        s.kdc.tgs_exchange({"op": "tgs", "id_v": "isv", "tgt": payload["tgt"], "authn": authn})

    # A fresh session whose authenticator claims someone else's identity.
    s = Setup()
    resp = s.kdc.as_exchange(
        {"op": "as", "id_c": "alice", "id_tgs": "tgs", "ts": s.clock.now()}
    )
    payload = crypto.open_json(key, resp["sealed"])
    k_c_tgs = kdc.key_from_b64(payload["k"])
    bob = s.fleet.clients["bob"]
    forged = kdc.make_authenticator(k_c_tgs, "bob", bob.ad_c, s.clock.now_us(), s.rng)
    with pytest.raises(IdMismatch):
        s.kdc.tgs_exchange({"op": "tgs", "id_v": "isv", "tgt": payload["tgt"], "authn": forged})

    # Replaying a still-fresh authenticator is caught by the replay cache.
    authn = kdc.make_authenticator(k_c_tgs, "alice", ident.ad_c, s.clock.now_us(), s.rng)
    first = s.kdc.tgs_exchange({"op": "tgs", "id_v": "isv", "tgt": payload["tgt"], "authn": authn})
    assert "sealed" in first
    with pytest.raises(ReplayDetected):
        s.kdc.tgs_exchange({"op": "tgs", "id_v": "isv", "tgt": payload["tgt"], "authn": authn})
    print(
        "C9 PASS - wrong password leaves no cache; expired TGT, borrowed "
        "identity, and authenticator replay all refused at the exchange"
    )


# --------------------------------------------------------------------------
# C10: nothing secret appears on the wire
# --------------------------------------------------------------------------


def test_c10_full_transcript_contains_no_key_or_password_material():
    world = World.build(SMALL_FLEET, seed=51)
    world.boot_all()
    alice = world.client("alice")
    alice.login(password_of(world, "alice"))
    assert alice.call_device("bulb", "LED_ON").accepted
    assert alice.call_device("sensor", "LED_ON").accepted
    assert alice.verify_attestation("bulb", world.fleet.devices["bulb"].memory) == "healthy"

    frames = len(world.transport.transcript)
    probes = len(world.fleet.secrets)
    assert frames > 0 and probes > 0
    assert world.transcript_leaks() == []

    # Positive control: the probe does flag a secret that actually leaks.
    label, secret = world.fleet.secrets[0]
    world.transport.send("mallory", "dev:bulb", secret)
    world.transport.pump()
    assert label in world.transcript_leaks()
    print(
        f"C10 PASS - {frames} transcript frames screened against {probes} "
        "provisioned secrets plus live session keys: no leaks (probe "
        "verified by positive control)"
    )


# --------------------------------------------------------------------------
# C11: the adversarial suite is deterministic and fully green
# --------------------------------------------------------------------------


def test_c11_same_seed_attack_suite_runs_are_byte_identical():
    first = suite_report_json(seed=5)
    second = suite_report_json(seed=5)
    assert first == second, "same-seed suite reports differ"
    report = json.loads(first)
    assert report["ok"] is True
    assert report["coverage_missing"] == []
    names = [r["name"] for r in report["scenarios"]]
    assert len(names) == len(set(names)) == len(ATTACKS)
    print(
        f"C11 PASS - two seed-5 runs of {len(names)} attack scenarios are "
        f"byte-identical ({len(first)} bytes), all green, full error coverage"
    )
