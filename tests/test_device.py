"""Emulated devices: sync handshake, root-of-trust verdicts, key isolation."""

import hmac
from collections import Counter

import pytest

from kesic import crypto, wire
from kesic.clock import VirtualClock
from kesic.crypto import SymmetricKey
from kesic.device import DeviceProfile, GeneralDevice, PowerDevice
from kesic.errors import CorruptState
from kesic.provision import provision
from kesic.rng import Rng

from conftest import SMALL_FLEET

ID_ISV = 1
START = 1_700_000_000
US = 1_000_000


class Rig:
    """One emulated device wired to a send trap instead of a socket."""

    def __init__(self, name: str, tmp_path=None):
        self.clock = VirtualClock(START)
        self.fleet = provision(SMALL_FLEET, Rng(31))
        self.mat = self.fleet.devices[name]
        ident = self.fleet.clients["alice"]
        self.id_c, self.ad_c = ident.id_c, ident.ad_c
        profile = DeviceProfile(
            name=name,
            id_dev=self.mat.id_dev,
            dtype=self.mat.spec.dtype,
            id_isv=ID_ISV,
            kl_sync=self.mat.kl_sync,
            kl_tkt=self.mat.kl_tkt,
            kl_key=self.mat.kl_key,
            memory=self.mat.memory,
            isv_sync_addr="isv:sync",
            isv_attest_addr="isv:attest",
            window=self.mat.spec.window,
            freshness_window=self.mat.spec.freshness_window,
            state_path=str(tmp_path / f"{name}.state.json") if tmp_path else None,
        )
        cls = GeneralDevice if self.mat.spec.dtype == "general" else PowerDevice
        self.device = cls(profile, self.clock)
        self.sent: list[tuple[object, bytes]] = []

    def send(self, addr, data: bytes) -> None:
        self.sent.append((addr, data))

    def deliver(self, data: bytes, src="client") -> None:
        self.device.handle_datagram(data, src, self.send)

    def call(self, frame_bytes: bytes) -> bytes:
        """Deliver a service request and return the device's reply token."""
        n = len(self.sent)
        self.deliver(frame_bytes)
        assert len(self.sent) == n + 1, "expected exactly one reply"
        addr, data = self.sent[-1]
        assert addr == "client"
        return data

    def last_sync_request(self) -> wire.SyncRequest:
        addr, payload = self.sent[-1]
        assert addr == "isv:sync"
        return wire.SyncRequest.decode(payload)

    def sync_response(self, co_sync: int, sync_val: int) -> bytes:
        mac = crypto.sync_response_mac(self.mat.kl_sync, ID_ISV, co_sync, sync_val)
        return wire.SyncResponse(
            id_isv=ID_ISV, co_sync=co_sync, sync_val=sync_val, mac=mac.hex
        ).encode()

    def sync(self, sync_val: int = START) -> None:
        """Run the device's side of a sync handshake to completion."""
        if isinstance(self.device, PowerDevice):
            self.device.wake(self.send)
        else:
            self.device.boot(self.send)
        req = self.last_sync_request()
        self.deliver(self.sync_response(req.co_sync, sync_val), "isv:sync")
        assert self.device.synced

    # --- service frame builders ---------------------------------------------------

    def g_frame(self, lifetime, ts, cmd=wire.CMD_LED_ON, ticket=None, authenticator=None):
        if ticket is None:
            ticket = crypto.make_iot_ticket_g(
                self.mat.kl_tkt, self.id_c, self.ad_c, lifetime, self.mat.id_dev
            ).hex
        if authenticator is None:
            key = self.session_key_g(lifetime)
            authenticator = crypto.service_authenticator_g(key, ts).hex
        return wire.ServiceRequestG(
            cmd=cmd, id_c=self.id_c, ad_c=self.ad_c, lifetime=lifetime,
            ticket=ticket, ts=ts, authenticator=authenticator,
        ).encode()

    def session_key_g(self, lifetime) -> SymmetricKey:
        return crypto.make_session_key_g(
            self.mat.kl_key, self.id_c, self.ad_c, lifetime, self.mat.id_dev
        )

    def pc_frame(self, co_pc, cmd=wire.CMD_LED_ON, ticket=None):
        if ticket is None:
            ticket = crypto.make_iot_ticket_pc(
                self.mat.kl_tkt, self.id_c, self.ad_c, co_pc, self.mat.id_dev
            ).hex
        return wire.ServiceRequestPC(
            cmd=cmd, id_c=self.id_c, ad_c=self.ad_c, co_pc=co_pc, ticket=ticket
        ).encode()


@pytest.fixture
def bulb():
    return Rig("bulb")


@pytest.fixture
def sensor():
    return Rig("sensor")


class TestSyncHandshake:
    def test_boot_sends_authentic_request(self, bulb):
        bulb.device.boot(bulb.send)
        req = bulb.last_sync_request()
        assert req.id_dev == bulb.mat.id_dev
        assert req.co_sync == 1
        expected = crypto.sync_request_mac(bulb.mat.kl_sync, req.id_dev, req.co_sync)
        assert req.mac == expected.hex

    def test_retransmission_reuses_inflight_counter(self, bulb):
        bulb.device.boot(bulb.send)
        bulb.device.boot(bulb.send)  # timeout path: same counter again
        first = wire.SyncRequest.decode(bulb.sent[0][1])
        second = wire.SyncRequest.decode(bulb.sent[1][1])
        assert first.co_sync == second.co_sync == 1
        bulb.deliver(bulb.sync_response(1, START), "isv:sync")
        assert bulb.device.synced
        bulb.device.boot(bulb.send)  # next round: fresh counter
        assert bulb.last_sync_request().co_sync == 2

    def test_counter_is_persisted_before_send(self, tmp_path):
        first = Rig("bulb", tmp_path)
        first.device.boot(first.send)  # burns 1, never answered
        second = Rig("bulb", tmp_path)  # simulated crash + restart
        second.device.boot(second.send)
        assert second.last_sync_request().co_sync == 2

    @pytest.mark.parametrize(
        "text",
        ["", "not json", '{"counter": 3}', '{"co_sync": "x"}', '{"co_sync": true}', '{"co_sync": -1}', "[1]"],
        ids=["empty", "not-json", "no-key", "string", "true", "negative", "not-an-object"],
    )
    def test_malformed_state_file_is_corrupt_state(self, tmp_path, text):
        """A --state file that is not {"co_sync": <non-negative int>} stops the
        device at start-up, naming the file, before any counter is reused."""
        (tmp_path / "bulb.state.json").write_text(text)
        with pytest.raises(CorruptState, match="bulb.state.json"):
            Rig("bulb", tmp_path)

    def test_response_with_wrong_counter_rejected(self, bulb):
        bulb.device.boot(bulb.send)
        bulb.deliver(bulb.sync_response(2, START), "isv:sync")  # echo mismatch
        assert not bulb.device.synced
        assert bulb.device.events[-1] == {
            "actor": "dev:bulb", "event": "sync-reject", "error": "AuthFailure",
        }

    def test_response_from_wrong_server_identity_rejected(self, bulb):
        bulb.device.boot(bulb.send)
        mac = crypto.sync_response_mac(bulb.mat.kl_sync, 2, 1, START)
        frame = wire.SyncResponse(id_isv=2, co_sync=1, sync_val=START, mac=mac.hex)
        bulb.deliver(frame.encode(), "isv:sync")
        assert not bulb.device.synced

    def test_response_with_bad_mac_rejected(self, bulb):
        bulb.device.boot(bulb.send)
        good = bulb.sync_response(1, START)
        bad = good[:-1] + (b"0" if good[-1:] != b"0" else b"1")
        bulb.deliver(bad, "isv:sync")
        assert not bulb.device.synced

    def test_unsolicited_response_rejected(self, bulb):
        bulb.deliver(bulb.sync_response(1, START), "isv:sync")
        assert not bulb.device.synced


class TestGeneralService:
    LIFETIME = START + 600
    TS = START * US

    def test_led_commands_toggle_and_reply(self, bulb):
        bulb.sync()
        assert bulb.call(bulb.g_frame(self.LIFETIME, self.TS)) == b"OK LED=ON"
        assert bulb.device.led
        assert bulb.call(bulb.g_frame(self.LIFETIME, self.TS + 1, wire.CMD_LED_OFF)) == b"OK LED=OFF"
        assert not bulb.device.led

    def test_multi_use_within_lifetime(self, bulb):
        bulb.sync()
        for i in range(5):
            reply = bulb.call(bulb.g_frame(self.LIFETIME, self.TS + i))
            assert reply == b"OK LED=ON"

    def test_attest_command_reports_memory(self, bulb):
        bulb.sync()
        reply = bulb.call(bulb.g_frame(self.LIFETIME, self.TS, wire.CMD_ATTEST))
        key = bulb.session_key_g(self.LIFETIME)
        expected = crypto.attest_memory(key, bulb.mat.memory)
        assert reply == b"OK " + expected.hex.encode()

    def test_attest_reflects_current_memory(self, bulb):
        bulb.sync()
        bulb.device.memory[7] ^= 0xFF
        reply = bulb.call(bulb.g_frame(self.LIFETIME, self.TS, wire.CMD_ATTEST))
        key = bulb.session_key_g(self.LIFETIME)
        clean = crypto.attest_memory(key, bulb.mat.memory)
        assert reply != b"OK " + clean.hex.encode()
        tampered = crypto.attest_memory(key, bytes(bulb.device.memory))
        assert reply == b"OK " + tampered.hex.encode()

    @pytest.mark.parametrize("skew_s", [-301, 301])
    def test_stale_or_future_timestamp_refused(self, bulb, skew_s):
        bulb.sync()
        reply = bulb.call(bulb.g_frame(self.LIFETIME, self.TS + skew_s * US))
        assert reply == b"ERR INVALID_REQUEST"

    @pytest.mark.parametrize("skew_s", [-299, 299])
    def test_timestamp_inside_window_accepted(self, bulb, skew_s):
        bulb.sync()
        assert bulb.call(bulb.g_frame(self.LIFETIME, self.TS + skew_s * US)) == b"OK LED=ON"

    def test_duplicate_timestamp_refused(self, bulb):
        bulb.sync()
        frame = bulb.g_frame(self.LIFETIME, self.TS)
        assert bulb.call(frame) == b"OK LED=ON"
        assert bulb.call(frame) == b"ERR INVALID_REQUEST"
        # One microsecond later is a distinct, honest request.
        assert bulb.call(bulb.g_frame(self.LIFETIME, self.TS + 1)) == b"OK LED=ON"

    def test_future_timestamp_replay_refused_after_clock_advances(self, bulb):
        """A timestamp up to one window ahead stays fresh for up to two
        windows after acceptance, so the device must remember it that long."""
        bulb.sync()
        frame = bulb.g_frame(self.LIFETIME, (START + 200) * US)
        assert bulb.call(frame) == b"OK LED=ON"
        bulb.clock.advance(350)
        assert bulb.call(frame) == b"ERR INVALID_REQUEST"

    def test_expired_lifetime_refused(self, bulb):
        bulb.sync()
        assert bulb.call(bulb.g_frame(START, self.TS)) == b"ERR TICKET_EXPIRED"

    def test_lifetime_expires_as_clock_advances(self, bulb):
        bulb.sync()
        frame = bulb.g_frame(self.LIFETIME, self.TS)
        assert bulb.call(frame) == b"OK LED=ON"
        bulb.clock.advance(601)
        late = bulb.g_frame(self.LIFETIME, (START + 601) * US)
        assert bulb.call(late) == b"ERR TICKET_EXPIRED"

    def test_wrong_authenticator_refused(self, bulb):
        bulb.sync()
        frame = bulb.g_frame(self.LIFETIME, self.TS, authenticator="ab" * 32)
        assert bulb.call(frame) == b"ERR AUTH_FAILURE"

    def test_lifetime_extension_forgery_refused(self, bulb):
        bulb.sync()
        ticket = crypto.make_iot_ticket_g(
            bulb.mat.kl_tkt, bulb.id_c, bulb.ad_c, self.LIFETIME, bulb.mat.id_dev
        ).hex
        authn = crypto.service_authenticator_g(bulb.session_key_g(self.LIFETIME), self.TS).hex
        forged = bulb.g_frame(
            self.LIFETIME + 9000, self.TS, ticket=ticket, authenticator=authn
        )
        assert bulb.call(forged) == b"ERR AUTH_FAILURE"

    def test_tampered_ticket_refused(self, bulb):
        bulb.sync()
        frame = bulb.g_frame(self.LIFETIME, self.TS, ticket="cd" * 32)
        assert bulb.call(frame) == b"ERR AUTH_FAILURE"

    def test_unsupported_command_refused_after_crypto(self, bulb):
        bulb.sync()
        assert bulb.call(bulb.g_frame(self.LIFETIME, self.TS, cmd="REBOOT")) == b"ERR INVALID_REQUEST"

    def test_service_before_sync_refused(self, bulb):
        assert bulb.call(bulb.g_frame(self.LIFETIME, self.TS)) == b"ERR NOT_SYNCED"

    def test_undecodable_frame_of_right_size_refused(self, bulb):
        bulb.sync()
        garbage = b"x" * wire.ServiceRequestG.size()
        assert bulb.call(garbage) == b"ERR INVALID_REQUEST"

    def test_unrecognized_datagram_size_dropped(self, bulb):
        bulb.sync()
        n = len(bulb.sent)
        bulb.deliver(b"hello")
        assert len(bulb.sent) == n  # silence
        assert bulb.device.events[-1] == {"actor": "dev:bulb", "event": "ignored", "length": 5}


class TestPowerAttestation:
    def attest_request(self, sensor, challenge="ab" * 16, mac=None):
        if mac is None:
            mac = crypto.attest_request_mac(sensor.mat.kl_sync, ID_ISV, challenge).hex
        return wire.AttestRequest(id_isv=ID_ISV, challenge=challenge, mac=mac).encode()

    def test_challenge_mid_sync_produces_report(self, sensor):
        sensor.device.wake(sensor.send)
        challenge = "1f" * 16
        sensor.deliver(self.attest_request(sensor, challenge), "isv:attest")
        addr, payload = sensor.sent[-1]
        assert addr == "isv:attest"
        resp = wire.AttestResponse.decode(payload)
        assert resp.id_dev == sensor.mat.id_dev
        att_key = crypto.derive_attestation_key(sensor.mat.kl_key, challenge)
        assert resp.attst_hmac == crypto.attest_memory(att_key, sensor.mat.memory).hex

    def test_report_covers_current_memory(self, sensor):
        sensor.device.wake(sensor.send)
        sensor.device.memory[0] ^= 0x01
        challenge = "2e" * 16
        sensor.deliver(self.attest_request(sensor, challenge), "isv:attest")
        resp = wire.AttestResponse.decode(sensor.sent[-1][1])
        att_key = crypto.derive_attestation_key(sensor.mat.kl_key, challenge)
        assert resp.attst_hmac == crypto.attest_memory(att_key, bytes(sensor.device.memory)).hex

    def test_challenge_outside_sync_ignored(self, sensor):
        sensor.sync(sync_val=5000)  # handshake done; no in-flight request
        n = len(sensor.sent)
        sensor.deliver(self.attest_request(sensor), "isv:attest")
        assert len(sensor.sent) == n
        assert sensor.device.events[-1]["event"] == "attest-request-ignored"

    def test_challenge_with_bad_mac_ignored(self, sensor):
        sensor.device.wake(sensor.send)
        n = len(sensor.sent)
        sensor.deliver(self.attest_request(sensor, mac="9" * 64), "isv:attest")
        assert len(sensor.sent) == n

    def test_challenge_from_wrong_server_ignored(self, sensor):
        sensor.device.wake(sensor.send)
        challenge = "3d" * 16
        mac = crypto.attest_request_mac(sensor.mat.kl_sync, 2, challenge)
        frame = wire.AttestRequest(id_isv=2, challenge=challenge, mac=mac.hex).encode()
        n = len(sensor.sent)
        sensor.deliver(frame, "isv:attest")
        assert len(sensor.sent) == n


class TestPowerService:
    BASE = 5000

    def test_window_bounds(self, sensor):
        sensor.sync(sync_val=self.BASE)
        window = sensor.mat.spec.window
        assert sensor.call(sensor.pc_frame(self.BASE)) == b"ERR INVALID_COUNTER"  # base excluded
        assert sensor.call(sensor.pc_frame(self.BASE + window)) == b"OK LED=ON"  # edge included
        assert sensor.call(sensor.pc_frame(self.BASE + window + 1)) == b"ERR INVALID_COUNTER"

    def test_out_of_order_counters_accepted(self, sensor):
        sensor.sync(sync_val=self.BASE)
        assert sensor.call(sensor.pc_frame(self.BASE + 3)) == b"OK LED=ON"
        assert sensor.call(sensor.pc_frame(self.BASE + 1, wire.CMD_LED_OFF)) == b"OK LED=OFF"

    def test_counter_single_use(self, sensor):
        sensor.sync(sync_val=self.BASE)
        frame = sensor.pc_frame(self.BASE + 2)
        assert sensor.call(frame) == b"OK LED=ON"
        assert sensor.call(frame) == b"ERR INVALID_COUNTER"

    def test_forged_ticket_does_not_burn_slot(self, sensor):
        sensor.sync(sync_val=self.BASE)
        forged = sensor.pc_frame(self.BASE + 2, ticket="ef" * 32)
        assert sensor.call(forged) == b"ERR AUTH_FAILURE"
        # The honest holder of that counter is unaffected.
        assert sensor.call(sensor.pc_frame(self.BASE + 2)) == b"OK LED=ON"

    def test_sleep_clears_volatile_window(self, sensor):
        sensor.sync(sync_val=self.BASE)
        assert sensor.call(sensor.pc_frame(self.BASE + 1)) == b"OK LED=ON"
        sensor.device.sleep()
        assert sensor.call(sensor.pc_frame(self.BASE + 4)) == b"ERR NOT_SYNCED"
        sensor.sync(sync_val=6000)  # next wake re-anchors the window
        assert sensor.call(sensor.pc_frame(self.BASE + 4)) == b"ERR INVALID_COUNTER"
        assert sensor.call(sensor.pc_frame(6001)) == b"OK LED=ON"

    def test_attest_not_offered_as_service_command(self, sensor):
        sensor.sync(sync_val=self.BASE)
        frame = sensor.pc_frame(self.BASE + 1, cmd=wire.CMD_ATTEST)
        assert sensor.call(frame) == b"ERR INVALID_REQUEST"


def _count_calls(monkeypatch) -> Counter:
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


class TestServiceCheckWork:
    """What one service request costs a device, counted rather than timed.

    The general device MACs the received field bytes, so an accepted
    request costs three HMACs (session key, authenticator, ticket) and no
    field rendering; every tag comparison is constant-time.
    """

    LIFETIME = START + 600
    TS = START * US

    def test_accepted_general_request(self, bulb, monkeypatch):
        bulb.sync()
        frame = bulb.g_frame(self.LIFETIME, self.TS)
        counts = _count_calls(monkeypatch)
        assert bulb.call(frame) == b"OK LED=ON"
        assert counts == {"hmac": 3, "compare_digest": 2}

    def test_accepted_power_request(self, sensor, monkeypatch):
        sensor.sync(sync_val=5000)
        frame = sensor.pc_frame(5001)
        counts = _count_calls(monkeypatch)
        assert sensor.call(frame) == b"OK LED=ON"
        assert counts == {"hmac": 1, "compare_digest": 1}


def _reachable(root, skip_attrs=frozenset()):
    """Every object reachable from ``root`` via containers and attributes."""
    out, stack, seen = [], [root], set()
    while stack:
        cur = stack.pop()
        if id(cur) in seen:
            continue
        seen.add(id(cur))
        out.append(cur)
        if isinstance(cur, (str, bytes, bytearray, int, float, bool, type(None))):
            continue
        if isinstance(cur, dict):
            stack.extend(cur.keys())
            stack.extend(cur.values())
        elif isinstance(cur, (list, tuple, set, frozenset)):
            stack.extend(cur)
        else:
            d = getattr(cur, "__dict__", None)
            if d:
                for k, v in d.items():
                    if k not in skip_attrs:
                        stack.append(v)
            for slot in getattr(type(cur), "__slots__", ()):
                if slot in skip_attrs:
                    continue
                try:
                    stack.append(getattr(cur, slot))
                except AttributeError:
                    pass
    return out


class TestKeyIsolation:
    @pytest.mark.parametrize("name", ["bulb", "sensor"])
    def test_no_key_material_outside_rot(self, name):
        rig = Rig(name)
        rig.sync(sync_val=START if name == "bulb" else 5000)
        nodes = _reachable(rig.device, skip_attrs=frozenset({"_rot"}))
        assert not any(isinstance(n, SymmetricKey) for n in nodes)
        assert not any(isinstance(n, DeviceProfile) for n in nodes)
        blobs = [bytes(n) for n in nodes if isinstance(n, (bytes, bytearray))]
        texts = [n for n in nodes if isinstance(n, str)]
        for key in (rig.mat.kl_sync, rig.mat.kl_tkt, rig.mat.kl_key):
            raw, hx = key.raw(), key.raw().hex()
            assert all(raw not in blob for blob in blobs)
            assert all(hx not in text for text in texts)

    def test_audit_walk_would_catch_keys(self):
        """Positive control: without the RoT exclusion the walk finds keys."""
        rig = Rig("bulb")
        nodes = _reachable(rig.device)
        assert any(isinstance(n, SymmetricKey) for n in nodes)
