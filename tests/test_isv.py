"""IoT server: sync manager counter/attestation rules and the ticket API."""

import base64
import errno
import hashlib
import json
import os
import threading

import pytest

from kesic import crypto, isv, kdc, wire
from kesic.clock import VirtualClock
from kesic.device import POWER
from kesic.errors import AuthFailure, CorruptState, IdMismatch
from kesic.isv import DeviceRecord, DeviceRegistry, Isv, IsvConfig
from kesic.provision import provision
from kesic.rng import Rng

from conftest import SMALL_FLEET, count_calls


class Setup:
    def __init__(self, tmp_path=None):
        self.clock = VirtualClock()
        self.rng = Rng(77)
        self.fleet = provision(SMALL_FLEET, self.rng)
        state = os.path.join(str(tmp_path), "isv-state.json") if tmp_path else None
        config, records = IsvConfig.from_json_obj(self.fleet.isv_json())
        self.isv = Isv(
            config,
            records,
            clock=self.clock,
            rng=self.rng,
            state_path=state,
        )
        self.kdc = kdc.Kdc.from_json_obj(self.fleet.kdc_json(), clock=self.clock, rng=self.rng)
        self.sent: list[tuple[object, bytes]] = []

    # --- device-side frame builders -------------------------------------------

    def mat(self, name):
        return self.fleet.devices[name]

    def sync_frame(self, name: str, co: int) -> bytes:
        mat = self.mat(name)
        mac = crypto.sync_request_mac(mat.kl_sync, mat.id_dev, co)
        return wire.SyncRequest(id_dev=mat.id_dev, co_sync=co, mac=mac).encode()

    def report_frame(self, name: str, challenge: str, memory: bytes | None = None) -> bytes:
        mat = self.mat(name)
        att_key = crypto.derive_attestation_key(mat.kl_key, challenge)
        report = crypto.attest_memory(att_key, memory if memory is not None else mat.memory)
        return wire.AttestResponse(id_dev=mat.id_dev, attst_hmac=report).encode()

    def send(self, addr, payload: bytes) -> None:
        self.sent.append((addr, payload))

    def push_sync(self, name: str, co: int, src="dev") -> None:
        self.isv.sync.handle_sync(self.sync_frame(name, co), src, self.send)

    def events(self, **match):
        return [e for e in self.isv.events if all(e.get(k) == v for k, v in match.items())]

    def record(self, name):
        return self.isv.registry.by_name[name]

    # --- Kerberos client side ---------------------------------------------------

    def login(self, user="alice", password=None):
        """The AS exchange: (TGT, K_C-TGS)."""
        if password is None:
            password = self.fleet.clients[user].spec.password
        resp = self.kdc.as_exchange(
            {"op": "as", "id_c": user, "id_tgs": "tgs", "ts": self.clock.now()}
        )
        key = crypto.derive_password_key(password, user.encode())
        payload = crypto.open_json(key, resp["sealed"])
        return payload["tgt"], kdc.key_from_b64(payload["k"])

    def tgs_request(self, ticket: str, key, user="alice") -> dict:
        authn = kdc.make_authenticator(key, user, self.fleet.clients[user].ad_c, self.clock.now_us(), self.rng)
        return {"op": "tgs", "id_v": "isv", "tgt": ticket, "authn": authn}

    def service_ticket(self, user="alice", password=None):
        """The AS and TGS exchanges: (ST for the IoT server, K_C-ISV)."""
        tgt, k_c_tgs = self.login(user, password)
        resp = self.kdc.tgs_exchange(self.tgs_request(tgt, k_c_tgs, user))
        out = crypto.open_json(k_c_tgs, resp["sealed"])
        return out["st"], kdc.key_from_b64(out["k"])

    def token(self, ticket: str, key, user="alice") -> dict:
        """Authorization header presenting ``ticket`` with a fresh authenticator."""
        authn = kdc.make_authenticator(key, user, self.fleet.clients[user].ad_c, self.clock.now_us(), self.rng)
        token = base64.b64encode(
            json.dumps({"st": ticket, "authn": authn}, sort_keys=True).encode()
        ).decode()
        return {"Authorization": "KESIC " + token}

    def authorization(self, user="alice", password=None):
        st, k_c_isv = self.service_ticket(user, password)
        return self.token(st, k_c_isv, user), k_c_isv

    def request_ticket(self, device: str, user="alice", headers=None, key=None):
        if headers is None:
            headers, key = self.authorization(user)
        body = wire.TicketRequestJson(user, device).to_json().encode()
        status, hdrs, payload = self.isv.tickets.handle_http("POST", "/ticket", headers, body)
        return status, hdrs, json.loads(payload.decode()), key


def last_attest_challenge(s: Setup) -> str:
    """Decode the AttestRequest the ISV just sent and verify its MAC."""
    addr, payload = s.sent[-1]
    req = wire.AttestRequest.decode(payload)
    mat = s.mat("sensor")
    assert req.id_isv == 1
    expected = crypto.attest_request_mac(mat.kl_sync, req.id_isv, req.challenge)
    assert req.mac == expected
    return req.challenge


def wake_sensor(s: Setup, co: int = 1) -> None:
    s.push_sync("sensor", co)
    challenge = last_attest_challenge(s)
    s.isv.sync.handle_attest(s.report_frame("sensor", challenge), "dev", s.send)


def power_nonce(s: Setup) -> int:
    """Fetch one power ticket for the sensor and return its counter."""
    status, _, obj, key = s.request_ticket("sensor")
    assert status == 200, obj
    return crypto.open_json(key, obj["sealed"])["nonce"]


def window_base(s: Setup) -> int:
    """sync_val of the last SyncResponse the ISV sent: the co_pc window base."""
    payload = next(p for _, p in reversed(s.sent) if len(p) == wire.SyncResponse.size())
    return wire.SyncResponse.decode(payload).sync_val


def assert_no_ticket_reissued(s: Setup, co_sync: int, delivered: list[int]) -> None:
    """Wake and attest ``s`` again; no delivered counter may be valid anew."""
    wake_sensor(s, co=co_sync)
    assert window_base(s) >= max(delivered)  # old tickets fall below the window
    assert min(power_nonce(s) for _ in range(3)) > max(delivered)


@pytest.fixture
def s():
    return Setup()


class TestSyncCounterRule:
    def test_accepts_local_and_local_plus_one(self, s):
        rec = s.record("bulb")
        assert rec.co_sync == 0
        s.push_sync("bulb", 0)
        assert len(s.sent) == 1  # co == local: accepted (retransmission case)
        s.push_sync("bulb", 1)
        assert len(s.sent) == 2
        assert rec.co_sync == 1

    def test_rejects_stale_and_far_future(self, s):
        rec = s.record("bulb")
        s.push_sync("bulb", 1)
        assert rec.co_sync == 1
        before = len(s.sent)
        s.push_sync("bulb", 0)  # local - 1
        s.push_sync("bulb", 3)  # local + 2
        assert len(s.sent) == before  # silence on the wire
        rejects = s.events(event="sync-reject", device="bulb", error="CounterOutOfRange")
        assert len(rejects) == 2
        assert rec.co_sync == 1

    def test_counter_never_decreases(self, s):
        rec = s.record("bulb")
        for co in (1, 2, 2, 3):
            s.push_sync("bulb", co)
            assert rec.co_sync >= co - 1
        assert rec.co_sync == 3

    def test_bad_mac_rejected_after_counter_check(self, s):
        mat = s.mat("bulb")
        mac = crypto.sync_request_mac(mat.kl_sync, mat.id_dev, 99)  # MAC over wrong counter
        frame = wire.SyncRequest(id_dev=mat.id_dev, co_sync=1, mac=mac).encode()
        s.isv.sync.handle_sync(frame, "dev", s.send)
        assert s.events(event="sync-reject", device="bulb", error="AuthFailure")
        assert not s.sent

    def test_unknown_device_rejected(self, s):
        frame = wire.SyncRequest(id_dev=999, co_sync=1, mac="0" * 64).encode()
        s.isv.sync.handle_sync(frame, "dev", s.send)
        assert s.events(event="sync-reject", error="UnknownDevice")

    def test_general_response_carries_server_time(self, s):
        s.push_sync("bulb", 1)
        addr, payload = s.sent[0]
        resp = wire.SyncResponse.decode(payload)
        assert resp.id_isv == 1
        assert resp.co_sync == 1
        assert resp.sync_val == s.clock.now()
        mat = s.mat("bulb")
        expected = crypto.sync_response_mac(mat.kl_sync, 1, 1, resp.sync_val)
        assert resp.mac == expected


class TestPowerSyncAndAttestation:
    def test_sync_interposes_attestation(self, s):
        s.push_sync("sensor", 1)
        challenge = last_attest_challenge(s)
        rec = s.record("sensor")
        assert not rec.awake
        s.isv.sync.handle_attest(s.report_frame("sensor", challenge), "dev", s.send)
        assert rec.awake and rec.healthy
        # co_pc re-initialized from wall time, never backwards.
        assert rec.co_pc == s.clock.now()
        addr, payload = s.sent[-1]
        resp = wire.SyncResponse.decode(payload)
        assert resp.sync_val == rec.co_pc
        assert resp.co_sync == 1

    def test_accepted_attestation_computes_the_report_tag_once(self, s, monkeypatch):
        """Attestation key, report tag and sync-response tag: three HMACs, and
        the report is compared in constant time."""
        s.push_sync("sensor", 1)
        frame = s.report_frame("sensor", last_attest_challenge(s))
        counts = count_calls(monkeypatch)
        s.isv.sync.handle_attest(frame, "dev", s.send)
        assert s.record("sensor").awake
        assert (counts["hmac"], counts["compare_digest"]) == (3, 1)

    def test_mismatched_report_quarantines(self, s):
        s.push_sync("sensor", 1)
        challenge = last_attest_challenge(s)
        bad = bytearray(s.mat("sensor").memory)
        bad[0] ^= 0xFF
        s.isv.sync.handle_attest(s.report_frame("sensor", challenge, bytes(bad)), "dev", s.send)
        rec = s.record("sensor")
        assert not rec.healthy and not rec.awake
        assert s.events(event="attest-reject", device="sensor", error="AttestationMismatch")

    def test_replayed_report_is_not_compromise(self, s):
        # Round 1 succeeds; its report enters the accepted set.
        s.push_sync("sensor", 1)
        report1 = s.report_frame("sensor", last_attest_challenge(s))
        s.isv.sync.handle_attest(report1, "dev", s.send)
        # Round 2 with a fresh challenge: replaying round 1's report fails
        # authentication but does not quarantine.
        s.push_sync("sensor", 2)
        s.isv.sync.handle_attest(report1, "dev", s.send)
        rec = s.record("sensor")
        assert rec.healthy
        assert s.events(event="attest-reject", device="sensor", error="AuthFailure")
        assert not s.events(event="attest-reject", device="sensor", error="AttestationMismatch")

    def test_older_accepted_report_quarantines(self, s):
        """Only the last accepted report is kept, so an older one is no
        stale replay: it matches nothing the server holds."""
        s.push_sync("sensor", 1)
        report1 = s.report_frame("sensor", last_attest_challenge(s))
        s.isv.sync.handle_attest(report1, "dev", s.send)
        s.push_sync("sensor", 2)
        s.isv.sync.handle_attest(s.report_frame("sensor", last_attest_challenge(s)), "dev", s.send)
        s.push_sync("sensor", 3)
        s.isv.sync.handle_attest(report1, "dev", s.send)
        assert not s.record("sensor").healthy
        assert s.events(event="attest-reject", device="sensor", error="AttestationMismatch")

    def test_correct_report_after_a_mismatch_finds_no_round(self, s):
        s.push_sync("sensor", 1)
        challenge = last_attest_challenge(s)
        bad = bytearray(s.mat("sensor").memory)
        bad[0] ^= 0xFF
        s.isv.sync.handle_attest(s.report_frame("sensor", challenge, bytes(bad)), "dev", s.send)
        s.isv.sync.handle_attest(s.report_frame("sensor", challenge), "dev", s.send)
        rec = s.record("sensor")
        assert not rec.healthy and not rec.awake
        assert s.events(event="attest-reject", device="sensor", error="AuthFailure")

    def test_sweep_during_an_accepted_report_ends_the_round_once(self, s, monkeypatch):
        """The report takes its round before any check, so a deadline sweep
        that runs while the report is verified finds nothing to time out."""
        s.push_sync("sensor", 1)
        frame = s.report_frame("sensor", last_attest_challenge(s))
        derive = crypto.derive_attestation_key

        def derive_while_the_sweep_runs(*args):
            s.clock.advance(31)
            s.isv.sync.expire_pending()
            return derive(*args)

        monkeypatch.setattr(crypto, "derive_attestation_key", derive_while_the_sweep_runs)
        s.isv.sync.handle_attest(frame, "dev", s.send)
        ends = [e["event"] for e in s.isv.events if e["event"] in ("attest-accept", "attest-reject")]
        assert ends == ["attest-accept"]
        assert s.record("sensor").awake

    def test_report_without_pending_round_rejected(self, s):
        s.isv.sync.handle_attest(s.report_frame("sensor", "ab" * 16), "dev", s.send)
        assert s.events(event="attest-reject", device="sensor", error="AuthFailure")

    def test_late_report_rejected(self, s):
        s.push_sync("sensor", 1)
        challenge = last_attest_challenge(s)
        s.clock.advance(31)  # past the attestation deadline
        s.isv.sync.handle_attest(s.report_frame("sensor", challenge), "dev", s.send)
        assert s.events(event="attest-reject", device="sensor", error="Timeout")
        assert not s.record("sensor").awake

    def test_expire_pending_sweeps_deadlines(self, s):
        s.push_sync("sensor", 1)
        s.clock.advance(31)
        s.isv.sync.expire_pending()
        assert s.events(event="attest-reject", device="sensor", error="Timeout")

    def test_challenge_is_fresh_per_round(self, s):
        s.push_sync("sensor", 1)
        ch1 = last_attest_challenge(s)
        s.push_sync("sensor", 2)
        ch2 = last_attest_challenge(s)
        assert ch1 != ch2


class TestRegistryPersistence:
    def test_counters_survive_restart(self, tmp_path):
        s1 = Setup(tmp_path)
        s1.push_sync("bulb", 1)
        wake_sensor(s1)
        co_pc = s1.record("sensor").co_pc
        s1.isv.registry.next_co_pc(s1.mat("sensor").id_dev)

        s2 = Setup(tmp_path)
        assert s2.record("bulb").co_sync == 1
        assert s2.record("sensor").co_pc == co_pc + 1
        # Volatile wake-cycle state intentionally does not survive.
        assert not s2.record("sensor").awake

    def test_next_co_pc_is_atomic_across_threads(self, s):
        id_dev = s.mat("sensor").id_dev
        out: list[int] = []
        lock = threading.Lock()

        def grab():
            for _ in range(25):
                v = s.isv.registry.next_co_pc(id_dev)
                with lock:
                    out.append(v)

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(out) == 200
        assert len(set(out)) == 200


def _fleet_records(n: int, co_pc: int) -> list[DeviceRecord]:
    # Counter bookkeeping needs no keys.
    return [
        DeviceRecord(
            name=f"pow{i}", id_dev=101 + i, dtype=POWER, kl_sync=None, kl_tkt=None,
            kl_key=None, allow=frozenset(), co_sync=1, co_pc=co_pc,
        )
        for i in range(n)
    ]


def _fail_with_eio(*args):
    raise OSError(errno.EIO, "injected I/O error")


class TestCounterJournal:
    def test_bytes_per_ticket_are_flat_in_fleet_size(self, tmp_path, monkeypatch):
        """3x fleet tickets round-robin, compactions included, cost one to two
        record lines each at 10, 1,000 and 10,000 devices."""
        epoch = 1_800_000_000
        line = len(f"{101 + 9999} 1 {epoch}\n")
        monkeypatch.setattr(os, "fsync", lambda fd: None)  # counting bytes, not timing
        per_ticket = {}
        for n in (10, 1_000, 10_000):
            path = str(tmp_path / f"journal-{n}")
            registry = DeviceRegistry(_fleet_records(n, epoch), state_path=path)
            written = []
            real_write = os.write

            def counting_write(fd, data, written=written, real_write=real_write):
                written.append(len(data))
                return real_write(fd, data)

            with monkeypatch.context() as m:
                m.setattr(os, "write", counting_write)
                for i in range(3 * n):
                    registry.next_co_pc(101 + i % n)
            per_ticket[n] = sum(written) / (3 * n)
            assert os.path.getsize(path) <= len("kesic-isv-counters 1\n") + 2 * n * line
            registry.close()
            restored = DeviceRegistry(_fleet_records(n, 0), state_path=path)
            assert {r.co_pc for r in restored.by_id.values()} == {epoch + 3}
        assert all(line / 2 <= b <= 3 * line for b in per_ticket.values()), per_ticket
        assert max(per_ticket.values()) - min(per_ticket.values()) <= 8, per_ticket

    @pytest.mark.parametrize("call", ["fsync", "write"])
    def test_failed_append_in_next_co_pc_never_reissues(self, tmp_path, monkeypatch, call):
        s1 = Setup(tmp_path)
        wake_sensor(s1)
        delivered = [power_nonce(s1) for _ in range(3)]
        with monkeypatch.context() as m:
            m.setattr(os, call, _fail_with_eio)
            with pytest.raises(OSError):
                s1.request_ticket("sensor")
        assert_no_ticket_reissued(Setup(tmp_path), 2, delivered)  # restart from the journal

    @pytest.mark.parametrize("call", ["fsync", "write"])
    def test_failed_append_in_handle_attest_never_reissues(self, tmp_path, monkeypatch, call):
        s1 = Setup(tmp_path)
        wake_sensor(s1)
        delivered = [power_nonce(s1) for _ in range(3)]
        s1.isv.registry.mark_asleep("sensor")
        s1.clock.advance(1_000)  # the next attestation moves co_pc to the clock
        s1.push_sync("sensor", 2)
        challenge = last_attest_challenge(s1)
        sent = len(s1.sent)
        with monkeypatch.context() as m:
            m.setattr(os, call, _fail_with_eio)
            with pytest.raises(OSError):
                s1.isv.sync.handle_attest(s1.report_frame("sensor", challenge), "dev", s1.send)
        assert len(s1.sent) == sent  # no sync response left
        assert not s1.record("sensor").awake
        assert_no_ticket_reissued(Setup(tmp_path), 3, delivered)

    def test_next_change_after_a_failed_append_rewrites_the_journal(self, tmp_path, monkeypatch):
        s1 = Setup(tmp_path)
        wake_sensor(s1)
        with monkeypatch.context() as m:
            m.setattr(os, "fsync", _fail_with_eio)
            with pytest.raises(OSError):
                power_nonce(s1)
        nonce = power_nonce(s1)
        assert Setup(tmp_path).record("sensor").co_pc == nonce

    def test_torn_last_line_is_ignored(self, tmp_path):
        s1 = Setup(tmp_path)
        wake_sensor(s1)
        nonce = power_nonce(s1)
        path = tmp_path / "isv-state.json"
        with open(path, "ab") as fh:
            fh.write(f"{s1.mat('sensor').id_dev} 9 {nonce + 500}".encode())  # no newline
        s2 = Setup(tmp_path)
        assert s2.record("sensor").co_pc == nonce
        assert path.read_bytes().endswith(b"\n")  # compacted at start-up

    @pytest.mark.parametrize(
        "content",
        [
            b"",
            b'{"devices": {"102": {"co_pc": 7, "co_sync": 1}}}',  # the former snapshot format
            b"kesic-isv-counters 2\n102 1 7\n",
            b"kesic-isv-counters 1\n102 1 x\n102 1 7\n",
            b"kesic-isv-counters 1\n102 1\n",
            b"kesic-isv-counters 1\n102  1 7\n",
            b"kesic-isv-counters 1\n-102 1 7\n",
            b"\x00\xff garbage\n",
            b"kesic-isv-counters 1\n102 1 " + b"9" * 5000 + b"\n",
        ],
        ids=[
            "empty", "json-snapshot", "other-version", "non-numeric", "short-record",
            "double-space", "signed-id", "binary", "5000-digits",
        ],
    )
    def test_malformed_journal_is_a_named_error(self, tmp_path, content):
        (tmp_path / "isv-state.json").write_bytes(content)
        with pytest.raises(CorruptState):
            Setup(tmp_path)


class TestTicketApi:
    def test_healthz(self, s):
        status, _, payload = s.isv.tickets.handle_http("GET", "/healthz", {}, b"")
        assert status == 200
        assert json.loads(payload) == {"ok": True}

    def test_general_ticket_issuance(self, s):
        status, hdrs, obj, key = s.request_ticket("bulb")
        assert status == 200
        assert hdrs["X-Nonce-Kind"] == "lifetime"
        payload = crypto.open_json(key, obj["sealed"])
        resp = wire.TicketResponseJson.from_json(json.dumps(payload))
        mat = s.mat("bulb")
        ident = s.fleet.clients["alice"]
        assert resp.device_id == mat.id_dev
        assert resp.nonce == s.clock.now() + 600
        expected = crypto.make_iot_ticket_g(mat.kl_tkt, ident.id_c, ident.ad_c, resp.nonce, mat.id_dev)
        assert resp.ticket == expected
        key_expected = crypto.make_session_key_g(
            mat.kl_key, ident.id_c, ident.ad_c, resp.nonce, mat.id_dev
        )
        assert resp.session_key == key_expected.hex()

    def test_sealed_ticket_bytes_are_pinned(self, s):
        # Setup's fixed Rng and clock make each sealed reply a constant:
        # the sealed JSON is sort_keys and compact however it is built.
        digests = []
        for device in ("bulb", "sensor"):
            if device == "sensor":
                wake_sensor(s)
            status, _, obj, _ = s.request_ticket(device)
            assert status == 200
            digests.append(hashlib.sha256(obj["sealed"].encode()).hexdigest()[:32])
        assert digests == ["73805380e7626830668b038c2f169393", "c7cea13e6a78c3d2afe5486e4999c5e6"]

    def test_power_ticket_issuance_consumes_counter(self, s):
        wake_sensor(s)
        base = s.record("sensor").co_pc
        status, hdrs, obj, key = s.request_ticket("sensor")
        assert status == 200
        assert hdrs["X-Nonce-Kind"] == "counter"
        payload = crypto.open_json(key, obj["sealed"])
        assert payload["nonce"] == base + 1
        status, _, obj2, key2 = s.request_ticket("sensor")
        payload2 = crypto.open_json(key2, obj2["sealed"])
        assert payload2["nonce"] == base + 2

    def test_missing_or_malformed_authorization(self, s):
        body = wire.TicketRequestJson("alice", "bulb").to_json().encode()
        for headers in ({}, {"Authorization": "Basic zzz"}, {"Authorization": "KESIC !!!"}):
            status, _, payload = s.isv.tickets.handle_http("POST", "/ticket", headers, body)
            assert status == 401, headers
            assert json.loads(payload)["error"] == "KerberosAuthFailure"

    def test_authenticator_replay_rejected(self, s):
        headers, key = s.authorization()
        status, _, obj, _ = s.request_ticket("bulb", headers=headers, key=key)
        assert status == 200
        status, _, obj, _ = s.request_ticket("bulb", headers=headers, key=key)
        assert status == 401
        assert obj["error"] == "KerberosAuthFailure"
        assert "ReplayDetected" in obj["detail"]

    def test_user_name_must_match_principal(self, s):
        headers, key = s.authorization("alice")
        body = wire.TicketRequestJson("bob", "bulb").to_json().encode()
        status, _, payload = s.isv.tickets.handle_http("POST", "/ticket", headers, body)
        assert status == 403
        assert json.loads(payload)["error"] == "NotAuthorized"

    def test_allow_list_enforced(self, s):
        status, _, obj, _ = s.request_ticket("lock", user="bob")
        assert (status, obj["error"]) == (403, "NotAuthorized")

    def test_unknown_device(self, s):
        status, _, obj, _ = s.request_ticket("toaster")
        assert (status, obj["error"]) == (404, "UnknownDevice")

    def test_sleeping_power_device_refused(self, s):
        status, _, obj, _ = s.request_ticket("sensor")
        assert (status, obj["error"]) == (409, "DeviceAsleep")

    def test_quarantined_power_device_refused(self, s):
        rec = s.record("sensor")
        with rec.lock:
            rec.awake = True
            rec.healthy = False
        status, _, obj, _ = s.request_ticket("sensor")
        assert (status, obj["error"]) == (424, "DeviceUnhealthy")

    def test_unknown_path_is_404(self, s):
        status, _, _ = s.isv.tickets.handle_http("POST", "/tickets", {}, b"")
        assert status == 404

    def test_malformed_body_is_400(self, s):
        headers, _ = s.authorization()
        status, _, payload = s.isv.tickets.handle_http("POST", "/ticket", headers, b"{}")
        assert status == 400
        assert json.loads(payload)["error"] == "FieldFormatError"

    def test_deeply_nested_token_is_401(self, s):
        token = base64.b64encode(b"[" * 60000).decode()
        body = wire.TicketRequestJson("alice", "bulb").to_json().encode()
        status, _, payload = s.isv.tickets.handle_http(
            "POST", "/ticket", {"Authorization": "KESIC " + token}, body
        )
        assert status == 401
        assert json.loads(payload)["error"] == "KerberosAuthFailure"

    def test_deeply_nested_body_is_400(self, s):
        headers, _ = s.authorization()
        status, _, payload = s.isv.tickets.handle_http("POST", "/ticket", headers, b"[" * 60000)
        assert status == 400
        assert json.loads(payload)["error"] == "FieldFormatError"

    def test_power_grant_holds_the_record_lock(self, s, monkeypatch):
        """The awake/healthy check and the counter grant form one critical
        section, so a concurrent mark_asleep cannot land between them."""
        wake_sensor(s)
        rec = s.record("sensor")
        grant = s.isv.registry.next_co_pc
        held = []

        def checked_grant(id_dev):
            held.append(_held_by_another_thread(rec.lock))
            return grant(id_dev)

        monkeypatch.setattr(s.isv.registry, "next_co_pc", checked_grant)
        status, _, _, _ = s.request_ticket("sensor")
        assert status == 200
        assert held == [True]


class TestOneTicketShape:
    """A TGT and a service ticket have one shape and one check, verify_ap.
    The sealing key and the named id_v keep each ticket at its own service."""

    def test_tgt_presented_to_the_ticket_api_is_refused(self, s):
        tgt, k_c_tgs = s.login()
        status, _, obj, _ = s.request_ticket("bulb", headers=s.token(tgt, k_c_tgs))
        assert (status, obj["error"]) == (401, "KerberosAuthFailure")
        assert obj["detail"].startswith("AuthFailure: ")

    def test_service_ticket_presented_to_the_tgs_is_refused(self, s):
        st, k_c_isv = s.service_ticket()
        with pytest.raises(AuthFailure):
            s.kdc.tgs_exchange(s.tgs_request(st, k_c_isv))

    def test_ticket_naming_another_service_is_an_id_mismatch(self, s):
        tgt, k_c_tgs = s.login()
        plain = crypto.open_json(s.fleet.tgs_key, tgt)
        # Under the TGS key, but addressed to the IoT server.
        to_isv = crypto.seal_json(s.fleet.tgs_key, {**plain, "id_v": "isv"}, s.rng)
        with pytest.raises(IdMismatch):
            s.kdc.tgs_exchange(s.tgs_request(to_isv, k_c_tgs))
        # Under the IoT server's key, but addressed to the TGS.
        to_tgs = crypto.seal_json(s.fleet.service_key, plain, s.rng)
        status, _, obj, _ = s.request_ticket("bulb", headers=s.token(to_tgs, k_c_tgs))
        assert (status, obj["error"]) == (401, "KerberosAuthFailure")
        assert obj["detail"].startswith("IdMismatch: ")

    def test_one_verify_ap_per_tgs_request_and_per_ticket_fetch(self, world, monkeypatch):
        calls = []
        for module in (kdc, isv):
            check = module.verify_ap

            def counted(*args, _module=module.__name__, _check=check):
                calls.append(_module)
                return _check(*args)

            monkeypatch.setattr(module, "verify_ap", counted)
        session = world.clients["alice"]
        session.login(world.fleet.clients["alice"].spec.password)
        session.get_iot_ticket("bulb")  # TGS request, then ticket fetch
        assert calls == ["kesic.kdc", "kesic.isv"]
        session.get_iot_ticket("bulb")  # the service ticket is cached
        assert calls == ["kesic.kdc", "kesic.isv", "kesic.isv"]


def _held_by_another_thread(lock) -> bool:
    """True if a fresh thread cannot take ``lock`` right now."""
    taken = []

    def probe():
        if lock.acquire(blocking=False):
            lock.release()
            taken.append(True)

    t = threading.Thread(target=probe)
    t.start()
    t.join()
    return not taken
