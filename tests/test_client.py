"""Client SDK and CLI: credential lifecycle, cache hygiene, exit codes."""

import dataclasses
import itertools
import json
import os
import stat

import pytest

from kesic import cli
from kesic.client import ClientSession, CredentialCache
from kesic.errors import (
    AuthFailure,
    DeviceRejected,
    FieldFormatError,
    KerberosAuthFailure,
    NotAuthorized,
    TicketExpired,
    Timeout,
)
from kesic.harness.scenario import World
from kesic.harness.transport import SimNetwork

from conftest import SMALL_FLEET

_ADDRS = itertools.count()


def cached_session(world, name, tmp_path) -> ClientSession:
    """A client like the world's, but with a cache file and its own address."""
    base = world.client(name)
    net = SimNetwork(world.transport, f"client:{name}#{next(_ADDRS)}")
    return ClientSession(
        dataclasses.replace(base.config),
        net,
        clock=world.clock,
        rng=world.rng,
        cache_path=str(tmp_path / f"{name}.cache.json"),
    )


def password_of(world, name) -> str:
    return world.fleet.clients[name].spec.password


class TestLogin:
    def test_login_caches_tgt_with_owner_only_file(self, world, tmp_path):
        session = cached_session(world, "alice", tmp_path)
        session.login(password_of(world, "alice"))
        assert session.cache.tgt is not None
        assert session.cache.tgt["lf2"] == world.clock.now() + world.spec.tgt_lifetime
        path = tmp_path / "alice.cache.json"
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
        on_disk = json.loads(path.read_text())
        assert on_disk["tgt"]["blob"]

    def test_wrong_password_fails_and_writes_nothing(self, world, tmp_path):
        session = cached_session(world, "alice", tmp_path)
        with pytest.raises(AuthFailure):
            session.login("letmein")
        assert session.cache.tgt is None
        assert not (tmp_path / "alice.cache.json").exists()

    def test_relogin_drops_stale_service_tickets(self, world, tmp_path):
        session = cached_session(world, "alice", tmp_path)
        session.login(password_of(world, "alice"))
        session.get_iot_ticket("bulb")
        assert session.cache.services
        session.login(password_of(world, "alice"))
        assert not session.cache.services


class TestServiceTicket:
    def test_reused_across_requests_until_expiry(self, world, tmp_path):
        session = cached_session(world, "alice", tmp_path)
        session.login(password_of(world, "alice"))
        session.get_iot_ticket("bulb")
        st_first = session.cache.services["isv"]["st"]
        session.get_iot_ticket("lock")
        assert session.cache.services["isv"]["st"] == st_first

    def test_reacquired_after_expiry(self, world, tmp_path):
        # The cached expiry is the one the KDC issued, default or not.
        short = World.build(dataclasses.replace(SMALL_FLEET, st_lifetime=900), seed=1234)
        for w in (world, short):
            cache_dir = tmp_path / str(w.spec.st_lifetime)
            cache_dir.mkdir()
            session = cached_session(w, "alice", cache_dir)
            session.login(password_of(w, "alice"))
            session.get_iot_ticket("bulb")
            first_expires = session.cache.services["isv"]["expires"]
            w.clock.advance(w.spec.st_lifetime + 1)
            session.get_iot_ticket("bulb")
            assert session.cache.services["isv"]["expires"] == first_expires + w.spec.st_lifetime + 1

    def test_ticket_without_login_refused(self, world, tmp_path):
        session = cached_session(world, "alice", tmp_path)
        with pytest.raises(AuthFailure, match="login first"):
            session.get_iot_ticket("bulb")

    def test_expired_tgt_demands_fresh_login(self, world, tmp_path):
        session = cached_session(world, "alice", tmp_path)
        session.login(password_of(world, "alice"))
        world.clock.advance(world.spec.tgt_lifetime + 1)
        with pytest.raises(TicketExpired, match="login again"):
            session.get_iot_ticket("bulb")

    def test_service_eligibility_enforced(self, world, tmp_path):
        session = cached_session(world, "mallory", tmp_path)
        session.login(password_of(world, "mallory"))
        with pytest.raises(NotAuthorized):
            session.get_iot_ticket("bulb")


HOSTILE_REPLIES = [b"[" * 60000, b"\xff", b"5", b"[]"]
HOSTILE_IDS = ["nested", "non-utf8", "number", "array"]


class TestHostileReplies:
    """A malformed server reply is a FieldFormatError, not a parser crash."""

    @pytest.mark.parametrize("reply", HOSTILE_REPLIES, ids=HOSTILE_IDS)
    def test_kdc_reply(self, world, tmp_path, monkeypatch, reply):
        session = cached_session(world, "alice", tmp_path)
        monkeypatch.setattr(session.network, "udp_call", lambda *args, **kwargs: reply)
        with pytest.raises(FieldFormatError):
            session.login(password_of(world, "alice"))

    @pytest.mark.parametrize("status", [200, 401])
    @pytest.mark.parametrize("reply", HOSTILE_REPLIES, ids=HOSTILE_IDS)
    def test_ticket_api_reply(self, world, tmp_path, monkeypatch, reply, status):
        session = cached_session(world, "alice", tmp_path)
        session.login(password_of(world, "alice"))
        monkeypatch.setattr(session.network, "http_post", lambda *args: (status, {}, reply))
        with pytest.raises(FieldFormatError):
            session.get_iot_ticket("bulb")


    @pytest.mark.parametrize(
        "headers",
        [{}, {"X-Nonce-Kind": "bogus"}, {"X-Nonce-Kind": ""}],
        ids=["missing", "unknown", "empty"],
    )
    def test_ticket_api_nonce_kind(self, world, tmp_path, monkeypatch, headers):
        session = cached_session(world, "alice", tmp_path)
        session.login(password_of(world, "alice"))
        real_post = session.network.http_post

        def post(*args):
            status, _, body = real_post(*args)
            return status, headers, body

        monkeypatch.setattr(session.network, "http_post", post)
        with pytest.raises(FieldFormatError, match="X-Nonce-Kind"):
            session.get_iot_ticket("sensor")
        assert "sensor" not in session.cache.devices

    def test_ticket_api_nonce_kind_is_read_without_case(self, world, tmp_path, monkeypatch):
        session = cached_session(world, "alice", tmp_path)
        session.login(password_of(world, "alice"))
        real_post = session.network.http_post

        def post(*args):
            status, headers, body = real_post(*args)
            return status, {k.lower(): v for k, v in headers.items()}, body

        monkeypatch.setattr(session.network, "http_post", post)
        assert session.get_iot_ticket("sensor")["dtype"] == "power"


class TestCacheWrites:
    def test_file_in_the_indented_layout_still_loads(self, tmp_path):
        obj = {
            "tgt": {"blob": "b", "k": "k", "lf2": 10, "ts": 1},
            "services": {"isv": {"st": "s", "k": "k", "expires": 5}},
            "devices": {"bulb": {"dtype": "general", "nonce": 7}},
        }
        path = tmp_path / "old.cache.json"
        path.write_text(json.dumps(obj, indent=2, sort_keys=True))
        cache = CredentialCache(str(path))
        assert (cache.tgt, cache.services, cache.devices) == (obj["tgt"], obj["services"], obj["devices"])
        cache.save()
        assert json.loads(path.read_text()) == obj
        assert "\n" not in path.read_text()

    def test_login_and_fetch_write_the_file_twice(self, world, tmp_path, monkeypatch):
        saves = []
        real_save = CredentialCache.save

        def counting_save(cache):
            saves.append(cache.path)
            real_save(cache)

        monkeypatch.setattr(CredentialCache, "save", counting_save)
        session = cached_session(world, "alice", tmp_path)
        session.login(password_of(world, "alice"))
        session.get_iot_ticket("bulb")  # TGS exchange, then the ticket API
        assert len(saves) == 2
        session.get_iot_ticket("sensor")  # the service ticket is cached
        assert len(saves) == 3

    def test_failed_ticket_fetch_keeps_the_fresh_service_ticket(self, world, tmp_path, monkeypatch):
        session = cached_session(world, "alice", tmp_path)
        session.login(password_of(world, "alice"))

        def unreachable(*args):
            raise Timeout("ticket API unreachable")

        monkeypatch.setattr(session.network, "http_post", unreachable)
        with pytest.raises(Timeout):
            session.get_iot_ticket("bulb")
        on_disk = json.loads((tmp_path / "alice.cache.json").read_text())
        assert on_disk["services"]["isv"] == session.cache.services["isv"]

    def test_rejected_service_ticket_is_dropped_on_disk(self, world, tmp_path, monkeypatch):
        session = cached_session(world, "alice", tmp_path)
        session.login(password_of(world, "alice"))
        session.get_iot_ticket("bulb")
        monkeypatch.setattr(
            session.network, "http_post", lambda *args: (401, {}, b'{"error": "KerberosAuthFailure"}')
        )
        with pytest.raises(KerberosAuthFailure):
            session.get_iot_ticket("lock")
        assert json.loads((tmp_path / "alice.cache.json").read_text())["services"] == {}


class TestDeviceCalls:
    def test_general_ticket_serves_many_calls(self, world, tmp_path):
        session = cached_session(world, "alice", tmp_path)
        session.login(password_of(world, "alice"))
        on = session.call_device("bulb", "LED_ON")
        assert on.accepted and on.payload == b"LED=ON"
        assert world.device("bulb").led
        off = session.call_device("bulb", "LED_OFF")
        assert off.accepted and off.payload == b"LED=OFF"
        assert "bulb" in session.cache.devices  # still cached, still valid

    def test_power_ticket_burned_on_send(self, world, tmp_path):
        session = cached_session(world, "alice", tmp_path)
        session.login(password_of(world, "alice"))
        session.get_iot_ticket("sensor")
        assert "sensor" in session.cache.devices
        outcome = session.call_device("sensor", "LED_ON")
        assert outcome.accepted
        assert "sensor" not in session.cache.devices

    def test_power_ticket_burned_even_when_reply_lost(self, world, tmp_path):
        session = cached_session(world, "alice", tmp_path)
        session.login(password_of(world, "alice"))
        session.get_iot_ticket("sensor")
        world.transport.drop_next(src=session.network.addr, dst="dev:sensor")
        with pytest.raises(Timeout):
            session.call_device("sensor", "LED_ON")
        assert "sensor" not in session.cache.devices
        # A fresh ticket (fresh counter) succeeds; no doomed re-send happened.
        assert session.call_device("sensor", "LED_ON").accepted

    def test_general_expiry_checked_locally(self, world, tmp_path):
        session = cached_session(world, "alice", tmp_path)
        session.login(password_of(world, "alice"))
        session.get_iot_ticket("bulb")
        world.clock.advance(world.spec.iot_ticket_lifetime + 1)
        with pytest.raises(TicketExpired):
            session.call_device("bulb", "LED_ON")
        assert "bulb" not in session.cache.devices

    def test_force_presents_expired_ticket_for_device_to_judge(self, world, tmp_path):
        session = cached_session(world, "alice", tmp_path)
        session.login(password_of(world, "alice"))
        session.get_iot_ticket("bulb")
        world.clock.advance(world.spec.iot_ticket_lifetime + 1)
        outcome = session.call_device("bulb", "LED_ON", force=True)
        assert outcome.verdict == "ticket-expired"
        assert "bulb" not in session.cache.devices  # device verdict evicts it
        assert session.call_device("bulb", "LED_ON").accepted  # fresh ticket

    def test_unconfigured_device_address(self, world, tmp_path):
        session = cached_session(world, "alice", tmp_path)
        session.login(password_of(world, "alice"))
        with pytest.raises(FieldFormatError, match="no address configured"):
            session.call_device("toaster", "LED_ON")


class TestAttestation:
    def test_reference_image_reports_healthy(self, world, tmp_path):
        session = cached_session(world, "alice", tmp_path)
        session.login(password_of(world, "alice"))
        reference = world.fleet.devices["bulb"].memory
        assert session.verify_attestation("bulb", reference) == "healthy"

    def test_mutated_memory_reports_compromised(self, world, tmp_path):
        session = cached_session(world, "alice", tmp_path)
        session.login(password_of(world, "alice"))
        world.device("bulb").memory[3] ^= 0x10
        reference = world.fleet.devices["bulb"].memory
        assert session.verify_attestation("bulb", reference) == "compromised"

    def test_refusal_is_not_a_memory_verdict(self, cold_world, tmp_path):
        # Devices exist but never synced: the exchange is refused outright.
        session = cached_session(cold_world, "alice", tmp_path)
        session.login(password_of(cold_world, "alice"))
        reference = cold_world.fleet.devices["bulb"].memory
        with pytest.raises(DeviceRejected) as err:
            session.verify_attestation("bulb", reference)
        assert err.value.verdict == "not-synced"


class TestCacheSummary:
    def test_summary_redacts_all_material(self, world, tmp_path):
        session = cached_session(world, "alice", tmp_path)
        session.login(password_of(world, "alice"))
        session.get_iot_ticket("bulb")
        session.get_iot_ticket("sensor")
        summary = session.cache.summary(world.clock.now())
        text = json.dumps(summary)
        cache = session.cache
        material = (
            cache.tgt["blob"],
            cache.tgt["k"],
            cache.services["isv"]["st"],
            cache.services["isv"]["k"],
            cache.devices["bulb"]["ticket"],
            cache.devices["bulb"]["session_key"],
            cache.devices["sensor"]["ticket"],
        )
        for secret in material:
            assert secret not in text
        assert summary["tgt"] == {"expires": session.cache.tgt["lf2"], "expired": False}
        assert summary["devices"]["bulb"]["expires"] == session.cache.devices["bulb"]["nonce"]
        assert summary["devices"]["sensor"]["counter"] == session.cache.devices["sensor"]["nonce"]


# --- command-line front end ---------------------------------------------------


@pytest.fixture
def clienv(world, tmp_path, monkeypatch):
    """CLI invocations routed onto the simulated world's fabric."""
    counter = itertools.count()
    monkeypatch.setattr(
        cli, "SocketNetwork", lambda: SimNetwork(world.transport, f"client:cli{next(counter)}")
    )
    real = ClientSession

    def bound_session(config, network, rng=None, cache_path=None):
        return real(config, network, clock=world.clock, rng=rng, cache_path=cache_path)

    monkeypatch.setattr(cli, "ClientSession", bound_session)

    def invoke(user, *argv):
        ident_path = tmp_path / f"{user}.identity.json"
        if not ident_path.exists():
            ident = world.fleet.clients[user]
            ident_path.write_text(
                json.dumps({"name": user, "id_c": ident.id_c, "ad_c": ident.ad_c})
            )
        base = [
            "--identity", str(ident_path),
            "--kdc-addr", "kdc",
            "--isv-url", "http://sim",
            "--device-addr", "bulb=dev:bulb",
            "--device-addr", "sensor=dev:sensor",
            "--device-addr", "lock=dev:lock",
            "--cache", str(tmp_path / f"{user}.cache.json"),
        ]
        return cli.main(base + list(argv))

    return world, invoke


class TestCliExitCodes:
    def test_happy_path_verbs(self, clienv, capsys):
        world, invoke = clienv
        assert invoke("alice", "login", "--password", password_of(world, "alice")) == 0
        assert "logged in as alice" in capsys.readouterr().out
        assert invoke("alice", "ticket", "bulb") == 0
        assert "general" in capsys.readouterr().out
        assert invoke("alice", "call", "bulb", "LED_ON") == 0
        assert "accepted: LED=ON" in capsys.readouterr().out
        assert invoke("alice", "cache") == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["devices"]["bulb"]["dtype"] == "general"
        assert "session_key" not in json.dumps(shown)

    def test_attest_healthy_is_zero(self, clienv, capsys, tmp_path):
        world, invoke = clienv
        invoke("alice", "login", "--password", password_of(world, "alice"))
        image = tmp_path / "bulb.img"
        image.write_bytes(world.fleet.devices["bulb"].memory)
        assert invoke("alice", "attest", "bulb", "--image", str(image)) == 0
        assert "healthy" in capsys.readouterr().out

    def test_wrong_password_exits_2(self, clienv, capsys):
        world, invoke = clienv
        assert invoke("alice", "login", "--password", "nope") == 2
        assert "AuthFailure" in capsys.readouterr().err

    def test_policy_denial_exits_3(self, clienv):
        world, invoke = clienv
        assert invoke("mallory", "login", "--password", password_of(world, "mallory")) == 0
        assert invoke("mallory", "ticket", "bulb") == 3

    def test_asleep_device_exits_4(self, clienv, capsys):
        world, invoke = clienv
        invoke("alice", "login", "--password", password_of(world, "alice"))
        world.device("sensor").sleep()
        world.isv.registry.mark_asleep("sensor")
        assert invoke("alice", "ticket", "sensor") == 4
        assert "DeviceAsleep" in capsys.readouterr().err

    def test_rejected_call_exits_4(self, clienv, capsys):
        world, invoke = clienv
        invoke("alice", "login", "--password", password_of(world, "alice"))
        invoke("alice", "ticket", "bulb")
        world.clock.advance(world.spec.iot_ticket_lifetime + 1)
        assert invoke("alice", "call", "bulb", "LED_ON", "--force") == 4
        assert "rejected: ticket-expired" in capsys.readouterr().err

    def test_unreachable_device_exits_5(self, clienv):
        world, invoke = clienv
        invoke("alice", "login", "--password", password_of(world, "alice"))
        for _ in range(3):  # one per retry
            world.transport.drop_next(dst="dev:bulb")
        assert invoke("alice", "call", "bulb", "LED_ON") == 5

    def test_compromised_attestation_exits_6(self, clienv, capsys, tmp_path):
        world, invoke = clienv
        invoke("alice", "login", "--password", password_of(world, "alice"))
        world.device("bulb").memory[0] ^= 0xFF
        image = tmp_path / "bulb.img"
        image.write_bytes(world.fleet.devices["bulb"].memory)
        assert invoke("alice", "attest", "bulb", "--image", str(image)) == 6
        assert "compromised" in capsys.readouterr().out

    def test_missing_identity_file_exits_1(self, clienv, tmp_path):
        world, invoke = clienv
        rc = cli.main(["--identity", str(tmp_path / "ghost.json"), "cache"])
        assert rc == 1

    def test_unmapped_device_exits_1(self, clienv):
        world, invoke = clienv
        invoke("alice", "login", "--password", password_of(world, "alice"))
        assert invoke("alice", "call", "toaster", "LED_ON") == 1
