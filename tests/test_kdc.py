"""Key distribution center: AS and TGS exchanges, replay cache, datagram layer."""

import json

import pytest

from kesic import crypto, kdc
from kesic.clock import VirtualClock
from kesic.crypto import KeyRole, SymmetricKey
from kesic.errors import (
    AuthFailure,
    FieldFormatError,
    IdMismatch,
    NotAuthorized,
    ReplayDetected,
    SkewExceeded,
    TicketExpired,
    UnknownPrincipal,
)
from kesic.provision import provision
from kesic.rng import Rng

from conftest import SMALL_FLEET

PASSWORD = "correct-horse-battery-9"


@pytest.fixture
def setup():
    clock = VirtualClock()
    rng = Rng(99)
    fleet = provision(SMALL_FLEET, rng)
    center = kdc.Kdc.from_json_obj(fleet.kdc_json(), clock=clock, rng=rng)
    return clock, rng, fleet, center


def alice_key():
    return crypto.derive_password_key(PASSWORD, b"alice")


def do_as(center, clock, name="alice"):
    return center.as_exchange({"op": "as", "id_c": name, "id_tgs": "tgs", "ts": clock.now()})


def open_as(resp):
    return crypto.open_json(alice_key(), resp["sealed"])


class TestAsExchange:
    def test_happy_path_yields_tgt_and_session_key(self, setup):
        clock, rng, fleet, center = setup
        payload = open_as(do_as(center, clock))
        assert set(payload) == {"k", "ts", "lf2", "tgt"}
        assert payload["ts"] == clock.now()
        assert payload["lf2"] == clock.now() + center.tgt_lifetime
        # The TGT opens under the TGS database key and names the client.
        tgt = crypto.open_json(fleet.tgs_key, payload["tgt"])
        assert tgt["id_c"] == "alice"
        assert tgt["ad_c"] == 2001
        assert tgt["id_tgs"] == "tgs"
        assert tgt["k"] == payload["k"]

    def test_unknown_client_is_uniform(self, setup):
        clock, _, _, center = setup
        with pytest.raises(UnknownPrincipal):
            do_as(center, clock, name="eve")

    def test_wrong_tgs_id_is_uniform(self, setup):
        clock, _, _, center = setup
        with pytest.raises(UnknownPrincipal):
            center.as_exchange({"op": "as", "id_c": "alice", "id_tgs": "nope", "ts": clock.now()})

    def test_wrong_password_cannot_open_response(self, setup):
        clock, _, _, center = setup
        resp = do_as(center, clock)
        wrong = crypto.derive_password_key("not-the-password", b"alice")
        with pytest.raises(AuthFailure):
            crypto.open_json(wrong, resp["sealed"])

    def test_non_integer_timestamp_rejected(self, setup):
        _, _, _, center = setup
        with pytest.raises(FieldFormatError):
            center.as_exchange({"op": "as", "id_c": "alice", "id_tgs": "tgs", "ts": "noon"})


class TestTgsExchange:
    def _login(self, setup):
        clock, rng, fleet, center = setup
        payload = open_as(do_as(center, clock))
        import base64

        k_c_tgs = SymmetricKey(base64.b64decode(payload["k"]), KeyRole.SESSION)
        return clock, rng, fleet, center, payload, k_c_tgs

    def test_happy_path_issues_service_ticket(self, setup):
        clock, rng, fleet, center, payload, k_c_tgs = self._login(setup)
        authn = kdc.make_authenticator(k_c_tgs, "alice", 2001, clock.now_us(), rng)
        resp = center.tgs_exchange(
            {"op": "tgs", "id_v": "isv", "tgt": payload["tgt"], "authn": authn}
        )
        out = crypto.open_json(k_c_tgs, resp["sealed"])
        assert out["id_v"] == "isv"
        st = crypto.open_json(fleet.service_key, out["st"])
        assert st["id_c"] == "alice"
        assert st["ad_c"] == 2001
        assert st["id_v"] == "isv"
        assert st["lf4"] == clock.now() + center.st_lifetime
        assert st["k"] == out["k"]

    def test_tampered_tgt_rejected(self, setup):
        clock, rng, _, center, payload, k_c_tgs = self._login(setup)
        blob = payload["tgt"]
        mangled = blob[:10] + ("A" if blob[10] != "A" else "B") + blob[11:]
        authn = kdc.make_authenticator(k_c_tgs, "alice", 2001, clock.now_us(), rng)
        with pytest.raises(AuthFailure):
            center.tgs_exchange({"op": "tgs", "id_v": "isv", "tgt": mangled, "authn": authn})

    def test_expired_tgt_rejected(self, setup):
        clock, rng, _, center, payload, k_c_tgs = self._login(setup)
        clock.advance(center.tgt_lifetime + 1)
        authn = kdc.make_authenticator(k_c_tgs, "alice", 2001, clock.now_us(), rng)
        with pytest.raises(TicketExpired):
            center.tgs_exchange({"op": "tgs", "id_v": "isv", "tgt": payload["tgt"], "authn": authn})

    def test_authenticator_identity_mismatch(self, setup):
        clock, rng, _, center, payload, k_c_tgs = self._login(setup)
        authn = kdc.make_authenticator(k_c_tgs, "bob", 2002, clock.now_us(), rng)
        with pytest.raises(IdMismatch):
            center.tgs_exchange({"op": "tgs", "id_v": "isv", "tgt": payload["tgt"], "authn": authn})

    @pytest.mark.parametrize("offset", [301, -301])
    def test_skewed_authenticator_rejected(self, setup, offset):
        clock, rng, _, center, payload, k_c_tgs = self._login(setup)
        ts_us = clock.now_us() + offset * 1_000_000
        authn = kdc.make_authenticator(k_c_tgs, "alice", 2001, ts_us, rng)
        with pytest.raises(SkewExceeded):
            center.tgs_exchange({"op": "tgs", "id_v": "isv", "tgt": payload["tgt"], "authn": authn})

    def test_within_skew_boundary_accepted(self, setup):
        clock, rng, _, center, payload, k_c_tgs = self._login(setup)
        ts_us = clock.now_us() + 299 * 1_000_000
        authn = kdc.make_authenticator(k_c_tgs, "alice", 2001, ts_us, rng)
        resp = center.tgs_exchange(
            {"op": "tgs", "id_v": "isv", "tgt": payload["tgt"], "authn": authn}
        )
        assert "sealed" in resp

    def test_authenticator_replay_rejected(self, setup):
        clock, rng, _, center, payload, k_c_tgs = self._login(setup)
        authn = kdc.make_authenticator(k_c_tgs, "alice", 2001, clock.now_us(), rng)
        req = {"op": "tgs", "id_v": "isv", "tgt": payload["tgt"], "authn": authn}
        center.tgs_exchange(req)
        with pytest.raises(ReplayDetected):
            center.tgs_exchange(req)

    def test_service_eligibility_enforced(self, setup):
        clock, rng, fleet, center = setup
        resp = center.as_exchange(
            {"op": "as", "id_c": "mallory", "id_tgs": "tgs", "ts": clock.now()}
        )
        key = crypto.derive_password_key("n0-service-f0r-you", b"mallory")
        payload = crypto.open_json(key, resp["sealed"])
        import base64

        k_c_tgs = SymmetricKey(base64.b64decode(payload["k"]), KeyRole.SESSION)
        authn = kdc.make_authenticator(k_c_tgs, "mallory", 2003, clock.now_us(), rng)
        with pytest.raises(NotAuthorized):
            center.tgs_exchange({"op": "tgs", "id_v": "isv", "tgt": payload["tgt"], "authn": authn})

    def test_unknown_service_rejected(self, setup):
        clock, rng, _, center, payload, k_c_tgs = self._login(setup)
        authn = kdc.make_authenticator(k_c_tgs, "alice", 2001, clock.now_us(), rng)
        with pytest.raises(UnknownPrincipal):
            center.tgs_exchange({"op": "tgs", "id_v": "printer", "tgt": payload["tgt"], "authn": authn})


class _CountingPrincipal:
    """A principal that counts how often the cache hashes it."""

    def __init__(self) -> None:
        self.hashes = 0

    def __hash__(self) -> int:
        self.hashes += 1
        return object.__hash__(self)


class _Instant(int):
    """An insertion time that counts how often the cache compares it."""

    comparisons = 0

    def __lt__(self, other):
        _Instant.comparisons += 1
        return int(self) < other


class TestReplayCache:
    def test_work_and_retention_stay_flat_over_50k_inserts(self):
        """Counts work instead of timing it: a scan or rebuild of the seen
        keys on each insert would touch every retained key."""
        window_us, step_us, n = 1_000_000, 1_000, 50_000
        per_horizon = 2 * window_us // step_us + 1  # inserted in the last 2 windows
        cache = kdc.ReplayCache(window_us=window_us)
        alice = _CountingPrincipal()
        _Instant.comparisons = 0
        for i in range(n):
            now = i * step_us
            cache.check_and_add(alice, now, now_us=_Instant(now))
            assert len(cache) <= min(i + 1, per_horizon)
        assert len(cache) == per_horizon
        assert alice.hashes <= 3 * n
        assert _Instant.comparisons <= 3 * n
        last = (n - 1) * step_us
        with pytest.raises(ReplayDetected):
            cache.check_and_add(alice, last - 2 * window_us, now_us=last)
        with pytest.raises(ReplayDetected):
            cache.check_and_add(alice, last - window_us, now_us=last)

    def test_prunes_entries_beyond_twice_the_window(self):
        cache = kdc.ReplayCache(window_us=1_000_000)
        cache.check_and_add("alice", 100, now_us=100)
        # Well past the horizon: the old entry is forgotten, so the same
        # timestamp is accepted again (it could not pass the skew check
        # anyway by then).
        cache.check_and_add("alice", 100, now_us=100 + 2_000_001)

    def test_distinct_principals_do_not_collide(self):
        cache = kdc.ReplayCache(window_us=1_000_000)
        cache.check_and_add("alice", 7, now_us=10)
        cache.check_and_add("bob", 7, now_us=11)
        with pytest.raises(ReplayDetected):
            cache.check_and_add("alice", 7, now_us=12)


class TestDatagramLayer:
    def test_as_roundtrip_over_bytes(self, setup):
        clock, _, _, center = setup
        req = json.dumps({"op": "as", "id_c": "alice", "id_tgs": "tgs", "ts": clock.now()})
        resp = json.loads(center.handle_datagram(req.encode()))
        assert "sealed" in resp
        crypto.open_json(alice_key(), resp["sealed"])

    def test_error_responses_are_structured(self, setup):
        _, _, _, center = setup
        resp = json.loads(center.handle_datagram(b"{not json"))
        assert resp["error"] == "FieldFormatError"
        resp = json.loads(center.handle_datagram(b'{"op": "dance"}'))
        assert resp["error"] == "FieldFormatError"
        resp = json.loads(center.handle_datagram(b'"just a string"'))
        assert resp["error"] == "FieldFormatError"

    def test_deeply_nested_request_is_a_format_error(self, setup):
        """Nesting deep enough to exhaust the JSON parser's recursion limit
        gets the named error like any other malformed request."""
        _, _, _, center = setup
        resp = json.loads(center.handle_datagram(b"[" * 60000))
        assert resp["error"] == "FieldFormatError"

    def test_unknown_client_error_matches_wrong_tgs_error(self, setup):
        """Probing for principal existence leaks nothing: both failures are
        the same error name."""
        clock, _, _, center = setup
        a = json.loads(
            center.handle_datagram(
                json.dumps({"op": "as", "id_c": "eve", "id_tgs": "tgs", "ts": clock.now()}).encode()
            )
        )
        b = json.loads(
            center.handle_datagram(
                json.dumps({"op": "as", "id_c": "alice", "id_tgs": "bad", "ts": clock.now()}).encode()
            )
        )
        assert a["error"] == b["error"] == "UnknownPrincipal"


class TestPrincipalDb:
    def test_json_roundtrip(self, setup):
        _, rng, fleet, _ = setup
        import os
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "kdc.json")
            fleet.write_kdc_db(path)
            with open(path) as fh:
                db = kdc.PrincipalDb.from_json_obj(json.load(fh))
        assert db.tgs_id == "tgs"
        assert db.tgs_key == fleet.tgs_key
        assert db.clients["alice"].ad_c == 2001
        assert db.clients["alice"].key == alice_key()
        assert db.services["isv"] == fleet.service_key


class TestKdcConfigFile:
    def test_written_policy_drives_the_loaded_kdc(self, tmp_path):
        """kdc.json carries the fleet's lifetimes and skew to the daemon's loader."""
        import base64
        import dataclasses

        spec = dataclasses.replace(SMALL_FLEET, tgt_lifetime=7200, st_lifetime=900, clock_skew=60)
        fleet = provision(spec, Rng(5))
        path = tmp_path / "kdc.json"
        fleet.write_kdc_db(str(path))
        clock = VirtualClock()
        rng = Rng(6)
        center = kdc.Kdc.from_json_obj(json.loads(path.read_text()), clock=clock, rng=rng)

        payload = open_as(do_as(center, clock))
        assert payload["lf2"] == clock.now() + 7200
        k_c_tgs = SymmetricKey(base64.b64decode(payload["k"]), KeyRole.SESSION)

        def tgs(offset_s):
            ts = clock.now_us() + offset_s * 1_000_000
            authn = kdc.make_authenticator(k_c_tgs, "alice", 2001, ts, rng)
            return center.tgs_exchange(
                {"op": "tgs", "id_v": "isv", "tgt": payload["tgt"], "authn": authn}
            )

        with pytest.raises(SkewExceeded):
            tgs(61)
        with pytest.raises(SkewExceeded):
            tgs(-61)
        out = crypto.open_json(k_c_tgs, tgs(59)["sealed"])
        st = crypto.open_json(fleet.service_key, out["st"])
        assert out["lf4"] == st["lf4"] == clock.now() + 900
