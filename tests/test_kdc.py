"""Key distribution center: AS and TGS exchanges, replay cache, datagram layer."""

import base64
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
from kesic.client import ClientConfig
from kesic.device import DeviceProfile
from kesic.isv import IsvConfig
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


NOT_BASE64 = "not base64!"
SHORT_KEY = base64.b64encode(bytes(16)).decode("ascii")
CONFIGS = {
    "kdc": (lambda fleet: fleet.kdc_json(), kdc.Kdc.from_json_obj),
    "isv": (lambda fleet: fleet.isv_json(), IsvConfig.from_json_obj),
    "device": (
        lambda fleet: fleet.device_json("bulb"),
        lambda obj: DeviceProfile.from_json_obj(obj, memory=b"", isv_sync_addr=None, isv_attest_addr=None),
    ),
    "client": (
        lambda fleet: fleet.client_json("alice"),
        lambda obj: ClientConfig.from_json_obj(obj, kdc_addr=None, isv_url="", device_addrs={}),
    ),
}
KEY_SITES = [  # (id, config, path to the entry, field, the entry as the error names it)
    ("tgs_key", "kdc", (), "tgs_key", "KDC database"),
    ("service-key", "kdc", ("services",), "isv", "KDC services"),
    ("isv-service_key", "isv", (), "service_key", "IoT server config"),
    ("isv-kl_sync", "isv", ("devices", "bulb"), "kl_sync", "device 'bulb'"),
    ("device-kl_sync", "device", (), "kl_sync", "device profile 'bulb'"),
]
KEY_CASES = [
    # A database written before keys were stored has no 'key' field.
    pytest.param("kdc", ("clients", "alice"), "key", None, "client 'alice': no 'key' field", id="password-only"),
    pytest.param("kdc", ("clients", "alice"), "key", NOT_BASE64, "client 'alice': bad 'key' field", id="not-base64"),
    pytest.param("kdc", ("clients", "alice"), "key", SHORT_KEY, "client 'alice': bad 'key' field", id="wrong-length"),
] + [
    pytest.param(config, path, name, value, f"{entry}: bad '{name}' field", id=f"{site}-{kind}")
    for site, config, path, name, entry in KEY_SITES
    for kind, value in (("not-base64", NOT_BASE64), ("wrong-length", SHORT_KEY))
]
# Bad values per field kind; None deletes the field. Any string is a valid
# text field, so those get a number instead.
BAD = {"missing": None, "string": "x", "true": True}
BAD_TEXT = {"missing": None, "number": 7, "true": True}
BAD_TYPE = {**BAD, "upper-case": "GENERAL"}
BAD_DIGEST = {**BAD, "63-hex": "a" * 63, "not-hex": "g" * 64}
FIELD_SITES = [  # (config, path to the entry, field, the entry as the error names it, bad values)
    ("kdc", (), "tgs_id", "KDC database", BAD_TEXT),
    ("kdc", (), "tgt_lifetime", "KDC database", BAD),
    ("kdc", (), "st_lifetime", "KDC database", BAD),
    ("kdc", (), "clock_skew", "KDC database", BAD),
    ("kdc", ("clients", "alice"), "ad_c", "client 'alice'", BAD),
    ("kdc", ("clients", "alice"), "services", "client 'alice'", BAD),
    ("isv", (), "kerberos_id", "IoT server config", BAD_TEXT),
    ("isv", (), "id_isv", "IoT server config", BAD),
    ("isv", (), "iot_ticket_lifetime", "IoT server config", BAD),
    ("isv", (), "attest_timeout", "IoT server config", BAD),
    ("isv", (), "clock_skew", "IoT server config", BAD),
    ("isv", ("users", "alice"), "id_c", "user 'alice'", BAD),
    ("isv", ("users", "alice"), "ad_c", "user 'alice'", BAD),
    ("isv", ("devices", "bulb"), "id_dev", "device 'bulb'", BAD),
    ("isv", ("devices", "bulb"), "type", "device 'bulb'", BAD_TYPE),
    ("isv", ("devices", "bulb"), "allow", "device 'bulb'", BAD),
    ("isv", ("devices", "bulb"), "memory_sha256", "device 'bulb'", BAD_DIGEST),
    ("device", (), "id_dev", "device profile 'bulb'", BAD),
    ("device", (), "type", "device profile 'bulb'", BAD_TYPE),
    ("device", (), "id_isv", "device profile 'bulb'", BAD),
    ("device", (), "window", "device profile 'bulb'", BAD),
    ("device", (), "freshness_window", "device profile 'bulb'", BAD),
    # Without its name a profile can only be called a device profile.
    ("device", (), "name", "device profile", BAD_TEXT),
    ("client", (), "name", "client identity", BAD_TEXT),
    ("client", (), "id_c", "client identity", BAD),
    ("client", (), "ad_c", "client identity", BAD),
]
FIELD_CASES = [
    pytest.param(
        config, path, name, value, f"{entry}: {'no' if value is None else 'bad'} '{name}' field",
        id="-".join((config, *path, name, kind)),
    )
    for config, path, name, entry, values in FIELD_SITES
    for kind, value in values.items()
]


def load_with(fleet, config, path, name, value):
    """Load ``config`` with field ``name`` of the entry at ``path`` set to
    ``value``, or deleted when it is None."""
    read, load = CONFIGS[config]
    obj = read(fleet)
    target = obj
    for key in path:
        target = target[key]
    if value is None:
        del target[name]
    else:
        target[name] = value
    return load(obj)


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
            with open(path, "rb") as fh:
                written = fh.read()
        assert db.tgs_id == "tgs"
        assert db.tgs_key == fleet.tgs_key
        assert db.clients["alice"].ad_c == 2001
        assert db.services["isv"] == fleet.service_key
        for name, ident in fleet.clients.items():
            assert ident.spec.password.encode("utf-8") not in written
            password_key = crypto.derive_password_key(ident.spec.password, name.encode("utf-8"))
            assert db.clients[name].key == password_key

    def test_loading_a_large_db_runs_no_scrypt(self, setup, monkeypatch):
        _, rng, fleet, _ = setup
        obj = fleet.kdc_json()
        obj["clients"] = {
            f"user{i}": {"key": kdc.key_b64(SymmetricKey.generate(rng, KeyRole.PASSWORD)),
                         "ad_c": 5000 + i, "services": ["isv"]}
            for i in range(1000)
        }

        def no_scrypt(*args):
            raise AssertionError("the KDC ran scrypt while loading its database")

        monkeypatch.setattr(crypto, "_scrypt", no_scrypt)
        db = kdc.PrincipalDb.from_json_obj(obj)
        assert len(db.clients) == 1000
        assert db.clients["user999"].key == kdc.key_from_b64(
            obj["clients"]["user999"]["key"], KeyRole.PASSWORD
        )

    @pytest.mark.parametrize("config, path, name, value, message", KEY_CASES)
    def test_bad_client_key_is_a_named_error(self, setup, config, path, name, value, message):
        """Every key in every config file is checked on load, naming its entry and field."""
        _, _, fleet, _ = setup
        with pytest.raises(FieldFormatError, match=message):
            load_with(fleet, config, path, name, value)

    @pytest.mark.parametrize("config, path, name, value, message", FIELD_CASES)
    def test_bad_config_field_is_a_named_error(self, setup, config, path, name, value, message):
        """Every id and policy field is required and type-checked on load: a
        bool is no integer, and a device type is exactly general or power."""
        _, _, fleet, _ = setup
        with pytest.raises(FieldFormatError, match=message):
            load_with(fleet, config, path, name, value)

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_config_that_is_not_an_object_is_a_named_error(self, config):
        with pytest.raises(FieldFormatError, match="not a JSON object"):
            CONFIGS[config][1]([])


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
