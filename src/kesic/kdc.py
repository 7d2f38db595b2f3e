"""Minimal two-stage Kerberos KDC (AS + TGS) over JSON-framed UDP.

Principals are semantic string ids ("alice", "isv", "tgs"). A client's
long-term key is scrypt(password, salt=name), derived once at
provisioning; as in RFC 4120, the KDC database stores that key, so the
KDC never holds a password or runs scrypt. Service keys and the TGS key
are random 32-byte keys registered at provisioning. Tickets and
authenticators are AES-GCM sealed JSON objects carried as base64 strings:

    AS  req   {"op": "as", "id_c", "id_tgs", "ts"}                (plaintext)
    AS  resp  {"sealed": E(Kl_C-AS,  {"k", "ts", "lf2", "tgt"})}
    TGT       E(Kl_TGS-AS, {"k", "id_c", "ad_c", "id_tgs", "lf2", "ts"})
    TGS req   {"op": "tgs", "id_v", "tgt", "authn"}
    authn     E(K_C-TGS,  {"id_c", "ad_c", "ts_us"})
    TGS resp  {"sealed": E(K_C-TGS, {"k", "id_v", "ts", "lf4", "st"})}
    ST        E(Kl_V-TGS, {"k", "id_c", "ad_c", "id_v", "ts", "lf4"})

Successful decryption with the password-derived key is the client's
implicit authentication; the AS never sees the password. Authenticator
timestamps are microsecond-resolution so the (id_c, ts) replay cache does
not collide for honest back-to-back requests. Lifetimes are absolute
expiry instants in POSIX seconds; like RFC 4120's endtime, each reply tells
the client its ticket's expiry. Any failed principal lookup returns the
same UnknownPrincipal error to avoid enumeration.
"""

from __future__ import annotations

import json
import logging
import threading
from base64 import b64decode, b64encode
from collections import deque
from dataclasses import dataclass, field

from . import wire
from .clock import Clock, SystemClock
from .crypto import KeyRole, SymmetricKey, open_json, seal_json
from .errors import (
    AuthFailure,
    FieldFormatError,
    IdMismatch,
    KesicError,
    NotAuthorized,
    ReplayDetected,
    SkewExceeded,
    TicketExpired,
    UnknownPrincipal,
    error_name,
)
from .rng import Rng

logger = logging.getLogger(__name__)

DEFAULT_TGS_ID = "tgs"


def key_b64(key: SymmetricKey) -> str:
    return b64encode(key.raw()).decode("ascii")


def key_from_b64(text: str, role: KeyRole) -> SymmetricKey:
    try:
        raw = b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise AuthFailure(f"bad key encoding: {exc}") from exc
    return SymmetricKey(raw, role)


@dataclass(frozen=True)
class ClientPrincipal:
    name: str
    key: SymmetricKey  # scrypt(password, salt=name)
    ad_c: int  # registered client-interface id, bound into tickets
    services: frozenset[str]


@dataclass
class PrincipalDb:
    tgs_id: str
    tgs_key: SymmetricKey
    clients: dict[str, ClientPrincipal] = field(default_factory=dict)
    services: dict[str, SymmetricKey] = field(default_factory=dict)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PrincipalDb":
        read = ConfigReader("KDC database", obj)
        services = read.field("services", lambda value: ConfigReader("KDC services", value))
        db = cls(
            tgs_id=read.text("tgs_id"),
            tgs_key=read.key("tgs_key", KeyRole.PASSWORD),
            services={name: services.key(name, KeyRole.PASSWORD) for name in services.obj},
        )
        for name, client in read.entries("clients", "client").items():
            db.clients[name] = ClientPrincipal(
                name=name,
                key=client.key("key", KeyRole.PASSWORD),
                ad_c=client.integer("ad_c"),
                services=client.names("services"),
            )
        return db


class ConfigReader:
    """One object of a config file, checked field by field as it is read.

    ``entry`` names the object in errors: a missing field, or one of the
    wrong type or form, is a FieldFormatError naming the entry and field.
    """

    def __init__(self, entry: str, obj: object) -> None:
        if not isinstance(obj, dict):
            raise FieldFormatError(f"{entry}: not a JSON object")
        self.entry = entry
        self.obj = obj

    def field(self, name: str, check):
        """Field ``name`` passed through ``check``, which raises TypeError or
        ValueError (or AuthFailure, for a key) on a bad value."""
        if name not in self.obj:
            raise FieldFormatError(f"{self.entry}: no {name!r} field")
        try:
            return check(self.obj[name])
        except (AuthFailure, TypeError, ValueError) as exc:
            raise FieldFormatError(f"{self.entry}: bad {name!r} field: {exc}") from exc

    def integer(self, name: str) -> int:
        return self.field(name, lambda value: _typed(value, int))

    def text(self, name: str) -> str:
        return self.field(name, lambda value: _typed(value, str))

    def key(self, name: str, role: KeyRole) -> SymmetricKey:
        return self.field(name, lambda value: key_from_b64(_typed(value, str), role))

    def names(self, name: str) -> frozenset[str]:
        return self.field(name, lambda value: frozenset(_typed(v, str) for v in _typed(value, list)))

    def entries(self, name: str, label: str) -> dict[str, "ConfigReader"]:
        """Field ``name``'s table of objects, each named ``label 'key'`` in errors."""
        table = self.field(name, lambda value: _typed(value, dict))
        return {item: ConfigReader(f"{label} {item!r}", obj) for item, obj in table.items()}


def _typed(value: object, kind: type):
    if isinstance(value, bool) or not isinstance(value, kind):  # JSON true is no integer
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


class ReplayCache:
    """Remembers (principal, ts_us) pairs for twice the freshness window.

    An accepted timestamp lies within ``window_us`` of the acceptance time,
    so it stays fresh until at most two windows after it was inserted; only
    then may it be forgotten (RFC 4120 section 3.2.3). Keys are kept in
    insertion order, so pruning pops from the front in amortised O(1).
    """

    def __init__(self, window_us: int) -> None:
        self._window_us = window_us
        self._order: deque[tuple[int, tuple]] = deque()
        self._keys: set[tuple] = set()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._keys)

    def check_and_add(self, principal: object, ts_us: int, now_us: int) -> None:
        key = (principal, ts_us)
        with self._lock:
            horizon = now_us - 2 * self._window_us
            while self._order and self._order[0][0] < horizon:
                self._keys.discard(self._order.popleft()[1])
            if key in self._keys:
                raise ReplayDetected(f"authenticator replay for {principal}")
            self._keys.add(key)
            self._order.append((now_us, key))


def make_authenticator(
    session_key: SymmetricKey, id_c: str, ad_c: int, ts_us: int, rng: Rng
) -> str:
    return seal_json(session_key, {"id_c": id_c, "ad_c": ad_c, "ts_us": ts_us}, rng)


@dataclass(frozen=True)
class ApIdentity:
    """Result of a verified service-ticket + authenticator presentation."""

    id_c: str
    ad_c: int
    session_key: SymmetricKey


def _check_authenticator(
    ticket: dict,
    authn_b64: str,
    clock: Clock,
    skew_s: int,
    replay_cache: ReplayCache,
) -> SymmetricKey:
    """Opens the authenticator under the ticket's session key and admits it once.

    Shared by the TGS (ticket = TGT) and the application servers (ticket =
    service ticket); returns the session key.
    """
    session_key = key_from_b64(ticket["k"], KeyRole.SESSION)
    authn = open_json(session_key, authn_b64)
    if authn.get("id_c") != ticket.get("id_c") or authn.get("ad_c") != ticket.get("ad_c"):
        raise IdMismatch("authenticator identity differs from ticket")
    ts_us = authn.get("ts_us")
    if not isinstance(ts_us, int):
        raise AuthFailure("authenticator missing timestamp")
    now_us = clock.now_us()
    if abs(ts_us - now_us) > skew_s * 1_000_000:
        raise SkewExceeded("authenticator timestamp outside skew window")
    replay_cache.check_and_add(ticket["id_c"], ts_us, now_us)
    return session_key


def verify_ap(
    service_key: SymmetricKey,
    own_id: str,
    st_b64: str,
    authn_b64: str,
    clock: Clock,
    skew_s: int,
    replay_cache: ReplayCache,
) -> ApIdentity:
    """Application-server side of the ticket presentation; raises on any defect."""
    st = open_json(service_key, st_b64)
    if st.get("id_v") != own_id:
        raise IdMismatch("service ticket addressed to a different service")
    if not isinstance(st.get("lf4"), int) or st["lf4"] <= clock.now():
        raise TicketExpired("service ticket lifetime elapsed")
    session_key = _check_authenticator(st, authn_b64, clock, skew_s, replay_cache)
    return ApIdentity(id_c=st["id_c"], ad_c=int(st["ad_c"]), session_key=session_key)


class Kdc:
    """AS + TGS request handler; transport-agnostic (bytes in, bytes out)."""

    def __init__(
        self,
        db: PrincipalDb,
        clock: Clock | None = None,
        rng: Rng | None = None,
        *,
        tgt_lifetime: int,
        st_lifetime: int,
        clock_skew: int,
    ) -> None:
        self.db = db
        self.clock = clock or SystemClock()
        self.rng = rng or Rng()
        self.tgt_lifetime = tgt_lifetime
        self.st_lifetime = st_lifetime
        self.clock_skew = clock_skew
        self._replay = ReplayCache(clock_skew * 1_000_000)

    @classmethod
    def from_json_obj(cls, obj: dict, clock: Clock | None = None, rng: Rng | None = None) -> "Kdc":
        """A KDC from its kdc.json object: the principals plus the ticket policy."""
        read = ConfigReader("KDC database", obj)
        return cls(
            PrincipalDb.from_json_obj(obj),
            clock=clock,
            rng=rng,
            tgt_lifetime=read.integer("tgt_lifetime"),
            st_lifetime=read.integer("st_lifetime"),
            clock_skew=read.integer("clock_skew"),
        )

    # --- exchanges -----------------------------------------------------------

    def as_exchange(self, req: dict) -> dict:
        id_c = req.get("id_c")
        client = self.db.clients.get(id_c)
        if client is None or req.get("id_tgs") != self.db.tgs_id:
            raise UnknownPrincipal("unknown principal")
        if not isinstance(req.get("ts"), int):
            raise FieldFormatError("as request needs an integer ts")
        now = self.clock.now()
        lf2 = now + self.tgt_lifetime
        k_c_tgs = SymmetricKey.generate(self.rng, KeyRole.SESSION)
        tgt = seal_json(
            self.db.tgs_key,
            {
                "k": key_b64(k_c_tgs),
                "id_c": client.name,
                "ad_c": client.ad_c,
                "id_tgs": self.db.tgs_id,
                "lf2": lf2,
                "ts": now,
            },
            self.rng,
        )
        payload = {"k": key_b64(k_c_tgs), "ts": now, "lf2": lf2, "tgt": tgt}
        logger.debug("AS issued TGT for %s (lf2=%d)", client.name, lf2)
        return {"sealed": seal_json(client.key, payload, self.rng)}

    def tgs_exchange(self, req: dict) -> dict:
        tgt = open_json(self.db.tgs_key, req.get("tgt", ""))
        if tgt.get("id_tgs") != self.db.tgs_id:
            raise IdMismatch("tgt addressed to a different tgs")
        now = self.clock.now()
        if not isinstance(tgt.get("lf2"), int) or tgt["lf2"] <= now:
            raise TicketExpired("tgt lifetime elapsed")
        k_c_tgs = _check_authenticator(
            tgt, req.get("authn", ""), self.clock, self.clock_skew, self._replay
        )

        id_v = req.get("id_v")
        service_key = self.db.services.get(id_v)
        client = self.db.clients.get(tgt["id_c"])
        if service_key is None or client is None:
            raise UnknownPrincipal("unknown principal")
        if id_v not in client.services:
            raise NotAuthorized(f"{client.name} may not access {id_v}")

        k_c_v = SymmetricKey.generate(self.rng, KeyRole.SESSION)
        lf4 = now + self.st_lifetime
        st = seal_json(
            service_key,
            {
                "k": key_b64(k_c_v),
                "id_c": tgt["id_c"],
                "ad_c": tgt["ad_c"],
                "id_v": id_v,
                "ts": now,
                "lf4": lf4,
            },
            self.rng,
        )
        payload = {"k": key_b64(k_c_v), "id_v": id_v, "ts": now, "lf4": lf4, "st": st}
        logger.debug("TGS issued service ticket %s -> %s (lf4=%d)", tgt["id_c"], id_v, lf4)
        return {"sealed": seal_json(k_c_tgs, payload, self.rng)}

    # --- transport entry point -------------------------------------------------

    def handle_datagram(self, data: bytes, src: object = None) -> bytes:
        try:
            req = wire.parse_json(data, "kdc request")
            if not isinstance(req, dict):
                raise FieldFormatError("request must be a JSON object")
            op = req.get("op")
            if op == "as":
                resp = self.as_exchange(req)
            elif op == "tgs":
                resp = self.tgs_exchange(req)
            else:
                raise FieldFormatError(f"unknown op {op!r}")
        except KesicError as exc:
            resp = {"error": error_name(exc), "detail": str(exc)}
            logger.debug("kdc rejected request from %s: %s", src, resp["error"])
        except (ValueError, KeyError, TypeError) as exc:
            resp = {"error": "FieldFormatError", "detail": f"malformed request: {exc}"}
        return json.dumps(resp, sort_keys=True).encode("utf-8")
