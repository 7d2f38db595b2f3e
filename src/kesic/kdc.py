"""Minimal two-stage Kerberos KDC (AS + TGS) over JSON-framed UDP.

Principals are semantic string ids ("alice", "isv", "tgs"). A client's
long-term key is scrypt(password, salt=name), derived once at
provisioning; as in RFC 4120, the KDC database stores that key, so the
KDC never holds a password or runs scrypt. Service keys and the TGS key
are random 32-byte keys registered at provisioning. Tickets and
authenticators are AES-GCM sealed JSON objects carried as base64 strings:

    AS  req   {"op": "as", "id_c", "id_tgs", "ts"}                (plaintext)
    AS  resp  {"sealed": E(Kl_C-AS,  {"k", "ts", "lf2", "tgt"})}
    TGT       E(Kl_TGS-AS, {"k", "id_c", "ad_c", "id_v", "ts", "lf"})   id_v = tgs_id
    TGS req   {"op": "tgs", "id_v", "tgt", "authn"}
    authn     E(K_C-TGS,  {"id_c", "ad_c", "ts_us"})
    TGS resp  {"sealed": E(K_C-TGS, {"k", "id_v", "ts", "lf4", "st"})}
    ST        E(Kl_V-TGS, {"k", "id_c", "ad_c", "id_v", "ts", "lf"})

As in RFC 4120 (sections 3.3, 5.3), the TGS is one more service: one
helper seals both kinds of ticket, and the TGS accepts a TGT through the
same ``verify_ap`` as the ticket API accepts a service ticket. Decryption
with the password-derived key is the client's implicit authentication.
Authenticator timestamps are microseconds, so the (id_c, ts) replay cache
does not collide for honest back-to-back requests, and each cache's window
is also its freshness window. Lifetimes are absolute expiry instants in
POSIX seconds; like RFC 4120's endtime, each reply tells the client its
ticket's expiry. Any failed principal lookup returns the same
UnknownPrincipal error to avoid enumeration.
"""

from __future__ import annotations

import json
import threading
from base64 import b64decode, b64encode
from collections import deque
from dataclasses import dataclass, field

from . import wire
from .clock import Clock, SystemClock
from .crypto import SymmetricKey, open_json, seal_json
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
from .events import Events
from .rng import Rng

DEFAULT_TGS_ID = "tgs"


def key_b64(key: SymmetricKey) -> str:
    return b64encode(key.raw()).decode("ascii")


def key_from_b64(text: str) -> SymmetricKey:
    try:
        raw = b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise AuthFailure(f"bad key encoding: {exc}") from exc
    return SymmetricKey(raw)


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
            tgs_key=read.key("tgs_key"),
            services={name: services.key(name) for name in services.obj},
        )
        for name, client in read.entries("clients", "client").items():
            db.clients[name] = ClientPrincipal(
                name=name,
                key=client.key("key"),
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
        return self.field(name, lambda value: typed(value, int))

    def text(self, name: str) -> str:
        return self.field(name, lambda value: typed(value, str))

    def key(self, name: str) -> SymmetricKey:
        return self.field(name, lambda value: key_from_b64(typed(value, str)))

    def names(self, name: str) -> frozenset[str]:
        return self.field(name, lambda value: frozenset(typed(v, str) for v in typed(value, list)))

    def entries(self, name: str, label: str) -> dict[str, "ConfigReader"]:
        """Field ``name``'s table of objects, each named ``label 'key'`` in errors."""
        table = self.field(name, lambda value: typed(value, dict))
        return {item: ConfigReader(f"{label} {item!r}", obj) for item, obj in table.items()}


def typed(value: object, kind: type):
    """``value`` if it is a ``kind``, else TypeError; JSON true is no int."""
    if type(value) is kind:  # the common case, at no call's cost
        return value
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


class ReplayCache:
    """The freshness window and the (principal, ts_us) pairs seen within it.

    ``fresh`` admits a timestamp within ``window_us`` of the acceptance
    time, so an accepted pair could pass again until at most two windows
    after it was inserted; ``check_and_add`` remembers it that long and
    only then forgets it (RFC 4120 section 3.2.3). Keys are kept in
    insertion order, so pruning pops from the front in amortised O(1).
    """

    def __init__(self, window_us: int) -> None:
        self._window_us = window_us
        self._order: deque[tuple[int, tuple]] = deque()
        self._keys: set[tuple] = set()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._keys)

    def fresh(self, ts_us: int, now_us: int) -> bool:
        return abs(ts_us - now_us) <= self._window_us

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
    """Result of a verified ticket + authenticator presentation."""

    id_c: str
    ad_c: int
    session_key: SymmetricKey


def verify_ap(
    service_key: SymmetricKey,
    own_id: str,
    ticket_b64: str,
    authn_b64: str,
    clock: Clock,
    replay_cache: ReplayCache,
) -> ApIdentity:
    """Service side of a ticket presentation; raises on any defect.

    The TGS calls it with its TGT, an application server with its service
    ticket. The authenticator is opened under the ticket's session key and
    admitted once, within the replay cache's freshness window.
    """
    ticket = open_json(service_key, ticket_b64)
    if ticket.get("id_v") != own_id:
        raise IdMismatch("ticket addressed to a different service")
    if not isinstance(ticket.get("lf"), int) or ticket["lf"] <= clock.now():
        raise TicketExpired("ticket lifetime elapsed")
    session_key = key_from_b64(ticket["k"])
    authn = open_json(session_key, authn_b64)
    if authn.get("id_c") != ticket.get("id_c") or authn.get("ad_c") != ticket.get("ad_c"):
        raise IdMismatch("authenticator identity differs from ticket")
    ts_us = authn.get("ts_us")
    if not isinstance(ts_us, int):
        raise AuthFailure("authenticator missing timestamp")
    now_us = clock.now_us()
    if not replay_cache.fresh(ts_us, now_us):
        raise SkewExceeded("authenticator timestamp outside skew window")
    replay_cache.check_and_add(ticket["id_c"], ts_us, now_us)
    return ApIdentity(id_c=ticket["id_c"], ad_c=int(ticket["ad_c"]), session_key=session_key)


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
        self._replay = ReplayCache(clock_skew * 1_000_000)
        self.events = Events("kdc")

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

    def _seal_ticket(
        self, key: SymmetricKey, id_c: str, ad_c: int, id_v: str, lifetime: int
    ) -> tuple[dict, str]:
        """A fresh session key sealed under ``key`` into a ticket for ``id_v``;
        returns the ticket's plaintext and its sealed form."""
        now = self.clock.now()
        k = key_b64(SymmetricKey.generate(self.rng))
        ticket = {"k": k, "id_c": id_c, "ad_c": ad_c, "id_v": id_v, "ts": now, "lf": now + lifetime}
        return ticket, seal_json(key, ticket, self.rng)

    def as_exchange(self, req: dict) -> dict:
        id_c = req.get("id_c")
        client = self.db.clients.get(id_c)
        if client is None or req.get("id_tgs") != self.db.tgs_id:
            raise UnknownPrincipal("unknown principal")
        try:
            typed(req.get("ts"), int)
        except TypeError as exc:
            raise FieldFormatError(f"as request: bad 'ts' field: {exc}") from exc
        tgt, sealed = self._seal_ticket(
            self.db.tgs_key, client.name, client.ad_c, self.db.tgs_id, self.tgt_lifetime
        )
        payload = {"k": tgt["k"], "ts": tgt["ts"], "lf2": tgt["lf"], "tgt": sealed}
        self.events.emit("as-issued", client=client.name)
        return {"sealed": seal_json(client.key, payload, self.rng)}

    def tgs_exchange(self, req: dict) -> dict:
        tgt, authn = req.get("tgt", ""), req.get("authn", "")
        identity = verify_ap(self.db.tgs_key, self.db.tgs_id, tgt, authn, self.clock, self._replay)
        id_v = req.get("id_v")
        service_key = self.db.services.get(id_v)
        client = self.db.clients.get(identity.id_c)
        if service_key is None or client is None:
            raise UnknownPrincipal("unknown principal")
        if id_v not in client.services:
            raise NotAuthorized(f"{client.name} may not access {id_v}")

        st, sealed = self._seal_ticket(service_key, identity.id_c, identity.ad_c, id_v, self.st_lifetime)
        payload = {"k": st["k"], "id_v": id_v, "ts": st["ts"], "lf4": st["lf"], "st": sealed}
        self.events.emit("tgs-issued", client=identity.id_c, service=id_v)
        return {"sealed": seal_json(identity.session_key, payload, self.rng)}

    # --- transport entry point -------------------------------------------------

    def handle_datagram(self, data: bytes) -> bytes:
        try:
            req = wire.parse_json(data, "kdc request")
            op = req.get("op")
            if op == "as":
                resp = self.as_exchange(req)
            elif op == "tgs":
                resp = self.tgs_exchange(req)
            else:
                raise FieldFormatError(f"unknown op {op!r}")
        except KesicError as exc:
            resp = {"error": error_name(exc), "detail": str(exc)}
            self.events.emit("request-rejected", error=resp["error"])
        except (ValueError, KeyError, TypeError) as exc:
            resp = {"error": "FieldFormatError", "detail": f"malformed request: {exc}"}
            self.events.emit("request-rejected", error="FieldFormatError")
        return json.dumps(resp, sort_keys=True).encode("utf-8")
