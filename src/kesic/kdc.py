"""Minimal two-stage Kerberos KDC (AS + TGS) over JSON-framed UDP.

Principals are semantic string ids ("alice", "isv", "tgs"). Client
long-term keys are password-derived; service keys and the TGS key are
random 32-byte keys registered at provisioning. Tickets and authenticators
are AES-GCM sealed JSON objects carried as base64 strings:

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
from .crypto import KeyRole, SymmetricKey, derive_password_key, open_json, seal_json
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
DEFAULT_TGT_LIFETIME = 10 * 3600
DEFAULT_ST_LIFETIME = 3600
DEFAULT_CLOCK_SKEW = 300


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
        db = cls(
            tgs_id=obj.get("tgs_id", DEFAULT_TGS_ID),
            tgs_key=key_from_b64(obj["tgs_key"], KeyRole.PASSWORD),
        )
        for name, rec in obj["clients"].items():
            db.clients[name] = ClientPrincipal(
                name=name,
                key=derive_password_key(rec["password"], name.encode("utf-8")),
                ad_c=int(rec["ad_c"]),
                services=frozenset(rec["services"]),
            )
        for name, blob in obj["services"].items():
            db.services[name] = key_from_b64(blob, KeyRole.PASSWORD)
        return db


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
        tgt_lifetime: int = DEFAULT_TGT_LIFETIME,
        st_lifetime: int = DEFAULT_ST_LIFETIME,
        clock_skew: int = DEFAULT_CLOCK_SKEW,
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
        return cls(
            PrincipalDb.from_json_obj(obj),
            clock=clock,
            rng=rng,
            tgt_lifetime=int(obj.get("tgt_lifetime", DEFAULT_TGT_LIFETIME)),
            st_lifetime=int(obj.get("st_lifetime", DEFAULT_ST_LIFETIME)),
            clock_skew=int(obj.get("clock_skew", DEFAULT_CLOCK_SKEW)),
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
