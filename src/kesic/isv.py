"""IoT server: ticket manager (TM) and sync manager (SM).

The SM answers device-initiated counter/time sync on one UDP port and
collects attestation reports on a second one. The TM is a single-endpoint
HTTP JSON API (POST /ticket) that authenticates clients with a Kerberos
service ticket + authenticator token and issues device tickets: multi-use
lifetime-bound tickets for general devices, single-use counter-bound
tickets for power-constrained ones. Handlers are transport-agnostic; the
live daemon binds them to real sockets and the harness calls them directly.

State rules enforced here:
  * sync counters accept exactly {local, local+1} and never decrease;
  * a power-constrained device earns tickets only between a successful
    attested sync (awake, healthy) and the end of its wake cycle;
  * an attestation report that matches neither the reference image nor any
    previously accepted report quarantines the device for the rest of the
    wake cycle;
  * co_pc is read-and-incremented atomically per issued ticket, so
    concurrent grants carry distinct consecutive counters;
  * with a state path, every counter change is fsync'd to the journal
    before the frame or ticket that carries it is sent.

Failures on the sync/attestation paths are silent on the wire (the device
will time out) and recorded as audit events; the ticket API answers with
explicit JSON errors.
"""

from __future__ import annotations

import errno
import json
import logging
import os
import re
import threading
from base64 import b64decode
from dataclasses import dataclass, field

from . import crypto, wire
from .clock import Clock, SystemClock
from .crypto import KeyRole, SymmetricKey
from .durable import atomic_write
from .errors import (
    CorruptState,
    DeviceAsleep,
    DeviceUnhealthy,
    FieldFormatError,
    KerberosAuthFailure,
    KesicError,
    NotAuthorized,
    UnknownDevice,
    WireError,
    error_name,
)
from .device.profile import GENERAL, device_type
from .kdc import ConfigReader, ReplayCache, verify_ap
from .net import header
from .rng import Rng

logger = logging.getLogger(__name__)

_HTTP_STATUS = {
    "KerberosAuthFailure": 401,
    "NotAuthorized": 403,
    "UnknownDevice": 404,
    "DeviceAsleep": 409,
    "DeviceUnhealthy": 424,
    "FieldFormatError": 400,
}


@dataclass
class DeviceRecord:
    """Provisioned identity plus the ISV-side mutable state for one device."""

    name: str
    id_dev: int
    dtype: str  # GENERAL or POWER
    kl_sync: SymmetricKey
    kl_tkt: SymmetricKey
    kl_key: SymmetricKey
    allow: frozenset[str]
    ref_memory_hash: bytes = b""
    co_sync: int = 0
    co_pc: int = 0
    awake: bool = False
    healthy: bool = True
    past_reports: set[str] = field(default_factory=set)
    lock: threading.RLock = field(default_factory=threading.RLock, repr=False)


_JOURNAL_HEADER = b"kesic-isv-counters 1\n"
_JOURNAL_RECORD = re.compile(rb"(\d{1,32}) (\d{1,32}) (\d{1,32})")  # widest field: co_sync


class DeviceRegistry:
    """Device records, with their counters kept in an append-only journal.

    The journal at ``state_path`` is the header line ``kesic-isv-counters 1``
    and then one ``id_dev co_sync co_pc`` line per counter change. A change
    is appended and fsync'd before the frame or ticket that carries it
    leaves. Restore takes each field's maximum per device and skips a torn
    last line. The journal is rewritten to one line per device at start-up
    and whenever it would grow past twice the fleet, so the writes per
    change stay constant in fleet size.
    """

    def __init__(self, records: list[DeviceRecord], state_path: str | None = None) -> None:
        self._fd: int | None = None  # O_APPEND journal; None until compacted
        self.by_id = {rec.id_dev: rec for rec in records}
        self.by_name = {rec.name: rec for rec in records}
        self._state_path = state_path
        self._state_lock = threading.Lock()
        self._lines = 0  # counter records in the journal
        if state_path:
            if os.path.exists(state_path):
                self._restore(state_path)
            self._compact()

    def _restore(self, path: str) -> None:
        with open(path, "rb") as fh:
            data = fh.read()
        if not data.startswith(_JOURNAL_HEADER):
            raise CorruptState(f"{path} is not a kesic-isv-counters 1 journal")
        # The text after the last newline is empty, or an append that was
        # torn by a crash and never acknowledged: skip it.
        lines = data[len(_JOURNAL_HEADER):].split(b"\n")[:-1]
        for number, line in enumerate(lines, start=2):
            match = _JOURNAL_RECORD.fullmatch(line)
            if match is None:
                raise CorruptState(f"{path}:{number}: malformed counter record")
            rec = self.by_id.get(int(match[1]))
            if rec is None:
                continue
            rec.co_sync = max(rec.co_sync, int(match[2]))
            rec.co_pc = max(rec.co_pc, int(match[3]))

    def snapshot(self, rec: DeviceRecord) -> None:
        """Make ``rec``'s counters durable; the caller holds ``rec.lock``."""
        if not self._state_path:
            return
        with self._state_lock:
            if self._fd is None or self._lines >= 2 * len(self.by_id):
                self._compact()
                return
            line = f"{rec.id_dev} {rec.co_sync} {rec.co_pc}\n".encode()
            try:
                if os.write(self._fd, line) != len(line):
                    raise OSError(errno.EIO, "short append to the counter journal")
                os.fsync(self._fd)
            except OSError:
                # The journal's tail is unknown now; the next change
                # rewrites it whole from memory, which is never behind it.
                self._close_journal()
                raise
            self._lines += 1

    def _compact(self) -> None:
        # Records not locked here change only before their own snapshot,
        # which waits for _state_lock and appends the newer value.
        self._close_journal()
        body = "".join(f"{r.id_dev} {r.co_sync} {r.co_pc}\n" for r in self.by_id.values())
        atomic_write(self._state_path, _JOURNAL_HEADER + body.encode())
        self._fd = os.open(self._state_path, os.O_WRONLY | os.O_APPEND)
        self._lines = len(self.by_id)

    def _close_journal(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def close(self) -> None:
        """Release the journal; a later counter change reopens it."""
        with self._state_lock:
            self._close_journal()

    def __del__(self) -> None:
        self._close_journal()

    def next_co_pc(self, id_dev: int) -> int:
        rec = self.by_id[id_dev]
        with rec.lock:
            rec.co_pc += 1
            self.snapshot(rec)
            return rec.co_pc

    def mark_asleep(self, name: str) -> None:
        rec = self.by_name[name]
        with rec.lock:
            rec.awake = False


@dataclass
class _PendingAttest:
    challenge: str
    co_sync: int
    reply_to: object
    deadline: int


class SyncManager:
    """Device-facing UDP handlers: counter/time sync and attestation reports."""

    def __init__(
        self, registry: DeviceRegistry, config: IsvConfig, clock: Clock, rng: Rng, events: list
    ) -> None:
        self.registry = registry
        self.id_isv = config.id_isv
        self.clock = clock
        self.rng = rng
        self.events = events
        self.attest_timeout = config.attest_timeout
        self.pending: dict[int, _PendingAttest] = {}
        self._lock = threading.Lock()

    def _event(self, event: str, **extra) -> None:
        self.events.append({"actor": "isv", "event": event, **extra})

    # --- sync port -------------------------------------------------------------

    def handle_sync(self, data: bytes, src: object, send) -> None:
        try:
            frame = wire.SyncRequest.decode(data)
        except WireError as exc:
            self._event("sync-reject", device=None, error=error_name(exc))
            return
        rec = self.registry.by_id.get(frame.id_dev)
        if rec is None:
            self._event("sync-reject", device=frame.id_dev, error="UnknownDevice")
            return
        with rec.lock:
            if frame.co_sync not in (rec.co_sync, rec.co_sync + 1):
                self._event("sync-reject", device=rec.name, error="CounterOutOfRange")
                return
            if not crypto.verify_tag(rec.kl_sync, wire.mac_input(frame), frame.mac):
                self._event("sync-reject", device=rec.name, error="AuthFailure")
                return
            rec.co_sync = frame.co_sync
            self.registry.snapshot(rec)
        if rec.dtype == GENERAL:
            sync_val = self.clock.now()
            mac = crypto.sync_response_mac(rec.kl_sync, self.id_isv, frame.co_sync, sync_val)
            resp = wire.SyncResponse(
                id_isv=self.id_isv, co_sync=frame.co_sync, sync_val=sync_val, mac=mac.hex
            )
            self._event("sync-accept", device=rec.name, co_sync=frame.co_sync)
            send(src, resp.encode())
        else:
            # Power-constrained: interpose an attestation round trip before
            # the sync response; the request context is kept pending.
            challenge = self.rng.challenge()
            with self._lock:
                self.pending[rec.id_dev] = _PendingAttest(
                    challenge=challenge,
                    co_sync=frame.co_sync,
                    reply_to=src,
                    deadline=self.clock.now() + self.attest_timeout,
                )
            mac = crypto.attest_request_mac(rec.kl_sync, self.id_isv, challenge)
            self._event("attest-challenge", device=rec.name)
            send(src, wire.AttestRequest(id_isv=self.id_isv, challenge=challenge, mac=mac.hex).encode())

    # --- attestation report port -------------------------------------------------

    def handle_attest(self, data: bytes, src: object, send) -> None:
        try:
            frame = wire.AttestResponse.decode(data)
        except WireError as exc:
            self._event("attest-reject", device=None, error=error_name(exc))
            return
        rec = self.registry.by_id.get(frame.id_dev)
        if rec is None:
            self._event("attest-reject", device=frame.id_dev, error="UnknownDevice")
            return
        with self._lock:
            pend = self.pending.get(frame.id_dev)
        if pend is None:
            self._event("attest-reject", device=rec.name, error="AuthFailure")
            return
        if self.clock.now() > pend.deadline:
            with self._lock:
                self.pending.pop(frame.id_dev, None)
            self._event("attest-reject", device=rec.name, error="Timeout")
            return
        att_key = crypto.derive_attestation_key(rec.kl_key, pend.challenge)
        expected = crypto.attest_digest(att_key, rec.ref_memory_hash)
        with rec.lock:
            if not crypto.verify_tag(att_key, rec.ref_memory_hash, frame.attst_hmac):
                with self._lock:
                    self.pending.pop(frame.id_dev, None)
                if frame.attst_hmac in rec.past_reports:
                    # Bit-identical to a past accepted report: a stale replay,
                    # not evidence of compromise; no quarantine.
                    self._event("attest-reject", device=rec.name, error="AuthFailure")
                else:
                    rec.healthy = False
                    self._event("attest-reject", device=rec.name, error="AttestationMismatch")
                return
            rec.past_reports.add(expected.hex)
            # Counter re-initialization, clamped so co_pc never decreases
            # even under a frozen virtual clock.
            rec.co_pc = max(self.clock.now(), rec.co_pc)
            self.registry.snapshot(rec)
            rec.awake = True
            rec.healthy = True
            sync_val = rec.co_pc
            co_sync = pend.co_sync
        with self._lock:
            self.pending.pop(frame.id_dev, None)
        mac = crypto.sync_response_mac(rec.kl_sync, self.id_isv, co_sync, sync_val)
        self._event("attest-accept", device=rec.name, co_pc=sync_val)
        send(
            pend.reply_to,
            wire.SyncResponse(id_isv=self.id_isv, co_sync=co_sync, sync_val=sync_val, mac=mac.hex).encode(),
        )

    def expire_pending(self, now: int | None = None) -> None:
        now = self.clock.now() if now is None else now
        with self._lock:
            stale = [id_dev for id_dev, p in self.pending.items() if now > p.deadline]
            for id_dev in stale:
                del self.pending[id_dev]
        for id_dev in stale:
            rec = self.registry.by_id[id_dev]
            self._event("attest-reject", device=rec.name, error="Timeout")


class TicketManager:
    """HTTP JSON API issuing device tickets to Kerberos-authenticated clients."""

    def __init__(
        self, registry: DeviceRegistry, config: IsvConfig, clock: Clock, rng: Rng, events: list
    ) -> None:
        self.registry = registry
        self.kerberos_id = config.kerberos_id
        self.service_key = config.service_key
        self.users = config.users
        self.clock = clock
        self.rng = rng
        self.events = events
        self.iot_ticket_lifetime = config.iot_ticket_lifetime
        self.clock_skew = config.clock_skew
        self._replay = ReplayCache(config.clock_skew * 1_000_000)

    def _event(self, event: str, **extra) -> None:
        self.events.append({"actor": "isv", "event": event, **extra})

    # --- HTTP entry point --------------------------------------------------------

    def handle_http(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, dict[str, str], bytes]:
        if method == "GET" and path == "/healthz":
            return 200, {"Content-Type": "application/json"}, b'{"ok": true}'
        if method != "POST" or path != "/ticket":
            return 404, {"Content-Type": "application/json"}, b'{"error": "NotFound"}'
        try:
            response, nonce_kind = self._ticket(headers, body)
        except KesicError as exc:
            name = error_name(exc)
            status = _HTTP_STATUS.get(name, 400)
            self._event("ticket-denied", error=name, detail=str(exc))
            body_out = json.dumps({"error": name, "detail": str(exc)}, sort_keys=True)
            return status, {"Content-Type": "application/json"}, body_out.encode()
        out_headers = {"Content-Type": "application/json", "X-Nonce-Kind": nonce_kind}
        return 200, out_headers, json.dumps({"sealed": response}, sort_keys=True).encode()

    def _authorization(self, headers: dict[str, str]) -> tuple[str, str]:
        auth = header(headers, "Authorization")
        if not auth or not auth.startswith("KESIC "):
            raise KerberosAuthFailure("missing KESIC authorization token")
        try:
            token = wire.parse_json(b64decode(auth[6:].encode("ascii"), validate=True), "token")
            return token["st"], token["authn"]
        except (FieldFormatError, ValueError, KeyError, TypeError) as exc:
            raise KerberosAuthFailure(f"malformed authorization token: {exc}") from exc

    def _ticket(self, headers: dict[str, str], body: bytes) -> tuple[str, str]:
        st_b64, authn_b64 = self._authorization(headers)
        try:
            identity = verify_ap(
                self.service_key,
                self.kerberos_id,
                st_b64,
                authn_b64,
                self.clock,
                self.clock_skew,
                self._replay,
            )
        except KerberosAuthFailure:
            raise
        except KesicError as exc:
            raise KerberosAuthFailure(f"{error_name(exc)}: {exc}") from exc

        req = wire.TicketRequestJson.from_json(body)
        if req.user_name != identity.id_c:
            raise NotAuthorized("user_name does not match authenticated principal")
        rec = self.registry.by_name.get(req.device_id)
        if rec is None:
            raise UnknownDevice(f"no device named {req.device_id}")
        if req.user_name not in rec.allow:
            raise NotAuthorized(f"{req.user_name} is not allowed on {rec.name}")
        numeric = self.users.get(req.user_name)
        if numeric is None or numeric[1] != identity.ad_c:
            raise NotAuthorized("client interface id is not registered")
        id_c_num, ad_c_num = numeric

        now = self.clock.now()
        if rec.dtype == GENERAL:
            nonce = now + self.iot_ticket_lifetime  # absolute expiry LF
            ticket = crypto.make_iot_ticket_g(rec.kl_tkt, id_c_num, ad_c_num, nonce, rec.id_dev)
            session_key = crypto.make_session_key_g(rec.kl_key, id_c_num, ad_c_num, nonce, rec.id_dev)
            kind = "lifetime"
        else:
            # One hold of the (reentrant) record lock covers the check and
            # the grant, so no mark_asleep or quarantine lands in between.
            with rec.lock:
                # Quarantine outranks sleep state: a failed wake-attestation
                # leaves the device both unhealthy and technically asleep.
                if not rec.healthy:
                    raise DeviceUnhealthy(f"{rec.name} is quarantined")
                if not rec.awake:
                    raise DeviceAsleep(f"{rec.name} is not in a wake cycle")
                nonce = self.registry.next_co_pc(rec.id_dev)
            ticket = crypto.make_iot_ticket_pc(rec.kl_tkt, id_c_num, ad_c_num, nonce, rec.id_dev)
            session_key = crypto.make_session_key_pc(rec.kl_key, id_c_num, ad_c_num, nonce, rec.id_dev)
            kind = "counter"

        payload = wire.TicketResponseJson(
            device_id=rec.id_dev,
            nonce=nonce,
            session_key=session_key.hex(),
            ticket=ticket.hex,
            timestamp=now,
        )
        self._event("ticket-issued", device=rec.name, client=req.user_name, nonce=nonce)
        sealed = crypto.seal_json(identity.session_key, json.loads(payload.to_json()), self.rng)
        return sealed, kind


def _sha256_hex(value: object) -> bytes:
    if not isinstance(value, str) or not re.fullmatch("[0-9a-fA-F]{64}", value):
        raise ValueError(f"{value!r} is not 64 hex characters")
    return bytes.fromhex(value)


@dataclass
class IsvConfig:
    kerberos_id: str
    id_isv: int
    service_key: SymmetricKey
    users: dict[str, tuple[int, int]]  # user name -> (id_c, ad_c)
    iot_ticket_lifetime: int
    attest_timeout: int
    clock_skew: int

    @classmethod
    def from_json_obj(cls, obj: dict) -> tuple["IsvConfig", list[DeviceRecord]]:
        read = ConfigReader("IoT server config", obj)
        cfg = cls(
            kerberos_id=read.text("kerberos_id"),
            id_isv=read.integer("id_isv"),
            service_key=read.key("service_key", KeyRole.PASSWORD),
            users={
                name: (user.integer("id_c"), user.integer("ad_c"))
                for name, user in read.entries("users", "user").items()
            },
            iot_ticket_lifetime=read.integer("iot_ticket_lifetime"),
            attest_timeout=read.integer("attest_timeout"),
            clock_skew=read.integer("clock_skew"),
        )
        records = [
            DeviceRecord(
                name=name,
                id_dev=dev.integer("id_dev"),
                dtype=dev.field("type", device_type),
                kl_sync=dev.key("kl_sync", KeyRole.LT_SYNC),
                kl_tkt=dev.key("kl_tkt", KeyRole.LT_TICKET),
                kl_key=dev.key("kl_key", KeyRole.LT_SESSKEY),
                allow=dev.names("allow"),
                ref_memory_hash=dev.field("memory_sha256", _sha256_hex),
            )
            for name, dev in read.entries("devices", "device").items()
        ]
        return cfg, records


class Isv:
    """Aggregates the registry, SM and TM for one server instance."""

    def __init__(
        self,
        config: IsvConfig,
        records: list[DeviceRecord],
        clock: Clock | None = None,
        rng: Rng | None = None,
        state_path: str | None = None,
    ) -> None:
        self.config = config
        self.clock = clock or SystemClock()
        self.rng = rng or Rng()
        self.events: list[dict] = []
        self.registry = DeviceRegistry(records, state_path=state_path)
        self.sync = SyncManager(self.registry, config, self.clock, self.rng, self.events)
        self.tickets = TicketManager(self.registry, config, self.clock, self.rng, self.events)
