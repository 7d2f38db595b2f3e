"""Simulated root of trust: the secure part of an emulated device.

All long-term keys, the persistent sync counter, the synced time/counter
state and every verification step live behind this class boundary. The
non-secure device loop only sees verdicts and response payloads; key bytes
never cross the interface. The persistent counter is written and fsync'd
(tmp + rename) before a sync request leaves the device, so a crash or power
loss between increment and send cannot reuse a counter value.
"""

from __future__ import annotations

import enum
import hmac
import json
import os

from .. import crypto, wire
from ..clock import Clock
from ..crypto import SymmetricKey
from ..durable import atomic_write
from ..errors import CorruptState, FieldFormatError, NotSynced, ReplayDetected
from ..kdc import ReplayCache, typed
from .profile import DeviceProfile

__all__ = ["Verdict", "RotBase", "GeneralRot", "PowerRot"]


class Verdict(enum.Enum):
    ACCEPT = "accept"
    INVALID_REQUEST = "invalid-request"
    TICKET_EXPIRED = "ticket-expired"
    INVALID_COUNTER = "invalid-counter"
    AUTH_FAILURE = "auth-failure"


class RotBase:
    """Shared sync machinery; subclasses add the service phase."""

    def __init__(self, profile: DeviceProfile, clock: Clock) -> None:
        # The keys are copied out; the profile itself is not kept.
        self._id_dev = profile.id_dev
        # ID_dev as it ends every ticket input, rendered once.
        self._id_dev_field = wire.render(wire.FieldKind.NUMERIC_ID, wire.ID_WIDTH, self._id_dev).encode()
        self._id_isv = profile.id_isv
        self._kl_sync = profile.kl_sync
        self._kl_tkt = profile.kl_tkt
        self._kl_key = profile.kl_key
        self._clock = clock
        self._state_path = profile.state_path
        self._co_sync = self._load_co_sync()
        self._pending_co_sync: int | None = None
        self._synced = False

    # --- persistent counter ------------------------------------------------------

    def _load_co_sync(self) -> int:
        if not (self._state_path and os.path.exists(self._state_path)):
            return 0
        with open(self._state_path, "rb") as fh:
            data = fh.read()
        try:
            co_sync = typed(wire.parse_json(data, self._state_path)["co_sync"], int)
        except (FieldFormatError, KeyError, TypeError):
            co_sync = -1
        if co_sync < 0:
            raise CorruptState(f'{self._state_path} is not a {{"co_sync": <non-negative int>}} file')
        return co_sync

    def _persist_co_sync(self) -> None:
        if self._state_path:
            atomic_write(self._state_path, json.dumps({"co_sync": self._co_sync}).encode())

    # --- sync phase ----------------------------------------------------------------

    def begin_sync(self) -> wire.SyncRequest:
        """Build the next sync request; persists the increment before returning.

        While a request is unanswered the same counter is reused, matching
        the server's equals-or-plus-one acceptance rule for retransmissions.
        """
        if self._pending_co_sync is None:
            self._co_sync += 1
            self._persist_co_sync()
            self._pending_co_sync = self._co_sync
        mac = crypto.sync_request_mac(self._kl_sync, self._id_dev, self._pending_co_sync)
        return wire.SyncRequest(id_dev=self._id_dev, co_sync=self._pending_co_sync, mac=mac)

    def accept_sync_response(self, frame: wire.SyncResponse) -> bool:
        """Verify a sync response against the in-flight counter; False = drop.

        The counter acts as the nonce: the tag is recomputed over the frame
        fields and the frame must echo the counter this device sent, so a
        replayed response from an earlier sync can never verify.
        """
        if self._pending_co_sync is None:
            return False
        if frame.id_isv != self._id_isv or frame.co_sync != self._pending_co_sync:
            return False
        if not crypto.verify_tag(self._kl_sync, wire.mac_input(frame), frame.mac):
            return False
        self._pending_co_sync = None
        self._synced = True
        self._on_synced(frame.sync_val)
        return True

    def _on_synced(self, sync_val: int) -> None:
        raise NotImplementedError

    def synced(self) -> bool:
        return self._synced

    def desync(self) -> None:
        """Power-down: volatile sync state is lost; the flash counter survives."""
        self._synced = False
        self._pending_co_sync = None


class GeneralRot(RotBase):
    """Always-on device core: synced wall time, multi-use lifetime tickets.

    Service-request timestamps are microseconds: at one-second granularity
    two honest requests in the same second would be indistinguishable from
    a replay, since the authenticator covers nothing but the timestamp.
    Ticket lifetimes stay in whole seconds (they are coarse expiry
    instants, not nonces).
    """

    def __init__(self, profile: DeviceProfile, clock: Clock) -> None:
        super().__init__(profile, clock)
        self._start_us = 0
        self._timer_origin = 0.0
        self._replay = ReplayCache(profile.freshness_window * 1_000_000)

    def _on_synced(self, sync_val: int) -> None:
        self._start_us = sync_val * 1_000_000
        self._timer_origin = self._clock.timer()

    def local_time_us(self) -> int:
        if not self._synced:
            raise NotSynced("no completed time sync this power cycle")
        return self._start_us + int((self._clock.timer() - self._timer_origin) * 1_000_000)

    def handle_service(
        self, frame: wire.ServiceRequestG, memory: bytes
    ) -> tuple[Verdict, bytes | None]:
        """Check order: freshness, lifetime, authenticator, ticket, replay.

        The MAC inputs are the received field bytes: ID_C || AD_c || LF
        plus this device's rendered ID_dev for the ticket and session key,
        TS for the authenticator. Decoding accepts only canonical
        renderings, so these are the bytes the IoT server MAC'd.
        """
        local = self.local_time_us()
        if not self._replay.fresh(frame.ts, local):
            return Verdict.INVALID_REQUEST, None
        if frame.lifetime * 1_000_000 <= local:
            return Verdict.TICKET_EXPIRED, None
        ticket_input = frame.field_bytes("id_c", "lifetime") + self._id_dev_field
        session_key = crypto.hmac_sha256(self._kl_key.raw(), ticket_input)
        expected = crypto.hmac_sha256(session_key, frame.field_bytes("ts"))
        if not hmac.compare_digest(expected.hex(), frame.authenticator):
            return Verdict.AUTH_FAILURE, None
        # Recomputing over the plaintext fields rules out lifetime extension.
        ticket = crypto.hmac_sha256(self._kl_tkt.raw(), ticket_input)
        if not hmac.compare_digest(ticket.hex(), frame.ticket):
            return Verdict.AUTH_FAILURE, None
        # Record the timestamp only after both tags verified, so a forgery
        # cannot burn an honest user's (id_c, ts) slot.
        try:
            self._replay.check_and_add(frame.id_c, frame.ts, local)
        except ReplayDetected:
            return Verdict.INVALID_REQUEST, None
        if frame.cmd == wire.CMD_ATTEST:
            report = crypto.attest_memory(SymmetricKey(session_key), memory)
            return Verdict.ACCEPT, report.encode("ascii")
        return Verdict.ACCEPT, None


class PowerRot(RotBase):
    """Duty-cycled device core: counter window, single-use counter tickets."""

    def __init__(self, profile: DeviceProfile, clock: Clock) -> None:
        super().__init__(profile, clock)
        self._window = profile.window
        self._base: int | None = None
        self._used = 0  # bitmask over (base, base + window]

    def _on_synced(self, sync_val: int) -> None:
        self._base = sync_val
        self._used = 0

    def desync(self) -> None:
        super().desync()
        self._base = None
        self._used = 0

    def handle_attest_request(
        self, frame: wire.AttestRequest, memory: bytes
    ) -> wire.AttestResponse | None:
        """Answer a challenge only mid-sync; bad or out-of-phase -> None."""
        if self._pending_co_sync is None:
            return None
        if frame.id_isv != self._id_isv:
            return None
        if not crypto.verify_tag(self._kl_sync, wire.mac_input(frame), frame.mac):
            return None
        att_key = crypto.derive_attestation_key(self._kl_key, frame.challenge)
        report = crypto.attest_memory(att_key, memory)
        return wire.AttestResponse(id_dev=self._id_dev, attst_hmac=report)

    def handle_service(
        self, frame: wire.ServiceRequestPC, memory: bytes
    ) -> tuple[Verdict, bytes | None]:
        if not self._synced or self._base is None:
            raise NotSynced("no completed counter sync this wake cycle")
        offset = frame.co_pc - self._base
        if not 0 < offset <= self._window:
            return Verdict.INVALID_COUNTER, None
        bit = 1 << (offset - 1)
        if self._used & bit:
            return Verdict.INVALID_COUNTER, None
        ticket_input = frame.field_bytes("id_c", "co_pc") + self._id_dev_field
        ticket = crypto.hmac_sha256(self._kl_tkt.raw(), ticket_input)
        if not hmac.compare_digest(ticket.hex(), frame.ticket):
            return Verdict.AUTH_FAILURE, None
        # Consume the counter only after the ticket verified, so a forgery
        # cannot burn a slot out from under its honest holder.
        self._used |= bit
        return Verdict.ACCEPT, None
