"""Non-secure halves of the emulated devices.

Single-threaded event loop over one UDP socket (real or simulated): frames
are dispatched by their fixed length. The non-secure part owns the LED, the
program memory image and the audit event list; every key-touching check is
delegated to the root-of-trust core. Service requests get explicit reply
tokens (``OK [payload]`` / ``ERR <REASON>``); invalid sync and attestation
traffic is dropped silently, as the server side treats silence as timeout.
"""

from __future__ import annotations

import logging

from .. import wire
from ..clock import Clock
from ..errors import NotSynced, WireError
from .profile import GENERAL, POWER, DeviceProfile
from .rot import GeneralRot, PowerRot, Verdict

logger = logging.getLogger(__name__)

VERDICT_TOKENS = {
    Verdict.INVALID_REQUEST: b"ERR INVALID_REQUEST",
    Verdict.TICKET_EXPIRED: b"ERR TICKET_EXPIRED",
    Verdict.INVALID_COUNTER: b"ERR INVALID_COUNTER",
    Verdict.AUTH_FAILURE: b"ERR AUTH_FAILURE",
}
NOT_SYNCED_TOKEN = b"ERR NOT_SYNCED"


class _DeviceBase:
    SERVICE_FRAME: type
    SUPPORTED_CMDS: frozenset[str]

    def __init__(self, profile: DeviceProfile, clock: Clock) -> None:
        # Keys go straight into the RoT; the profile is not retained, so the
        # non-secure object tree holds no key material.
        self.name = profile.name
        self.id_dev = profile.id_dev
        self.dtype = profile.dtype
        self.led = False
        self.memory = bytearray(profile.memory)
        self.events: list[dict] = []
        self._isv_sync_addr = profile.isv_sync_addr
        self._isv_attest_addr = profile.isv_attest_addr
        self._rot = self._build_rot(profile, clock)

    def _build_rot(self, profile: DeviceProfile, clock: Clock):
        raise NotImplementedError

    def _event(self, event: str, **extra) -> None:
        self.events.append({"actor": f"dev:{self.name}", "event": event, **extra})

    @property
    def synced(self) -> bool:
        return self._rot.synced()

    def boot(self, send) -> None:
        """(Re)start the sync phase; also used to retransmit after a timeout."""
        frame = self._rot.begin_sync()
        self._event("sync-request", co_sync=frame.co_sync)
        send(self._isv_sync_addr, frame.encode())

    # --- datagram dispatch ---------------------------------------------------------

    def handle_datagram(self, data: bytes, src: object, send) -> None:
        if len(data) == wire.SyncResponse.size():
            self._on_sync_response(data)
        elif len(data) == self.SERVICE_FRAME.size():
            self._on_service(data, src, send)
        else:
            self._extra_dispatch(data, src, send)

    def _extra_dispatch(self, data: bytes, src: object, send) -> None:
        self._event("ignored", length=len(data))

    def _on_sync_response(self, data: bytes) -> None:
        try:
            frame = wire.SyncResponse.decode(data)
        except WireError:
            self._event("sync-reject", error="FieldFormatError")
            return
        if self._rot.accept_sync_response(frame):
            self._event("sync-ok", sync_val=frame.sync_val)
        else:
            self._event("sync-reject", error="AuthFailure")

    def _on_service(self, data: bytes, src: object, send) -> None:
        try:
            frame = self.SERVICE_FRAME.decode(data)
        except WireError:
            self._event("service", verdict="invalid-request", error="FieldFormatError")
            send(src, VERDICT_TOKENS[Verdict.INVALID_REQUEST])
            return
        try:
            verdict, payload = self._rot.handle_service(frame, bytes(self.memory))
        except NotSynced:
            self._event("service", verdict="not-synced", cmd=frame.cmd)
            send(src, NOT_SYNCED_TOKEN)
            return
        if verdict is Verdict.ACCEPT and frame.cmd not in self.SUPPORTED_CMDS:
            # Crypto accepted but the command is not offered by this profile.
            verdict, payload = Verdict.INVALID_REQUEST, None
        if verdict is not Verdict.ACCEPT:
            self._event("service", verdict=verdict.value, cmd=frame.cmd, id_c=frame.id_c)
            send(src, VERDICT_TOKENS[verdict])
            return
        if frame.cmd in (wire.CMD_LED_ON, wire.CMD_LED_OFF):
            self.led = frame.cmd == wire.CMD_LED_ON
            payload = b"LED=ON" if self.led else b"LED=OFF"
        self._event("service", verdict="accept", cmd=frame.cmd, id_c=frame.id_c)
        send(src, b"OK " + payload if payload else b"OK")


class GeneralDevice(_DeviceBase):
    """Always-on device: LED plus attestation-as-a-service."""

    SERVICE_FRAME = wire.ServiceRequestG
    SUPPORTED_CMDS = frozenset({wire.CMD_LED_ON, wire.CMD_LED_OFF, wire.CMD_ATTEST})

    def _build_rot(self, profile: DeviceProfile, clock: Clock) -> GeneralRot:
        if profile.dtype != GENERAL:
            raise ValueError(f"profile {profile.name} is not a general device")
        return GeneralRot(
            profile.id_dev,
            profile.id_isv,
            profile.kl_sync,
            profile.kl_tkt,
            profile.kl_key,
            clock,
            state_path=profile.state_path,
            freshness_window=profile.freshness_window,
        )


class PowerDevice(_DeviceBase):
    """Duty-cycled device: wakes, attests under challenge, serves, sleeps."""

    SERVICE_FRAME = wire.ServiceRequestPC
    SUPPORTED_CMDS = frozenset({wire.CMD_LED_ON, wire.CMD_LED_OFF})

    def _build_rot(self, profile: DeviceProfile, clock: Clock) -> PowerRot:
        if profile.dtype != POWER:
            raise ValueError(f"profile {profile.name} is not a power-constrained device")
        return PowerRot(
            profile.id_dev,
            profile.id_isv,
            profile.kl_sync,
            profile.kl_tkt,
            profile.kl_key,
            clock,
            state_path=profile.state_path,
            window=profile.window,
        )

    def wake(self, send) -> None:
        self._event("wake")
        self.boot(send)

    def sleep(self) -> None:
        """Volatile state is lost on power-down; the flash counter survives."""
        self._event("sleep")
        self._rot.desync()

    def _extra_dispatch(self, data: bytes, src: object, send) -> None:
        if len(data) != wire.AttestRequest.size():
            self._event("ignored", length=len(data))
            return
        try:
            frame = wire.AttestRequest.decode(data)
        except WireError:
            self._event("attest-request-ignored", error="FieldFormatError")
            return
        response = self._rot.handle_attest_request(frame, bytes(self.memory))
        if response is None:
            self._event("attest-request-ignored", error="AuthFailure")
            return
        self._event("attest-report", challenge=frame.challenge)
        send(self._isv_attest_addr, response.encode())


# The emulated device class for each provisioned device type.
DEVICE_CLASSES = {GENERAL: GeneralDevice, POWER: PowerDevice}
