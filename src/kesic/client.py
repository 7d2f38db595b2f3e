"""User-side SDK: Kerberos login, ticket acquisition, device calls.

A :class:`ClientSession` owns a credential cache and walks the full path on
demand: password login against the KDC, a service ticket for the IoT
server, a device ticket from the HTTP ticket API, and finally a raw UDP
exchange with the device itself. Device tickets come in two flavours,
mirroring the two device classes:

* ``general`` tickets carry an expiry instant and may be presented many
  times until it passes;
* ``power`` tickets carry a counter value and are valid for exactly one
  presentation, so the cache burns them the moment they are sent.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import os
from typing import Optional

from . import crypto, kdc, wire
from .clock import Clock, SystemClock
from .crypto import KeyRole, SymmetricKey
from .device import GENERAL, NOT_SYNCED_TOKEN, POWER, VERDICT_TOKENS
from .errors import (
    AuthFailure,
    DeviceRejected,
    FieldFormatError,
    KesicError,
    TicketExpired,
    Timeout,
    error_by_name,
)
from .net import Network, header
from .rng import Rng

DEFAULT_ISV_ID = "isv"
UDP_RETRIES = 3
UDP_TIMEOUT_S = 2.0

# Device reply reasons (the token after "ERR ") -> outcome verdicts.
_REPLY_VERDICTS = {
    **{token.removeprefix(b"ERR "): verdict.value for verdict, token in VERDICT_TOKENS.items()},
    NOT_SYNCED_TOKEN.removeprefix(b"ERR "): "not-synced",
}
# The ticket API's X-Nonce-Kind reply header -> the device type it implies.
_NONCE_KIND_DTYPES = {"lifetime": GENERAL, "counter": POWER}


@dataclasses.dataclass
class ClientConfig:
    """Who the client is and where everything lives.

    ``name`` is the Kerberos principal; ``id_c``/``ad_c`` are the numeric
    user and interface ids that appear in device tickets and on the device
    wire, assigned at provisioning time.
    """

    name: str
    id_c: int
    ad_c: int
    kdc_addr: object
    isv_url: str
    device_addrs: dict[str, object]

    @classmethod
    def from_json_obj(
        cls, obj: dict, kdc_addr: object, isv_url: str, device_addrs: dict[str, object]
    ) -> "ClientConfig":
        """A config from a provisioned identity object (name, id_c, ad_c)."""
        read = kdc.ConfigReader("client identity", obj)
        return cls(
            name=read.text("name"),
            id_c=read.integer("id_c"),
            ad_c=read.integer("ad_c"),
            kdc_addr=kdc_addr,
            isv_url=isv_url,
            device_addrs=device_addrs,
        )


@dataclasses.dataclass(frozen=True)
class ServiceOutcome:
    """Result of one device exchange: the device's verdict plus payload."""

    verdict: str
    payload: bytes

    @property
    def accepted(self) -> bool:
        return self.verdict == "accept"


class CredentialCache:
    """In-memory credential store with optional JSON persistence.

    Layout::

        {"tgt": {...} | null,
         "services": {service_id: {"st": ..., "k": ..., "expires": ...}},
         "devices": {device_name: {"dtype": ..., "ticket": ..., ...}}}

    The file holds live session keys, so it is owner-only (0600). It is
    opened on the first save and kept open; each save overwrites it in
    place with one write, space-padded to the file's length. It is not
    fsync'd: a crash may leave it empty or cut short, which loads as an
    empty cache and costs a fresh login. One cache object writes a given
    file at a time; it tracks the file's length itself.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self._fd: Optional[int] = None  # opened by the first save
        self._size = 0  # the file's length, which every save pads to
        self.path = path
        self.tgt: Optional[dict] = None
        self.services: dict[str, dict] = {}
        self.devices: dict[str, dict] = {}
        if path is not None and os.path.exists(path):
            self._load(path)

    def _load(self, path: str) -> None:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            obj = wire.parse_json(data, "credential cache")
        except FieldFormatError:
            return  # empty or torn by a crash: start from an empty cache
        if not isinstance(obj, dict):
            return
        self.tgt = obj.get("tgt")
        self.services = dict(obj.get("services", {}))
        self.devices = dict(obj.get("devices", {}))

    def save(self) -> None:
        if self.path is None:
            return
        blob = json.dumps(
            {"tgt": self.tgt, "services": self.services, "devices": self.devices},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        if self._fd is None:
            self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o600)
            os.fchmod(self._fd, 0o600)  # a file that already existed, too
            self._size = os.fstat(self._fd).st_size
        # Trailing spaces are JSON whitespace, so a shorter cache overwrites
        # a longer one without a truncate and the save stays one write.
        data = blob + b" " * (self._size - len(blob))
        self._size = len(data)
        written = 0
        while written < len(data):
            written += os.pwrite(self._fd, data[written:], written)

    def close(self) -> None:
        """Release the cache file; the next save opens it again."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __del__(self) -> None:
        self.close()

    def summary(self, now: int) -> dict:
        """Redacted view for display: no key or ticket material."""
        out: dict = {"tgt": None, "services": {}, "devices": {}}
        if self.tgt is not None:
            out["tgt"] = {
                "expires": self.tgt["lf2"],
                "expired": self.tgt["lf2"] <= now,
            }
        for sid, entry in self.services.items():
            out["services"][sid] = {
                "expires": entry["expires"],
                "expired": entry["expires"] <= now,
            }
        for name, entry in self.devices.items():
            view = {"dtype": entry["dtype"], "device_id": entry["id_dev"]}
            if entry["dtype"] == GENERAL:
                view["expires"] = entry["nonce"]
                view["expired"] = entry["nonce"] <= now
            else:
                view["counter"] = entry["nonce"]
            out["devices"][name] = view
        return out


class ClientSession:
    """One user's view of the ecosystem, bound to a transport and a cache."""

    def __init__(
        self,
        config: ClientConfig,
        network: Network,
        clock: Optional[Clock] = None,
        rng: Optional[Rng] = None,
        cache_path: Optional[str] = None,
    ) -> None:
        self.config = config
        self.network = network
        self.clock = clock if clock is not None else SystemClock()
        self.rng = rng if rng is not None else Rng()
        self.cache = CredentialCache(cache_path)

    # -- Kerberos ---------------------------------------------------------

    def _kdc_call(self, request: dict) -> dict:
        data = self.network.udp_call(
            self.config.kdc_addr,
            json.dumps(request, sort_keys=True).encode("utf-8"),
            timeout=UDP_TIMEOUT_S,
        )
        resp = wire.parse_json(data, "KDC reply")
        if not isinstance(resp, dict):
            raise FieldFormatError("KDC reply must be a JSON object")
        if "error" in resp:
            raise error_by_name(resp["error"], resp.get("detail", ""))
        return resp

    def login(self, password: str) -> None:
        """Run the AS exchange and cache the resulting TGT.

        Authentication is implicit: the response is sealed under a key
        derived from the password, so a wrong password surfaces as a
        failed unseal and nothing is cached.
        """
        key = crypto.derive_password_key(password, self.config.name.encode("utf-8"))
        resp = self._kdc_call(
            {
                "op": "as",
                "id_c": self.config.name,
                "id_tgs": kdc.DEFAULT_TGS_ID,
                "ts": self.clock.now(),
            }
        )
        payload = crypto.open_json(key, resp["sealed"])
        self.cache.tgt = {
            "blob": payload["tgt"],
            "k": payload["k"],
            "lf2": payload["lf2"],
            "ts": payload["ts"],
        }
        # A fresh login invalidates nothing else, but stale service tickets
        # under an old TGT are useless; drop them for hygiene.
        self.cache.services.clear()
        self.cache.save()

    def _ensure_service_ticket(self) -> tuple[str, SymmetricKey]:
        """Return a (service ticket, session key) pair for the IoT server."""
        now = self.clock.now()
        entry = self.cache.services.get(DEFAULT_ISV_ID)
        if entry is not None and entry["expires"] > now:
            return entry["st"], SymmetricKey(base64.b64decode(entry["k"]), KeyRole.SESSION)
        if entry is not None:
            del self.cache.services[DEFAULT_ISV_ID]

        tgt = self.cache.tgt
        if tgt is None:
            raise AuthFailure("no ticket-granting ticket cached; login first")
        if tgt["lf2"] <= now:
            raise TicketExpired("ticket-granting ticket expired; login again")
        k_c_tgs = SymmetricKey(base64.b64decode(tgt["k"]), KeyRole.SESSION)
        authn = kdc.make_authenticator(
            k_c_tgs, self.config.name, self.config.ad_c, self.clock.now_us(), self.rng
        )
        resp = self._kdc_call(
            {"op": "tgs", "id_v": DEFAULT_ISV_ID, "tgt": tgt["blob"], "authn": authn}
        )
        payload = crypto.open_json(k_c_tgs, resp["sealed"])
        if payload["id_v"] != DEFAULT_ISV_ID:
            raise AuthFailure("service ticket names an unexpected service")
        entry = {"st": payload["st"], "k": payload["k"], "expires": payload["lf4"]}
        self.cache.services[DEFAULT_ISV_ID] = entry
        return entry["st"], SymmetricKey(base64.b64decode(entry["k"]), KeyRole.SESSION)

    # -- Ticket API -------------------------------------------------------

    def get_iot_ticket(self, device_name: str) -> dict:
        """Fetch a device ticket from the IoT server and cache it.

        The cache is written once, on the way out, so a service ticket
        from the TGS step is kept even when the HTTP step fails.
        """
        try:
            return self._fetch_iot_ticket(device_name)
        finally:
            self.cache.save()

    def _fetch_iot_ticket(self, device_name: str) -> dict:
        st, k_c_isv = self._ensure_service_ticket()
        authn = kdc.make_authenticator(
            k_c_isv, self.config.name, self.config.ad_c, self.clock.now_us(), self.rng
        )
        token = base64.b64encode(
            json.dumps({"st": st, "authn": authn}, sort_keys=True).encode("utf-8")
        ).decode("ascii")
        body = wire.TicketRequestJson(self.config.name, device_name).to_json().encode("utf-8")
        status, headers, raw = self.network.http_post(
            self.config.isv_url.rstrip("/") + "/ticket",
            {"Authorization": "KESIC " + token, "Content-Type": "application/json"},
            body,
        )
        obj = wire.parse_json(raw, "ticket API reply")
        if not isinstance(obj, dict):
            raise FieldFormatError("ticket API reply must be a JSON object")
        if status != 200:
            if status == 401:
                # The server rejected our Kerberos material; whatever we
                # cached is not going to start working again on its own.
                self.cache.services.pop(DEFAULT_ISV_ID, None)
            raise error_by_name(obj.get("error", "KesicError"), obj.get("detail", ""))
        kind = header(headers, "X-Nonce-Kind")
        dtype = _NONCE_KIND_DTYPES.get(kind)
        if dtype is None:
            raise FieldFormatError(f"ticket API reply has X-Nonce-Kind {kind!r}")
        payload = crypto.open_json(k_c_isv, obj["sealed"])
        resp = wire.TicketResponseJson.from_json(json.dumps(payload))
        entry = {
            "id_dev": resp.device_id,
            "dtype": dtype,
            "ticket": resp.ticket,
            "session_key": resp.session_key,
            "nonce": resp.nonce,
            "acquired": resp.timestamp,
        }
        self.cache.devices[device_name] = entry
        return entry

    # -- Device exchanges -------------------------------------------------

    def _device_addr(self, device_name: str) -> object:
        try:
            return self.config.device_addrs[device_name]
        except KeyError:
            raise FieldFormatError(f"no address configured for device {device_name!r}") from None

    def call_device(self, device_name: str, cmd: str, force: bool = False) -> ServiceOutcome:
        """Present a cached (or freshly fetched) ticket to a device.

        ``force`` skips the local expiry check on general-device tickets,
        which is how the tooling demonstrates the device-side rejection.
        """
        addr = self._device_addr(device_name)
        entry = self.cache.devices.get(device_name)
        if entry is None:
            entry = self.get_iot_ticket(device_name)

        if entry["dtype"] == GENERAL:
            if entry["nonce"] <= self.clock.now() and not force:
                del self.cache.devices[device_name]
                self.cache.save()
                raise TicketExpired(
                    f"device ticket for {device_name!r} expired; fetch a new one"
                )
            data = self._call_general(addr, entry, cmd)
        else:
            # Single-presentation ticket: burn it before the bytes leave,
            # so a lost reply can never tempt us into a doomed re-send.
            del self.cache.devices[device_name]
            self.cache.save()
            frame = wire.ServiceRequestPC(
                cmd=cmd,
                id_c=self.config.id_c,
                ad_c=self.config.ad_c,
                co_pc=entry["nonce"],
                ticket=entry["ticket"],
            )
            data = self.network.udp_call(addr, frame.encode(), timeout=UDP_TIMEOUT_S)

        outcome = self._parse_reply(data)
        if entry["dtype"] == GENERAL and outcome.verdict == "ticket-expired":
            self.cache.devices.pop(device_name, None)
            self.cache.save()
        return outcome

    def _call_general(self, addr: object, entry: dict, cmd: str) -> bytes:
        key = SymmetricKey(bytes.fromhex(entry["session_key"]), KeyRole.SESSION)
        last: Optional[Timeout] = None
        for _ in range(UDP_RETRIES):
            # Microsecond timestamp: unique per request, so the device can
            # tell honest same-second traffic apart from replays.
            ts = self.clock.now_us()
            frame = wire.ServiceRequestG(
                cmd=cmd,
                id_c=self.config.id_c,
                ad_c=self.config.ad_c,
                lifetime=entry["nonce"],
                ticket=entry["ticket"],
                ts=ts,
                authenticator=crypto.service_authenticator_g(key, ts).hex,
            )
            try:
                return self.network.udp_call(addr, frame.encode(), timeout=UDP_TIMEOUT_S)
            except Timeout as exc:
                last = exc
        assert last is not None
        raise last

    @staticmethod
    def _parse_reply(data: bytes) -> ServiceOutcome:
        if data == b"OK":
            return ServiceOutcome("accept", b"")
        if data.startswith(b"OK "):
            return ServiceOutcome("accept", data[3:])
        if data.startswith(b"ERR "):
            verdict = _REPLY_VERDICTS.get(data[4:])
            if verdict is not None:
                return ServiceOutcome(verdict, b"")
        raise KesicError(f"unintelligible device reply: {data!r}")

    # -- Attestation ------------------------------------------------------

    def verify_attestation(self, device_name: str, expected_image: bytes) -> str:
        """Ask a device to attest its memory and check the report locally.

        Returns ``"healthy"`` when the report matches the expected image
        and ``"compromised"`` when it does not. A device that refuses the
        exchange outright raises :class:`DeviceRejected` instead, since
        that says nothing about its memory.
        """
        entry = self.cache.devices.get(device_name)
        if entry is None:
            entry = self.get_iot_ticket(device_name)
        outcome = self.call_device(device_name, wire.CMD_ATTEST)
        if not outcome.accepted:
            raise DeviceRejected(outcome.verdict, "device refused attestation request")
        key = SymmetricKey(bytes.fromhex(entry["session_key"]), KeyRole.SESSION)
        expected = crypto.attest_memory(key, bytes(expected_image))
        reported = outcome.payload.decode("ascii", errors="replace")
        return "healthy" if reported == expected.hex else "compromised"
