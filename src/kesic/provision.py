"""Fleet provisioning: one generation step feeds every actor's config.

Clients get a password-derived KDC key, derived once here and stored (the
KDC never sees a password), and numeric (id_c, ad_c) identities;
devices get three independently drawn long-term keys (sync, ticket, session
key roles), a numeric id and a pseudo-program memory image whose SHA-256
the server stores as the attestation reference. Each actor's config is one
JSON object, loaded by the same loader whether the simulated world hands
it over in process or a daemon reads it from the file written here. All
randomness flows through one Rng, so a seeded fleet is fully reproducible.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from .client import DEFAULT_ISV_ID
from .crypto import KeyRole, SymmetricKey, derive_password_key
from .device.profile import DEVICE_TYPES
from .errors import ScriptError
from .kdc import DEFAULT_TGS_ID, key_b64
from .rng import Rng

# The protocol defaults, for a FleetSpec or DeviceSpec that leaves a field
# out. Every config file written here carries every policy field, and the
# actors' loaders require them all, so no other module has a default.
DEFAULT_TGT_LIFETIME = 10 * 3600
DEFAULT_ST_LIFETIME = 3600
DEFAULT_CLOCK_SKEW = 300
DEFAULT_IOT_TICKET_LIFETIME = 600
DEFAULT_ATTEST_TIMEOUT = 30
DEFAULT_WINDOW = 16  # power-device counter tickets valid per wake cycle
DEFAULT_MEMORY_SIZE = 2048


@dataclass(frozen=True)
class ClientSpec:
    name: str
    password: str
    services: tuple[str, ...] = ("isv",)


@dataclass(frozen=True)
class DeviceSpec:
    name: str
    dtype: str  # "general" | "power"
    allow: tuple[str, ...] | None = None  # None = every provisioned client
    window: int = DEFAULT_WINDOW
    freshness_window: int = DEFAULT_CLOCK_SKEW
    memory_size: int = DEFAULT_MEMORY_SIZE

    def __post_init__(self) -> None:
        if self.dtype not in DEVICE_TYPES:
            raise ScriptError(f"device {self.name!r}: type must be general or power, not {self.dtype!r}")


@dataclass(frozen=True)
class FleetSpec:
    clients: tuple[ClientSpec, ...]
    devices: tuple[DeviceSpec, ...]
    id_isv: int = 1
    tgt_lifetime: int = DEFAULT_TGT_LIFETIME
    st_lifetime: int = DEFAULT_ST_LIFETIME
    iot_ticket_lifetime: int = DEFAULT_IOT_TICKET_LIFETIME
    attest_timeout: int = DEFAULT_ATTEST_TIMEOUT
    clock_skew: int = DEFAULT_CLOCK_SKEW

    @classmethod
    def from_dict(cls, obj: dict) -> "FleetSpec":
        """A spec from a scenario's ``fleet``; a field it leaves out keeps its default."""
        try:
            clients = tuple(
                ClientSpec(name=c["name"], password=c["password"], **_given(c, ("services",), tuple))
                for c in obj["clients"]
            )
            devices = tuple(
                DeviceSpec(
                    name=d["name"],
                    dtype=d["type"],
                    **_given(d, ("allow",), tuple),
                    **_given(d, ("window", "freshness_window", "memory_size"), int),
                )
                for d in obj["devices"]
            )
            return cls(clients=clients, devices=devices, **_given(obj, _FLEET_POLICY, int))
        except (KeyError, TypeError, ValueError) as exc:
            raise ScriptError(f"bad fleet spec: {exc}") from exc


_FLEET_POLICY = ("iot_ticket_lifetime", "attest_timeout", "clock_skew", "tgt_lifetime", "st_lifetime")


def _given(obj: dict, names: tuple[str, ...], convert) -> dict:
    """The fields among ``names`` that ``obj`` sets, converted; a spec's dataclass
    defaults fill in the rest."""
    return {name: convert(obj[name]) for name in names if name in obj}


@dataclass
class DeviceMaterial:
    spec: DeviceSpec
    id_dev: int
    kl_sync: SymmetricKey
    kl_tkt: SymmetricKey
    kl_key: SymmetricKey
    memory: bytes
    allow: frozenset[str]


@dataclass
class ClientIdentity:
    spec: ClientSpec
    id_c: int
    ad_c: int
    key: SymmetricKey  # long-term KDC key, scrypt(password, salt=name)


@dataclass
class Fleet:
    spec: FleetSpec
    tgs_key: SymmetricKey
    service_key: SymmetricKey
    clients: dict[str, ClientIdentity] = field(default_factory=dict)
    devices: dict[str, DeviceMaterial] = field(default_factory=dict)
    secrets: list[tuple[str, bytes]] = field(default_factory=list)

    # --- actor configs ------------------------------------------------------------
    # One JSON object per actor is the only description of its config. The
    # simulated World hands each object to the actor's from_json_obj loader;
    # the write_* methods store it for the daemon, which uses the same loader.

    def kdc_json(self) -> dict:
        return {
            "tgs_id": DEFAULT_TGS_ID,
            "tgs_key": key_b64(self.tgs_key),
            "clients": {
                name: {
                    "key": key_b64(i.key),
                    "ad_c": i.ad_c,
                    "services": sorted(i.spec.services),
                }
                for name, i in self.clients.items()
            },
            "services": {DEFAULT_ISV_ID: key_b64(self.service_key)},
            "tgt_lifetime": self.spec.tgt_lifetime,
            "st_lifetime": self.spec.st_lifetime,
            "clock_skew": self.spec.clock_skew,
        }

    def isv_json(self) -> dict:
        return {
            "kerberos_id": DEFAULT_ISV_ID,
            "id_isv": self.spec.id_isv,
            "service_key": key_b64(self.service_key),
            "users": {name: {"id_c": i.id_c, "ad_c": i.ad_c} for name, i in self.clients.items()},
            "iot_ticket_lifetime": self.spec.iot_ticket_lifetime,
            "attest_timeout": self.spec.attest_timeout,
            "clock_skew": self.spec.clock_skew,
            "devices": {
                name: {
                    "id_dev": mat.id_dev,
                    "type": mat.spec.dtype,
                    "kl_sync": key_b64(mat.kl_sync),
                    "kl_tkt": key_b64(mat.kl_tkt),
                    "kl_key": key_b64(mat.kl_key),
                    "allow": sorted(mat.allow),
                    "memory_sha256": hashlib.sha256(mat.memory).hexdigest(),
                }
                for name, mat in self.devices.items()
            },
        }

    def device_json(self, name: str) -> dict:
        """The device's profile; its memory image travels separately."""
        mat = self.devices[name]
        return {
            "name": name,
            "id_dev": mat.id_dev,
            "type": mat.spec.dtype,
            "id_isv": self.spec.id_isv,
            "kl_sync": key_b64(mat.kl_sync),
            "kl_tkt": key_b64(mat.kl_tkt),
            "kl_key": key_b64(mat.kl_key),
            "window": mat.spec.window,
            "freshness_window": mat.spec.freshness_window,
        }

    def client_json(self, name: str) -> dict:
        ident = self.clients[name]
        return {"name": name, "id_c": ident.id_c, "ad_c": ident.ad_c}

    # --- live-mode files ----------------------------------------------------------

    def write_kdc_db(self, path: str) -> None:
        _write_json(path, self.kdc_json())

    def write_isv_config(self, path: str) -> None:
        _write_json(path, self.isv_json())

    def write_device_profile(self, name: str, path: str, memory_path: str) -> None:
        with open(memory_path, "wb") as fh:
            fh.write(self.devices[name].memory)
        _write_json(path, self.device_json(name))

    def write_client_identity(self, name: str, path: str) -> None:
        _write_json(path, self.client_json(name))


def _write_json(path: str, obj: dict) -> None:
    """Writes a config owner-only: most of them hold long-term keys."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        os.fchmod(fd, 0o600)  # a file that already existed, too
        json.dump(obj, fh, indent=2, sort_keys=True)


def provision(spec: FleetSpec, rng: Rng) -> Fleet:
    names = [c.name for c in spec.clients] + [d.name for d in spec.devices]
    if len(set(names)) != len(names):
        raise ScriptError("client and device names must be unique")
    fleet = Fleet(
        spec=spec,
        tgs_key=SymmetricKey.generate(rng, KeyRole.PASSWORD),
        service_key=SymmetricKey.generate(rng, KeyRole.PASSWORD),
    )
    fleet.secrets.append(("kdc:tgs_key", fleet.tgs_key.raw()))
    fleet.secrets.append(("kdc:service_key", fleet.service_key.raw()))
    all_client_names = tuple(c.name for c in spec.clients)
    for i, cspec in enumerate(spec.clients):
        ident = ClientIdentity(
            spec=cspec,
            id_c=1001 + i,
            ad_c=2001 + i,
            key=derive_password_key(cspec.password, cspec.name.encode("utf-8")),
        )
        fleet.clients[cspec.name] = ident
        fleet.secrets.append((f"password:{cspec.name}", cspec.password.encode("utf-8")))
        fleet.secrets.append((f"kl_c_as:{cspec.name}", ident.key.raw()))
    for i, dspec in enumerate(spec.devices):
        mat = DeviceMaterial(
            spec=dspec,
            id_dev=101 + i,
            kl_sync=SymmetricKey.generate(rng, KeyRole.LT_SYNC),
            kl_tkt=SymmetricKey.generate(rng, KeyRole.LT_TICKET),
            kl_key=SymmetricKey.generate(rng, KeyRole.LT_SESSKEY),
            memory=rng.bytes(dspec.memory_size),
            allow=frozenset(dspec.allow if dspec.allow is not None else all_client_names),
        )
        fleet.devices[dspec.name] = mat
        for role in ("kl_sync", "kl_tkt", "kl_key"):
            fleet.secrets.append((f"{role}:{dspec.name}", getattr(mat, role).raw()))
    return fleet
