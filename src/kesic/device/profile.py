"""Provisioned device identity as loaded by the daemon or the harness."""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto import KeyRole, SymmetricKey
from ..kdc import ConfigReader

GENERAL = "general"
POWER = "power"
DEVICE_TYPES = (GENERAL, POWER)


def device_type(value: object) -> str:
    """A config's device ``type``; anything but GENERAL or POWER is a ValueError."""
    if value not in DEVICE_TYPES:
        raise ValueError(f"{value!r} is not {GENERAL!r} or {POWER!r}")
    return value


@dataclass
class DeviceProfile:
    name: str
    id_dev: int
    dtype: str  # GENERAL or POWER
    id_isv: int
    kl_sync: SymmetricKey
    kl_tkt: SymmetricKey
    kl_key: SymmetricKey
    memory: bytes
    isv_sync_addr: object
    isv_attest_addr: object
    window: int  # power-device counter tickets valid per wake cycle
    freshness_window: int  # general-device request freshness, seconds
    state_path: str | None = None

    @classmethod
    def from_json_obj(
        cls,
        obj: dict,
        memory: bytes,
        isv_sync_addr: object,
        isv_attest_addr: object,
        state_path: str | None = None,
    ) -> "DeviceProfile":
        read = ConfigReader("device profile", obj)
        read = ConfigReader(f"device profile {read.text('name')!r}", obj)
        return cls(
            name=read.text("name"),
            id_dev=read.integer("id_dev"),
            dtype=read.field("type", device_type),
            id_isv=read.integer("id_isv"),
            kl_sync=read.key("kl_sync", KeyRole.LT_SYNC),
            kl_tkt=read.key("kl_tkt", KeyRole.LT_TICKET),
            kl_key=read.key("kl_key", KeyRole.LT_SESSKEY),
            memory=memory,
            isv_sync_addr=isv_sync_addr,
            isv_attest_addr=isv_attest_addr,
            window=read.integer("window"),
            freshness_window=read.integer("freshness_window"),
            state_path=state_path,
        )
