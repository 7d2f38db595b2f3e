"""Provisioned device identity as loaded by the daemon or the harness."""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto import KeyRole, SymmetricKey
from ..kdc import DEFAULT_CLOCK_SKEW, config_key

GENERAL = "general"
POWER = "power"
DEFAULT_WINDOW = 16  # power-device counter tickets valid per wake cycle


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
    window: int = DEFAULT_WINDOW
    freshness_window: int = DEFAULT_CLOCK_SKEW
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
        entry = f"device profile {obj['name']!r}"
        return cls(
            name=obj["name"],
            id_dev=int(obj["id_dev"]),
            dtype=obj["type"],
            id_isv=int(obj["id_isv"]),
            kl_sync=config_key(entry, obj, "kl_sync", KeyRole.LT_SYNC),
            kl_tkt=config_key(entry, obj, "kl_tkt", KeyRole.LT_TICKET),
            kl_key=config_key(entry, obj, "kl_key", KeyRole.LT_SESSKEY),
            memory=memory,
            isv_sync_addr=isv_sync_addr,
            isv_attest_addr=isv_attest_addr,
            window=int(obj.get("window", DEFAULT_WINDOW)),
            freshness_window=int(obj.get("freshness_window", DEFAULT_CLOCK_SKEW)),
            state_path=state_path,
        )
