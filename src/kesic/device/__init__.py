"""Emulated IoT devices: a non-secure event loop over a root-of-trust core."""

from .emulated import DEVICE_CLASSES, GeneralDevice, PowerDevice, NOT_SYNCED_TOKEN, VERDICT_TOKENS
from .profile import GENERAL, POWER, DeviceProfile
from .rot import GeneralRot, PowerRot, RotBase, Verdict

__all__ = [
    "DEVICE_CLASSES",
    "GeneralDevice",
    "PowerDevice",
    "GeneralRot",
    "PowerRot",
    "RotBase",
    "Verdict",
    "DeviceProfile",
    "GENERAL",
    "POWER",
    "VERDICT_TOKENS",
    "NOT_SYNCED_TOKEN",
]
