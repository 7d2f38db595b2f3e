"""Error hierarchy shared by every layer of the stack.

Protocol services report failures to peers as bare error names (JSON
``{"error": name}`` on the Kerberos/ticket paths, ``ERR <TOKEN>`` on the
device path), so each class here maps to a stable wire name.
"""

from __future__ import annotations

__all__ = [
    "KesicError",
    "AuthFailure",
    "EmptyPassword",
    "EmptyMemory",
    "FieldWidthError",
    "WireError",
    "LengthMismatch",
    "FieldFormatError",
    "Overflow",
    "UnknownPrincipal",
    "TicketExpired",
    "IdMismatch",
    "SkewExceeded",
    "NotAuthorized",
    "ReplayDetected",
    "UnknownDevice",
    "DeviceAsleep",
    "DeviceUnhealthy",
    "KerberosAuthFailure",
    "CorruptState",
    "NotSynced",
    "DeviceRejected",
    "Timeout",
    "ScriptError",
    "PortInUse",
    "StartupTimeout",
    "error_name",
    "error_by_name",
]


class KesicError(Exception):
    """Base class for every error raised by this package."""


# --- crypto / wire -----------------------------------------------------------

class AuthFailure(KesicError):
    """A MAC comparison or AEAD open failed, or credentials were wrong."""


class EmptyPassword(KesicError):
    pass


class EmptyMemory(KesicError):
    """Attestation was asked to cover a zero-length memory image."""


class WireError(KesicError):
    """Base class for codec failures."""


class LengthMismatch(WireError):
    pass


class FieldFormatError(WireError):
    pass


class Overflow(WireError):
    """A value does not fit its fixed field width."""


class FieldWidthError(KesicError):
    """A key-derivation input failed canonical fixed-width rendering."""


# --- kdc / Kerberos path -----------------------------------------------------

class UnknownPrincipal(KesicError):
    pass


class TicketExpired(KesicError):
    pass


class IdMismatch(KesicError):
    """Authenticator identity fields do not match the enclosing ticket."""


class SkewExceeded(KesicError):
    pass


class NotAuthorized(KesicError):
    pass


class ReplayDetected(KesicError):
    """An authenticator (id, ts) pair was presented twice within the skew window."""


# --- isv ---------------------------------------------------------------------

class UnknownDevice(KesicError):
    pass


class DeviceAsleep(KesicError):
    pass


class DeviceUnhealthy(KesicError):
    pass


class KerberosAuthFailure(KesicError):
    """The ticket API rejected the Kerberos authorization token."""


class CorruptState(KesicError):
    """A persisted counter file is not in the expected format."""


# --- device ------------------------------------------------------------------

class NotSynced(KesicError):
    """The device has not completed a time/counter sync this power cycle."""


class DeviceRejected(KesicError):
    """A device answered a service request with a non-accept verdict."""

    def __init__(self, verdict: str, detail: str = ""):
        super().__init__(detail or verdict)
        self.verdict = verdict


# --- transport / harness -----------------------------------------------------

class Timeout(KesicError):
    pass


class ScriptError(KesicError):
    pass


class PortInUse(KesicError):
    pass


class StartupTimeout(KesicError):
    pass


_NAMED = {
    cls.__name__: cls
    for cls in (
        AuthFailure,
        EmptyPassword,
        EmptyMemory,
        FieldWidthError,
        LengthMismatch,
        FieldFormatError,
        Overflow,
        UnknownPrincipal,
        TicketExpired,
        IdMismatch,
        SkewExceeded,
        NotAuthorized,
        ReplayDetected,
        UnknownDevice,
        DeviceAsleep,
        DeviceUnhealthy,
        KerberosAuthFailure,
        NotSynced,
        Timeout,
    )
}


def error_name(exc: KesicError) -> str:
    """Stable wire name for an error instance."""
    return type(exc).__name__


def error_by_name(name: str, detail: str = "") -> KesicError:
    """Rebuild an error from its wire name; unknown names become KesicError."""
    cls = _NAMED.get(name, KesicError)
    exc = cls(detail or name)
    return exc
