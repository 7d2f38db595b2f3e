"""Byte-exact codecs for the device-path frames and the ticket-API JSON.

Frames are fixed-width concatenated ASCII fields with no separators.
Numeric fields are zero-padded decimal; MACs and challenges are lowercase
hex; command tokens are left-justified and space-padded. This module owns
the canonical rendering of every field; MAC inputs everywhere else are the
concatenation of the same renderings that appear on the wire, so both sides
stay bit-identical by construction. Decoding accepts only canonical
renderings, so a receiver may MAC the received field bytes as they are.

Layouts (widths in bytes, totals pinned by tests):

    SyncRequest      id_dev(8)  co_sync(32)                      mac(64)  = 104
    SyncResponse     id_isv(8)  co_sync(32)  sync_val(32)        mac(64)  = 136
    AttestRequest    id_isv(8)  challenge(32)                    mac(64)  = 104
    AttestResponse   id_dev(8)  attst_hmac(64)                            = 72
    ServiceRequestG  cmd(8) id_c(8) ad_c(8) lifetime(28) ticket(64)
                     ts(28) authenticator(64)                             = 208
    ServiceRequestPC cmd(8) id_c(8) ad_c(8) co_pc(24) ticket(64)          = 112
"""

from __future__ import annotations

import dataclasses
import enum
import json
import re
import string
from dataclasses import dataclass
from typing import Any, ClassVar, Type, TypeVar

from .errors import FieldFormatError, LengthMismatch, Overflow

__all__ = [
    "FieldKind",
    "FieldSpec",
    "render",
    "mac_input",
    "parse_json",
    "SyncRequest",
    "SyncResponse",
    "AttestRequest",
    "AttestResponse",
    "ServiceRequestG",
    "ServiceRequestPC",
    "TicketRequestJson",
    "TicketResponseJson",
    "CMD_LED_ON",
    "CMD_LED_OFF",
    "CMD_ATTEST",
    "ID_WIDTH",
    "CO_SYNC_WIDTH",
    "SYNC_VAL_WIDTH",
    "CO_PC_WIDTH",
    "TS_WIDTH",
    "LIFETIME_WIDTH",
    "CHALLENGE_WIDTH",
    "MAC_WIDTH",
    "CMD_WIDTH",
]

# Field widths in bytes. Shared with the crypto derivations.
ID_WIDTH = 8
CO_SYNC_WIDTH = 32
SYNC_VAL_WIDTH = 32
CO_PC_WIDTH = 24
TS_WIDTH = 28
LIFETIME_WIDTH = 28
CHALLENGE_WIDTH = 32
MAC_WIDTH = 64
CMD_WIDTH = 8

CMD_LED_ON = "LED_ON"
CMD_LED_OFF = "LED_OFF"
CMD_ATTEST = "ATTEST"

_CMD_CHARS = set(string.ascii_uppercase + string.digits + "_")
_HEX_DIGITS = "0123456789abcdef"


class FieldKind(enum.Enum):
    NUMERIC_ID = "numeric-id"
    COUNTER = "counter"
    TIMESTAMP = "timestamp"
    LIFETIME = "lifetime"
    CHALLENGE = "challenge"
    HEX_MAC = "hex-mac"
    COMMAND = "command"

    # Members are singletons, so identity is equality; render's set lookups
    # then skip Enum's Python-level __hash__.
    __hash__ = object.__hash__


_DECIMAL_KINDS = frozenset(
    {FieldKind.NUMERIC_ID, FieldKind.COUNTER, FieldKind.TIMESTAMP, FieldKind.LIFETIME}
)
_HEX_KINDS = frozenset({FieldKind.CHALLENGE, FieldKind.HEX_MAC})


@dataclass(frozen=True)
class FieldSpec:
    name: str
    width: int
    kind: FieldKind


def render(kind: FieldKind, width: int, value: Any) -> str:
    """Canonical fixed-width text for one field value."""
    if kind in _DECIMAL_KINDS:
        if not isinstance(value, int) or isinstance(value, bool):
            raise FieldFormatError(f"{kind.value} wants int, got {type(value).__name__}")
        if value < 0:
            raise FieldFormatError(f"{kind.value} cannot be negative: {value}")
        text = str(value)
        if len(text) > width:
            raise Overflow(f"{kind.value} value {value} exceeds width {width}")
        return text.zfill(width)
    if kind in _HEX_KINDS:
        if not isinstance(value, str):
            raise FieldFormatError(f"{kind.value} wants str, got {type(value).__name__}")
        if len(value) != width or value.strip(_HEX_DIGITS):
            raise FieldFormatError(f"{kind.value} must be {width} lowercase hex chars")
        return value
    if kind is FieldKind.COMMAND:
        if not isinstance(value, str):
            raise FieldFormatError(f"command wants str, got {type(value).__name__}")
        if not value or not set(value) <= _CMD_CHARS:
            raise FieldFormatError(f"bad command token: {value!r}")
        if len(value) > width:
            raise Overflow(f"command {value!r} exceeds width {width}")
        return value.ljust(width)
    raise FieldFormatError(f"unknown field kind {kind!r}")


def _pattern(kind: FieldKind, width: int) -> str:
    """Regular expression matching exactly the canonical renderings of a field."""
    if kind in _DECIMAL_KINDS:
        return f"[0-9]{{{width}}}"
    if kind in _HEX_KINDS:
        return f"[0-9a-f]{{{width}}}"
    # A command token of 1..width characters, space-padded to the width.
    return "|".join(f"[A-Z0-9_]{{{n}}} {{{width - n}}}" for n in range(width, 0, -1))


# What decode makes of each validated field text.
_CONVERTERS = {kind: int for kind in _DECIMAL_KINDS} | {kind: str for kind in _HEX_KINDS}
_CONVERTERS[FieldKind.COMMAND] = lambda text: text.rstrip(" ")


M = TypeVar("M", bound="_Frame")


class _Frame:
    """Mixin for fixed-width frame dataclasses; subclasses list their dataclass
    fields, in declaration order, in FIELDS.

    A decoded frame keeps the bytes it was decoded from, so the MAC inputs
    are slices of what was received rather than a second rendering. Field
    offsets and the whole-frame pattern are computed once per frame class.
    """

    FIELDS: ClassVar[tuple[FieldSpec, ...]] = ()
    _SIZE: ClassVar[int]
    _SPANS: ClassVar[dict[str, tuple[int, int]]]
    _PATTERN: ClassVar[re.Pattern]
    _CONVERT: ClassVar[tuple]
    _received: bytes | None = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._SPANS = {}
        pos = 0
        for f in cls.FIELDS:
            cls._SPANS[f.name] = (pos, pos + f.width)
            pos += f.width
        cls._SIZE = pos
        cls._PATTERN = re.compile("".join(f"({_pattern(f.kind, f.width)})" for f in cls.FIELDS))
        cls._CONVERT = tuple(_CONVERTERS[f.kind] for f in cls.FIELDS)

    @classmethod
    def size(cls) -> int:
        return cls._SIZE

    def encode(self) -> bytes:
        parts = [render(f.kind, f.width, getattr(self, f.name)) for f in self.FIELDS]
        return "".join(parts).encode("ascii")

    @classmethod
    def decode(cls: Type[M], data: bytes) -> M:
        if len(data) != cls._SIZE:
            raise LengthMismatch(f"{cls.__name__} wants {cls._SIZE} bytes, got {len(data)}")
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise FieldFormatError(f"{cls.__name__} is not ASCII") from exc
        match = cls._PATTERN.fullmatch(text)
        if match is None:
            raise FieldFormatError(f"{cls.__name__} has a field that is not a canonical rendering")
        frame = cls(*[convert(field) for convert, field in zip(cls._CONVERT, match.groups())])
        object.__setattr__(frame, "_received", bytes(data))
        return frame

    def field_bytes(self, first: str, last: str | None = None) -> bytes:
        """On-wire bytes of fields ``first`` through ``last`` (default: just ``first``).

        A decoded frame answers with a slice of the bytes it was decoded
        from; a constructed one renders itself first.
        """
        data = self._received if self._received is not None else self.encode()
        return data[self._SPANS[first][0] : self._SPANS[last or first][1]]


def mac_input(msg: _Frame) -> bytes:
    """The bytes covered by a frame's trailing mac field: everything before it."""
    if msg.FIELDS[-1].name != "mac":
        raise FieldFormatError(f"{type(msg).__name__} has no trailing mac field")
    return msg.field_bytes(msg.FIELDS[0].name, msg.FIELDS[-2].name)


@dataclass(frozen=True)
class SyncRequest(_Frame):
    id_dev: int
    co_sync: int
    mac: str

    FIELDS: ClassVar = (
        FieldSpec("id_dev", ID_WIDTH, FieldKind.NUMERIC_ID),
        FieldSpec("co_sync", CO_SYNC_WIDTH, FieldKind.COUNTER),
        FieldSpec("mac", MAC_WIDTH, FieldKind.HEX_MAC),
    )


@dataclass(frozen=True)
class SyncResponse(_Frame):
    id_isv: int
    co_sync: int
    sync_val: int
    mac: str

    FIELDS: ClassVar = (
        FieldSpec("id_isv", ID_WIDTH, FieldKind.NUMERIC_ID),
        FieldSpec("co_sync", CO_SYNC_WIDTH, FieldKind.COUNTER),
        FieldSpec("sync_val", SYNC_VAL_WIDTH, FieldKind.TIMESTAMP),
        FieldSpec("mac", MAC_WIDTH, FieldKind.HEX_MAC),
    )


@dataclass(frozen=True)
class AttestRequest(_Frame):
    id_isv: int
    challenge: str
    mac: str

    FIELDS: ClassVar = (
        FieldSpec("id_isv", ID_WIDTH, FieldKind.NUMERIC_ID),
        FieldSpec("challenge", CHALLENGE_WIDTH, FieldKind.CHALLENGE),
        FieldSpec("mac", MAC_WIDTH, FieldKind.HEX_MAC),
    )


@dataclass(frozen=True)
class AttestResponse(_Frame):
    id_dev: int
    attst_hmac: str

    FIELDS: ClassVar = (
        FieldSpec("id_dev", ID_WIDTH, FieldKind.NUMERIC_ID),
        FieldSpec("attst_hmac", MAC_WIDTH, FieldKind.HEX_MAC),
    )


@dataclass(frozen=True)
class ServiceRequestG(_Frame):
    cmd: str
    id_c: int
    ad_c: int
    lifetime: int
    ticket: str
    ts: int
    authenticator: str

    FIELDS: ClassVar = (
        FieldSpec("cmd", CMD_WIDTH, FieldKind.COMMAND),
        FieldSpec("id_c", ID_WIDTH, FieldKind.NUMERIC_ID),
        FieldSpec("ad_c", ID_WIDTH, FieldKind.NUMERIC_ID),
        FieldSpec("lifetime", LIFETIME_WIDTH, FieldKind.LIFETIME),
        FieldSpec("ticket", MAC_WIDTH, FieldKind.HEX_MAC),
        FieldSpec("ts", TS_WIDTH, FieldKind.TIMESTAMP),
        FieldSpec("authenticator", MAC_WIDTH, FieldKind.HEX_MAC),
    )


@dataclass(frozen=True)
class ServiceRequestPC(_Frame):
    cmd: str
    id_c: int
    ad_c: int
    co_pc: int
    ticket: str

    FIELDS: ClassVar = (
        FieldSpec("cmd", CMD_WIDTH, FieldKind.COMMAND),
        FieldSpec("id_c", ID_WIDTH, FieldKind.NUMERIC_ID),
        FieldSpec("ad_c", ID_WIDTH, FieldKind.NUMERIC_ID),
        FieldSpec("co_pc", CO_PC_WIDTH, FieldKind.COUNTER),
        FieldSpec("ticket", MAC_WIDTH, FieldKind.HEX_MAC),
    )


# --- ticket API JSON shapes ---------------------------------------------------

def parse_json(data: str | bytes, label: str) -> dict:
    """``json.loads`` for bytes from the network, which must hold a JSON object.

    Every defect is a FieldFormatError, including nesting too deep for the
    parser, which surfaces as RecursionError rather than ValueError.
    """
    try:
        obj = json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise FieldFormatError(f"{label} is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FieldFormatError(f"{label} is not a JSON object")
    return obj


def _require_exact_keys(obj: dict, keys: tuple[str, ...], label: str) -> None:
    got = set(obj)
    want = set(keys)
    if got != want:
        raise FieldFormatError(
            f"{label} wants exactly {sorted(want)}, got {sorted(got)}"
        )


@dataclass(frozen=True)
class TicketRequestJson:
    user_name: str
    device_id: str

    KEYS: ClassVar = ("user_name", "device_id")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str | bytes) -> "TicketRequestJson":
        obj = parse_json(text, "ticket request")
        _require_exact_keys(obj, cls.KEYS, "ticket request")
        if not isinstance(obj["user_name"], str) or not isinstance(obj["device_id"], str):
            raise FieldFormatError("ticket request fields must be strings")
        return cls(**obj)


@dataclass(frozen=True)
class TicketResponseJson:
    """Dev_g responses carry a lifetime in ``nonce``; Dev_pc a counter."""

    device_id: int
    nonce: int
    session_key: str
    ticket: str
    timestamp: int

    KEYS: ClassVar = ("device_id", "nonce", "session_key", "ticket", "timestamp")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str | bytes) -> "TicketResponseJson":
        obj = parse_json(text, "ticket response")
        _require_exact_keys(obj, cls.KEYS, "ticket response")
        for key in ("device_id", "nonce", "timestamp"):
            if not isinstance(obj[key], int) or isinstance(obj[key], bool):
                raise FieldFormatError(f"ticket response {key} must be an integer")
        for key in ("session_key", "ticket"):
            value = obj[key]
            if not isinstance(value, str) or len(value) != MAC_WIDTH or value.strip(_HEX_DIGITS):
                raise FieldFormatError(f"ticket response {key} must be {MAC_WIDTH} hex chars")
        return cls(**obj)
