"""Cryptographic primitives and the protocol's keyed derivations.

HMAC-SHA-256 (stdlib) is the single MAC/KDF workhorse: sync-phase
authenticators, IoT tickets, IoT session keys and attestation keys are all
HMACs over canonical fixed-width field renderings, keyed by role-separated
long-term keys. Confidential Kerberos payloads travel in AES-256-GCM sealed
boxes with per-message random nonces; opening fails closed. Password keys
come from scrypt with fixed public parameters, salted by the canonical
client id.

Derivation inputs reuse the exact renderings defined in ``wire`` so the
bytes MAC'd equal the bytes on the wire.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import hmac as _hmac
import json
from base64 import b64decode, b64encode
from dataclasses import dataclass
from typing import Any

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import wire
from .errors import (
    AuthFailure,
    EmptyMemory,
    EmptyPassword,
    FieldWidthError,
    WireError,
)
from .rng import Rng

__all__ = [
    "KEY_LEN",
    "TAG_LEN",
    "NONCE_LEN",
    "KeyRole",
    "SymmetricKey",
    "HmacTag",
    "SealedBox",
    "hmac_sha256",
    "hmac_tag",
    "verify_tag",
    "seal",
    "open_box",
    "seal_json",
    "open_json",
    "derive_password_key",
    "sync_request_mac",
    "sync_response_mac",
    "attest_request_mac",
    "service_authenticator_g",
    "make_iot_ticket_g",
    "make_session_key_g",
    "make_iot_ticket_pc",
    "make_session_key_pc",
    "derive_attestation_key",
    "attest_digest",
    "attest_memory",
]

KEY_LEN = 32
TAG_LEN = 32  # full HMAC-SHA-256 output; no truncation
NONCE_LEN = 12

# Fixed public scrypt parameters for password-derived keys.
SCRYPT_N = 16384
SCRYPT_R = 8
SCRYPT_P = 1


class KeyRole(enum.Enum):
    PASSWORD = "password-derived"
    LT_SYNC = "lt-sync"
    LT_TICKET = "lt-ticket"
    LT_SESSKEY = "lt-sesskey"
    SESSION = "session"
    ATTESTATION = "attestation"


class SymmetricKey:
    """A 256-bit key with a role label; repr never shows key bytes."""

    __slots__ = ("_raw", "role")

    def __init__(self, raw: bytes, role: KeyRole) -> None:
        if not isinstance(raw, (bytes, bytearray)) or len(raw) != KEY_LEN:
            raise ValueError(f"key must be {KEY_LEN} bytes")
        self._raw = bytes(raw)
        self.role = role

    def raw(self) -> bytes:
        return self._raw

    def hex(self) -> str:
        return self._raw.hex()

    @classmethod
    def from_hex(cls, text: str, role: KeyRole) -> "SymmetricKey":
        return cls(bytes.fromhex(text), role)

    @classmethod
    def generate(cls, rng: Rng, role: KeyRole) -> "SymmetricKey":
        return cls(rng.key_bytes(), role)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymmetricKey):
            return NotImplemented
        return self.role is other.role and _hmac.compare_digest(self._raw, other._raw)

    def __hash__(self) -> int:
        return hash((self.role, self._raw))

    def __repr__(self) -> str:
        return f"SymmetricKey(role={self.role.value})"


@dataclass(frozen=True)
class HmacTag:
    """A full-width tag, carried on the wire as 64 lowercase hex chars."""

    hex: str

    def __post_init__(self) -> None:
        if len(self.hex) != 2 * TAG_LEN or self.hex.strip("0123456789abcdef"):
            raise ValueError("tag must be 64 lowercase hex chars")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "HmacTag":
        return cls(raw.hex())


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """Raw primitive; accepts any key length (RFC 4231 vectors use 20 bytes)."""
    return _hmac.digest(key, message, "sha256")


def hmac_tag(key: SymmetricKey, message: bytes) -> HmacTag:
    return HmacTag.from_bytes(hmac_sha256(key.raw(), message))


def verify_tag(key: SymmetricKey, message: bytes, tag_hex: str) -> bool:
    expected = hmac_tag(key, message)
    return _hmac.compare_digest(expected.hex, tag_hex)


# --- sealed boxes --------------------------------------------------------------

@dataclass(frozen=True)
class SealedBox:
    nonce: bytes
    ct: bytes  # ciphertext with the 16-byte GCM tag appended

    def to_b64(self) -> str:
        return b64encode(self.nonce + self.ct).decode("ascii")

    @classmethod
    def from_b64(cls, text: str) -> "SealedBox":
        try:
            raw = b64decode(text.encode("ascii"), validate=True)
        except Exception as exc:
            raise AuthFailure(f"sealed box is not base64: {exc}") from exc
        if len(raw) < NONCE_LEN + 16:
            raise AuthFailure("sealed box too short")
        return cls(raw[:NONCE_LEN], raw[NONCE_LEN:])


def seal(key: SymmetricKey, plaintext: bytes, rng: Rng) -> SealedBox:
    nonce = rng.bytes(NONCE_LEN)
    ct = AESGCM(key.raw()).encrypt(nonce, plaintext, None)
    return SealedBox(nonce, ct)


def open_box(key: SymmetricKey, box: SealedBox) -> bytes:
    try:
        return AESGCM(key.raw()).decrypt(box.nonce, box.ct, None)
    except InvalidTag as exc:
        raise AuthFailure("sealed box failed to open") from exc


def seal_json(key: SymmetricKey, obj: Any, rng: Rng) -> str:
    plaintext = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return seal(key, plaintext, rng).to_b64()


def open_json(key: SymmetricKey, blob_b64: str) -> Any:
    plaintext = open_box(key, SealedBox.from_b64(blob_b64))
    try:
        return json.loads(plaintext)
    except ValueError as exc:
        raise AuthFailure("sealed payload is not JSON") from exc


# --- password KDF --------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _scrypt(password: bytes, salt: bytes) -> bytes:
    return hashlib.scrypt(
        password, salt=salt, n=SCRYPT_N, r=SCRYPT_R, p=SCRYPT_P, dklen=KEY_LEN
    )


def derive_password_key(password: str, salt: bytes) -> SymmetricKey:
    # Pure function of (password, salt); cached because every simulated world
    # rederives the same provisioning keys.
    if password == "":
        raise EmptyPassword("password must be non-empty")
    return SymmetricKey(_scrypt(password.encode("utf-8"), salt), KeyRole.PASSWORD)


# --- canonical derivation inputs ------------------------------------------------

def _rendered(kind: wire.FieldKind, width: int, value: Any) -> str:
    try:
        return wire.render(kind, width, value)
    except WireError as exc:
        raise FieldWidthError(str(exc)) from exc


def _concat(*parts: tuple[wire.FieldKind, int, Any]) -> bytes:
    return "".join(_rendered(k, w, v) for (k, w, v) in parts).encode("ascii")


def sync_request_mac(kl_sync: SymmetricKey, id_dev: int, co_sync: int) -> HmacTag:
    """Device-side sync authenticator over ID_dev || Co_sync."""
    msg = _concat(
        (wire.FieldKind.NUMERIC_ID, wire.ID_WIDTH, id_dev),
        (wire.FieldKind.COUNTER, wire.CO_SYNC_WIDTH, co_sync),
    )
    return hmac_tag(kl_sync, msg)


def sync_response_mac(
    kl_sync: SymmetricKey, id_isv: int, co_sync: int, sync_val: int
) -> HmacTag:
    """ISV-side sync authenticator over ID_ISV || Co_sync || TS."""
    msg = _concat(
        (wire.FieldKind.NUMERIC_ID, wire.ID_WIDTH, id_isv),
        (wire.FieldKind.COUNTER, wire.CO_SYNC_WIDTH, co_sync),
        (wire.FieldKind.TIMESTAMP, wire.SYNC_VAL_WIDTH, sync_val),
    )
    return hmac_tag(kl_sync, msg)


def attest_request_mac(kl_sync: SymmetricKey, id_isv: int, challenge: str) -> HmacTag:
    """Attestation challenge authenticator over ID_ISV || challenge."""
    msg = _concat(
        (wire.FieldKind.NUMERIC_ID, wire.ID_WIDTH, id_isv),
        (wire.FieldKind.CHALLENGE, wire.CHALLENGE_WIDTH, challenge),
    )
    return hmac_tag(kl_sync, msg)


def service_authenticator_g(session_key: SymmetricKey, ts: int) -> HmacTag:
    """Per-request client authenticator over the rendered timestamp."""
    msg = _concat((wire.FieldKind.TIMESTAMP, wire.TS_WIDTH, ts))
    return hmac_tag(session_key, msg)


def _ticket_input_g(id_c: int, ad_c: int, lifetime: int, id_dev: int) -> bytes:
    return _concat(
        (wire.FieldKind.NUMERIC_ID, wire.ID_WIDTH, id_c),
        (wire.FieldKind.NUMERIC_ID, wire.ID_WIDTH, ad_c),
        (wire.FieldKind.LIFETIME, wire.LIFETIME_WIDTH, lifetime),
        (wire.FieldKind.NUMERIC_ID, wire.ID_WIDTH, id_dev),
    )


def _ticket_input_pc(id_c: int, ad_c: int, co_pc: int, id_dev: int) -> bytes:
    return _concat(
        (wire.FieldKind.NUMERIC_ID, wire.ID_WIDTH, id_c),
        (wire.FieldKind.NUMERIC_ID, wire.ID_WIDTH, ad_c),
        (wire.FieldKind.COUNTER, wire.CO_PC_WIDTH, co_pc),
        (wire.FieldKind.NUMERIC_ID, wire.ID_WIDTH, id_dev),
    )


def make_iot_ticket_g(
    kl_tkt: SymmetricKey, id_c: int, ad_c: int, lifetime: int, id_dev: int
) -> HmacTag:
    """Multi-use ticket over ID_C || AD_c || LF || ID_dev, keyed lt-ticket."""
    return hmac_tag(kl_tkt, _ticket_input_g(id_c, ad_c, lifetime, id_dev))


def make_session_key_g(
    kl_key: SymmetricKey, id_c: int, ad_c: int, lifetime: int, id_dev: int
) -> SymmetricKey:
    """Session key over the same tuple as the ticket, keyed lt-sesskey."""
    raw = hmac_sha256(kl_key.raw(), _ticket_input_g(id_c, ad_c, lifetime, id_dev))
    return SymmetricKey(raw, KeyRole.SESSION)


def make_iot_ticket_pc(
    kl_tkt: SymmetricKey, id_c: int, ad_c: int, co_pc: int, id_dev: int
) -> HmacTag:
    """Single-use ticket over ID_C || AD_c || Co_pc || ID_dev, keyed lt-ticket."""
    return hmac_tag(kl_tkt, _ticket_input_pc(id_c, ad_c, co_pc, id_dev))


def make_session_key_pc(
    kl_key: SymmetricKey, id_c: int, ad_c: int, co_pc: int, id_dev: int
) -> SymmetricKey:
    raw = hmac_sha256(kl_key.raw(), _ticket_input_pc(id_c, ad_c, co_pc, id_dev))
    return SymmetricKey(raw, KeyRole.SESSION)


# --- attestation ----------------------------------------------------------------

def derive_attestation_key(kl_key: SymmetricKey, challenge: str) -> SymmetricKey:
    """One-shot attestation key from the canonical challenge rendering."""
    msg = _concat((wire.FieldKind.CHALLENGE, wire.CHALLENGE_WIDTH, challenge))
    return SymmetricKey(hmac_sha256(kl_key.raw(), msg), KeyRole.ATTESTATION)


def attest_digest(att_key: SymmetricKey, memory_hash: bytes) -> HmacTag:
    """Report over an already-computed SHA-256 of the program image."""
    if len(memory_hash) != hashlib.sha256().digest_size:
        raise ValueError("memory_hash must be a SHA-256 digest")
    return hmac_tag(att_key, memory_hash)


def attest_memory(att_key: SymmetricKey, memory: bytes) -> HmacTag:
    """Hash-then-MAC report over the entire program image."""
    if len(memory) == 0:
        raise EmptyMemory("cannot attest an empty memory image")
    return attest_digest(att_key, hashlib.sha256(memory).digest())
