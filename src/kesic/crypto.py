"""Cryptographic primitives and the protocol's keyed derivations.

HMAC-SHA-256 (stdlib) is the single MAC/KDF workhorse: sync-phase
authenticators, IoT tickets, IoT session keys and attestation keys are all
HMACs over canonical fixed-width field renderings, keyed by a device's
independently drawn long-term keys, one per purpose; tags come back as the
hex text the wire carries. Confidential Kerberos payloads travel as
AES-256-GCM sealed JSON with per-message random nonces; opening fails
closed. Password keys come from scrypt with fixed public parameters,
salted by the canonical client id.

Derivation inputs reuse the exact renderings defined in ``wire`` so the
bytes MAC'd equal the bytes on the wire.
"""

from __future__ import annotations

import functools
import hashlib
import hmac as _hmac
import json
from base64 import b64decode, b64encode
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
    "NONCE_LEN",
    "SymmetricKey",
    "hmac_sha256",
    "hmac_tag",
    "verify_tag",
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
NONCE_LEN = 12

# Fixed public scrypt parameters for password-derived keys.
SCRYPT_N = 16384
SCRYPT_R = 8
SCRYPT_P = 1


class SymmetricKey:
    """A 256-bit key; repr never shows key bytes."""

    __slots__ = ("_raw", "_aead")

    def __init__(self, raw: bytes) -> None:
        if not isinstance(raw, (bytes, bytearray)) or len(raw) != KEY_LEN:
            raise ValueError(f"key must be {KEY_LEN} bytes")
        self._raw = bytes(raw)
        self._aead: AESGCM | None = None

    def raw(self) -> bytes:
        return self._raw

    def aead(self) -> AESGCM:
        """The AES-256-GCM cipher under this key, built on first use."""
        if self._aead is None:
            self._aead = AESGCM(self._raw)
        return self._aead

    def hex(self) -> str:
        return self._raw.hex()

    @classmethod
    def generate(cls, rng: Rng) -> "SymmetricKey":
        return cls(rng.key_bytes())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymmetricKey):
            return NotImplemented
        return _hmac.compare_digest(self._raw, other._raw)

    def __hash__(self) -> int:
        return hash(self._raw)

    def __repr__(self) -> str:
        return "SymmetricKey(<redacted>)"


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """Raw primitive; accepts any key length (RFC 4231 vectors use 20 bytes)."""
    return _hmac.digest(key, message, "sha256")


def hmac_tag(key: SymmetricKey, message: bytes) -> str:
    """The full-width tag as the 64 lowercase hex chars that go on the wire."""
    return hmac_sha256(key.raw(), message).hex()


def verify_tag(key: SymmetricKey, message: bytes, tag_hex: str) -> bool:
    return _hmac.compare_digest(hmac_tag(key, message), tag_hex)


# --- sealed JSON ---------------------------------------------------------------

def seal_json(key: SymmetricKey, obj: Any, rng: Rng) -> str:
    """base64(nonce || ciphertext || 16-byte GCM tag) of the compact JSON."""
    plaintext = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    nonce = rng.bytes(NONCE_LEN)
    return b64encode(nonce + key.aead().encrypt(nonce, plaintext, None)).decode("ascii")


def open_json(key: SymmetricKey, blob_b64: str) -> Any:
    try:
        raw = b64decode(blob_b64.encode("ascii"), validate=True)
    except Exception as exc:
        raise AuthFailure(f"sealed box is not base64: {exc}") from exc
    if len(raw) < NONCE_LEN + 16:
        raise AuthFailure("sealed box too short")
    try:
        plaintext = key.aead().decrypt(raw[:NONCE_LEN], raw[NONCE_LEN:], None)
    except InvalidTag as exc:
        raise AuthFailure("sealed box failed to open") from exc
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
    # Pure function of (password, salt). Cached because a client that logs in
    # again, or in the process that provisioned it, reuses the key; the KDC
    # loads stored keys and never calls this.
    if password == "":
        raise EmptyPassword("password must be non-empty")
    return SymmetricKey(_scrypt(password.encode("utf-8"), salt))


# --- canonical derivation inputs ------------------------------------------------

def _rendered(kind: wire.FieldKind, width: int, value: Any) -> str:
    try:
        return wire.render(kind, width, value)
    except WireError as exc:
        raise FieldWidthError(str(exc)) from exc


def _concat(*parts: tuple[wire.FieldKind, int, Any]) -> bytes:
    return "".join(_rendered(k, w, v) for (k, w, v) in parts).encode("ascii")


def sync_request_mac(kl_sync: SymmetricKey, id_dev: int, co_sync: int) -> str:
    """Device-side sync authenticator over ID_dev || Co_sync."""
    msg = _concat(
        (wire.FieldKind.NUMERIC_ID, wire.ID_WIDTH, id_dev),
        (wire.FieldKind.COUNTER, wire.CO_SYNC_WIDTH, co_sync),
    )
    return hmac_tag(kl_sync, msg)


def sync_response_mac(
    kl_sync: SymmetricKey, id_isv: int, co_sync: int, sync_val: int
) -> str:
    """ISV-side sync authenticator over ID_ISV || Co_sync || TS."""
    msg = _concat(
        (wire.FieldKind.NUMERIC_ID, wire.ID_WIDTH, id_isv),
        (wire.FieldKind.COUNTER, wire.CO_SYNC_WIDTH, co_sync),
        (wire.FieldKind.TIMESTAMP, wire.SYNC_VAL_WIDTH, sync_val),
    )
    return hmac_tag(kl_sync, msg)


def attest_request_mac(kl_sync: SymmetricKey, id_isv: int, challenge: str) -> str:
    """Attestation challenge authenticator over ID_ISV || challenge."""
    msg = _concat(
        (wire.FieldKind.NUMERIC_ID, wire.ID_WIDTH, id_isv),
        (wire.FieldKind.CHALLENGE, wire.CHALLENGE_WIDTH, challenge),
    )
    return hmac_tag(kl_sync, msg)


def service_authenticator_g(session_key: SymmetricKey, ts: int) -> str:
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
) -> str:
    """Multi-use ticket over ID_C || AD_c || LF || ID_dev, keyed lt-ticket."""
    return hmac_tag(kl_tkt, _ticket_input_g(id_c, ad_c, lifetime, id_dev))


def make_session_key_g(
    kl_key: SymmetricKey, id_c: int, ad_c: int, lifetime: int, id_dev: int
) -> SymmetricKey:
    """Session key over the same tuple as the ticket, keyed lt-sesskey."""
    raw = hmac_sha256(kl_key.raw(), _ticket_input_g(id_c, ad_c, lifetime, id_dev))
    return SymmetricKey(raw)


def make_iot_ticket_pc(
    kl_tkt: SymmetricKey, id_c: int, ad_c: int, co_pc: int, id_dev: int
) -> str:
    """Single-use ticket over ID_C || AD_c || Co_pc || ID_dev, keyed lt-ticket."""
    return hmac_tag(kl_tkt, _ticket_input_pc(id_c, ad_c, co_pc, id_dev))


def make_session_key_pc(
    kl_key: SymmetricKey, id_c: int, ad_c: int, co_pc: int, id_dev: int
) -> SymmetricKey:
    raw = hmac_sha256(kl_key.raw(), _ticket_input_pc(id_c, ad_c, co_pc, id_dev))
    return SymmetricKey(raw)


# --- attestation ----------------------------------------------------------------

def derive_attestation_key(kl_key: SymmetricKey, challenge: str) -> SymmetricKey:
    """One-shot attestation key from the canonical challenge rendering."""
    msg = _concat((wire.FieldKind.CHALLENGE, wire.CHALLENGE_WIDTH, challenge))
    return SymmetricKey(hmac_sha256(kl_key.raw(), msg))


def attest_digest(att_key: SymmetricKey, memory_hash: bytes) -> str:
    """Report over an already-computed SHA-256 of the program image."""
    if len(memory_hash) != hashlib.sha256().digest_size:
        raise ValueError("memory_hash must be a SHA-256 digest")
    return hmac_tag(att_key, memory_hash)


def attest_memory(att_key: SymmetricKey, memory: bytes) -> str:
    """Hash-then-MAC report over the entire program image."""
    if len(memory) == 0:
        raise EmptyMemory("cannot attest an empty memory image")
    return attest_digest(att_key, hashlib.sha256(memory).digest())
