"""Primitives and keyed derivations.

The HMAC oracle is RFC 4231 test cases 1-4, frozen as literals. The scrypt
golden vector was generated once from the reference KDF and pinned; any
parameter drift breaks it.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kesic import crypto, wire
from kesic.errors import AuthFailure, EmptyMemory, EmptyPassword, FieldWidthError
from kesic.rng import Rng

# RFC 4231 section 4: (key, data, hmac-sha-256 digest)
RFC4231_VECTORS = [
    (
        b"\x0b" * 20,
        b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
    ),
    (
        b"Jefe",
        b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
    ),
    (
        b"\xaa" * 20,
        b"\xdd" * 50,
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
    ),
    (
        bytes(range(0x01, 0x1A)),
        b"\xcd" * 50,
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
    ),
]

SCRYPT_GOLDEN = "0a3e4b93fa9fc363422bb21e3543251f5daccafedc31a12af195800ed09d6bb4"


def key(role=crypto.KeyRole.LT_SYNC, byte=0x11) -> crypto.SymmetricKey:
    return crypto.SymmetricKey(bytes([byte]) * 32, role)


@pytest.mark.parametrize("k,msg,digest", RFC4231_VECTORS)
def test_rfc4231_vectors(k, msg, digest):
    assert crypto.hmac_sha256(k, msg).hex() == digest


def test_hmac_deterministic_and_bit_sensitive():
    k = key()
    base = crypto.hmac_tag(k, b"\x00")
    assert crypto.hmac_tag(k, b"\x00") == base
    for bit in range(8):
        assert crypto.hmac_tag(k, bytes([1 << bit])) != base


def test_tag_hex_round_trip():
    tag = crypto.hmac_tag(key(), b"x")
    assert len(tag.hex) == 64


def test_verify_tag():
    k = key()
    tag = crypto.hmac_tag(k, b"msg")
    assert crypto.verify_tag(k, b"msg", tag.hex)
    assert not crypto.verify_tag(k, b"msh", tag.hex)
    assert not crypto.verify_tag(key(byte=0x12), b"msg", tag.hex)


def test_key_repr_hides_bytes():
    k = key(byte=0x5A)
    assert "5a" not in repr(k).lower() or "5a5a" not in repr(k).lower()
    assert "role" in repr(k)


# --- sealed boxes ---------------------------------------------------------------

def test_seal_open_round_trip():
    rng = Rng(1)
    k = key(crypto.KeyRole.SESSION)
    box = crypto.seal(k, b"hello world", rng)
    assert crypto.open_box(k, box) == b"hello world"


def test_open_wrong_key_fails_closed():
    rng = Rng(1)
    box = crypto.seal(key(byte=1, role=crypto.KeyRole.SESSION), b"secret", rng)
    with pytest.raises(AuthFailure):
        crypto.open_box(key(byte=2, role=crypto.KeyRole.SESSION), box)


def test_open_tampered_box_fails_closed():
    rng = Rng(1)
    k = key(crypto.KeyRole.SESSION)
    box = crypto.seal(k, b"secret payload", rng)
    blob = bytearray(box.nonce + box.ct)
    for byte_index in range(2):  # nonce byte and ciphertext byte
        for bit in range(8):
            mutated = bytearray(blob)
            mutated[byte_index * (crypto.NONCE_LEN + 1)] ^= 1 << bit
            bad = crypto.SealedBox(bytes(mutated[: crypto.NONCE_LEN]), bytes(mutated[crypto.NONCE_LEN :]))
            with pytest.raises(AuthFailure):
                crypto.open_box(k, bad)


def test_seal_json_round_trip_and_fresh_nonces():
    rng = Rng(7)
    k = key(crypto.KeyRole.SESSION)
    obj = {"k": "00" * 32, "ts": 123}
    blob1 = crypto.seal_json(k, obj, rng)
    blob2 = crypto.seal_json(k, obj, rng)
    assert blob1 != blob2  # per-message nonce
    assert crypto.open_json(k, blob1) == obj
    assert crypto.open_json(k, blob2) == obj


def test_open_json_rejects_garbage():
    with pytest.raises(AuthFailure):
        crypto.open_json(key(), "!!!not base64!!!")
    with pytest.raises(AuthFailure):
        crypto.open_json(key(), "AAAA")


# --- password KDF ---------------------------------------------------------------

def test_scrypt_golden_vector():
    k = crypto.derive_password_key("correct horse", b"alice")
    assert k.hex() == SCRYPT_GOLDEN


def test_password_kdf_salt_separation():
    rng = Rng(3)
    salts = {rng.bytes(8) for _ in range(10)}
    keys = {crypto.derive_password_key("same password", s).hex() for s in salts}
    assert len(keys) == len(salts)


def test_empty_password_rejected():
    with pytest.raises(EmptyPassword):
        crypto.derive_password_key("", b"alice")


# --- protocol derivations --------------------------------------------------------

def test_sync_request_mac_matches_wire_prefix():
    k = key(crypto.KeyRole.LT_SYNC)
    frame = wire.SyncRequest(id_dev=101, co_sync=7, mac="0" * 64)
    tag = crypto.sync_request_mac(k, 101, 7)
    assert tag == crypto.hmac_tag(k, wire.mac_input(frame))


def test_sync_response_mac_matches_wire_prefix():
    k = key(crypto.KeyRole.LT_SYNC)
    frame = wire.SyncResponse(id_isv=1, co_sync=7, sync_val=1_700_000_123, mac="0" * 64)
    tag = crypto.sync_response_mac(k, 1, 7, 1_700_000_123)
    assert tag == crypto.hmac_tag(k, wire.mac_input(frame))


def test_attest_request_mac_matches_wire_prefix():
    k = key(crypto.KeyRole.LT_SYNC)
    challenge = "ab" * 16
    frame = wire.AttestRequest(id_isv=1, challenge=challenge, mac="0" * 64)
    tag = crypto.attest_request_mac(k, 1, challenge)
    assert tag == crypto.hmac_tag(k, wire.mac_input(frame))


def test_ticket_and_session_key_domains_differ():
    kt = key(crypto.KeyRole.LT_TICKET, byte=0x21)
    ks = key(crypto.KeyRole.LT_SESSKEY, byte=0x22)
    ticket = crypto.make_iot_ticket_g(kt, 1001, 2001, 1_700_003_600, 101)
    skey = crypto.make_session_key_g(ks, 1001, 2001, 1_700_003_600, 101)
    assert ticket.hex != skey.hex()
    assert skey.role is crypto.KeyRole.SESSION


field_tuples_g = st.tuples(
    st.integers(min_value=0, max_value=10**8 - 1),
    st.integers(min_value=0, max_value=10**8 - 1),
    st.integers(min_value=0, max_value=10**28 - 1),
    st.integers(min_value=0, max_value=10**8 - 1),
)


@settings(max_examples=60, deadline=None)
@given(fields=field_tuples_g, which=st.integers(min_value=0, max_value=3), delta=st.integers(min_value=1, max_value=1000))
def test_ticket_g_binds_every_field(fields, which, delta):
    kt = key(crypto.KeyRole.LT_TICKET)
    bounds = (10**8, 10**8, 10**28, 10**8)
    mutated = list(fields)
    mutated[which] = (mutated[which] + delta) % bounds[which]
    if tuple(mutated) == fields:
        return
    assert crypto.make_iot_ticket_g(kt, *fields) != crypto.make_iot_ticket_g(kt, *mutated)


field_tuples_pc = st.tuples(
    st.integers(min_value=0, max_value=10**8 - 1),
    st.integers(min_value=0, max_value=10**8 - 1),
    st.integers(min_value=0, max_value=10**24 - 1),
    st.integers(min_value=0, max_value=10**8 - 1),
)


@settings(max_examples=60, deadline=None)
@given(fields=field_tuples_pc, which=st.integers(min_value=0, max_value=3), delta=st.integers(min_value=1, max_value=1000))
def test_ticket_pc_binds_every_field(fields, which, delta):
    kt = key(crypto.KeyRole.LT_TICKET)
    bounds = (10**8, 10**8, 10**24, 10**8)
    mutated = list(fields)
    mutated[which] = (mutated[which] + delta) % bounds[which]
    if tuple(mutated) == fields:
        return
    assert crypto.make_iot_ticket_pc(kt, *fields) != crypto.make_iot_ticket_pc(kt, *mutated)


def test_ticket_rejects_unrenderable_fields():
    kt = key(crypto.KeyRole.LT_TICKET)
    with pytest.raises(FieldWidthError):
        crypto.make_iot_ticket_g(kt, 10**8, 2001, 0, 101)  # id_c too wide
    with pytest.raises(FieldWidthError):
        crypto.make_iot_ticket_pc(kt, 1001, 2001, 10**24, 101)  # co_pc too wide
    with pytest.raises(FieldWidthError):
        crypto.make_iot_ticket_g(kt, -1, 2001, 0, 101)


def test_authenticator_g_is_ts_bound():
    sk = crypto.SymmetricKey(b"\x33" * 32, crypto.KeyRole.SESSION)
    a1 = crypto.service_authenticator_g(sk, 1_700_000_000)
    a2 = crypto.service_authenticator_g(sk, 1_700_000_001)
    assert a1 != a2


# --- attestation -----------------------------------------------------------------

def test_attestation_key_is_challenge_bound():
    kk = key(crypto.KeyRole.LT_SESSKEY)
    rng = Rng(5)
    challenges = {rng.challenge() for _ in range(10)}
    keys = {crypto.derive_attestation_key(kk, c).hex() for c in challenges}
    assert len(keys) == len(challenges)


def test_attest_memory_hash_then_mac():
    att = crypto.SymmetricKey(b"\x44" * 32, crypto.KeyRole.ATTESTATION)
    memory = bytes(range(256)) * 8
    report = crypto.attest_memory(att, memory)
    # Verifier route: HMAC over a stored SHA-256 of the reference image.
    assert report == crypto.attest_digest(att, hashlib.sha256(memory).digest())


def test_attest_memory_detects_single_byte_change():
    att = crypto.SymmetricKey(b"\x44" * 32, crypto.KeyRole.ATTESTATION)
    memory = bytearray(b"\x00" * 1024)
    base = crypto.attest_memory(att, bytes(memory))
    memory[512] ^= 0x01
    assert crypto.attest_memory(att, bytes(memory)) != base


def test_attest_empty_memory_rejected():
    att = crypto.SymmetricKey(b"\x44" * 32, crypto.KeyRole.ATTESTATION)
    with pytest.raises(EmptyMemory):
        crypto.attest_memory(att, b"")


def test_deterministic_rng_reproduces_keys():
    a = Rng(42)
    b = Rng(42)
    assert a.key_bytes() == b.key_bytes()
    assert a.challenge() == b.challenge()
    assert Rng(43).key_bytes() != Rng(42).key_bytes()
