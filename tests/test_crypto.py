"""Primitives and keyed derivations.

The HMAC oracle is RFC 4231 test cases 1-4, frozen as literals. The scrypt
golden vector was generated once from the reference KDF and pinned; any
parameter drift breaks it.
"""

from __future__ import annotations

import base64
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


def key(byte=0x11) -> crypto.SymmetricKey:
    return crypto.SymmetricKey(bytes([byte]) * 32)


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
    assert len(tag) == 64
    assert bytes.fromhex(tag) == crypto.hmac_sha256(key().raw(), b"x")


def test_verify_tag():
    k = key()
    tag = crypto.hmac_tag(k, b"msg")
    assert crypto.verify_tag(k, b"msg", tag)
    assert not crypto.verify_tag(k, b"msh", tag)
    assert not crypto.verify_tag(key(byte=0x12), b"msg", tag)


def test_key_repr_hides_bytes():
    k = key(byte=0x5A)
    assert k.hex() not in repr(k)


def test_keys_compare_by_bytes():
    assert key(byte=0x21) == key(byte=0x21)
    assert hash(key(byte=0x21)) == hash(key(byte=0x21))
    assert key(byte=0x21) != key(byte=0x22)


# --- sealed JSON ----------------------------------------------------------------

def test_seal_open_round_trip():
    k = key()
    for obj in ("hello world", {"nested": {"ts": 1, "names": ["dev-1", "é"]}}, [], 0):
        assert crypto.open_json(k, crypto.seal_json(k, obj, Rng(1))) == obj


def test_seal_json_round_trip_and_fresh_nonces():
    rng = Rng(7)
    k = key()
    obj = {"k": "00" * 32, "ts": 123}
    blob1 = crypto.seal_json(k, obj, rng)
    blob2 = crypto.seal_json(k, obj, rng)
    assert blob1 != blob2  # per-message nonce
    assert crypto.open_json(k, blob1) == obj
    assert crypto.open_json(k, blob2) == obj


def test_open_wrong_key_fails_closed():
    blob = crypto.seal_json(key(byte=1), {"secret": 1}, Rng(1))
    with pytest.raises(AuthFailure):
        crypto.open_json(key(byte=2), blob)


def test_open_tampered_box_fails_closed():
    k = key()
    raw = base64.b64decode(crypto.seal_json(k, {"secret": "payload"}, Rng(1)))
    for byte_index in (0, crypto.NONCE_LEN):  # a nonce byte and a ciphertext byte
        for bit in range(8):
            mutated = bytearray(raw)
            mutated[byte_index] ^= 1 << bit
            with pytest.raises(AuthFailure):
                crypto.open_json(k, base64.b64encode(bytes(mutated)).decode("ascii"))


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
    k = key()
    frame = wire.SyncRequest(id_dev=101, co_sync=7, mac="0" * 64)
    tag = crypto.sync_request_mac(k, 101, 7)
    assert tag == crypto.hmac_tag(k, wire.mac_input(frame))


def test_sync_response_mac_matches_wire_prefix():
    k = key()
    frame = wire.SyncResponse(id_isv=1, co_sync=7, sync_val=1_700_000_123, mac="0" * 64)
    tag = crypto.sync_response_mac(k, 1, 7, 1_700_000_123)
    assert tag == crypto.hmac_tag(k, wire.mac_input(frame))


def test_attest_request_mac_matches_wire_prefix():
    k = key()
    challenge = "ab" * 16
    frame = wire.AttestRequest(id_isv=1, challenge=challenge, mac="0" * 64)
    tag = crypto.attest_request_mac(k, 1, challenge)
    assert tag == crypto.hmac_tag(k, wire.mac_input(frame))


def test_ticket_and_session_key_domains_differ():
    kt = key(byte=0x21)
    ks = key(byte=0x22)
    ticket = crypto.make_iot_ticket_g(kt, 1001, 2001, 1_700_003_600, 101)
    skey = crypto.make_session_key_g(ks, 1001, 2001, 1_700_003_600, 101)
    assert ticket != skey.hex()


field_tuples_g = st.tuples(
    st.integers(min_value=0, max_value=10**8 - 1),
    st.integers(min_value=0, max_value=10**8 - 1),
    st.integers(min_value=0, max_value=10**28 - 1),
    st.integers(min_value=0, max_value=10**8 - 1),
)


@settings(max_examples=60, deadline=None)
@given(fields=field_tuples_g, which=st.integers(min_value=0, max_value=3), delta=st.integers(min_value=1, max_value=1000))
def test_ticket_g_binds_every_field(fields, which, delta):
    kt = key()
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
    kt = key()
    bounds = (10**8, 10**8, 10**24, 10**8)
    mutated = list(fields)
    mutated[which] = (mutated[which] + delta) % bounds[which]
    if tuple(mutated) == fields:
        return
    assert crypto.make_iot_ticket_pc(kt, *fields) != crypto.make_iot_ticket_pc(kt, *mutated)


def test_ticket_rejects_unrenderable_fields():
    kt = key()
    with pytest.raises(FieldWidthError):
        crypto.make_iot_ticket_g(kt, 10**8, 2001, 0, 101)  # id_c too wide
    with pytest.raises(FieldWidthError):
        crypto.make_iot_ticket_pc(kt, 1001, 2001, 10**24, 101)  # co_pc too wide
    with pytest.raises(FieldWidthError):
        crypto.make_iot_ticket_g(kt, -1, 2001, 0, 101)


def test_authenticator_g_is_ts_bound():
    sk = crypto.SymmetricKey(b"\x33" * 32)
    a1 = crypto.service_authenticator_g(sk, 1_700_000_000)
    a2 = crypto.service_authenticator_g(sk, 1_700_000_001)
    assert a1 != a2


# --- attestation -----------------------------------------------------------------

def test_attestation_key_is_challenge_bound():
    kk = key()
    rng = Rng(5)
    challenges = {rng.challenge() for _ in range(10)}
    keys = {crypto.derive_attestation_key(kk, c).hex() for c in challenges}
    assert len(keys) == len(challenges)


def test_attest_memory_hash_then_mac():
    att = crypto.SymmetricKey(b"\x44" * 32)
    memory = bytes(range(256)) * 8
    report = crypto.attest_memory(att, memory)
    # Verifier route: HMAC over a stored SHA-256 of the reference image.
    assert report == crypto.attest_digest(att, hashlib.sha256(memory).digest())


def test_attest_memory_detects_single_byte_change():
    att = crypto.SymmetricKey(b"\x44" * 32)
    memory = bytearray(b"\x00" * 1024)
    base = crypto.attest_memory(att, bytes(memory))
    memory[512] ^= 0x01
    assert crypto.attest_memory(att, bytes(memory)) != base


def test_attest_empty_memory_rejected():
    att = crypto.SymmetricKey(b"\x44" * 32)
    with pytest.raises(EmptyMemory):
        crypto.attest_memory(att, b"")


def test_deterministic_rng_reproduces_keys():
    a = Rng(42)
    b = Rng(42)
    assert a.key_bytes() == b.key_bytes()
    assert a.challenge() == b.challenge()
    assert Rng(43).key_bytes() != Rng(42).key_bytes()
