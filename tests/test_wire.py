"""Codec round trips, canonical rendering, and the pinned frame sizes."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kesic import wire
from kesic.errors import FieldFormatError, LengthMismatch, Overflow

GOLDEN_SIZES = {
    wire.SyncRequest: 104,
    wire.SyncResponse: 136,
    wire.AttestRequest: 104,
    wire.AttestResponse: 72,
    wire.ServiceRequestG: 208,
    wire.ServiceRequestPC: 112,
}


@pytest.mark.parametrize("cls,size", sorted(GOLDEN_SIZES.items(), key=lambda kv: kv[0].__name__))
def test_golden_sizes(cls, size):
    assert cls.size() == size


hex64 = st.text(alphabet="0123456789abcdef", min_size=64, max_size=64)
hex32 = st.text(alphabet="0123456789abcdef", min_size=32, max_size=32)
num_id = st.integers(min_value=0, max_value=10**8 - 1)
co_sync = st.integers(min_value=0, max_value=10**32 - 1)
co_pc = st.integers(min_value=0, max_value=10**24 - 1)
ts28 = st.integers(min_value=0, max_value=10**28 - 1)
ts32 = st.integers(min_value=0, max_value=10**32 - 1)
cmd = st.sampled_from([wire.CMD_LED_ON, wire.CMD_LED_OFF, wire.CMD_ATTEST, "X", "A1_B2"])

frame_strategies = [
    st.builds(wire.SyncRequest, id_dev=num_id, co_sync=co_sync, mac=hex64),
    st.builds(wire.SyncResponse, id_isv=num_id, co_sync=co_sync, sync_val=ts32, mac=hex64),
    st.builds(wire.AttestRequest, id_isv=num_id, challenge=hex32, mac=hex64),
    st.builds(wire.AttestResponse, id_dev=num_id, attst_hmac=hex64),
    st.builds(
        wire.ServiceRequestG,
        cmd=cmd, id_c=num_id, ad_c=num_id, lifetime=ts28, ticket=hex64, ts=ts28, authenticator=hex64,
    ),
    st.builds(wire.ServiceRequestPC, cmd=cmd, id_c=num_id, ad_c=num_id, co_pc=co_pc, ticket=hex64),
]


@settings(max_examples=50, deadline=None)
@given(frame=st.one_of(*frame_strategies))
def test_encode_decode_round_trip(frame):
    data = frame.encode()
    assert len(data) == frame.size()
    assert type(frame).decode(data) == frame


def test_sample_frame_bytes_pinned():
    frame = wire.SyncRequest(id_dev=101, co_sync=7, mac="ab" * 32)
    assert frame.encode() == b"00000101" + b"0" * 31 + b"7" + b"ab" * 32


def test_command_padding():
    frame = wire.ServiceRequestPC(cmd="LED_ON", id_c=1, ad_c=2, co_pc=3, ticket="0" * 64)
    assert frame.encode()[:8] == b"LED_ON  "
    assert wire.ServiceRequestPC.decode(frame.encode()).cmd == "LED_ON"


def test_decode_wrong_length():
    data = wire.SyncRequest(id_dev=1, co_sync=1, mac="0" * 64).encode()
    with pytest.raises(LengthMismatch):
        wire.SyncRequest.decode(data[:-1])
    with pytest.raises(LengthMismatch):
        wire.SyncRequest.decode(data + b"0")


def test_decode_bad_decimal():
    data = bytearray(wire.SyncRequest(id_dev=1, co_sync=1, mac="0" * 64).encode())
    data[0] = ord("x")
    with pytest.raises(FieldFormatError):
        wire.SyncRequest.decode(bytes(data))


def test_decode_bad_hex():
    data = bytearray(wire.SyncRequest(id_dev=1, co_sync=1, mac="0" * 64).encode())
    data[-1] = ord("G")
    with pytest.raises(FieldFormatError):
        wire.SyncRequest.decode(bytes(data))


def test_decode_non_ascii():
    data = bytearray(wire.SyncRequest(id_dev=1, co_sync=1, mac="0" * 64).encode())
    data[0] = 0xFF
    with pytest.raises(FieldFormatError):
        wire.SyncRequest.decode(bytes(data))


def test_render_overflow_and_negatives():
    assert wire.render(wire.FieldKind.COUNTER, 32, 42) == "0" * 30 + "42"
    with pytest.raises(Overflow):
        wire.render(wire.FieldKind.COUNTER, 32, 10**32)
    with pytest.raises(FieldFormatError):
        wire.render(wire.FieldKind.COUNTER, 32, -1)
    with pytest.raises(Overflow):
        wire.render(wire.FieldKind.NUMERIC_ID, 8, 10**8)
    with pytest.raises(Overflow):
        wire.render(wire.FieldKind.COMMAND, 8, "TOO_LONG_CMD")
    with pytest.raises(FieldFormatError):
        wire.render(wire.FieldKind.COMMAND, 8, "led_on")  # lowercase not allowed
    with pytest.raises(FieldFormatError):
        wire.render(wire.FieldKind.HEX_MAC, 64, "AB" * 32)  # uppercase hex


def test_encode_rejects_bool():
    with pytest.raises(FieldFormatError):
        wire.render(wire.FieldKind.NUMERIC_ID, 8, True)


def test_mac_input_is_frame_prefix():
    frame = wire.SyncResponse(id_isv=1, co_sync=9, sync_val=1_700_000_000, mac="f" * 64)
    data = frame.encode()
    assert wire.mac_input(frame) == data[:-64]
    with pytest.raises(FieldFormatError):
        wire.mac_input(wire.AttestResponse(id_dev=1, attst_hmac="0" * 64))


def test_encode_fields_order_follows_caller():
    frame = wire.ServiceRequestG(
        cmd="LED_ON", id_c=1001, ad_c=2001, lifetime=5, ticket="0" * 64, ts=7, authenticator="0" * 64
    )
    out = wire.encode_fields(frame, "id_c", "ad_c", "lifetime")
    assert out == b"00001001" + b"00002001" + b"0" * 27 + b"5"


# --- ticket API JSON --------------------------------------------------------------

def test_ticket_request_json_round_trip():
    req = wire.TicketRequestJson(user_name="alice", device_id="bulb")
    assert wire.TicketRequestJson.from_json(req.to_json()) == req


def test_ticket_request_json_exact_keys():
    with pytest.raises(FieldFormatError):
        wire.TicketRequestJson.from_json('{"user_name": "a"}')
    with pytest.raises(FieldFormatError):
        wire.TicketRequestJson.from_json('{"user_name": "a", "device_id": "b", "x": 1}')
    with pytest.raises(FieldFormatError):
        wire.TicketRequestJson.from_json("[1,2]")
    with pytest.raises(FieldFormatError):
        wire.TicketRequestJson.from_json("not json")


def test_ticket_response_json_round_trip_and_validation():
    resp = wire.TicketResponseJson(
        device_id=101, nonce=1_700_000_600, session_key="a" * 64, ticket="b" * 64, timestamp=1_700_000_000
    )
    assert wire.TicketResponseJson.from_json(resp.to_json()) == resp
    with pytest.raises(FieldFormatError):
        wire.TicketResponseJson.from_json(
            '{"device_id": 1, "nonce": 2, "session_key": "xyz", "ticket": "%s", "timestamp": 3}' % ("b" * 64)
        )
    with pytest.raises(FieldFormatError):
        wire.TicketResponseJson.from_json(
            '{"device_id": true, "nonce": 2, "session_key": "%s", "ticket": "%s", "timestamp": 3}'
            % ("a" * 64, "b" * 64)
        )
