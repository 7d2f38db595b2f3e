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


SAMPLES = [
    wire.SyncRequest(id_dev=101, co_sync=7, mac="ab" * 32),
    wire.SyncResponse(id_isv=1, co_sync=9, sync_val=1_700_000_000, mac="cd" * 32),
    wire.AttestRequest(id_isv=1, challenge="ef" * 16, mac="01" * 32),
    wire.AttestResponse(id_dev=101, attst_hmac="23" * 32),
    wire.ServiceRequestG(
        cmd="LED_ON", id_c=1001, ad_c=2001, lifetime=1_700_000_600, ticket="45" * 32,
        ts=1_700_000_000_000_001, authenticator="67" * 32,
    ),
    wire.ServiceRequestPC(cmd="ATTEST", id_c=1001, ad_c=2001, co_pc=1_700_000_005, ticket="89" * 32),
]
DECIMAL = {wire.FieldKind.NUMERIC_ID, wire.FieldKind.COUNTER, wire.FieldKind.TIMESTAMP, wire.FieldKind.LIFETIME}
HEX = {wire.FieldKind.CHALLENGE, wire.FieldKind.HEX_MAC}


def _spans(cls):
    pos = 0
    for f in cls.FIELDS:
        yield f, pos, pos + f.width
        pos += f.width


def _malformed_cases():
    """(id, frame class, bytes, error class) for one defect at a time."""
    for frame in SAMPLES:
        cls, data = type(frame), frame.encode()
        name = cls.__name__
        yield f"{name}-short", cls, data[:-1], LengthMismatch
        yield f"{name}-long", cls, data + b"0", LengthMismatch
        for f, start, end in _spans(cls):
            def at(offset, text):
                return data[:offset] + text + data[offset + len(text):]

            yield f"{name}-{f.name}-non-ascii", cls, at(start, b"\xff"), FieldFormatError
            if f.kind in DECIMAL:
                yield f"{name}-{f.name}-non-digit", cls, at(end - 1, b"x"), FieldFormatError
                yield f"{name}-{f.name}-sign", cls, at(start, b"+"), FieldFormatError
            elif f.kind in HEX:
                yield f"{name}-{f.name}-uppercase", cls, at(end - 1, b"A"), FieldFormatError
                yield f"{name}-{f.name}-non-hex", cls, at(start, b"g"), FieldFormatError
            else:
                yield f"{name}-{f.name}-lowercase", cls, at(start, b"l"), FieldFormatError
                yield f"{name}-{f.name}-leading-space", cls, at(start, b" "), FieldFormatError
                yield f"{name}-{f.name}-inner-space", cls, at(start, b"LED ON  "), FieldFormatError
                yield f"{name}-{f.name}-blank", cls, at(start, b" " * f.width), FieldFormatError


MALFORMED = list(_malformed_cases())


@pytest.mark.parametrize("cls,data,error", [c[1:] for c in MALFORMED], ids=[c[0] for c in MALFORMED])
def test_decode_rejects_each_malformed_field(cls, data, error):
    with pytest.raises(error):
        cls.decode(data)


@pytest.mark.parametrize("frame", SAMPLES, ids=lambda f: type(f).__name__)
def test_decoded_frame_equals_constructed_and_keeps_its_bytes(frame):
    data = frame.encode()
    decoded = type(frame).decode(data)
    assert decoded == frame and hash(decoded) == hash(frame)
    assert decoded.encode() == data
    for f, start, end in _spans(type(frame)):
        assert decoded.field_bytes(f.name) == frame.field_bytes(f.name) == data[start:end]
    first, last = frame.FIELDS[0].name, frame.FIELDS[-1].name
    assert decoded.field_bytes(first, last) == data


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


@pytest.mark.parametrize("text", ["[]", "5", '"text"', "null", "true"])
def test_parse_json_wants_an_object(text):
    with pytest.raises(FieldFormatError, match="^reply is not a JSON object$"):
        wire.parse_json(text, "reply")


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
