"""In-process message fabric with adversarial hooks.

Every datagram, and every ticket API request and reply as HTTP/1.1 bytes,
flows through one :class:`VirtualTransport`. Frames are queued
with a global sequence number and delivered in order by :meth:`pump`, so a
run is a pure function of the scenario script and the world seed.

Adversarial hooks are one-shot: each hook arms against the *next* frame
matching its (src, dst) filter and then disarms. This keeps scripts
readable — "drop the next sync response" is one line — while still
composing, since hooks are consumed strictly in arming order.
"""

from __future__ import annotations

import base64
import dataclasses
import heapq
import io
from typing import Callable, Optional

from ..errors import ScriptError, Timeout
from ..net import Network, read_reply, render_request, split_url

Handler = Callable[[bytes, str, Callable[[str, bytes], None]], None]

MAX_PUMP_STEPS = 10_000


@dataclasses.dataclass
class _Hook:
    action: str  # drop | duplicate | tamper | delay | capture
    src: Optional[str] = None
    dst: Optional[str] = None
    offset: int = 0
    xor: int = 0xFF
    steps: int = 1
    slot: str = ""

    def matches(self, src: str, dst: str) -> bool:
        return (self.src is None or self.src == src) and (self.dst is None or self.dst == dst)


@dataclasses.dataclass(frozen=True)
class CapturedFrame:
    src: str
    dst: str
    payload: bytes


class VirtualTransport:
    """Orders, observes and optionally mangles every frame in the world."""

    def __init__(self) -> None:
        self._handlers: dict[str, Handler] = {}
        self._queue: list[tuple[int, int, str, str, bytes]] = []  # (due, tiebreak, ...)
        self._seq = 0
        self._hooks: list[_Hook] = []
        self._pending_notes: dict[tuple[int, str, str], list[str]] = {}
        self.transcript: list[dict] = []
        self.captures: dict[str, CapturedFrame] = {}

    # --- wiring ----------------------------------------------------------------

    def register(self, addr: str, handler: Handler) -> None:
        if addr in self._handlers:
            raise ScriptError(f"address {addr!r} already registered")
        self._handlers[addr] = handler

    def sender_for(self, addr: str) -> Callable[[str, bytes], None]:
        """The ``send(dst, payload)`` callback actors use to talk."""
        return lambda dst, payload: self.send(addr, dst, payload)

    # --- adversarial hooks --------------------------------------------------------

    def arm(self, hook: _Hook) -> None:
        self._hooks.append(hook)

    def drop_next(self, src: Optional[str] = None, dst: Optional[str] = None) -> None:
        self.arm(_Hook("drop", src, dst))

    def duplicate_next(self, src: Optional[str] = None, dst: Optional[str] = None) -> None:
        self.arm(_Hook("duplicate", src, dst))

    def tamper_next(
        self,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        offset: int = 0,
        xor: int = 0xFF,
    ) -> None:
        self.arm(_Hook("tamper", src, dst, offset=offset, xor=xor))

    def delay_next(
        self, src: Optional[str] = None, dst: Optional[str] = None, steps: int = 1
    ) -> None:
        self.arm(_Hook("delay", src, dst, steps=steps))

    def capture_next(
        self, slot: str, src: Optional[str] = None, dst: Optional[str] = None
    ) -> None:
        self.arm(_Hook("capture", src, dst, slot=slot))

    def replay_slot(self, slot: str) -> None:
        """Re-send a captured frame verbatim, spoofing the original source."""
        try:
            frame = self.captures[slot]
        except KeyError:
            raise ScriptError(f"nothing captured in slot {slot!r}") from None
        self.send(frame.src, frame.dst, frame.payload, note=f"replay:{slot}")

    # --- frame flow ----------------------------------------------------------------

    def send(self, src: str, dst: str, payload: bytes, note: Optional[str] = None) -> None:
        delay = 0
        notes = [note] if note else []
        for hook in list(self._hooks):
            if not hook.matches(src, dst):
                continue
            self._hooks.remove(hook)
            if hook.action == "drop":
                self._record(src, dst, payload, "dropped", notes)
                return
            if hook.action == "duplicate":
                notes.append("duplicated")
                self._enqueue(src, dst, payload, 0)
            elif hook.action == "tamper":
                if hook.offset >= len(payload):
                    raise ScriptError(
                        f"tamper offset {hook.offset} beyond frame of {len(payload)} bytes"
                    )
                mangled = bytearray(payload)
                mangled[hook.offset] ^= hook.xor & 0xFF
                payload = bytes(mangled)
                notes.append(f"tampered@{hook.offset}")
            elif hook.action == "delay":
                delay = hook.steps
                notes.append(f"delayed+{hook.steps}")
            elif hook.action == "capture":
                self.captures[hook.slot] = CapturedFrame(src, dst, payload)
                notes.append(f"captured:{hook.slot}")
            break  # one hook per frame; the rest stay armed
        self._enqueue(src, dst, payload, delay, notes)

    def _enqueue(self, src: str, dst: str, payload: bytes, delay: int, notes=None) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (self._seq + delay, self._seq, src, dst, payload))
        if notes:
            self._pending_notes[(self._seq, src, dst)] = list(notes)

    def pump(self) -> int:
        """Deliver until the fabric is quiet; returns frames delivered."""
        delivered = 0
        while self._queue:
            if delivered >= MAX_PUMP_STEPS:
                raise ScriptError("message fabric did not quiesce (routing loop?)")
            _, seq, src, dst, payload = heapq.heappop(self._queue)
            notes = self._pending_notes.pop((seq, src, dst), [])
            handler = self._handlers.get(dst)
            if handler is None:
                self._record(src, dst, payload, "unrouteable", notes)
                continue
            self._record(src, dst, payload, "delivered", notes)
            handler(payload, src, self.sender_for(dst))
            delivered += 1
        return delivered

    def _record(self, src: str, dst: str, payload: bytes, status: str, notes) -> None:
        entry = {
            "n": len(self.transcript),
            "src": src,
            "dst": dst,
            "len": len(payload),
            "data": payload.hex(),
            "status": status,
        }
        if notes:
            entry["notes"] = list(notes)
        self.transcript.append(entry)

    # --- transcript inspection -------------------------------------------------------

    def transcript_contains(self, secret: bytes) -> bool:
        """True if any on-wire frame leaks ``secret`` in a usable encoding.

        Checks the raw bytes plus the two encodings this codebase puts into
        frames: lowercase hex and standard base64.
        """
        needles = [
            secret,
            secret.hex().encode("ascii"),
            base64.b64encode(secret),
        ]
        for entry in self.transcript:
            blob = bytes.fromhex(entry["data"])
            if any(needle in blob for needle in needles):
                return True
        return False


class SimNetwork(Network):
    """Client-side :class:`Network` that rides the virtual transport.

    Each client owns one address on the fabric; request/response is
    emulated by pumping the fabric to quiescence and then collecting the
    first frame delivered back to that address. A ticket API request goes
    to ``isv:http`` as the same HTTP/1.1 bytes the live client sends, and
    its reply comes back as the bytes the live daemon writes, so ticket
    traffic shows up in the transcript like everything else.
    """

    def __init__(self, transport: VirtualTransport, addr: str) -> None:
        self.transport = transport
        self.addr = addr
        # The fabric holds only the inbox, not this network, so the two do
        # not keep each other alive.
        inbox: list[bytes] = []
        self._inbox = inbox
        transport.register(addr, lambda data, src, send: inbox.append(data))

    def _await_reply(self, what: str) -> bytes:
        self.transport.pump()
        if not self._inbox:
            raise Timeout(f"no reply from {what}")
        reply = self._inbox.pop(0)
        self._inbox.clear()  # request/response discipline: drop stragglers
        return reply

    def udp_call(self, addr: object, payload: bytes, timeout: float = 2.0) -> bytes:
        self._inbox.clear()
        self.transport.send(self.addr, str(addr), payload)
        return self._await_reply(str(addr))

    def http_post(
        self, url: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, dict[str, str], bytes]:
        host, target = split_url(url)
        self._inbox.clear()
        self.transport.send(self.addr, "isv:http", render_request(host, target, headers, body))
        return read_reply(io.BytesIO(self._await_reply("isv:http")))[:3]
