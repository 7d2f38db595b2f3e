"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each kesic layer from outside the
package: every module-level alias of a wrapped function is replaced (``kdc``
imports ``seal_json``/``open_json`` by name, ``isv`` imports ``verify_ap`` by
name), and methods are replaced on each public class that resolves them, so
classmethods such as the inherited frame ``decode`` are caught on every frame
class. Install the wrappers before the world or topology is built, because
the simulated fabric keeps bound handler methods captured at build time.

Wrappers record only while ``active`` is true. The benchmark alternates
active and inactive slices of the timed phase, so one process measures both
the traced and the untraced rate. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

import kesic.client
import kesic.crypto
import kesic.device
import kesic.errors
import kesic.harness.transport
import kesic.isv
import kesic.kdc
import kesic.net
import kesic.wire

_FRAMES = (
    kesic.wire.SyncRequest,
    kesic.wire.SyncResponse,
    kesic.wire.AttestRequest,
    kesic.wire.AttestResponse,
    kesic.wire.ServiceRequestG,
    kesic.wire.ServiceRequestPC,
)
_TICKET_JSON = (kesic.wire.TicketRequestJson, kesic.wire.TicketResponseJson)

# (span name, classes, attribute) for methods; module functions are below.
METHODS = [
    ("kdc.handle_datagram", (kesic.kdc.Kdc,), "handle_datagram"),
    ("kdc.as_exchange", (kesic.kdc.Kdc,), "as_exchange"),
    ("kdc.tgs_exchange", (kesic.kdc.Kdc,), "tgs_exchange"),
    # One class serves both caches; _replay_name tells them apart.
    ("kdc.replay_check", (kesic.kdc.ReplayCache,), "check_and_add"),
    ("isv.handle_http", (kesic.isv.TicketManager,), "handle_http"),
    ("isv.next_co_pc", (kesic.isv.DeviceRegistry,), "next_co_pc"),
    ("isv.snapshot", (kesic.isv.DeviceRegistry,), "snapshot"),
    ("isv.handle_sync", (kesic.isv.SyncManager,), "handle_sync"),
    ("isv.handle_attest", (kesic.isv.SyncManager,), "handle_attest"),
    ("device.handle_datagram", (kesic.device.GeneralDevice, kesic.device.PowerDevice), "handle_datagram"),
    ("device.general_service", (kesic.device.GeneralRot,), "handle_service"),
    ("device.power_service", (kesic.device.PowerRot,), "handle_service"),
    ("device.attest_request", (kesic.device.PowerRot,), "handle_attest_request"),
    ("device.begin_sync", (kesic.device.RotBase,), "begin_sync"),
    ("client.login", (kesic.client.ClientSession,), "login"),
    ("client.get_iot_ticket", (kesic.client.ClientSession,), "get_iot_ticket"),
    ("client.call_device", (kesic.client.ClientSession,), "call_device"),
    ("client.cache_save", (kesic.client.CredentialCache,), "save"),
    ("wire.encode", _FRAMES, "encode"),
    ("wire.decode", _FRAMES, "decode"),
    ("wire.ticket_json", _TICKET_JSON, "to_json"),
    ("wire.ticket_json", _TICKET_JSON, "from_json"),
    ("harness.transport.send", (kesic.harness.transport.VirtualTransport,), "send"),
    ("harness.transport.pump", (kesic.harness.transport.VirtualTransport,), "pump"),
    ("net.udp_call", (kesic.net.SocketNetwork,), "udp_call"),
    ("net.http_post", (kesic.net.SocketNetwork,), "http_post"),
]
FUNCTIONS = [
    ("isv.verify_ap", kesic.kdc.verify_ap),
    ("crypto.seal_json", kesic.crypto.seal_json),
    ("crypto.open_json", kesic.crypto.open_json),
    ("crypto.hmac", kesic.crypto.hmac_sha256),
]
SPAN_NAMES = sorted({name for name, *_ in METHODS + FUNCTIONS} | {"isv.replay_check"})
COUNTS = [
    ("isv.state_bytes_per_write", "bytes", "isv.snapshot"),
    ("client.cache_bytes_per_save", "bytes", "client.cache_save"),
    ("harness.transport.frames_per_op", "frames/op", None),
    ("harness.transport.bytes_per_op", "bytes/op", None),
    ("net.timeouts", "count", None),
]


class _ThreadState(threading.local):
    def __init__(self, sink: list) -> None:
        self.stack: list[tuple[int, str]] = []
        self.spans: list[tuple] = []
        sink.append(self.spans)


class Tracer:
    """Wraps the layer functions; records (id, name, start, end, parent, op) spans."""

    def __init__(self) -> None:
        self.active = False
        self.op = threading.local()  # .value: id of the user op in flight
        self._span_lists: list[list] = []
        self._state = _ThreadState(self._span_lists)
        self._ids = itertools.count(1)
        self._restore: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._count_lock = threading.Lock()
        self.state_path: str | None = None  # ISV counter file, for state_bytes

    def count(self, metric: str, n: int = 1) -> None:
        with self._count_lock:
            self.counts[metric] += n

    # --- installation -----------------------------------------------------------

    def install(self) -> None:
        for name, classes, attr in METHODS:
            for cls in classes:
                raw = inspect.getattr_static(cls, attr)
                self._restore.append((cls, attr, cls.__dict__.get(attr)))
                setattr(cls, attr, self._wrap_descriptor(name, raw))
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "kesic"]
        for name, fn in FUNCTIONS:
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def remove(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def _wrap_descriptor(self, name: str, raw):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(name, raw.__func__))
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap(name, raw.__func__))
        return self._wrap(name, raw)

    def _wrap(self, name: str, fn):
        tracer = self
        state = self._state
        ids = self._ids
        clock = time.perf_counter_ns
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = state.stack
            span_name = _replay_name(stack) if name == "kdc.replay_check" else name
            span_id = next(ids)
            parent = stack[-1][0] if stack else 0
            stack.append((span_id, span_name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except kesic.errors.Timeout:
                if span_name.startswith("net."):
                    tracer.count("net.timeouts")
                raise
            finally:
                end = clock()
                stack.pop()
                state.spans.append(
                    (span_id, span_name, start, end, parent, getattr(tracer.op, "value", 0))
                )
            if after is not None:
                after(tracer, args)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    # --- results ------------------------------------------------------------------

    def spans(self) -> list[tuple]:
        return [span for spans in self._span_lists for span in spans]

    def write(self, path: str) -> None:
        """Writes every span as one CSV line: id,name,start_ns,end_ns,parent,op."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_ns,end_ns,parent,op\n")
            for span in sorted(self.spans()):
                fh.write(",".join(map(str, span)) + "\n")

    def layer_metrics(self, ops: int, busy_ns: int) -> dict:
        """Per-function calls_per_op, self_us_per_call and share, plus the counts.

        ``busy_ns`` is the traced wall time times the number of client
        threads, so shares on every workload add up to at most 1.
        """
        spans = self.spans()
        child_ns: dict[int, int] = defaultdict(int)
        for span_id, _, start, end, parent, _ in spans:
            child_ns[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for span_id, name, start, end, _, _ in spans:
            calls[name] += 1
            self_ns[name] += end - start - child_ns.get(span_id, 0)
        out = {}
        for name in SPAN_NAMES:
            n = calls.get(name, 0)
            out[f"{name}.calls_per_op"] = (n / ops if ops else 0.0, "calls/op")
            out[f"{name}.self_us_per_call"] = (self_ns[name] / n / 1e3 if n else 0.0, "us")
            out[f"{name}.share"] = (self_ns[name] / busy_ns if busy_ns else 0.0, "ratio")
        for metric, unit, per_call_of in COUNTS:
            total = self.counts.get(metric, 0)
            if per_call_of is not None:
                n = calls.get(per_call_of, 0)
                out[metric] = (total / n if n else 0.0, unit)
            elif unit.endswith("/op"):
                out[metric] = (total / ops if ops else 0.0, unit)
            else:
                out[metric] = (float(total), unit)
        return out


def _replay_name(stack: list[tuple[int, str]]) -> str:
    # The ticket API reaches the replay cache only through verify_ap; the
    # KDC's TGS exchange calls its own cache directly.
    return "isv.replay_check" if stack and stack[-1][1] == "isv.verify_ap" else "kdc.replay_check"


def _after_snapshot(tracer: Tracer, args: tuple) -> None:
    if tracer.state_path and os.path.exists(tracer.state_path):
        tracer.count("isv.state_bytes_per_write", os.path.getsize(tracer.state_path))


def _after_cache_save(tracer: Tracer, args: tuple) -> None:
    path = args[0].path
    if path and os.path.exists(path):
        tracer.count("client.cache_bytes_per_save", os.path.getsize(path))


def _after_send(tracer: Tracer, args: tuple) -> None:
    tracer.count("harness.transport.frames_per_op")
    tracer.count("harness.transport.bytes_per_op", len(args[3]))


_AFTER = {
    "isv.snapshot": _after_snapshot,
    "client.cache_save": _after_cache_save,
    "harness.transport.send": _after_send,
}
