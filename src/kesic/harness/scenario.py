"""Simulated world builder and scenario script runner.

A *world* is a complete in-process deployment: one KDC, one IoT server,
the provisioned device fleet and one client session per user, all sharing
a single virtual clock, a single seeded Rng and a single message fabric.
A *scenario* is a JSON document — a fleet (optional) plus a list of steps
— executed strictly in order. The result is a report dict that is a pure
function of (script, seed), which is what makes adversarial regressions
reproducible: re-running a red scenario replays the exact same bytes.

Step vocabulary (``op`` values)::

    note boot_device wake_device sleep_device advance_clock
    login get_ticket call attest
    mutate_memory restore_memory
    drop_next duplicate_next tamper_next delay_next capture_next
    replay_slot inject pump
    expect_led expect_synced expect_event expect_no_event
    expect_transcript_clean

Client-facing ops accept ``expect_error`` (an error class name) and
``call`` accepts ``expect_verdict``; expectations that do not hold make
the scenario fail without aborting the remaining steps.
"""

from __future__ import annotations

import base64
from typing import Optional

from .. import wire
from ..client import ClientConfig, ClientSession
from ..clock import VirtualClock
from ..device import DEVICE_CLASSES, DeviceProfile, GeneralDevice, PowerDevice
from ..errors import FieldFormatError, KesicError, ScriptError, error_name
from ..isv import Isv, IsvConfig, TicketManager
from ..kdc import Kdc
from ..net import sim_http_response
from ..provision import Fleet, FleetSpec, provision
from ..rng import Rng
from .transport import SimNetwork, VirtualTransport

DEFAULT_FLEET = {
    "clients": [
        {"name": "alice", "password": "correct-horse-battery-9"},
        {"name": "bob", "password": "swordfish-tuesday-17"},
        # mallory authenticates fine but is not eligible for the IoT service.
        {"name": "mallory", "password": "n0-service-f0r-you", "services": []},
    ],
    "devices": [
        {"name": "bulb", "type": "general"},
        {"name": "sensor", "type": "power"},
        {"name": "lock", "type": "general", "allow": ["alice"]},
    ],
}


class World:
    """Everything needed to run scripted exchanges in one process."""

    def __init__(self, spec: FleetSpec, seed: Optional[int]) -> None:
        self.seed = seed
        self.spec = spec
        self.clock = VirtualClock()
        self.rng = Rng(seed)
        self.fleet: Fleet = provision(spec, self.rng)
        self.transport = VirtualTransport()

        # Every actor loads the JSON object its daemon would read from a file.
        self.kdc = Kdc.from_json_obj(self.fleet.kdc_json(), clock=self.clock, rng=self.rng)
        config, records = IsvConfig.from_json_obj(self.fleet.isv_json())
        self.isv = Isv(config, records, clock=self.clock, rng=self.rng)
        self.clock.on_advance(self.isv.sync.expire_pending)

        # Handlers close over the actors, not over the world, so a dropped
        # world is freed by reference counting alone.
        kdc, tickets = self.kdc, self.isv.tickets
        self.transport.register("kdc", lambda data, src, send: send(src, kdc.handle_datagram(data, src)))
        self.transport.register("isv:sync", self.isv.sync.handle_sync)
        self.transport.register("isv:attest", self.isv.sync.handle_attest)
        self.transport.register("isv:http", lambda data, src, send: send(src, _http_endpoint(tickets, data)))

        self.devices: dict[str, GeneralDevice | PowerDevice] = {}
        for name, mat in self.fleet.devices.items():
            profile = DeviceProfile.from_json_obj(
                self.fleet.device_json(name),
                memory=mat.memory,
                isv_sync_addr="isv:sync",
                isv_attest_addr="isv:attest",
            )
            device = DEVICE_CLASSES[profile.dtype](profile, self.clock)
            self.devices[name] = device
            self.transport.register(f"dev:{name}", device.handle_datagram)

        self.clients: dict[str, ClientSession] = {}
        device_addrs = {d: f"dev:{d}" for d in self.fleet.devices}  # read-only, shared
        for name in self.fleet.clients:
            config = ClientConfig.from_json_obj(
                self.fleet.client_json(name),
                kdc_addr="kdc",
                isv_url="http://sim/",
                device_addrs=device_addrs,
            )
            network = SimNetwork(self.transport, f"client:{name}")
            self.clients[name] = ClientSession(config, network, clock=self.clock, rng=self.rng)

        # Session keys observed in client caches, for the transcript probe.
        self._runtime_secrets: dict[str, bytes] = {}

    @classmethod
    def build(cls, fleet: Optional[dict | FleetSpec] = None, seed: Optional[int] = None) -> "World":
        if fleet is None:
            spec = FleetSpec.from_dict(DEFAULT_FLEET)
        elif isinstance(fleet, FleetSpec):
            spec = fleet
        else:
            spec = FleetSpec.from_dict(fleet)
        return cls(spec, seed)

    # --- helpers ---------------------------------------------------------------

    def boot_all(self) -> None:
        for name, device in self.devices.items():
            if isinstance(device, PowerDevice):
                device.wake(self.transport.sender_for(f"dev:{name}"))
            else:
                device.boot(self.transport.sender_for(f"dev:{name}"))
            self.transport.pump()

    def device(self, name: str):
        try:
            return self.devices[name]
        except KeyError:
            raise ScriptError(f"unknown device {name!r}") from None

    def client(self, name: str) -> ClientSession:
        try:
            return self.clients[name]
        except KeyError:
            raise ScriptError(f"unknown client {name!r}") from None

    def all_events(self) -> list[dict]:
        events = list(self.isv.events)
        for name in sorted(self.devices):
            events.extend(self.devices[name].events)
        return events

    def _harvest_runtime_secrets(self) -> None:
        for name, session in self.clients.items():
            cache = session.cache
            if cache.tgt is not None:
                self._runtime_secrets[f"session:k_c_tgs:{name}"] = base64.b64decode(
                    cache.tgt["k"]
                )
            for sid, entry in cache.services.items():
                self._runtime_secrets[f"session:k_c_{sid}:{name}"] = base64.b64decode(
                    entry["k"]
                )
            for dev, entry in cache.devices.items():
                self._runtime_secrets[f"session:k_dev:{name}:{dev}"] = bytes.fromhex(
                    entry["session_key"]
                )

    def transcript_leaks(self) -> list[str]:
        """Names of provisioned or session secrets visible on the wire."""
        self._harvest_runtime_secrets()
        probes = list(self.fleet.secrets) + sorted(self._runtime_secrets.items())
        return [label for label, secret in probes if self.transport.transcript_contains(secret)]


def _http_endpoint(tickets: TicketManager, data: bytes) -> bytes:
    """The ticket API behind the simulated HTTP envelope of ``net.sim_http_payload``."""
    try:
        req = wire.parse_json(data.decode("utf-8"), "http envelope")
        status, headers, body = tickets.handle_http(
            req["method"], req["path"], dict(req["headers"]), req["body"].encode("utf-8")
        )
    except (FieldFormatError, ValueError, KeyError, TypeError, AttributeError):
        status, headers, body = 400, {}, b'{"error": "FieldFormatError"}'
    return sim_http_response(status, headers, body)


def step_op(index: int, step: object) -> str:
    """The ``op`` of a script step, or a ScriptError for a malformed step."""
    if not isinstance(step, dict) or "op" not in step:
        raise ScriptError(f"step {index} is not an object with an 'op'")
    return step["op"]


class ScenarioRunner:
    """Executes one script against a fresh world and accumulates a report.

    ``world`` is whatever :meth:`_open_world` returns; the client ops need
    only its ``fleet`` and ``client(name)``, so a live topology serves them
    too (see ``live.LiveScenarioRunner``).
    """

    def __init__(self, script: dict, seed: Optional[int] = None) -> None:
        if not isinstance(script, dict) or "steps" not in script:
            raise ScriptError("scenario must be an object with a 'steps' list")
        if not isinstance(script["steps"], list):
            raise ScriptError("'steps' must be a list")
        self.script = script
        seed = script.get("seed", seed) if seed is None else seed
        self.report: dict = {
            "name": script.get("name", "unnamed"),
            "seed": seed,
            "ok": True,
            "failures": [],
            "steps": [],
        }
        self.world = self._open_world(script.get("fleet"), seed)

    def _open_world(self, fleet: Optional[dict], seed: Optional[int]) -> World:
        world = World.build(fleet, seed)
        if self.script.get("autoboot", True):
            world.boot_all()
        return world

    # Each _op_* method returns a JSON-safe result for the step record.

    def run(self) -> dict:
        for index, step in enumerate(self.script["steps"]):
            self._run_step(index, step)
            self.world._harvest_runtime_secrets()
        self.report["events"] = self.world.all_events()
        self.report["transcript"] = self.world.transport.transcript
        self.report["ok"] = not self.report["failures"]
        return self.report

    def _fail(self, index: int, op: str, message: str) -> None:
        self.report["failures"].append({"step": index, "op": op, "message": message})

    def _run_step(self, index: int, step: object) -> None:
        op = step_op(index, step)
        step = dict(step)
        del step["op"]
        expect_error = step.pop("expect_error", None)
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise ScriptError(f"unknown op {op!r} at step {index}")
        record: dict = {"n": index, "op": op}
        try:
            result = handler(**step)
        except ExpectationMismatch as exc:
            record["error"] = "ExpectationMismatch"
            record["detail"] = str(exc)
            self._fail(index, op, str(exc))
        except KesicError as exc:
            if isinstance(exc, ScriptError):
                raise
            name = error_name(exc)
            record["error"] = name
            record["detail"] = str(exc)
            if expect_error is None:
                self._fail(index, op, f"unexpected {name}: {exc}")
            elif expect_error != name:
                self._fail(index, op, f"expected {expect_error}, got {name}: {exc}")
        except TypeError as exc:
            raise ScriptError(f"bad arguments for {op!r} at step {index}: {exc}") from exc
        else:
            if result is not None:
                record["result"] = result
            if expect_error is not None:
                self._fail(index, op, f"expected {expect_error}, but the step succeeded")
        self.report["steps"].append(record)

    # --- world mutation ---------------------------------------------------------

    def _op_note(self, text: str = "") -> str:
        return text

    def _op_boot_device(self, device: str):
        dev = self.world.device(device)
        dev.boot(self.world.transport.sender_for(f"dev:{device}"))
        self.world.transport.pump()
        return {"synced": dev.synced}

    def _op_wake_device(self, device: str):
        dev = self.world.device(device)
        if not isinstance(dev, PowerDevice):
            raise ScriptError(f"{device!r} is not a power-constrained device")
        dev.wake(self.world.transport.sender_for(f"dev:{device}"))
        self.world.transport.pump()
        return {"synced": dev.synced}

    def _op_sleep_device(self, device: str):
        dev = self.world.device(device)
        if not isinstance(dev, PowerDevice):
            raise ScriptError(f"{device!r} is not a power-constrained device")
        dev.sleep()
        self.world.isv.registry.mark_asleep(device)

    def _op_advance_clock(self, seconds: int):
        self.world.clock.advance(int(seconds))
        self.world.transport.pump()
        return {"now": self.world.clock.now()}

    def _op_pump(self):
        return {"delivered": self.world.transport.pump()}

    def _op_mutate_memory(self, device: str, offset: int = 0, xor: int = 0xFF):
        dev = self.world.device(device)
        dev.memory[offset % len(dev.memory)] ^= xor & 0xFF

    def _op_restore_memory(self, device: str):
        dev = self.world.device(device)
        dev.memory[:] = self.world.fleet.devices[device].memory

    # --- client actions ---------------------------------------------------------

    def _op_login(self, client: str, password: Optional[str] = None):
        session = self.world.client(client)
        if password is None:
            password = self.world.fleet.clients[client].spec.password
        session.login(password)

    def _op_get_ticket(self, client: str, device: str):
        entry = self.world.client(client).get_iot_ticket(device)
        return {"dtype": entry["dtype"], "nonce": entry["nonce"]}

    def _op_call(
        self,
        client: str,
        device: str,
        cmd: str,
        force: bool = False,
        expect_verdict: Optional[str] = None,
    ):
        outcome = self.world.client(client).call_device(device, cmd, force=force)
        result = {"verdict": outcome.verdict, "payload": outcome.payload.decode("ascii", "replace")}
        if expect_verdict is not None and outcome.verdict != expect_verdict:
            raise ExpectationMismatch(expect_verdict, outcome.verdict)
        return result

    def _op_attest(self, client: str, device: str, image: str = "reference", expect: Optional[str] = None):
        if device not in self.world.fleet.devices:
            raise ScriptError(f"unknown device {device!r}")
        if image == "reference":
            expected = self.world.fleet.devices[device].memory
        elif image == "current":
            expected = bytes(self.world.device(device).memory)
        else:
            raise ScriptError(f"attest image must be 'reference' or 'current', not {image!r}")
        verdict = self.world.client(client).verify_attestation(device, expected)
        if expect is not None and verdict != expect:
            raise ExpectationMismatch(expect, verdict)
        return {"verdict": verdict}

    # --- adversarial hooks --------------------------------------------------------

    def _op_drop_next(self, src: Optional[str] = None, dst: Optional[str] = None):
        self.world.transport.drop_next(src, dst)

    def _op_duplicate_next(self, src: Optional[str] = None, dst: Optional[str] = None):
        self.world.transport.duplicate_next(src, dst)

    def _op_tamper_next(
        self,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        offset: int = 0,
        xor: int = 0xFF,
    ):
        self.world.transport.tamper_next(src, dst, offset=offset, xor=xor)

    def _op_delay_next(self, src: Optional[str] = None, dst: Optional[str] = None, steps: int = 1):
        self.world.transport.delay_next(src, dst, steps=steps)

    def _op_capture_next(self, slot: str, src: Optional[str] = None, dst: Optional[str] = None):
        self.world.transport.capture_next(slot, src, dst)

    def _op_replay_slot(self, slot: str):
        self.world.transport.replay_slot(slot)
        self.world.transport.pump()

    def _op_inject(self, src: str, dst: str, data_hex: str):
        try:
            payload = bytes.fromhex(data_hex)
        except ValueError as exc:
            raise ScriptError(f"inject wants hex data: {exc}") from exc
        self.world.transport.send(src, dst, payload, note="injected")
        self.world.transport.pump()

    # --- expectations ----------------------------------------------------------

    def _op_expect_led(self, device: str, on: bool):
        actual = self.world.device(device).led
        if actual != bool(on):
            raise ExpectationMismatch(f"led={'on' if on else 'off'}", f"led={'on' if actual else 'off'}")
        return {"led": actual}

    def _op_expect_synced(self, device: str, synced: bool):
        actual = self.world.device(device).synced
        if actual != bool(synced):
            raise ExpectationMismatch(f"synced={synced}", f"synced={actual}")
        return {"synced": actual}

    def _match_events(self, match: dict) -> list[dict]:
        return [
            e
            for e in self.world.all_events()
            if all(e.get(k) == v for k, v in match.items())
        ]

    def _op_expect_event(self, **match):
        if not self._match_events(match):
            raise ExpectationMismatch(f"event matching {match}", "no such event")
        return {"matched": len(self._match_events(match))}

    def _op_expect_no_event(self, **match):
        hits = self._match_events(match)
        if hits:
            raise ExpectationMismatch(f"no event matching {match}", f"{len(hits)} matching")

    def _op_expect_transcript_clean(self):
        leaks = self.world.transcript_leaks()
        if leaks:
            raise ExpectationMismatch("no secret material on the wire", f"leaked: {leaks}")
        return {"frames_checked": len(self.world.transport.transcript)}


class ExpectationMismatch(KesicError):
    """A scripted expectation did not hold; recorded, not fatal."""

    def __init__(self, expected: object, actual: object) -> None:
        super().__init__(f"expected {expected}, got {actual}")


def run_scenario(script: dict, seed: Optional[int] = None, live: bool = False) -> dict:
    if live:
        from .live import run_live_scenario

        return run_live_scenario(script, seed)
    return ScenarioRunner(script, seed).run()
