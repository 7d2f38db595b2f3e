"""The benchmark's three workloads and the per-op recorder.

Each workload drives the actors the acceptance tests pin (``World``,
``LiveTopology``, ``ClientSession``) through their public methods. A
workload exposes ``setup(variant)``, which ``run.py`` times and repeats
with fresh passwords, and ``plan(thread)``, a generator of user ops for one
closed-loop client thread. Each op is ``(kind, call, check)``: ``run.py``
times ``call()`` alone and runs ``check(result)`` after the clock stops. Book-keeping between ops
(advancing the virtual clock, putting a device to sleep) runs inside the
generator, outside every op's timing.

Inputs come from ``--seed`` only: provisioning keys, the world's Rng and the
sequence of LED commands.
"""

from __future__ import annotations

import functools
import hashlib
import os
import random
import shutil
import tempfile
import time
import traceback
from collections import Counter

import kesic.harness.scenario as scenario
from kesic.device import PowerDevice
from kesic.errors import KesicError, PortInUse, TicketExpired
from kesic.harness.live import LiveTopology
from kesic.provision import ClientSpec, DeviceSpec, FleetSpec
from kesic.wire import CMD_LED_OFF, CMD_LED_ON

LED_REPLY = {CMD_LED_ON: b"LED=ON", CMD_LED_OFF: b"LED=OFF"}
# The first ops of a sim run, warm-up included, feed the determinism digest.
DIGEST_OPS = 1000
SMOKE_DIGEST_OPS = 60


def _clients(n: int, variant: int) -> tuple[ClientSpec, ...]:
    # A password the process has not seen yet, so each set-up runs scrypt once per client.
    return tuple(ClientSpec(name=f"user{i}", password=f"bench-pass-{i:02d}-{variant}") for i in range(n))


def _commands(seed: int, stream: int):
    rng = random.Random(seed * 1009 + stream)
    while True:
        yield CMD_LED_ON if rng.random() < 0.5 else CMD_LED_OFF


class Recorder:
    """One client thread's op log: latencies, failures and the digest."""

    def __init__(self, tracer=None, op_base: int = 0, digest_ops: int = 0, frames=None) -> None:
        self.ops: list[tuple[int, int, str]] = []  # (end_ns, latency_ns, kind)
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self._tracer = tracer
        self._op_base = op_base
        self._digest_ops = self._digest_left = digest_ops
        self._frames = frames  # () -> (frame count, frame bytes) of the transcript
        self._hash = hashlib.sha256()
        self.digest: str | None = None
        self.first_error: str | None = None  # traceback of the first non-kesic exception

    def run(self, kind: str, call, check) -> None:
        self.attempted += 1
        if self._tracer is not None:
            self._tracer.op.value = self._op_base + self.attempted
        start = time.perf_counter_ns()
        try:
            result = call()
        except Exception as exc:  # a failed op; the run goes on and reports it
            result = exc
        end = time.perf_counter_ns()
        self.ops.append((end, end - start, kind))
        if isinstance(result, Exception):
            problem = token = type(result).__name__
            if not isinstance(result, KesicError) and self.first_error is None:
                self.first_error = "".join(traceback.format_exception(result)).strip()
        else:
            problem, token = check(result)
        if problem is not None:
            self.failed += 1
            self.failures[f"{kind}: {problem}"] += 1
        if self._digest_left > 0:
            self._hash.update(f"{kind}|{token}\n".encode())
            self._digest_left -= 1
            if self._digest_left == 0:
                count, size = self._frames()
                self._hash.update(f"frames|{count}|{size}\n".encode())
                self.digest = (
                    f"{self._hash.hexdigest()[:16]} (first {self._digest_ops} ops; "
                    f"transcript {count} frames, {size} bytes)"
                )


def _led_check(cmd: str, outcome) -> str | None:
    if outcome.verdict != "accept":
        return f"verdict {outcome.verdict}"
    if outcome.payload != LED_REPLY[cmd]:
        return f"LED reply {outcome.payload!r} after {cmd}"
    return None


class _SimWorkload:
    """Shared set-up for the two workloads on the simulated fabric."""

    threads = 1
    live = False

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.world = None
        self.last_cmd: dict[str, str] = {}
        self.digest_ops = SMOKE_DIGEST_OPS if smoke else DIGEST_OPS

    def _login_all(self) -> None:
        for name, session in self.world.clients.items():
            session.login(self.world.fleet.clients[name].spec.password)

    def frames(self) -> tuple[int, int]:
        transcript = self.world.transport.transcript
        return len(transcript), sum(entry["len"] for entry in transcript)

    def final_problems(self) -> list[str]:
        return [
            f"{name}: LED {self.world.devices[name].led} after {cmd}"
            for name, cmd in sorted(self.last_cmd.items())
            if self.world.devices[name].led != (cmd == CMD_LED_ON)
        ]

    def report(self) -> dict:
        return {}

    def teardown(self) -> None:
        self.world = None


class GeneralSteady(_SimWorkload):
    """Cached-ticket calls to general devices with a full freshness window."""

    name = "general-steady"
    CLIENTS = 4
    DEVICES = 2
    CALLS_PER_SECOND = 20  # virtual-clock pacing
    FRESHNESS = 300  # the device default; the window holds 20 * 300 authenticators

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        self.warmup_ops = 200 if smoke else self.CALLS_PER_SECOND * self.FRESHNESS

    def setup(self, variant: int) -> None:
        spec = FleetSpec(
            clients=_clients(self.CLIENTS, variant),
            devices=tuple(DeviceSpec(name=f"gen{i}", dtype="general") for i in range(self.DEVICES)),
        )
        self.world = scenario.World.build(spec, self.seed)
        self.world.boot_all()
        self._login_all()

    def plan(self, thread: int):
        clients = list(self.world.clients.values())
        devices = sorted(self.world.devices)
        commands = _commands(self.seed, thread)
        calls = 0
        while True:
            client = clients[calls % len(clients)]
            device = devices[(calls + calls // len(clients)) % len(devices)]
            cmd = next(commands)
            yield "general_call", functools.partial(_general_call, client, device, cmd), functools.partial(
                self._check, client, device, cmd
            )
            calls += 1
            if calls % self.CALLS_PER_SECOND == 0:
                self.world.clock.advance(1)

    def _check(self, client, device: str, cmd: str, outcome):
        self.last_cmd[device] = cmd
        problem = _led_check(cmd, outcome)
        if problem is None and self.world.devices[device].led != (cmd == CMD_LED_ON):
            problem = f"{device} LED state differs from {cmd}"
        nonce = client.cache.devices[device]["nonce"] if device in client.cache.devices else None
        return problem, f"{device}|{cmd}|{outcome.verdict}|{nonce}"


def _general_call(client, device: str, cmd: str):
    try:
        return client.call_device(device, cmd)
    except TicketExpired:
        # The cached ticket's lifetime ran out; the SDK dropped it, so the
        # retry fetches a fresh one. Both halves are one user op.
        return client.call_device(device, cmd)


class PowerFleet(_SimWorkload):
    """Wake, attest and spend one counter window per device, round-robin."""

    name = "power-fleet"
    CLIENTS = 4
    DEVICES = 1000
    WINDOW = 16
    FETCHES_PER_SECOND = 2  # virtual-clock pacing
    HORIZON = 600  # the ticket API's replay horizon, 2 * clock_skew

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        self.devices = 20 if smoke else self.DEVICES
        cycles = 3 if smoke else self.HORIZON * self.FETCHES_PER_SECOND // self.WINDOW
        self.warmup_ops = cycles * (self.WINDOW + 1)
        self.state_dir: str | None = None
        self.state_path: str | None = None
        self.counters: dict[str, list[int]] = {}

    def setup(self, variant: int) -> None:
        self.state_dir = tempfile.mkdtemp(prefix="isv-state-", dir=self.workdir)
        self.state_path = os.path.join(self.state_dir, "isv-state.json")
        spec = FleetSpec(
            clients=_clients(self.CLIENTS, variant),
            devices=tuple(
                DeviceSpec(name=f"pow{i:04d}", dtype="power", window=self.WINDOW)
                for i in range(self.devices)
            ),
        )
        # World builds its own Isv; hand it a counter file as kesic-isv --state does.
        original = scenario.Isv
        scenario.Isv = functools.partial(original, state_path=self.state_path)
        try:
            self.world = scenario.World.build(spec, self.seed)
        finally:
            scenario.Isv = original
        self._login_all()

    def teardown(self) -> None:
        super().teardown()
        if self.state_dir is not None:
            shutil.rmtree(self.state_dir, ignore_errors=True)
            self.state_dir = self.state_path = None

    def plan(self, thread: int):
        world = self.world
        clients = list(world.clients.values())
        names = sorted(world.devices)
        commands = _commands(self.seed, thread)
        fetches = 0
        while True:
            for name in names:
                device = world.devices[name]
                yield "wake_attest", functools.partial(self._wake, device, name), self._check_wake
                for slot in range(self.WINDOW):
                    client = clients[slot % len(clients)]
                    cmd = next(commands)
                    yield "power_call", functools.partial(_power_call, client, name, cmd), functools.partial(
                        self._check_power, name, cmd
                    )
                    fetches += 1
                    if fetches % self.FETCHES_PER_SECOND == 0:
                        world.clock.advance(1)
                device.sleep()
                world.isv.registry.mark_asleep(name)

    def _wake(self, device: PowerDevice, name: str) -> bool:
        device.wake(self.world.transport.sender_for(f"dev:{name}"))
        self.world.transport.pump()
        return device.synced

    @staticmethod
    def _check_wake(synced: bool):
        return (None if synced else "wake ended unsynced"), f"synced={synced}"

    def _check_power(self, name: str, cmd: str, result):
        nonce, outcome = result
        self.last_cmd[name] = cmd
        problem = _led_check(cmd, outcome)
        seen = self.counters.setdefault(name, [])
        if seen and nonce <= seen[-1]:
            problem = f"counter {nonce} after {seen[-1]}"
        seen.append(nonce)
        return problem, f"{name}|{cmd}|{outcome.verdict}|{nonce}"

    def report(self) -> dict:
        return {"devices_woken": len(self.counters)}


def _power_call(client, device: str, cmd: str):
    entry = client.get_iot_ticket(device)
    return entry["nonce"], client.call_device(device, cmd)


class LiveSessions:
    """Two client threads against real daemons on loopback."""

    name = "live-sessions"
    live = True
    threads = 2
    GENERAL_CALLS = 4
    START_ATTEMPTS = 5
    # Larger than any run's power calls: live devices sync once and never wake again.
    POWER_WINDOW = 1_000_000
    # Short enough that each general device's replay window stays small.
    FRESHNESS = 5
    warmup_ops = 0
    digest_ops = 0

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.topo: LiveTopology | None = None
        self.sessions = []
        self.port_retries = 0
        self.counters: list[list[int]] = [[] for _ in range(self.threads)]

    def setup(self, variant: int) -> None:
        spec = FleetSpec(
            clients=_clients(self.threads, variant),
            devices=tuple(
                DeviceSpec(name=f"gen{i}", dtype="general", freshness_window=self.FRESHNESS)
                for i in range(self.threads)
            )
            + (DeviceSpec(name="pow0", dtype="power", window=self.POWER_WINDOW),),
        )
        for attempt in range(self.START_ATTEMPTS):
            topo = LiveTopology(spec, seed=self.seed, workdir=tempfile.mkdtemp(prefix="live-", dir=self.workdir))
            try:
                topo.start()
            except PortInUse:
                # free_port() releases the port before the daemon binds it.
                self._stop(topo)
                self.port_retries += 1
                if attempt + 1 == self.START_ATTEMPTS:
                    raise
                continue
            except BaseException:
                self._stop(topo)
                raise
            break
        self.topo = topo
        self.sessions = []
        for name, ident in topo.fleet.clients.items():
            session = topo.client_session(name, cache_path=os.path.join(topo.workdir, f"{name}.cache.json"))
            session.login(ident.spec.password)
            self.sessions.append(session)

    @staticmethod
    def _stop(topo: LiveTopology) -> None:
        topo.stop()
        shutil.rmtree(topo.workdir, ignore_errors=True)

    def teardown(self) -> None:
        if self.topo is not None:
            self._stop(self.topo)
            self.topo = None

    def plan(self, thread: int):
        session = self.sessions[thread]
        password = self.topo.fleet.clients[session.config.name].spec.password
        device = f"gen{thread}"
        commands = _commands(self.seed, thread)
        iteration = 0
        while True:
            yield "session", functools.partial(_session, session, password, device), _check_session
            for _ in range(self.GENERAL_CALLS):
                cmd = next(commands)
                yield "general_call", functools.partial(session.call_device, device, cmd), functools.partial(
                    _check_general, cmd
                )
            if iteration % 2:
                cmd = next(commands)
                yield "power_call", functools.partial(_power_call, session, "pow0", cmd), functools.partial(
                    self._check_power, thread, cmd
                )
            iteration += 1

    def _check_power(self, thread: int, cmd: str, result):
        nonce, outcome = result
        problem = _led_check(cmd, outcome)
        seen = self.counters[thread]
        if seen and nonce <= seen[-1]:
            problem = f"counter {nonce} after {seen[-1]}"
        seen.append(nonce)
        return problem, None

    def final_problems(self) -> list[str]:
        problems = []
        issued = [nonce for seen in self.counters for nonce in seen]
        if len(issued) >= self.POWER_WINDOW:
            problems.append("power calls exceeded the device's counter window")
        if len(set(issued)) != len(issued):
            problems.append("a power counter was issued twice")
        for proc in self.topo.procs:
            if proc.poll() is not None:
                err = proc.stderr.read().decode("utf-8", "replace").strip().splitlines()[-1:]
                problems.append(f"{proc.args[3]} daemon exited with {proc.returncode} during the run: {err}")
        return problems

    def report(self) -> dict:
        return {"port_retries": self.port_retries}


def _session(session, password: str, device: str) -> dict:
    session.login(password)
    return session.get_iot_ticket(device)


def _check_session(entry: dict):
    return (None if entry["dtype"] == "general" else f"ticket type {entry['dtype']}"), None


def _check_general(cmd: str, outcome):
    return _led_check(cmd, outcome), None


WORKLOADS = {cls.name: cls for cls in (GeneralSteady, PowerFleet, LiveSessions)}
