"""Live topology: the same ecosystem as real processes on localhost.

Spawns the KDC, the IoT server and one process per device with freshly
provisioned config files in a scratch directory, waits for each daemon's
``READY`` line, and hands out :class:`ClientSession` objects wired to real
sockets. Scenario steps run through the simulated runner's step loop; only
the client-driven ops work here — the adversarial hooks, the virtual clock
and device memory belong to the simulated fabric.
"""

from __future__ import annotations

import contextlib
import os
import select
import socket
import subprocess
import sys
import tempfile
import time
import urllib.request
from typing import Optional

import kesic

from ..client import ClientConfig, ClientSession
from ..errors import PortInUse, ScriptError, StartupTimeout
from ..net import SocketNetwork
from ..provision import Fleet, FleetSpec, provision
from ..rng import Rng
from .scenario import DEFAULT_FLEET, ScenarioRunner, step_op

START_DEADLINE = 10.0
# Topologies run_live_scenario starts before it gives up on PortInUse.
START_ATTEMPTS = 3

LIVE_OPS = {"note", "login", "get_ticket", "call", "attest"}

# The directory holding the kesic package this process imported. Daemons run
# with their cwd in a scratch directory, where a relative PYTHONPATH from the
# caller no longer resolves, so they are pointed here instead.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(kesic.__file__)))


def _daemon_env() -> dict[str, str]:
    """The caller's environment with ``_PACKAGE_ROOT`` first on PYTHONPATH."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = _PACKAGE_ROOT + (os.pathsep + path if path else "")
    return env


def free_ports(count: int) -> list[int]:
    """``count`` distinct loopback ports that were free when picked.

    All probe sockets stay bound until the last port is picked, so no number
    comes back twice. They are closed before any daemon binds, so another
    process can still take a port in between; that surfaces as PortInUse.
    """
    with contextlib.ExitStack() as stack:
        ports = []
        for _ in range(count):
            sock = stack.enter_context(socket.socket(socket.AF_INET, socket.SOCK_STREAM))
            sock.bind(("127.0.0.1", 0))
            ports.append(sock.getsockname()[1])
        return ports


def _wait_ready(proc: subprocess.Popen, what: str, deadline: float) -> None:
    """Block until the process prints READY; diagnose early exits."""
    assert proc.stdout is not None
    buf = b""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            proc.terminate()
            raise StartupTimeout(f"{what} did not become ready in time")
        if proc.poll() is not None:
            err = (proc.stderr.read() if proc.stderr else b"").decode("utf-8", "replace")
            if "Address already in use" in err:
                raise PortInUse(f"{what}: {err.strip().splitlines()[-1]}")
            raise StartupTimeout(f"{what} exited during startup: {err.strip()[-400:]}")
        ready, _, _ = select.select([proc.stdout], [], [], min(remaining, 0.2))
        if not ready:
            continue
        chunk = os.read(proc.stdout.fileno(), 4096)
        if not chunk:
            continue
        buf += chunk
        if b"READY" in buf:
            return


class LiveTopology:
    """Owns the daemon processes and the provisioning scratch directory."""

    def __init__(
        self,
        spec: Optional[FleetSpec] = None,
        seed: Optional[int] = None,
        workdir: Optional[str] = None,
    ) -> None:
        if spec is None:
            spec = FleetSpec.from_dict(DEFAULT_FLEET)
        self.seed = seed
        self._own_dir = workdir is None
        self._tmp = tempfile.TemporaryDirectory(prefix="kesic-live-") if self._own_dir else None
        self.workdir = self._tmp.name if self._tmp else workdir
        self.fleet: Fleet = provision(spec, Rng(seed))
        self.procs: list[subprocess.Popen] = []
        self._sessions: dict[str, ClientSession] = {}
        ports = free_ports(4 + len(self.fleet.devices))
        self.kdc_port, self.http_port, self.sync_port, self.attest_port = ports[:4]
        self.device_ports = dict(zip(self.fleet.devices, ports[4:]))

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self, args: list[str], what: str, deadline: float) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, "-m", "kesic.daemon", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=self.workdir,
            env=_daemon_env(),
        )
        self.procs.append(proc)
        _wait_ready(proc, what, deadline)
        return proc

    def start(self) -> None:
        path = lambda name: os.path.join(self.workdir, name)  # noqa: E731
        self.fleet.write_kdc_db(path("kdc.json"))
        self.fleet.write_isv_config(path("isv.json"))
        deadline = time.monotonic() + START_DEADLINE

        self._spawn(
            ["kdc", "--db", path("kdc.json"), "--port", str(self.kdc_port)],
            "kdc",
            deadline,
        )
        self._spawn(
            [
                "isv",
                "--devices", path("isv.json"),
                "--http-port", str(self.http_port),
                "--sync-port", str(self.sync_port),
                "--attest-port", str(self.attest_port),
            ],
            "isv",
            deadline,
        )
        for name in self.fleet.devices:
            profile = path(f"device-{name}.json")
            memory = path(f"device-{name}.mem")
            self.fleet.write_device_profile(name, profile, memory)
            self._spawn(
                [
                    "device",
                    "--profile", profile,
                    "--port", str(self.device_ports[name]),
                    "--isv-addr", f"127.0.0.1:{self.sync_port}",
                    "--isv-attest-addr", f"127.0.0.1:{self.attest_port}",
                    "--memory-image", memory,
                ],
                f"device {name}",
                deadline,
            )
        self.healthcheck()

    def healthcheck(self) -> None:
        url = f"http://127.0.0.1:{self.http_port}/healthz"
        with urllib.request.urlopen(url, timeout=5.0) as resp:
            if resp.status != 200:
                raise StartupTimeout(f"ticket API health check returned {resp.status}")

    def stop(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs.clear()
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    # -- clients -----------------------------------------------------------

    def client_session(self, name: str, cache_path: Optional[str] = None) -> ClientSession:
        config = ClientConfig.from_json_obj(
            self.fleet.client_json(name),
            kdc_addr=f"127.0.0.1:{self.kdc_port}",
            isv_url=f"http://127.0.0.1:{self.http_port}",
            device_addrs={d: f"127.0.0.1:{p}" for d, p in self.device_ports.items()},
        )
        if cache_path is None:
            cache_path = os.path.join(self.workdir, f"{name}.cache.json")
        return ClientSession(config, SocketNetwork(), cache_path=cache_path)

    def client(self, name: str) -> ClientSession:
        """The scenario session for ``name``, created on first use."""
        if name not in self.fleet.clients:
            raise ScriptError(f"unknown client {name!r}")
        if name not in self._sessions:
            self._sessions[name] = self.client_session(name)
        return self._sessions[name]


def _start_topology(spec: Optional[FleetSpec], seed: Optional[int]) -> LiveTopology:
    """Start a topology, with a fresh fleet and fresh ports after each PortInUse.

    A port can be taken by another process between :func:`free_ports` and the
    daemon's bind; that is a race to retry, not a fault of the scenario.
    """
    for attempt in range(1, START_ATTEMPTS + 1):
        topo = LiveTopology(spec, seed=seed)
        try:
            topo.start()
            return topo
        except BaseException as exc:
            topo.stop()
            if not isinstance(exc, PortInUse) or attempt == START_ATTEMPTS:
                raise


class LiveScenarioRunner(ScenarioRunner):
    """The scenario runner with real daemons in place of the simulated world."""

    def __init__(self, script: dict, seed: Optional[int] = None) -> None:
        super().__init__(script, seed)
        self.report["mode"] = "live"

    def _open_world(self, fleet: Optional[dict], seed: Optional[int]) -> LiveTopology:
        # Refuse what needs the simulated fabric before any daemon is spawned.
        for index, step in enumerate(self.script["steps"]):
            op = step_op(index, step)
            if op not in LIVE_OPS or step.get("image") == "current":
                raise ScriptError(
                    f"step {index}: op {op!r} needs the simulated fabric; live mode supports "
                    f"{sorted(LIVE_OPS)}, attesting the reference image"
                )
        return _start_topology(FleetSpec.from_dict(fleet) if fleet is not None else None, seed)

    def run(self) -> dict:
        try:
            for index, step in enumerate(self.script["steps"]):
                self._run_step(index, step)
        finally:
            self.world.stop()
        self.report["ok"] = not self.report["failures"]
        return self.report


def run_live_scenario(script: dict, seed: Optional[int] = None) -> dict:
    """Execute the client-driven subset of a scenario against real daemons."""
    return LiveScenarioRunner(script, seed).run()
