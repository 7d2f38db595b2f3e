"""Live topology: the same ecosystem as real processes on localhost.

Spawns the KDC, the IoT server and one process per device with freshly
provisioned config files in a scratch directory, waits for each daemon's
``READY`` line, and hands out :class:`ClientSession` objects wired to real
sockets. Only client-driven scenario steps work here — the adversarial
hooks and the virtual clock belong to the simulated fabric.
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
from ..errors import KesicError, PortInUse, ScriptError, StartupTimeout, error_name
from ..net import SocketNetwork
from ..provision import Fleet, FleetSpec, provision
from ..rng import Rng

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
            from .scenario import DEFAULT_FLEET

            spec = FleetSpec.from_dict(DEFAULT_FLEET)
        self.seed = seed
        self._own_dir = workdir is None
        self._tmp = tempfile.TemporaryDirectory(prefix="kesic-live-") if self._own_dir else None
        self.workdir = self._tmp.name if self._tmp else workdir
        self.fleet: Fleet = provision(spec, Rng(seed))
        self.procs: list[subprocess.Popen] = []
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

    def __enter__(self) -> "LiveTopology":
        try:
            self.start()
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

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


def run_live_scenario(script: dict, seed: Optional[int] = None) -> dict:
    """Execute the client-driven subset of a scenario against real daemons."""
    if not isinstance(script, dict) or not isinstance(script.get("steps"), list):
        raise ScriptError("scenario must be an object with a 'steps' list")
    for index, step in enumerate(script["steps"]):
        op = step.get("op")
        if op not in LIVE_OPS:
            raise ScriptError(
                f"step {index}: op {op!r} needs the simulated fabric; live mode supports {sorted(LIVE_OPS)}"
            )

    spec = FleetSpec.from_dict(script["fleet"]) if script.get("fleet") else None
    report: dict = {
        "name": script.get("name", "unnamed"),
        "mode": "live",
        "seed": seed,
        "ok": True,
        "failures": [],
        "steps": [],
    }

    def fail(index: int, op: str, message: str) -> None:
        report["failures"].append({"step": index, "op": op, "message": message})

    topo = _start_topology(spec, seed)
    try:
        sessions: dict[str, ClientSession] = {}

        def session(name: str) -> ClientSession:
            if name not in sessions:
                sessions[name] = topo.client_session(name)
            return sessions[name]

        for index, step in enumerate(script["steps"]):
            step = dict(step)
            op = step.pop("op")
            expect_error = step.pop("expect_error", None)
            record: dict = {"n": index, "op": op}
            try:
                if op == "note":
                    record["result"] = step.get("text", "")
                elif op == "login":
                    client = step["client"]
                    password = step.get("password")
                    if password is None:
                        password = topo.fleet.clients[client].spec.password
                    session(client).login(password)
                elif op == "get_ticket":
                    entry = session(step["client"]).get_iot_ticket(step["device"])
                    record["result"] = {"dtype": entry["dtype"], "nonce": entry["nonce"]}
                elif op == "call":
                    outcome = session(step["client"]).call_device(
                        step["device"], step["cmd"], force=step.get("force", False)
                    )
                    record["result"] = {
                        "verdict": outcome.verdict,
                        "payload": outcome.payload.decode("ascii", "replace"),
                    }
                    want = step.get("expect_verdict")
                    if want is not None and outcome.verdict != want:
                        fail(index, op, f"expected verdict {want}, got {outcome.verdict}")
                elif op == "attest":
                    expected = bytes(topo.fleet.devices[step["device"]].memory)
                    verdict = session(step["client"]).verify_attestation(step["device"], expected)
                    record["result"] = {"verdict": verdict}
                    want = step.get("expect")
                    if want is not None and verdict != want:
                        fail(index, op, f"expected {want}, got {verdict}")
            except KesicError as exc:
                name = error_name(exc)
                record["error"] = name
                record["detail"] = str(exc)
                if expect_error is None:
                    fail(index, op, f"unexpected {name}: {exc}")
                elif expect_error != name:
                    fail(index, op, f"expected {expect_error}, got {name}: {exc}")
            else:
                if expect_error is not None and "error" not in record:
                    fail(index, op, f"expected {expect_error}, but the step succeeded")
            report["steps"].append(record)
    finally:
        topo.stop()

    report["ok"] = not report["failures"]
    return report
