"""Message fabric, scenario runner, attack catalogue and live topology."""

import copy
import functools
import gc
import glob
import io
import json
import os
import re
import signal
import socket
import time
import warnings
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kesic
from kesic.errors import PortInUse, ScriptError, Timeout
from kesic.harness.attacks import ATTACKS, attack_names
from kesic.harness import live
from kesic.harness.live import LiveTopology, run_live_scenario
from kesic.harness.scenario import World, run_scenario
from kesic.harness.transport import SimNetwork, VirtualTransport
from kesic.harness import simcli
from kesic.net import read_reply

from conftest import HOSTILE_HEADS

TINY_FLEET = {
    "clients": [{"name": "alice", "password": "correct-horse-battery-9"}],
    "devices": [{"name": "bulb", "type": "general"}, {"name": "sensor", "type": "power"}],
}


def make_sink(transport: VirtualTransport, addr: str) -> list[bytes]:
    inbox: list[bytes] = []
    transport.register(addr, lambda data, src, send: inbox.append(data))
    return inbox


class TestVirtualTransport:
    def test_frames_deliver_in_order(self):
        t = VirtualTransport()
        inbox = make_sink(t, "sink")
        for i in range(5):
            t.send("src", "sink", bytes([i]))
        t.pump()
        assert inbox == [bytes([i]) for i in range(5)]

    def test_drop_hook_is_one_shot(self):
        t = VirtualTransport()
        inbox = make_sink(t, "sink")
        t.drop_next(dst="sink")
        t.send("src", "sink", b"first")
        t.send("src", "sink", b"second")
        t.pump()
        assert inbox == [b"second"]
        assert [e["status"] for e in t.transcript] == ["dropped", "delivered"]

    def test_drop_filter_ignores_other_routes(self):
        t = VirtualTransport()
        inbox = make_sink(t, "sink")
        other = make_sink(t, "other")
        t.drop_next(dst="other")
        t.send("src", "sink", b"x")
        t.pump()
        assert inbox == [b"x"] and other == []

    def test_duplicate_hook(self):
        t = VirtualTransport()
        inbox = make_sink(t, "sink")
        t.duplicate_next(dst="sink")
        t.send("src", "sink", b"x")
        t.pump()
        assert inbox == [b"x", b"x"]

    def test_tamper_hook_flips_one_byte(self):
        t = VirtualTransport()
        inbox = make_sink(t, "sink")
        t.tamper_next(dst="sink", offset=1, xor=0x01)
        t.send("src", "sink", b"abc")
        t.pump()
        assert inbox == [b"a" + bytes([ord("b") ^ 1]) + b"c"]
        assert "tampered@1" in t.transcript[0]["notes"]

    def test_tamper_beyond_frame_is_a_script_bug(self):
        t = VirtualTransport()
        make_sink(t, "sink")
        t.tamper_next(dst="sink", offset=10)
        with pytest.raises(ScriptError, match="beyond frame"):
            t.send("src", "sink", b"abc")

    def test_delay_hook_reorders(self):
        t = VirtualTransport()
        inbox = make_sink(t, "sink")
        t.delay_next(dst="sink", steps=3)
        t.send("src", "sink", b"A")
        t.send("src", "sink", b"B")
        t.send("src", "sink", b"C")
        t.pump()
        assert inbox == [b"B", b"C", b"A"]

    def test_capture_then_replay_verbatim(self):
        t = VirtualTransport()
        inbox = make_sink(t, "sink")
        t.capture_next("stash", dst="sink")
        t.send("src", "sink", b"secret-frame")
        t.pump()
        t.replay_slot("stash")
        t.pump()
        assert inbox == [b"secret-frame", b"secret-frame"]
        assert t.transcript[-1]["notes"] == ["replay:stash"]
        assert t.transcript[-1]["src"] == "src"  # spoofed original source

    def test_replay_of_empty_slot_is_a_script_bug(self):
        t = VirtualTransport()
        with pytest.raises(ScriptError, match="nothing captured"):
            t.replay_slot("ghost")

    def test_one_hook_per_frame(self):
        t = VirtualTransport()
        inbox = make_sink(t, "sink")
        t.drop_next(dst="sink")
        t.duplicate_next(dst="sink")
        t.send("src", "sink", b"first")  # consumed by drop only
        t.send("src", "sink", b"second")  # then the duplicate fires
        t.pump()
        assert inbox == [b"second", b"second"]

    def test_unrouteable_recorded(self):
        t = VirtualTransport()
        t.send("src", "nowhere", b"x")
        t.pump()
        assert t.transcript[-1]["status"] == "unrouteable"

    def test_routing_loop_detected(self):
        t = VirtualTransport()
        t.register("echo", lambda data, src, send: send("echo", data))
        t.send("src", "echo", b"x")
        with pytest.raises(ScriptError, match="quiesce"):
            t.pump()

    def test_duplicate_registration_rejected(self):
        t = VirtualTransport()
        make_sink(t, "sink")
        with pytest.raises(ScriptError, match="already registered"):
            t.register("sink", lambda data, src, send: None)

    def test_transcript_contains_checks_encodings(self):
        secret = b"\x01\x02\xfe\xff-key-material"
        t = VirtualTransport()
        make_sink(t, "sink")
        t.send("src", "sink", b"prefix" + secret)
        t.pump()
        assert t.transcript_contains(secret)

        t2 = VirtualTransport()
        make_sink(t2, "sink")
        t2.send("src", "sink", secret.hex().encode())
        t2.pump()
        assert t2.transcript_contains(secret)

        t3 = VirtualTransport()
        make_sink(t3, "sink")
        import base64

        t3.send("src", "sink", base64.b64encode(secret))
        t3.pump()
        assert t3.transcript_contains(secret)
        assert not t3.transcript_contains(b"\x99never-on-the-wire\x99")


class TestSimNetwork:
    def test_udp_call_roundtrip(self):
        t = VirtualTransport()
        t.register("server", lambda data, src, send: send(src, b"pong:" + data))
        net = SimNetwork(t, "client")
        assert net.udp_call("server", b"ping") == b"pong:ping"

    def test_udp_call_times_out_on_silence(self):
        t = VirtualTransport()
        make_sink(t, "mute")
        net = SimNetwork(t, "client")
        with pytest.raises(Timeout):
            net.udp_call("mute", b"ping")
        with pytest.raises(Timeout):
            net.udp_call("nowhere", b"ping")


class TestWorld:
    def test_dropped_world_is_freed_without_the_cycle_collector(self):
        """No reference cycle keeps a world alive: with the collector off,
        dropping the last reference frees the whole world at once."""
        world = World.build(TINY_FLEET, seed=5)
        world.boot_all()
        world.clients["alice"].login("correct-horse-battery-9")
        world.clients["alice"].call_device("bulb", "LED_ON")
        world.clients["alice"].call_device("sensor", "LED_ON")
        world.clock.advance(60)
        isv = weakref.ref(world.isv)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del world
            assert isv() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_one_ticket_fetch_reads_one_request_head_and_one_reply_head(self, monkeypatch):
        """The fabric carries the live framing: a simulated fetch parses one
        HTTP/1.1 request at the server and one reply at the client."""
        world = World.build(TINY_FLEET, seed=5)
        world.clients["alice"].login("correct-horse-battery-9")
        read_head, starts = kesic.net.read_head, []

        def recording(rfile):
            starts.append(rfile.getvalue()[:13])
            return read_head(rfile)

        monkeypatch.setattr(kesic.net, "read_head", recording)
        world.clients["alice"].get_iot_ticket("bulb")
        assert starts == [b"POST /ticket ", b"HTTP/1.1 200 "]
        frames = [bytes.fromhex(e["data"]) for e in world.transport.transcript if e["dst"] == "isv:http"]
        assert len(frames) == 1 and frames[0].startswith(b"POST /ticket HTTP/1.1\r\n")


def new_ticket_fabric():
    """A world whose ticket API answers frames from "probe", and a ticket
    request with an authenticator the server has not seen yet."""
    world = World.build(TINY_FLEET, seed=5)
    inbox = make_sink(world.transport, "probe")
    world.clients["alice"].login("correct-horse-battery-9")
    world.transport.drop_next(dst="isv:http")
    with pytest.raises(Timeout):
        world.clients["alice"].get_iot_ticket("bulb")
    request = bytes.fromhex(world.transport.transcript[-1]["data"])
    assert request.startswith(b"POST /ticket HTTP/1.1\r\n")
    return world, inbox, request


@pytest.fixture(scope="module")
def ticket_fabric():
    return new_ticket_fabric()


def serve_frame(fabric, raw: bytes) -> list[bytes]:
    """The frames the simulated ticket API sends back for one request frame."""
    world, inbox, _ = fabric
    inbox.clear()
    world.transport.send("probe", "isv:http", raw)
    world.transport.pump()
    return list(inbox)


def only_reply(frames: list[bytes]) -> tuple[int, dict[str, str], bytes]:
    """The one reply in ``frames``, which must hold nothing else."""
    assert len(frames) == 1
    rfile = io.BytesIO(frames[0])
    status, headers, body, _ = read_reply(rfile)
    assert rfile.read() == b""
    return status, headers, body


def mutations(base: bytes):
    """``base`` with a few bytes flipped, cut, inserted or truncated."""

    def apply(data: bytes, edit: tuple) -> bytes:
        kind, at, arg = edit
        at %= len(data) + 1
        if kind == "flip":
            return data[:at] + bytes([data[at] ^ arg[0]]) + data[at + 1 :] if at < len(data) else data
        if kind == "cut":
            return data[:at] + data[at + len(arg) :]
        if kind == "insert":
            return data[:at] + arg + data[at:]
        return data[:at]

    edits = st.lists(
        st.tuples(
            st.sampled_from(["flip", "cut", "insert", "truncate"]),
            st.integers(0, len(base)),
            st.binary(min_size=1, max_size=8),
        ),
        min_size=1,
        max_size=4,
    )
    return edits.map(lambda steps: functools.reduce(apply, steps, base))


class TestSimulatedTicketApi:
    """The simulated ticket API runs the daemon's framing on HTTP/1.1 bytes."""

    @pytest.mark.parametrize("raw", HOSTILE_HEADS.values(), ids=HOSTILE_HEADS.keys())
    def test_hostile_head_gets_the_live_400_and_a_close(self, ticket_fabric, raw):
        status, headers, body = only_reply(serve_frame(ticket_fabric, raw.encode("latin-1")))
        assert (status, headers["Connection"]) == (400, "close")
        assert json.loads(body)["error"] == "FieldFormatError"

    def test_json_bomb_body_gets_a_400(self):
        fabric = new_ticket_fabric()  # its authenticator must be fresh
        head, _, _ = fabric[2].partition(b"\r\n\r\n")
        head = re.sub(rb"Content-Length: \d+", b"Content-Length: 60000", head)
        status, _, body = only_reply(serve_frame(fabric, head + b"\r\n\r\n" + b"[" * 60000))
        reply = json.loads(body)
        assert (status, reply["error"]) == (400, "FieldFormatError")
        assert reply["detail"].startswith("ticket request is not JSON")  # the body parser, past the framing

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_any_frame_gets_no_reply_or_one_well_formed_reply(self, ticket_fabric, data):
        raw = data.draw(st.binary(max_size=300) | mutations(ticket_fabric[2]))
        frames = serve_frame(ticket_fabric, raw)
        if frames:
            assert only_reply(frames)[0] != 500


HAPPY_SCRIPT = {
    "name": "happy",
    "steps": [
        {"op": "login", "client": "alice"},
        {"op": "call", "client": "alice", "device": "bulb", "cmd": "LED_ON",
         "expect_verdict": "accept"},
        {"op": "expect_led", "device": "bulb", "on": True},
        {"op": "call", "client": "alice", "device": "sensor", "cmd": "LED_ON",
         "expect_verdict": "accept"},
        {"op": "expect_transcript_clean"},
    ],
}


class TestScenarioRunner:
    def test_happy_script_is_green(self):
        report = run_scenario(copy.deepcopy(HAPPY_SCRIPT), seed=7)
        assert report["ok"], report["failures"]
        assert [s["op"] for s in report["steps"]] == [s["op"] for s in HAPPY_SCRIPT["steps"]]

    def test_unknown_op_is_a_script_bug(self):
        with pytest.raises(ScriptError, match="unknown op"):
            run_scenario({"steps": [{"op": "explode"}]}, seed=1)

    def test_bad_arguments_are_a_script_bug(self):
        with pytest.raises(ScriptError, match="bad arguments"):
            run_scenario({"steps": [{"op": "login", "nonsense": 1}]}, seed=1)

    def test_malformed_script_shapes(self):
        with pytest.raises(ScriptError):
            run_scenario({"steps": "nope"}, seed=1)
        with pytest.raises(ScriptError):
            run_scenario({"no_steps": []}, seed=1)
        with pytest.raises(ScriptError):
            run_scenario({"steps": [42]}, seed=1)

    def test_expected_error_keeps_scenario_green(self):
        script = {
            "steps": [
                {"op": "login", "client": "alice", "password": "wrong",
                 "expect_error": "AuthFailure"},
            ]
        }
        report = run_scenario(script, seed=1)
        assert report["ok"]
        assert report["steps"][0]["error"] == "AuthFailure"

    def test_unexpected_success_fails_scenario(self):
        script = {
            "steps": [
                {"op": "login", "client": "alice", "expect_error": "AuthFailure"},
            ]
        }
        report = run_scenario(script, seed=1)
        assert not report["ok"]
        assert "step succeeded" in report["failures"][0]["message"]

    def test_unexpected_error_fails_scenario(self):
        script = {"steps": [{"op": "login", "client": "alice", "password": "wrong"}]}
        report = run_scenario(script, seed=1)
        assert not report["ok"]
        assert "unexpected AuthFailure" in report["failures"][0]["message"]

    def test_verdict_mismatch_fails_scenario(self):
        script = {
            "steps": [
                {"op": "login", "client": "alice"},
                {"op": "call", "client": "alice", "device": "bulb", "cmd": "LED_ON",
                 "expect_verdict": "auth-failure"},
            ]
        }
        report = run_scenario(script, seed=1)
        assert not report["ok"]

    def test_report_is_a_pure_function_of_script_and_seed(self):
        one = run_scenario(copy.deepcopy(HAPPY_SCRIPT), seed=42)
        two = run_scenario(copy.deepcopy(HAPPY_SCRIPT), seed=42)
        assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)
        other = run_scenario(copy.deepcopy(HAPPY_SCRIPT), seed=43)
        assert json.dumps(one, sort_keys=True) != json.dumps(other, sort_keys=True)


class TestAttackCatalogue:
    def test_names_are_unique_and_plentiful(self):
        names = attack_names()
        assert len(names) == len(set(names))
        assert len(names) >= 20

    def test_catalogue_scripts_have_valid_shape(self):
        for script in ATTACKS:
            assert isinstance(script["name"], str) and script["name"]
            assert isinstance(script["steps"], list) and script["steps"]

    def test_single_attack_scenario_runs_green(self):
        script = copy.deepcopy(
            next(s for s in ATTACKS if s["name"] == "replay-service-request-within-window")
        )
        report = run_scenario(script, seed=3)
        assert report["ok"], report["failures"]


class TestSimCli:
    def test_run_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "happy.json"
        path.write_text(json.dumps(HAPPY_SCRIPT))
        assert simcli.main(["run", str(path), "--seed", "7"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] and report["name"] == "happy"

    def test_failing_scenario_exits_1(self, tmp_path, capsys):
        script = {"steps": [{"op": "expect_led", "device": "bulb", "on": True}]}
        path = tmp_path / "red.json"
        path.write_text(json.dumps(script))
        assert simcli.main(["run", str(path)]) == 1
        assert not json.loads(capsys.readouterr().out)["ok"]

    def test_missing_scenario_file_exits_2(self, tmp_path, capsys):
        assert simcli.main(["run", str(tmp_path / "ghost.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_attacks_list(self, capsys):
        assert simcli.main(["attacks", "--list"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == attack_names()


class TestLiveTopology:
    def test_live_scenario_over_real_sockets(self):
        script = {
            "name": "live-smoke",
            "fleet": TINY_FLEET,
            "steps": [
                {"op": "login", "client": "alice"},
                {"op": "call", "client": "alice", "device": "bulb", "cmd": "LED_ON",
                 "expect_verdict": "accept"},
                {"op": "get_ticket", "client": "alice", "device": "sensor"},
                {"op": "call", "client": "alice", "device": "sensor", "cmd": "LED_ON",
                 "expect_verdict": "accept"},
                {"op": "attest", "client": "alice", "device": "bulb", "expect": "healthy"},
            ],
        }
        report = run_live_scenario(script, seed=11)
        assert report["ok"], report["failures"]
        assert report["mode"] == "live"

    def test_sim_only_ops_rejected_before_spawning(self):
        script = {"steps": [{"op": "drop_next", "dst": "dev:bulb"}]}
        with pytest.raises(ScriptError, match="simulated fabric"):
            run_live_scenario(script)

    def test_occupied_port_is_reported(self):
        from kesic.provision import FleetSpec

        spec = FleetSpec.from_dict(TINY_FLEET)
        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        topo = None
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            topo = LiveTopology(spec, seed=1)
            topo.http_port = blocker.getsockname()[1]
            with pytest.raises(PortInUse):
                topo.start()
        finally:
            if topo is not None:
                topo.stop()
            blocker.close()

    def test_daemons_find_the_package_from_any_working_directory(self, tmp_path, monkeypatch):
        # Daemons run in a scratch directory, where a relative PYTHONPATH
        # from the caller points nowhere.
        from kesic.provision import FleetSpec

        root = os.path.dirname(os.path.dirname(os.path.abspath(kesic.__file__)))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("PYTHONPATH", "src")
        spawned = []
        monkeypatch.setattr(live.subprocess, "Popen", lambda args, **kw: spawned.append(kw) or kw)
        monkeypatch.setattr(live, "_wait_ready", lambda proc, what, deadline: None)
        topo = LiveTopology(FleetSpec.from_dict(TINY_FLEET), seed=1)
        try:
            topo._spawn(["kdc"], "kdc", deadline=0.0)
        finally:
            topo.procs.clear()
            topo.stop()
        path = spawned[0]["env"]["PYTHONPATH"].split(os.pathsep)
        assert os.path.isabs(path[0])
        assert path == [root, "src"]

    def test_stop_closes_every_pipe_and_socket(self):
        from kesic.provision import FleetSpec

        spec = FleetSpec.from_dict({"clients": TINY_FLEET["clients"], "devices": TINY_FLEET["devices"][:1]})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            topo = LiveTopology(spec, seed=1)
            try:
                topo.start()
                topo.client("alice").login(TINY_FLEET["clients"][0]["password"])
                topo.client("alice").get_iot_ticket("bulb")
            finally:
                topo.stop()
            del topo
            gc.collect()
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_topology_ports_are_distinct(self):
        from kesic.provision import FleetSpec

        spec = FleetSpec.from_dict(
            {
                "clients": TINY_FLEET["clients"],
                "devices": [{"name": f"d{i}", "type": "general"} for i in range(12)],
            }
        )
        topo = LiveTopology(spec, seed=1)
        try:
            ports = [topo.kdc_port, topo.http_port, topo.sync_port, topo.attest_port]
            ports += topo.device_ports.values()
            assert len(ports) == 16
            assert len(set(ports)) == 16
        finally:
            topo.stop()

    def test_scenario_retries_a_taken_port_with_a_fresh_topology(self, monkeypatch):
        started, stopped = [], []

        def start(topo):
            started.append(topo)
            raise PortInUse("taken")

        monkeypatch.setattr(LiveTopology, "start", start)
        real_stop = LiveTopology.stop

        def stop(topo):
            stopped.append(topo)
            real_stop(topo)

        monkeypatch.setattr(LiveTopology, "stop", stop)
        script = {"fleet": TINY_FLEET, "steps": [{"op": "login", "client": "alice"}]}
        with pytest.raises(PortInUse):
            run_live_scenario(script, seed=3)
        assert len(started) == live.START_ATTEMPTS
        assert len({id(topo) for topo in started}) == live.START_ATTEMPTS
        assert stopped == started


def forked_daemons(launcher) -> list[int]:
    """The launcher's children in the order it forked them: KDC, IoT server, devices."""
    pids = []
    for path in glob.glob(f"/proc/{launcher.pid}/task/*/children"):
        with open(path) as fh:
            pids += [int(pid) for pid in fh.read().split()]
    return pids


def running(pid: int) -> bool:
    """Whether ``pid`` runs; a zombie that nothing reaps has exited."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.fixture
def bulb_topology():
    """A started topology of the KDC, the IoT server and bulb; stopped after."""
    from kesic.provision import FleetSpec

    spec = FleetSpec.from_dict({"clients": TINY_FLEET["clients"], "devices": TINY_FLEET["devices"][:1]})
    topo = LiveTopology(spec)
    try:
        topo.start()
        yield topo
    finally:
        topo.stop()


class TestLauncher:
    def test_stop_leaves_no_daemon(self, bulb_topology):
        launcher, = bulb_topology.procs
        pids = forked_daemons(launcher)
        assert len(pids) == 3
        bulb_topology.stop()
        assert launcher.returncode == 0
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_a_killed_daemon_stops_its_launcher_which_names_it(self, bulb_topology):
        launcher, = bulb_topology.procs
        kdc, isv, bulb = forked_daemons(launcher)
        os.kill(bulb, signal.SIGKILL)
        launcher.wait(timeout=2)
        assert launcher.returncode == 1
        last = launcher.stderr.read().decode().strip().splitlines()[-1]
        assert last.startswith("error: daemon device --profile ") and "device-bulb.json" in last, last
        assert last.endswith(f"(pid {bulb}) exited with {-signal.SIGKILL}"), last
        assert not running(kdc) and not running(isv)

    def test_no_daemon_outlives_a_killed_launcher(self, bulb_topology):
        launcher, = bulb_topology.procs
        pids = forked_daemons(launcher)
        assert len(pids) == 3
        launcher.kill()
        launcher.wait()
        deadline = time.monotonic() + 2
        while any(running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not any(running(pid) for pid in pids)


@pytest.fixture
def stopped_topologies(monkeypatch):
    """Record every live topology started; after the test, each is stopped."""
    started, stopped = [], []
    real_start, real_stop = LiveTopology.start, LiveTopology.stop

    def start(topo):
        started.append(topo)
        real_start(topo)

    def stop(topo):
        procs = list(topo.procs)
        real_stop(topo)
        assert all(proc.poll() is not None for proc in procs)
        stopped.append(topo)

    monkeypatch.setattr(LiveTopology, "start", start)
    monkeypatch.setattr(LiveTopology, "stop", stop)
    yield started
    assert stopped == started


def _call_bulb(**extra) -> dict:
    return {"op": "call", "client": "alice", "device": "bulb", "cmd": "LED_ON", **extra}


PARITY_SCRIPTS = {
    "step-not-an-object": [{"op": "login", "client": "alice"}, "login"],
    "login-without-client": [{"op": "login"}],
    "misspelt-key": [{"op": "login", "client": "alice"}, _call_bulb(expect_verdic="accept")],
    "wrong-verdict": [{"op": "login", "client": "alice"}, _call_bulb(expect_verdict="replay")],
    "attest-unknown-device": [{"op": "login", "client": "alice"}, {"op": "attest", "client": "alice", "device": "ghost"}],
}


def _outcome(live_mode: bool, steps: list) -> object:
    """The exception class a script raises, or (op, error, verdict) per step."""
    script = {"fleet": TINY_FLEET, "steps": copy.deepcopy(steps)}
    try:
        report = run_scenario(script, seed=1, live=live_mode)
    except Exception as exc:  # the class is what both modes must share
        return type(exc)
    return [(r["op"], r.get("error"), r.get("result", {}).get("verdict")) for r in report["steps"]]


class TestSimLiveParity:
    @pytest.mark.parametrize("steps", PARITY_SCRIPTS.values(), ids=PARITY_SCRIPTS.keys())
    def test_live_mode_runs_the_simulated_step_runner(self, steps, stopped_topologies):
        sim = _outcome(False, steps)
        assert sim == ScriptError or any(error for _, error, _ in sim)
        assert _outcome(True, steps) == sim

    def test_live_cli_reports_a_script_error(self, tmp_path, capsys, stopped_topologies):
        path = tmp_path / "no-client.json"
        path.write_text(json.dumps({"fleet": TINY_FLEET, "steps": PARITY_SCRIPTS["login-without-client"]}))
        assert simcli.main(["run", str(path), "--live"]) == 2
        err = capsys.readouterr().err
        assert "error: ScriptError" in err and "Traceback" not in err
        assert stopped_topologies
