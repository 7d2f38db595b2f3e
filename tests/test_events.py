"""The one event sink: bounded per actor, and the KDC's decisions in reports."""

import ast
import json
import pathlib

import kesic
from kesic import events
from kesic.events import EVENTS_KEPT, Events
from kesic.harness.scenario import ScenarioRunner, World
from kesic.wire import CMD_LED_OFF, CMD_LED_ON

from conftest import SMALL_FLEET


def test_events_keep_the_newest_events_kept():
    sink = Events("dev:bulb")
    for i in range(EVENTS_KEPT + 10):
        sink.emit("service", n=i)
    assert len(sink) == EVENTS_KEPT
    assert sink[0] == {"actor": "dev:bulb", "event": "service", "n": 10}
    assert sink[-1] == {"actor": "dev:bulb", "event": "service", "n": EVENTS_KEPT + 9}


def test_an_events_ring_has_no_instance_dict():
    sink = Events("isv")
    assert not hasattr(sink, "__dict__")
    assert sink.actor == "isv"


def test_a_device_keeps_only_its_newest_events(monkeypatch):
    monkeypatch.setattr(events, "EVENTS_KEPT", 8)
    world = World.build(SMALL_FLEET, seed=3)
    world.boot_all()
    session = world.clients["alice"]
    session.login("correct-horse-battery-9")
    for i in range(20):
        assert session.call_device("bulb", CMD_LED_ON if i % 2 else CMD_LED_OFF).accepted
    bulb = world.devices["bulb"]
    assert len(bulb.events) == 8
    assert all(e["event"] == "service" and e["verdict"] == "accept" for e in bulb.events)
    assert bulb.events[-1]["cmd"] == CMD_LED_ON  # the 20th call


# AS for a client the KDC does not know, sent from an address with no handler.
UNKNOWN_CLIENT_AS = json.dumps({"op": "as", "id_c": "eve", "id_tgs": "tgs", "ts": 0}).encode().hex()

KDC_SCRIPT = {
    "name": "kdc-events",
    "steps": [
        {"op": "login", "client": "alice"},
        {"op": "capture_next", "slot": "tgs", "src": "client:alice", "dst": "kdc"},
        {"op": "get_ticket", "client": "alice", "device": "bulb"},
        {"op": "replay_slot", "slot": "tgs"},
        {"op": "inject", "src": "eve", "dst": "kdc", "data_hex": UNKNOWN_CLIENT_AS},
        {"op": "expect_event", "actor": "kdc", "event": "as-issued", "client": "alice"},
        {"op": "expect_event", "actor": "kdc", "event": "tgs-issued", "client": "alice", "service": "isv"},
        {"op": "expect_event", "actor": "kdc", "event": "request-rejected", "error": "ReplayDetected"},
        {"op": "expect_event", "actor": "kdc", "event": "request-rejected", "error": "UnknownPrincipal"},
    ],
}


def test_a_report_carries_the_kdc_decisions_first():
    report = ScenarioRunner(KDC_SCRIPT, seed=5).run()
    assert report["ok"], report["failures"]
    kdc_events = [e for e in report["events"] if e["actor"] == "kdc"]
    assert kdc_events == [
        {"actor": "kdc", "event": "as-issued", "client": "alice"},
        {"actor": "kdc", "event": "tgs-issued", "client": "alice", "service": "isv"},
        {"actor": "kdc", "event": "request-rejected", "error": "ReplayDetected"},
        {"actor": "kdc", "event": "request-rejected", "error": "UnknownPrincipal"},
    ]
    assert report["events"][: len(kdc_events)] == kdc_events


def _keys(node: ast.Dict) -> set:
    return {key.value for key in node.keys if isinstance(key, ast.Constant)}


def test_only_the_sink_builds_an_event():
    """No actor keeps its own ``_event`` helper or builds an event dict by
    hand, and none records its decisions through ``logging``."""
    src = pathlib.Path(kesic.__file__).resolve().parent
    builders, loggers = set(), set()
    for path in sorted(src.rglob("*.py")):
        name = path.relative_to(src).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "_event":
                builders.add(name)
            elif isinstance(node, ast.Dict) and "actor" in _keys(node) and "op" not in _keys(node):
                builders.add(name)  # an expect_event step names an actor too, but is no event
            elif isinstance(node, ast.Import) and any(alias.name == "logging" for alias in node.names):
                loggers.add(name)
    assert builders == {"events.py"}
    assert loggers.isdisjoint({"isv.py", "kdc.py", "device/emulated.py"}), loggers
