"""Provisioning outputs: the config files the daemons load."""

import os
import stat

import json

import pytest

from kesic.errors import ScriptError
from kesic.harness import simcli
from kesic.harness.scenario import run_scenario
from kesic.provision import DeviceSpec, FleetSpec, provision
from kesic.rng import Rng

from conftest import SMALL_FLEET


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(old)


WRITERS = {
    "kdc": lambda fleet, path: fleet.write_kdc_db(path),
    "isv": lambda fleet, path: fleet.write_isv_config(path),
    "device": lambda fleet, path: fleet.write_device_profile("bulb", path, path + ".mem"),
    "client": lambda fleet, path: fleet.write_client_identity("alice", path),
}


@pytest.mark.parametrize("existing", [False, True], ids=["new", "was-0644"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_config_files_are_owner_only(tmp_path, umask_022, writer, existing):
    fleet = provision(SMALL_FLEET, Rng(3))
    path = str(tmp_path / f"{writer}.json")
    if existing:
        with open(path, "w") as fh:
            fh.write("{}")
        os.chmod(path, 0o644)
    WRITERS[writer](fleet, path)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o600


def fleet_with(**device) -> dict:
    return {"clients": [{"name": "alice", "password": "pw-1"}], "devices": [{"name": "d", **device}]}


@pytest.mark.parametrize(
    "device, message",
    [
        ({"type": "gneral"}, "type must be general or power, not 'gneral'"),
        ({"type": "GENERAL"}, "type must be general or power, not 'GENERAL'"),
        ({}, "bad fleet spec: 'type'"),
        ({"type": "power", "window": "x"}, "bad fleet spec: invalid literal"),
    ],
    ids=["misspelt-type", "upper-case-type", "no-type", "non-integer-window"],
)
def test_bad_fleet_is_a_script_error(device, message):
    with pytest.raises(ScriptError, match=message):
        FleetSpec.from_dict(fleet_with(**device))


def test_fleet_fields_left_out_keep_the_spec_defaults():
    spec = FleetSpec.from_dict(fleet_with(type="power"))
    assert spec.devices == (DeviceSpec(name="d", dtype="power"),)
    assert spec.clients[0].services == ("isv",)
    assert spec == FleetSpec(clients=spec.clients, devices=spec.devices)


def test_scenario_with_an_unknown_device_type_is_refused(tmp_path, capsys):
    script = {"fleet": fleet_with(type="gneral"), "steps": []}
    with pytest.raises(ScriptError, match="'gneral'"):
        run_scenario(script)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(script))
    assert simcli.main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ScriptError: device 'd': type must be")
