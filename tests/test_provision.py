"""Provisioning outputs: the config files the daemons load."""

import os
import stat

import pytest

from kesic.provision import provision
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
