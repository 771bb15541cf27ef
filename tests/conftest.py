"""Fixtures shared by the whole test suite."""

import pytest

import repro.cli
from repro.obs import fleet


@pytest.fixture(autouse=True)
def fleet_ledger_in_tmp(tmp_path, monkeypatch):
    """Point the default fleet ledger into this test's tmp dir.

    CLI tests that pass neither ``--fleet`` nor ``--no-fleet`` would
    otherwise append to ``.repro/fleet.jsonl`` in the working directory.
    ``repro.cli`` binds the default path by name and ``FleetLedger``'s
    default argument was fixed when it was defined, so all three are
    patched.
    """
    path = tmp_path / ".repro" / "fleet.jsonl"
    monkeypatch.setattr(fleet, "DEFAULT_FLEET_PATH", path)
    monkeypatch.setattr(repro.cli, "DEFAULT_FLEET_PATH", path)
    monkeypatch.setattr(fleet.FleetLedger.__init__, "__defaults__", (path,))
