"""Byte lock on the CLI: every subcommand's output file at 300 trials must
hash to the sha256 recorded in data/cli_digests.json."""

import hashlib
import json
from pathlib import Path

import pytest

import teleoptics
from teleoptics.cli import main

DIGESTS = json.loads((Path(__file__).parent / "data" / "cli_digests.json").read_text())
CIRCUITS = Path(teleoptics.__file__).parent / "circuits"


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_cli_output_matches_recorded_digest(name, tmp_path, monkeypatch):
    entry = DIGESTS[name]
    out = tmp_path / "out"
    monkeypatch.chdir(CIRCUITS)
    assert main(entry["argv"] + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == entry["sha256"]
