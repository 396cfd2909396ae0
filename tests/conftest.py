"""Shared fixtures: environment isolation, cached enumeration results, and
a command runner on a per-test store."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import spanlab as S
from spanlab.cli import main as cli_main


@pytest.fixture(autouse=True)
def _clean_environment(monkeypatch):
    """Keep an ambient SPANLAB_STORE from leaking into any test."""
    monkeypatch.delenv("SPANLAB_STORE", raising=False)


def _records(spec: str):
    return list(S.ExtremalEnumeration(S.parse_group_spec(spec)).records())


@pytest.fixture(scope="session")
def z15_records():
    return _records("Z15")


@pytest.fixture(scope="session")
def z16_records():
    return _records("Z16")


@pytest.fixture(scope="session")
def z21_records():
    return _records("Z21")


@pytest.fixture
def command(tmp_path, capsys):
    """Runs one spanlab command on a store under tmp_path, its output
    swallowed: command(artifact, *argv) returns the exit code, the ledger
    record the run appended and the JSON artifact it wrote as `artifact`."""
    store = tmp_path / "store"

    def run(artifact: str, *argv) -> tuple[int, dict, dict]:
        code = cli_main(["--store", str(store), *map(str, argv)])
        capsys.readouterr()
        ledger = (store / "campaigns.jsonl").read_text().splitlines()
        record = json.loads(ledger[-1])
        return code, record, json.loads(
            Path(record["artifacts"][artifact]).read_text())

    return run
