"""Campaign store: append-only log, artifacts, stable serialization."""

from __future__ import annotations

import json
import re
from datetime import datetime

import pytest

import spanlab as S
from spanlab.store import atomic_write_text, dump_json, sha256_file, utc_stamp


def _record(campaign_id: str, **over) -> dict:
    base = dict(
        campaign_id=campaign_id,
        command="cr --group=Z15",
        group="Z15",
        status="COMPLETE",
        started="2026-01-01T00:00:00Z",
        finished="2026-01-01T00:00:01Z",
        artifacts={"cr.json": "/tmp/x/cr.json"},
        checksums={"cr.json": "0" * 64},
        config={"seed": 0},
        summary={"formula": 7},
    )
    base.update(over)
    return base


def test_dump_json_is_key_order_independent():
    a = dump_json({"b": 1, "a": [3, 2], "c": {"y": 1, "x": 2}})
    b = dump_json({"c": {"x": 2, "y": 1}, "a": [3, 2], "b": 1})
    assert a == b
    assert json.loads(a) == {"a": [3, 2], "b": 1, "c": {"x": 2, "y": 1}}


def test_utc_stamp_is_parseable():
    stamp = utc_stamp()
    datetime.fromisoformat(stamp.replace("Z", "+00:00"))


def test_atomic_write_and_checksum(tmp_path):
    path = tmp_path / "x.json"
    atomic_write_text(path, "hello\n")
    assert path.read_text() == "hello\n"
    digest = sha256_file(path)
    assert len(digest) == 64 and int(digest, 16) >= 0
    atomic_write_text(path, "hello\n")
    assert sha256_file(path) == digest


def test_store_append_and_read_back(tmp_path):
    store = S.CampaignStore(tmp_path / "store")
    cid = store.new_campaign_id("cr")
    store.append(_record(cid))
    rows = store.records()
    assert len(rows) == 1
    assert rows[0]["campaign_id"] == cid
    assert rows[0]["status"] == "COMPLETE"
    log = tmp_path / "store" / "campaigns.jsonl"
    assert log.exists()
    assert len(log.read_text().splitlines()) == 1


def test_store_find_by_id(tmp_path):
    store = S.CampaignStore(tmp_path / "store")
    first = store.new_campaign_id("cr")
    second = store.new_campaign_id("fuzz-bounds")
    store.append(_record(first))
    store.append(_record(second, command="fuzz-bounds", summary={"n": 1}))
    assert store.find(first)["summary"] == {"formula": 7}
    assert store.find(second)["command"] == "fuzz-bounds"
    assert store.find("nope") is None
    # one record per campaign: find takes the first line of an id
    store.append(_record(first, status="FAILED"))
    assert store.find(first)["status"] == "COMPLETE"


def test_campaign_ids_are_unique_and_well_formed(tmp_path):
    # a UTC stamp to the second, the command and 3 random bytes in hex; ids
    # made in the same second are not ordered, only distinct
    store = S.CampaignStore(tmp_path / "store")
    ids = [store.new_campaign_id("cr") for _ in range(5)]
    assert len(set(ids)) == 5
    for cid in ids:
        assert re.fullmatch(r"\d{8}T\d{6}-cr-[0-9a-f]{6}", cid), cid


def test_artifacts_live_under_campaign_directory(tmp_path):
    store = S.CampaignStore(tmp_path / "store")
    cid = store.new_campaign_id("cr")
    path = store.write_artifact(cid, "cr.json", {"formula": 7, "agree": True})
    assert path == store.artifact_dir(cid) / "cr.json"
    assert path.parent == tmp_path / "store" / "artifacts" / cid
    assert json.loads(path.read_text()) == {"formula": 7, "agree": True}


def test_record_round_trip_through_dict(tmp_path):
    d = _record("c-1")
    assert d["campaign_id"] == "c-1"
    assert set(d) >= {"campaign_id", "command", "group", "status", "started",
                      "finished", "artifacts", "checksums", "config",
                      "summary"}
    line = dump_json(d)
    assert json.loads(line) == d
    # the ledger line has sorted keys, whatever order the dict was built in
    store = S.CampaignStore(tmp_path / "store")
    store.append(dict(reversed(d.items())))
    assert store.ledger_path.read_text() == line + "\n"
    assert store.records() == [d]


def test_store_tolerates_missing_root_until_first_write(tmp_path):
    store = S.CampaignStore(tmp_path / "fresh")
    assert store.records() == []
    assert store.find("anything") is None
