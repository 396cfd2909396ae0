"""Persistent campaign store.

Layout under one root directory:

    <store>/campaigns.jsonl            append-only run ledger, one JSON
                                       object per campaign (a plain dict)
    <store>/artifacts/<campaign_id>/   per-run output files

Artifacts are written atomically (temp file in the target directory, then
os.replace) and hashed; ledger appends take an advisory flock so
concurrent runs interleave at line granularity. Wall-clock timestamps
live only in the ledger records -- artifact bytes stay deterministic for
a given command, seed, and thread-count-independent engine output.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any

STATUS_COMPLETE = "COMPLETE"
STATUS_PARTIAL = "PARTIAL"
STATUS_FAILED = "FAILED"


def utc_stamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def dump_json(obj: Any, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


class CampaignStore:
    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.ledger_path = self.root / "campaigns.jsonl"
        self.artifacts_root = self.root / "artifacts"

    def new_campaign_id(self, command: str) -> str:
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        return f"{stamp}-{command}-{os.urandom(3).hex()}"

    def artifact_dir(self, campaign_id: str) -> Path:
        d = self.artifacts_root / campaign_id
        d.mkdir(parents=True, exist_ok=True)
        return d

    def write_artifact(self, campaign_id: str, name: str, obj: Any) -> Path:
        path = self.artifact_dir(campaign_id) / name
        atomic_write_text(path, dump_json(obj, pretty=True))
        return path

    def append(self, record: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        line = dump_json(record) + "\n"
        with open(self.ledger_path, "a", encoding="utf-8") as f:
            fcntl.flock(f.fileno(), fcntl.LOCK_EX)
            try:
                f.write(line)
                f.flush()
                os.fsync(f.fileno())
            finally:
                fcntl.flock(f.fileno(), fcntl.LOCK_UN)

    def records(self) -> list[dict]:
        if not self.ledger_path.exists():
            return []
        out = []
        with open(self.ledger_path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if line:
                    out.append(json.loads(line))
        return out

    def find(self, campaign_id: str) -> dict | None:
        return next((rec for rec in self.records()
                     if rec.get("campaign_id") == campaign_id), None)
