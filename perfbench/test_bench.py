"""Self-test of the benchmark: python3 -m pytest perfbench/test_bench.py

Takes about half a minute: it runs the cheapest workload in both modes.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import campaign as C
import run

SPEC = json.loads((C.ROOT / "BENCHMARK.json").read_text())


def _src_digest() -> dict[str, str]:
    return {str(p.relative_to(C.SRC)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(C.SRC.rglob("*")) if p.is_file()}


def _bench(*args: str, cwd=C.ROOT) -> subprocess.CompletedProcess:
    # Bytecode writing on, as in a default environment, so that a .pyc
    # written under src/ shows in the digest.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=180)


@pytest.fixture(scope="module")
def outputs():
    """Both modes of one short extremal-stream run, with src/ hashed around them."""
    before = _src_digest()
    runs = {}
    for trace in ("0", "1"):
        proc = _bench("--workload", "extremal-stream", "--seed", "5",
                      "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        runs[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return before, _src_digest(), runs


@pytest.fixture
def tmp():
    C.TMP_ROOT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(dir=C.TMP_ROOT)
    yield path
    C.remove_tree(path)


def test_every_metric_is_printed_with_its_unit(outputs):
    _, _, runs = outputs
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        out = runs[trace]
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in out["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


def test_no_file_under_src_changes(outputs):
    before, after, _ = outputs
    assert before == after


def test_refuses_to_run_without_sources(tmp):
    bare = Path(tmp) / "bare"
    bare.mkdir()
    shutil.copy(C.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(C.BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "fuzz-bounds", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_corrupt_oracle_or_flipped_record_byte_raises_fail_ratio(tmp):
    oracle = C.load_oracle()
    argv = ["enumerate-extremal", "--group", "Z17", "--checkpoint-every", "10"]
    inv = C.run_cli(argv, "plain", tmp)

    def fail_ratio(o: dict) -> float:
        tally = run.Tally(o)
        tally.check(inv)
        return tally.failed / tally.attempted

    assert fail_ratio(oracle) == 0
    corrupt = json.loads(json.dumps(oracle))
    corrupt["records"]["Z17 direct"]["sha256"] = "0" * 64
    assert fail_ratio(corrupt) == 1
    records = inv.artifact("records")
    data = bytearray(records.read_bytes())
    data[len(data) // 2] ^= 0x01
    records.write_bytes(bytes(data))
    assert fail_ratio(oracle) == 1


def test_same_seed_gives_identical_fuzz_counts(tmp):
    def fuzz(seed: int) -> list[dict]:
        inv = C.run_cli(["fuzz-bounds", "--trials", "300", "--seed", str(seed)],
                        "plain", tmp)
        assert inv.code == 0
        return json.loads(inv.artifact("fuzz.json").read_text())

    first = fuzz(11)
    assert fuzz(11) == first
    assert [r["applied"] for r in fuzz(12)] != [r["applied"] for r in first]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 61)]
    value, pct = run.tail(samples)
    assert (value, pct) == (50.0, 83)
    assert run.tail([1.0, 2.0, 3.0]) == (2.0, 50)


def test_invocation_past_its_timeout_is_killed_and_counted_failed(tmp):
    inv = C.run_cli(C.invocations("cr-frontier", 0)[0], "plain", tmp, timeout_s=0.5)
    assert inv.code is None and inv.wall_s < 10
    tally = run.Tally(C.load_oracle())
    tally.check(inv)
    assert tally.failed == tally.attempted > 0
