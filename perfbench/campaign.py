"""Workload definitions, the CLI runner, and the output oracle.

A campaign is the list of `spanlab` invocations a workload runs once; each
invocation is a fresh interpreter against its own fresh temporary store,
started by child.py. Every output is checked against oracle.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ORACLE_PATH = BENCH / "oracle.json"
TMP_ROOT = ROOT / ".bench_tmp"
PYCACHE = ROOT / ".bench_cache" / "pycache"

INVOCATION_TIMEOUT_S = 150

FUZZ_TRIALS = 10_000
STREAM_GROUPS = ("Z17", "Z21", "Z25", "Z3xZ3xZ3")


def invocations(workload: str, seed: int) -> list[list[str]]:
    """The spanlab arguments of one campaign of `workload`."""
    if workload == "cr-frontier":
        return [["verify-theorem-a", "--max-order", "36"]]
    if workload == "extremal-stream":
        runs = [["enumerate-extremal", "--group", g, "--checkpoint-every", "10"]
                for g in STREAM_GROUPS]
        return runs + [["enumerate-extremal", "--group", "Z3xZ3xZ3", "--extended",
                        "--checkpoint-every", "10"]]
    if workload == "extremal-parallel":
        return [["enumerate-extremal", "--group", "Z55", "--extended",
                 "--threads", "2"]]
    if workload == "fuzz-bounds":
        return [["fuzz-bounds", "--trials", str(FUZZ_TRIALS), "--seed", str(seed)]]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("cr-frontier", "extremal-stream", "extremal-parallel", "fuzz-bounds")


def check_checkout() -> None:
    """Refuse to run without the spanlab sources next to the benchmark."""
    if not (SRC / "spanlab" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no spanlab sources under {SRC}")


def child_env() -> dict:
    """Environment of every invocation: spanlab from SRC, bytecode cached
    outside the sources (as an installed package would have it), and no
    ambient SPANLAB_* settings."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env["PYTHONHASHSEED"] = "0"
    for var in ("PYTHONDONTWRITEBYTECODE", "SPANLAB_STORE", "SPANLAB_THREADS",
                "SPANLAB_SEED"):
        env.pop(var, None)
    return env


def warm_up() -> None:
    """Compile spanlab into the bytecode cache before anything is timed."""
    subprocess.run([sys.executable, "-c", "import spanlab.cli"], env=child_env(),
                   cwd=ROOT, check=True, timeout=INVOCATION_TIMEOUT_S)


@dataclass
class Invocation:
    argv: list[str]
    dir: Path
    code: int | None = None
    wall_s: float = 0.0
    cpu_s: float = 0.0
    setup_s: float | None = None
    result: dict = field(default_factory=dict)

    def ledger(self) -> dict:
        """The campaign record this invocation appended to its store."""
        lines = (self.dir / "store" / "campaigns.jsonl").read_text().splitlines()
        return json.loads(lines[-1])

    def artifact(self, name: str) -> Path:
        return Path(self.ledger()["artifacts"][name])

    def worker_traces(self) -> list[dict]:
        out = []
        for path in sorted(self.dir.glob("worker-*.jsonl")):
            out += [json.loads(line) for line in path.read_text().splitlines()]
        return out


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of the invocation's process group and wait
    (bounded) until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_cli(argv: list[str], mode: str, tmp: Path,
            timeout_s: float = INVOCATION_TIMEOUT_S) -> Invocation:
    """Run one spanlab invocation in a fresh interpreter and store; kill it
    (counted as a crash) if it outlives timeout_s."""
    inv = Invocation(argv, Path(tempfile.mkdtemp(dir=tmp)))
    cmd = [sys.executable, str(BENCH / "child.py"), str(inv.dir), mode,
           "--store", str(inv.dir / "store"), *argv]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    killed = threading.Event()

    def kill() -> None:
        killed.set()
        _stop_group(proc.pid)

    with open(inv.dir / "output.log", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT, start_new_session=True)
        # A blocking wait returns as soon as the child exits; Popen.wait with
        # a timeout polls, which would add up to 50 ms to every wall time.
        watchdog = threading.Timer(timeout_s, kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
        inv.wall_s = time.monotonic() - t0
    inv.code = None if killed.is_set() else code
    _stop_group(proc.pid)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    inv.cpu_s = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    marks = [float(p.read_text()) for p in inv.dir.glob("first-*")]
    if marks:
        inv.setup_s = min(marks) - t0
    result = inv.dir / "result.json"
    if result.exists():
        inv.result = json.loads(result.read_text())
    return inv


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# -- oracle -------------------------------------------------------------------------


def load_oracle(path: Path = ORACLE_PATH) -> dict:
    return json.loads(path.read_text())


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def records_key(argv: list[str]) -> str:
    """Oracle key of an enumerate-extremal invocation: '<group> <mode>'."""
    group = argv[argv.index("--group") + 1]
    return f"{group} {'missed_target' if '--extended' in argv else 'direct'}"


@dataclass
class Verdict:
    """Outcome of checking one invocation: units attempted and failed."""

    attempted: int
    failed: int
    disagreements: int = 0
    problems: list[str] = field(default_factory=list)


def check_cr(inv: Invocation, oracle: dict) -> Verdict:
    """One unit per group: searched cr equal to the frozen value."""
    want = oracle["cr"]
    v = Verdict(attempted=len(want), failed=0)
    try:
        rows = json.loads(inv.artifact("table.json").read_text())["rows"]
    except (OSError, KeyError, IndexError, ValueError) as exc:
        return Verdict(len(want), len(want), 0, [f"no table: {exc!r}"])
    got = {r["spec"]: r for r in rows}
    for spec, value in want.items():
        row = got.get(spec)
        if row is None or row["status"] != "complete" or row["searched"] != value:
            v.failed += 1
            v.problems.append(f"{spec}: want searched {value}, got {row}")
    v.disagreements = sum(1 for r in rows if r["agree"] is False)
    if inv.code != (1 if v.disagreements else 0):
        v.failed = v.attempted
        v.problems.append(f"exit code {inv.code} with {v.disagreements} disagreements")
    return v


def check_records(inv: Invocation, oracle: dict) -> Verdict:
    """One unit per (group, mode): records.jsonl bytes as frozen."""
    key = records_key(inv.argv)
    try:
        digest = sha256_of(inv.artifact("records"))
    except (OSError, KeyError, IndexError, ValueError) as exc:
        return Verdict(1, 1, 0, [f"{key}: no records: {exc!r}"])
    want = oracle["records"][key]
    if inv.code != 0 or digest != want["sha256"]:
        return Verdict(1, 1, 0, [f"{key}: exit {inv.code}, sha256 {digest}"])
    return Verdict(1, 0)


def check_fuzz(inv: Invocation, oracle: dict) -> Verdict:
    """One unit per bound: clean, full trial count, censuses as frozen."""
    want = oracle["fuzz"]
    v = Verdict(attempted=len(want["lemmas"]), failed=0)
    try:
        reports = {r["lemma"]: r for r in
                   json.loads(inv.artifact("fuzz.json").read_text())}
    except (OSError, KeyError, IndexError, ValueError) as exc:
        return Verdict(v.attempted, v.attempted, 0, [f"no fuzz.json: {exc!r}"])
    for lemma in want["lemmas"]:
        r = reports.get(lemma)
        ok = (r is not None and r["clean"] and r["trials"] == FUZZ_TRIALS
              and r["applied"] > 0
              and r["exhaustive"] == want["censuses"].get(lemma))
        if not ok or inv.code != 0:
            v.failed += 1
            v.problems.append(f"{lemma}: exit {inv.code}, report {r}")
    return v


def check(inv: Invocation, oracle: dict) -> Verdict:
    command = inv.argv[0]
    if command == "verify-theorem-a":
        return check_cr(inv, oracle)
    if command == "enumerate-extremal":
        return check_records(inv, oracle)
    return check_fuzz(inv, oracle)
