"""Command-line surface: exit codes, artifacts, determinism, resume."""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import pytest

import spanlab as S
import spanlab.cli
import spanlab.extremal
import spanlab.fuzz
import spanlab.search
from spanlab.cli import main as cli_main
from spanlab.extremal import Verdict


@pytest.fixture
def cli(tmp_path, capsys, monkeypatch):
    """In-process CLI runner bound to a per-test store directory."""
    store = tmp_path / "store"

    def run(*args, env=None, use_store_flag=True):
        if env:
            for key, value in env.items():
                monkeypatch.setenv(key, value)
        argv = ["--store", str(store)] if use_store_flag else []
        argv += [str(a) for a in args]
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        out, err = capsys.readouterr()
        return code, out, err

    run.store = store
    run.tmp = tmp_path
    return run


def _campaigns(run):
    path = run.store / "campaigns.jsonl"
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()]


def _artifact(run, record, name):
    return run.store / "artifacts" / record["campaign_id"] / name


# ----------------------------------------------------------- cr


def test_cr_dual_mode_agreement(cli):
    code, out, _ = cli("cr", "--group", "Z15")
    assert code == 0
    assert "7" in out and "COMPLETE" in out
    (rec,) = _campaigns(cli)
    assert rec["status"] == "COMPLETE"
    assert rec["group"] == "Z15"
    payload = json.loads(_artifact(cli, rec, "cr.json").read_text())
    assert payload["formula"] == 7
    assert payload["search"]["value"] == 7
    assert payload["agree"] is True
    digest = hashlib.sha256(
        _artifact(cli, rec, "cr.json").read_bytes()).hexdigest()
    assert rec["checksums"]["cr.json"] == digest


def test_cr_formula_only(cli):
    code, out, _ = cli("cr", "--group", "Z2xZ4", "--formula")
    assert code == 0
    assert "5" in out
    (rec,) = _campaigns(cli)
    payload = json.loads(_artifact(cli, rec, "cr.json").read_text())
    assert payload["formula"] == 5
    assert payload["search"] is None


def test_cr_search_budget_yields_partial(cli):
    code, out, _ = cli("cr", "--group", "Z21", "--max-nodes", 40)
    assert code == 2
    assert "PARTIAL" in out


def test_cr_search_skipped_above_exact_order_cap(cli):
    code, out, _ = cli("cr", "--group", "Z65")
    assert code == 0
    (rec,) = _campaigns(cli)
    payload = json.loads(_artifact(cli, rec, "cr.json").read_text())
    assert payload["formula"] == S.critical_number_formula(
        S.parse_group_spec("Z65"))
    assert payload["search"] is None or payload["search"].get("value") is None


# --------------------------------------------------------- errors


def test_unknown_subcommand_exits_one(cli):
    code, _, err = cli("definitely-not-a-command")
    assert code == 1
    assert "invalid choice" in err


def test_unknown_flag_exits_one(cli):
    code, _, _ = cli("cr", "--group", "Z15", "--nonsense")
    assert code == 1


@pytest.mark.parametrize("args", [
    ["cr", "--group", "Z15", "--extended"],
    ["verify-theorem-a", "--max-order", 5, "--extended"],
    ["conjecture", "--group", "Z15", "--orbit-dedup"],
    ["conjecture", "--group", "Z15", "--no-orbit-dedup"],
    ["enumerate-extremal", "--group", "Z15", "--max-candidates", 5],
    ["cr", "--group", "Z15", "--no-reduce-orbits"],
    ["verify-theorem-a", "--max-order", 5, "--reduce-orbits"],
    ["cr", "--group", "Z15", "--both"],
    ["verify-main", "--group", "Z33", "--extended"],
    ["conjecture", "--group", "Z15", "--extended"],
    ["conjecture", "--group", "Z15", "--which", 2],
    ["conjecture", "--group", "Z15", "--p", 3],
    ["conjecture", "--group", "Z15", "--q", 5],
], ids=["cr-extended", "theorem-a-extended", "conjecture-orbit-dedup",
        "conjecture-no-orbit-dedup", "enumerate-max-candidates",
        "cr-no-reduce-orbits", "theorem-a-reduce-orbits", "cr-both",
        "verify-main-extended", "conjecture-extended", "conjecture-which",
        "conjecture-p", "conjecture-q"])
def test_removed_flags_exit_one(cli, args):
    # flags these commands no longer take are refused before any campaign
    code, _, err = cli(*args)
    assert code == 1
    assert "unrecognized arguments" in err
    assert _campaigns(cli) == []


@pytest.mark.parametrize("status,violation,code", [
    ("COMPLETE", False, 0), ("COMPLETE", True, 1),
    ("PARTIAL", False, 2), ("PARTIAL", True, 2),
    ("FAILED", False, 1), ("FAILED", True, 1),
])
def test_finish_derives_the_exit_code_from_the_status(cli, status, violation,
                                                      code):
    args = spanlab.cli.build_parser().parse_args(
        ["--store", str(cli.store), "cr", "--group", "Z7"])
    run = spanlab.cli._Run(S.CampaignStore(cli.store), args)
    assert run.finish(status, {}, ["line"], violation) == code
    (rec,) = _campaigns(cli)
    assert rec["status"] == status


def test_closed_stdout_leaves_one_complete_record(cli, monkeypatch):
    # the lines print after the record is appended, so the broken pipe they
    # meet adds no second, FAILED record
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as closed, monkeypatch.context() as m:
        m.setattr(sys, "stdout", closed)
        code, _, err = cli("cr", "--group", "Z15")
    assert code == 1
    assert err == "error: [Errno 32] Broken pipe\n"
    (rec,) = _campaigns(cli)
    assert rec["status"] == "COMPLETE"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_closed_pipe_ends_quietly(tmp_path, buffered):
    env = {**os.environ,
           "PYTHONPATH": str(Path(spanlab.cli.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    store = tmp_path / "store"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "spanlab", "--store", str(store), "cr",
             "--group", "Z15"], stdout=write, stderr=subprocess.PIPE,
            text=True, env=env, timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == "error: [Errno 32] Broken pipe\n"  # no traceback
    (line,) = (store / "campaigns.jsonl").read_text().splitlines()
    assert json.loads(line)["status"] == "COMPLETE"


def _interrupt(*args, **kwargs):
    raise KeyboardInterrupt


def _interrupt_the_caller_behind_a_busy_pool(monkeypatch, tmp):
    """Two usable CPUs, so fuzz-bounds starts a pool of one worker, which
    naps first: once on the nap it runs and once for each slot of its call
    queue, so the campaigns submitted next stay queued for a while. The
    caller's second campaign is interrupted; a worker that starts a
    campaign leaves worker-ran-<lemma> in tmp."""
    real_pool, real_campaign = spanlab.fuzz.ProcessPoolExecutor, spanlab.fuzz.run_campaign
    caller = os.getpid()

    def busy_pool(workers):
        pool = real_pool(workers)
        for _ in range(workers + 2):
            pool.submit(time.sleep, 0.2)
        return pool

    @functools.wraps(real_campaign)  # pickled by its name, spanlab.fuzz.run_campaign
    def run_campaign(lemma, trials, seed):
        if os.getpid() != caller:
            (tmp / f"worker-ran-{lemma}").touch()
        elif lemma == "2.2":
            raise KeyboardInterrupt
        return real_campaign(lemma, trials, seed)

    monkeypatch.setattr(spanlab.fuzz, "usable_cpus", lambda: 2)
    monkeypatch.setattr(spanlab.fuzz, "ProcessPoolExecutor", busy_pool)
    monkeypatch.setattr(spanlab.fuzz, "run_campaign", run_campaign)


@pytest.mark.parametrize("args,interrupt", [
    (["cr", "--group", "Z15"], "spanlab.critical.max_avoiding"),
    (["verify-theorem-a", "--max-order", 8], "spanlab.critical.max_avoiding"),
    (["fuzz-bounds", "--lemma", "2.3", "--trials", 5], "spanlab.fuzz.run_campaign"),
    (["fuzz-bounds", "--lemma", "2.1", "--lemma", "2.2", "--lemma", "2.3",
      "--trials", 5], _interrupt_the_caller_behind_a_busy_pool),
], ids=["cr", "verify-theorem-a", "fuzz-bounds", "fuzz-bounds-pool"])
def test_ctrl_c_in_a_search_leaves_one_failed_record(cli, monkeypatch, args,
                                                     interrupt):
    """interrupt is the function to replace with one raising KeyboardInterrupt,
    or a setup that arranges the interrupt itself."""
    if callable(interrupt):
        interrupt(monkeypatch, cli.tmp)
    else:
        monkeypatch.setattr(interrupt, _interrupt)
    code, out, err = cli(*args)
    assert code == 1
    assert err == "interrupted\n"
    (rec,) = _campaigns(cli)
    assert rec["status"] == "FAILED"
    assert rec["summary"] == {"error": "KeyboardInterrupt"}
    assert out == f"campaign {rec['campaign_id']}: FAILED\n"
    # what was still queued at the interrupt was cancelled, not run, and the
    # pool's workers are gone
    assert list(cli.tmp.glob("worker-ran-*")) == []
    assert multiprocessing.active_children() == []


def test_ctrl_c_in_an_enumeration_leaves_one_partial_record(cli, monkeypatch):
    monkeypatch.setattr(Verdict, "add", _interrupt)
    code, out, _ = cli("enumerate-extremal", "--group", "Z15")
    assert code == 2
    (rec,) = _campaigns(cli)
    assert rec["status"] == "PARTIAL"
    assert "interrupted; resume with --resume" in out
    assert Path(rec["artifacts"]["checkpoint"]).exists()


@pytest.mark.parametrize("flag,value", [
    ("--max-nodes", 5), ("--max-seconds", 1), ("--max-exact-order", 3),
])
def test_cr_formula_with_a_search_flag_is_a_usage_error(cli, flag, value):
    # --formula runs no search, so a search budget would bound nothing
    code, out, err = cli("cr", "--group", "Z15", "--formula", flag, value)
    assert code == 1
    assert flag in err
    assert out == ""
    assert _campaigns(cli) == []


def test_cr_search_is_an_unknown_argument(cli):
    code, _, err = cli("cr", "--group", "Z15", "--formula", "--search")
    assert code == 1
    assert "unrecognized arguments: --search" in err


def test_malformed_group_spec_exits_one(cli):
    code, _, err = cli("cr", "--group", "Zfoo")
    assert code == 1
    assert "Zfoo" in err


@pytest.mark.parametrize("args,flag", [
    (["enumerate-extremal", "--group", "Z3", "--threads", 0], "--threads"),
    (["fuzz-bounds", "--lemma", "2.1", "--trials", -1], "--trials"),
    (["enumerate-extremal", "--group", "Z15", "--checkpoint-every", -1],
     "--checkpoint-every"),
    (["cr", "--group", "Z21", "--max-seconds", "nan"], "--max-seconds"),
    (["cr", "--group", "Z21", "--max-seconds", "inf"], "--max-seconds"),
    (["enumerate-extremal", "--group", "Z15", "--max-nodes", -5], "--max-nodes"),
    (["cr", "--group", "Z15", "--max-exact-order", -1], "--max-exact-order"),
    (["cr", "--group", "Z15", "--max-exact-order", 0], "--max-exact-order"),
    (["verify-theorem-a", "--max-order", 2], "--max-order"),
    (["enumerate-extremal", "--group", "Z15", "--max-seconds", -5],
     "--max-seconds"),
    (["cr", "--group", "Z15", "--max-seconds", -1], "--max-seconds"),
], ids=["threads-0", "trials-neg", "checkpoint-every-neg", "seconds-nan",
        "seconds-inf", "max-nodes-neg", "max-exact-order-neg",
        "max-exact-order-0", "max-order-2", "enumerate-seconds-neg",
        "cr-seconds-neg"])
def test_out_of_range_flag_is_a_usage_error(cli, args, flag):
    code, _, err = cli(*args)
    assert code == 1
    assert f"argument {flag}:" in err
    assert _campaigns(cli) == []


@pytest.mark.parametrize("var", ["SPANLAB_THREADS", "SPANLAB_SEED"])
def test_threads_and_seed_environment_variables_change_nothing(cli, var):
    runs = [["enumerate-extremal", "--group", "Z15", "--extended"],
            ["fuzz-bounds", "--lemma", "2.1", "--trials", 50]]
    plain = [cli(*args)[1] for args in runs]
    dirty = [cli(*args, env={var: "abc"})[1] for args in runs]
    records = _campaigns(cli)
    for rec, again, out, out_env in zip(records, records[2:], plain, dirty):
        assert rec["config"] == again["config"]
        assert rec["summary"] == again["summary"]
        assert (out_env.replace(again["campaign_id"], rec["campaign_id"])
                == out)


@pytest.mark.parametrize("flags", [["--threads", 0], ["--threads", -3]])
def test_threads_below_one_is_a_usage_error(cli, flags):
    code, _, err = cli("enumerate-extremal", "--group", "Z3", "--extended",
                       *flags)
    assert code == 1
    assert "--threads" in err
    assert _campaigns(cli) == []


class _InlinePool:
    """Stands in for ProcessPoolExecutor: notes the pool size asked for and
    runs each unit at submit, so no process starts."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        unit = Future()
        unit.set_result(fn(*args))
        return unit


@pytest.mark.parametrize("patches,workers", [
    pytest.param({"spanlab.extremal.usable_cpus": lambda: 3}, 3, id="3-3"),
    # no affinity to read and no CPU count: one worker
    pytest.param({"os.sched_getaffinity": None, "os.cpu_count": lambda: None},
                 1, id="None-1"),
    # the affinity, as under taskset -c 0, not the host's CPU count
    pytest.param({"os.sched_getaffinity": lambda pid: {0}, "os.cpu_count": lambda: 8},
                 1, id="affinity-1-of-8"),
    pytest.param({"os.sched_getaffinity": lambda pid: {1, 4, 6},
                  "os.cpu_count": lambda: 8}, 3, id="affinity-3-of-8"),
])
def test_threads_pool_has_at_most_one_worker_per_cpu(cli, monkeypatch, patches,
                                                     workers):
    """patches: what to replace (None: remove) for the usable CPU count."""
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(spanlab.extremal, "ProcessPoolExecutor", _InlinePool)
    for target, value in patches.items():
        if value is None:
            monkeypatch.delattr(target, raising=False)
        else:
            monkeypatch.setattr(target, value, raising=False)
    code, _, _ = cli("enumerate-extremal", "--group", "Z3", "--extended",
                     "--threads", 100_000)
    assert code == 0
    # one worker walks inline: no pool is started
    assert _InlinePool.sizes == ([workers] if workers > 1 else [])
    (rec,) = _campaigns(cli)
    assert len(_artifact(cli, rec, "records.jsonl").read_text().splitlines()) == 1


def _loaded_by_fresh_import(*modules: str, then: str = "") -> str:
    """Those of modules that are in sys.modules after `import spanlab.cli`
    and the statements `then` in a fresh interpreter (this one has imported
    far more), as a printed list."""
    src = Path(spanlab.cli.__file__).resolve().parents[1]
    probe = (f"import os, sys, spanlab.cli\n{then}\n"
             f"print(sorted(m for m in {modules!r} if m in sys.modules))")
    return subprocess.run([sys.executable, "-c", probe], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}).stdout


def test_import_loads_no_pool_machinery():
    # only a run with --threads > 1 may load the pool stack
    assert _loaded_by_fresh_import("concurrent.futures", "multiprocessing") == "[]\n"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
@pytest.mark.parametrize("pin,lemmas", [
    ("", ["--lemma", "2.5"]),
    ("os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})", []),  # as taskset -c
], ids=["one-campaign", "one-cpu"])
def test_fuzz_bounds_on_one_cpu_or_of_one_campaign_loads_no_pool_machinery(
        tmp_path, pin, lemmas):
    run = (f"{pin}\nspanlab.cli.main(['--store', {str(tmp_path)!r}, 'fuzz-bounds', "
           f"'--trials', '5', *{lemmas!r}])")
    out = _loaded_by_fresh_import("concurrent.futures", "multiprocessing", then=run)
    assert "COMPLETE" in out
    assert out.endswith("\n[]\n")


def test_import_loads_no_dataclass_or_secrets_stack():
    # dataclasses (with inspect, ast and dis) and secrets (with hmac) cost
    # every invocation start-up time before its first unit of work
    assert _loaded_by_fresh_import("dataclasses", "inspect", "ast", "dis",
                                   "secrets", "hmac") == "[]\n"


# ---------------------------------------------------- enumeration


def test_enumerate_writes_classified_records(cli):
    code, out, _ = cli("enumerate-extremal", "--group", "Z15")
    assert code == 0
    (rec,) = _campaigns(cli)
    lines = _artifact(cli, rec, "records.jsonl").read_text().splitlines()
    assert len(lines) == 28
    first = json.loads(lines[0])
    assert set(first) == {"schema_version", "group", "set", "tags",
                          "witnesses", "profile"}
    assert first["group"] == "Z15"
    assert rec["summary"]["records"] == 28


def test_ledger_config_echoes_every_declared_flag(cli):
    ck = cli.tmp / "ck.json"
    assert cli("enumerate-extremal", "--group", "Z15", "--checkpoint", ck)[0] == 0
    (rec,) = _campaigns(cli)
    assert set(rec["config"]) == {
        "store", "group", "out", "checkpoint", "max-nodes", "max-seconds",
        "extended", "no-orbit-dedup", "threads", "resume", "checkpoint-every"}
    assert rec["config"]["checkpoint"] == str(ck)
    assert f"--checkpoint={ck}" in rec["command"].split()


def test_enumerate_output_is_deterministic(cli):
    assert cli("enumerate-extremal", "--group", "Z15")[0] == 0
    assert cli("enumerate-extremal", "--group", "Z15")[0] == 0
    a, b = _campaigns(cli)
    bytes_a = _artifact(cli, a, "records.jsonl").read_bytes()
    bytes_b = _artifact(cli, b, "records.jsonl").read_bytes()
    assert bytes_a == bytes_b


def test_enumerate_interrupt_resume_is_byte_identical(cli):
    out_full = cli.tmp / "full.jsonl"
    code, _, _ = cli("enumerate-extremal", "--group", "Z21",
                     "--out", out_full)
    assert code == 0

    out_resumed = cli.tmp / "resumed.jsonl"
    ck = cli.tmp / "ck.json"
    code, text, _ = cli("enumerate-extremal", "--group", "Z21",
                        "--out", out_resumed, "--checkpoint", ck,
                        "--max-nodes", 3000, "--checkpoint-every", 10)
    assert code == 2
    assert "PARTIAL" in text
    assert not out_resumed.exists()
    assert out_resumed.with_suffix(".jsonl.partial").exists()
    assert ck.exists()

    code, text, _ = cli("enumerate-extremal", "--group", "Z21",
                        "--resume", ck)
    assert code == 0
    assert out_resumed.read_bytes() == out_full.read_bytes()


@pytest.mark.parametrize("mode,n", [
    ([], 28),
    (["--extended", "--threads", 1], 4),
    (["--extended", "--threads", 2], 4),
    (["--extended", "--threads", 1, "--no-orbit-dedup"], 28),
    (["--extended", "--threads", 2, "--no-orbit-dedup"], 28),
], ids=["direct", "extended-1", "extended-2", "extended-1-all",
        "extended-2-all"])
def test_ctrl_c_at_every_record_resumes_byte_identical(cli, monkeypatch, mode, n):
    full = cli.tmp / "full.jsonl"
    assert cli("enumerate-extremal", "--group", "Z15", "--out", full, *mode)[0] == 0
    want = full.read_bytes()
    assert len(want.splitlines()) == n

    trip = {"where": None, "at": 0, "seen": 0}

    def tripwire(where):
        if trip["where"] == where:
            trip["seen"] += 1
            if trip["seen"] == trip["at"]:
                raise KeyboardInterrupt

    real_dump, real_add = spanlab.cli.dump_json, Verdict.add

    def dump(obj, pretty=False):
        if not pretty:  # a record line, not a checkpoint
            tripwire("write")
        return real_dump(obj, pretty)

    def add(self, record):
        real_add(self, record)
        tripwire("collect")

    monkeypatch.setattr(spanlab.cli, "dump_json", dump)
    monkeypatch.setattr(Verdict, "add", add)
    # Ctrl-C before the k-th line is written, and after it is written but
    # before the checkpoint that would cover it
    for where in ("write", "collect"):
        for k in range(1, n + 1):
            out = cli.tmp / f"{where}-{k}.jsonl"
            ck = cli.tmp / f"{where}-{k}.ck.json"
            trip.update(where=where, at=k, seen=0)
            code, text, _ = cli("enumerate-extremal", "--group", "Z15",
                                "--out", out, "--checkpoint", ck,
                                "--checkpoint-every", 5, *mode)
            assert code == 2, (where, k)
            assert f"interrupted; resume with --resume {ck}" in text
            assert "budget exhausted" not in text
            trip["where"] = None
            code, _, err = cli("enumerate-extremal", "--group", "Z15",
                               "--resume", ck, *mode)
            assert code == 0, (where, k, err)
            assert out.read_bytes() == want, (where, k)


class _TrippedFile:
    """A file opened by the CLI whose trip["at"]-th write, counted from
    trip["seen"], raises KeyboardInterrupt instead of writing."""

    def __init__(self, f, trip):
        self._f, self._trip = f, trip

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __iter__(self):
        return iter(self._f)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._f.__exit__(*exc)

    def write(self, text):
        self._trip["seen"] += 1
        if self._trip["seen"] == self._trip["at"]:
            raise KeyboardInterrupt
        return self._f.write(text)


@pytest.mark.parametrize("spec,mode,allowance,kept", [
    ("Z15", [], 1000, 16),
    ("Z21", ["--extended"], 1500, 28),
], ids=["direct", "extended"])
def test_ctrl_c_at_every_write_of_a_resume_resumes_byte_identical(
        cli, monkeypatch, spec, mode, allowance, kept):
    full = cli.tmp / "full.jsonl"
    assert cli("enumerate-extremal", "--group", spec, "--out", full, *mode)[0] == 0
    want = full.read_bytes()
    trip = {"at": 0, "seen": 0}
    monkeypatch.setattr(spanlab.cli, "open",
                        lambda *a, **kw: _TrippedFile(open(*a, **kw), trip),
                        raising=False)
    k = 0
    while trip["seen"] >= k:  # the resume reached its k-th write
        k += 1
        out, ck = cli.tmp / f"{k}.jsonl", cli.tmp / f"{k}.ck.json"
        trip.update(at=0)
        assert cli("enumerate-extremal", "--group", spec, "--out", out,
                   "--checkpoint", ck, "--max-nodes", allowance,
                   "--checkpoint-every", 5, *mode)[0] == 2
        prefix = out.with_name(out.name + ".partial").read_bytes()
        assert len(prefix.splitlines()) == kept
        # Ctrl-C at the k-th write of the resume, the first one included
        trip.update(at=k, seen=0)
        code, text, err = cli("enumerate-extremal", "--group", spec,
                              "--resume", ck, *mode)
        if trip["seen"] < k:  # fewer writes: the resume ran to the end
            assert code == 0, err
        else:
            assert code == 2, (k, err)
            assert f"interrupted; resume with --resume {ck}" in text
            assert out.with_name(out.name + ".partial").read_bytes().startswith(prefix)
            trip.update(at=0)
            assert cli("enumerate-extremal", "--group", spec, "--resume", ck,
                       *mode)[0] == 0, k
        assert out.read_bytes() == want, k
    assert k == len(want.splitlines()) - kept + 1


@pytest.mark.parametrize("allowance", [3000, None], ids=["paused", "finished"])
@pytest.mark.parametrize("flag", ["--out", "--checkpoint"])
def test_resume_refuses_another_out_or_checkpoint(cli, flag, allowance):
    # a resume continues the checkpoint's own files in place, so no run
    # copies a prefix of them to another file
    out, ck = cli.tmp / "r.jsonl", cli.tmp / "ck.json"
    budget = ["--max-nodes", allowance] if allowance else []
    assert cli("enumerate-extremal", "--group", "Z21", "--out", out,
               "--checkpoint", ck, *budget)[0] == (2 if allowance else 0)
    records = out.with_name("r.jsonl.partial") if allowance else out
    before, ck_before = records.read_bytes(), ck.read_bytes()
    other = cli.tmp / "other"
    code, _, err = cli("enumerate-extremal", "--group", "Z21", "--resume", ck,
                       flag, other)
    assert code == 1
    assert f"{flag} {other} is not the checkpoint's own file" in err
    assert records.read_bytes() == before and ck.read_bytes() == ck_before
    assert sorted(p.name for p in cli.tmp.iterdir()) == sorted(
        ["store", "ck.json", records.name])
    assert _campaigns(cli)[-1]["status"] == "FAILED"


def test_resume_of_completed_run_is_a_noop(cli):
    out = cli.tmp / "rec.jsonl"
    ck = cli.tmp / "ck.json"
    assert cli("enumerate-extremal", "--group", "Z15", "--out", out,
               "--checkpoint", ck)[0] == 0
    before = out.read_bytes()
    code, text, _ = cli("enumerate-extremal", "--group", "Z15",
                        "--resume", ck)
    assert code == 0
    assert out.read_bytes() == before


@pytest.mark.parametrize("args,cert", [
    (["enumerate-extremal", "--group", "Z15"], None),
    (["conjecture", "--group", "Z15"], "cert.json"),
    (["verify-main", "--group", "Z33"], "theorem.json"),
], ids=["enumerate-extremal", "conjecture", "verify-main"])
def test_resume_of_finished_run_rebuilds_from_records(cli, monkeypatch, args,
                                                      cert):
    code, out, _ = cli(*args)
    assert code == 0
    (first,) = _campaigns(cli)
    ck = _artifact(cli, first, "checkpoint.json")
    records = _artifact(cli, first, "records.jsonl")
    ck_bytes, record_bytes = ck.read_bytes(), records.read_bytes()

    def no_search(self, *args):
        raise AssertionError("a finished checkpoint must not search again")

    for engine, walk in ((S.SizedEnumerator, "run"), (S.AvoidingEnumerator, "run"),
                         (S.AvoidingEnumerator, "run_split")):
        monkeypatch.setattr(engine, walk, no_search)
    code, again, _ = cli(*args, "--resume", ck)
    assert code == 0
    second = _campaigns(cli)[1]
    assert again.replace(second["campaign_id"], first["campaign_id"]) == out
    assert second["artifacts"]["records"] == str(records)
    assert records.read_bytes() == record_bytes
    assert ck.read_bytes() == ck_bytes
    want = dict(first["summary"])
    if "nodes" in want:
        want["nodes"] = 0
    assert second["summary"] == want
    if cert:
        assert (_artifact(cli, second, cert).read_bytes()
                == _artifact(cli, first, cert).read_bytes())


def test_resume_with_wrong_group_fails(cli):
    ck = cli.tmp / "ck.json"
    code, _, _ = cli("enumerate-extremal", "--group", "Z21",
                     "--out", cli.tmp / "r.jsonl", "--checkpoint", ck,
                     "--max-nodes", 3000)
    assert code == 2
    code, _, err = cli("enumerate-extremal", "--group", "Z15",
                       "--resume", ck)
    assert code == 1
    assert "Z21" in err


@pytest.mark.parametrize("paused,resumed,have,want", [
    ([], ["--extended"], "direct", "missed_target"),
    (["--extended"], [], "missed_target", "direct"),
], ids=["direct-resumed-extended", "extended-resumed-direct"])
def test_resume_in_another_mode_names_the_mode(cli, paused, resumed, have, want):
    ck = cli.tmp / "ck.json"
    assert cli("enumerate-extremal", "--group", "Z21", "--out",
               cli.tmp / "r.jsonl", "--checkpoint", ck, "--max-nodes", 3000,
               *paused)[0] == 2
    code, _, err = cli("enumerate-extremal", "--group", "Z21", "--resume", ck,
                       *resumed)
    assert code == 1
    assert f"checkpoint mode {have!r}, this run needs {want!r}" in err


def test_resume_with_corrupt_checkpoint_fails(cli):
    ck = cli.tmp / "ck.json"
    ck.write_text("{not json")
    code, _, err = cli("enumerate-extremal", "--group", "Z15",
                       "--resume", ck)
    assert code == 1


def test_resume_refuses_a_checkpoint_of_another_schema(cli):
    ck = cli.tmp / "ck.json"
    assert cli("enumerate-extremal", "--group", "Z21", "--out",
               cli.tmp / "r.jsonl", "--checkpoint", ck, "--max-nodes", 3000)[0] == 2
    data = json.loads(ck.read_text())
    assert data["schema"] == spanlab.cli.CHECKPOINT_SCHEMA == 2
    # schema 1 checkpoints held a seen set and no seal
    ck.write_text(json.dumps(dict(data, schema=1)))
    code, _, err = cli("enumerate-extremal", "--group", "Z21", "--resume", ck)
    assert code == 1
    assert "CheckpointMismatch" in _campaigns(cli)[-1]["summary"]["error"]
    assert "schema 1" in err
    assert _campaigns(cli)[-1]["status"] == "FAILED"


# edits of a Z15 direct-mode checkpoint whose fields have the wrong JSON type
_MALFORMED_CHECKPOINTS = {
    "state-list": lambda ck: ck.update(state=[1, 2]),
    "inner-list": lambda ck: ck["state"].update(inner=[3], done=False),
    "path-letter": lambda ck: ck["state"]["inner"].update(path=["a"]),
    "emitted-letter": lambda ck: ck["state"].update(emitted="x"),
}


@pytest.mark.parametrize("edit", _MALFORMED_CHECKPOINTS.values(),
                         ids=_MALFORMED_CHECKPOINTS)
def test_resume_refuses_a_malformed_checkpoint_as_corrupt(cli, edit):
    ck = cli.tmp / "ck.json"
    assert cli("enumerate-extremal", "--group", "Z15", "--out",
               cli.tmp / "r.jsonl", "--checkpoint", ck, "--max-nodes", 1000)[0] == 2
    data = json.loads(ck.read_text())
    edit(data)
    ck.write_text(json.dumps(data))
    code, _, err = cli("enumerate-extremal", "--group", "Z15", "--resume", ck)
    assert code == 1
    assert "corrupt checkpoint" in err
    assert "CheckpointMismatch" in _campaigns(cli)[-1]["summary"]["error"]
    assert _campaigns(cli)[-1]["status"] == "FAILED"


@pytest.mark.parametrize("where", ["state", "envelope"])
@pytest.mark.parametrize("spec,mode,allowance", [
    ("Z15", [], 200), ("Z21", ["--extended"], 600),
], ids=["direct", "missed-target"])
def test_resume_refuses_a_field_the_run_does_not_write(cli, spec, mode,
                                                       allowance, where):
    ck = cli.tmp / "ck.json"
    assert cli("enumerate-extremal", "--group", spec, "--out", cli.tmp / "r.jsonl",
               "--checkpoint", ck, "--max-nodes", allowance, *mode)[0] == 2
    data = json.loads(ck.read_text())
    (data["state"] if where == "state" else data)["bogus"] = 1
    ck.write_text(json.dumps(data))
    code, _, err = cli("enumerate-extremal", "--group", spec, "--resume", ck, *mode)
    assert code == 1
    assert "field 'bogus', which this run does not write" in err
    rec = _campaigns(cli)[-1]
    assert rec["status"] == "FAILED"
    assert "CheckpointMismatch" in rec["summary"]["error"]


_GONE = object()  # the edit that deletes a field


def _one_field_edits(value):
    """(name, value) of each edit of one checkpoint field: deleted, null, a
    wrong type, +-1, a flipped bool, a list shortened or lengthened."""
    if isinstance(value, bool):
        edits = {"flipped": not value, "string": "x"}
    elif isinstance(value, int):
        edits = {"+1": value + 1, "-1": value - 1, "string": str(value),
                 "float": value + 0.5}
    elif isinstance(value, str):
        edits = {"number": 5}
    elif isinstance(value, list):
        edits = {"dict": {}, "shortened": value[:-1],
                 "lengthened": value + (value[-1:] or [1])}
    elif isinstance(value, dict):
        edits = {"list": []}
    else:  # null
        edits = {"list": [], "string": "x"}
    edits.update(deleted=_GONE, null=None)
    return [(name, edit) for name, edit in edits.items() if edit != value]


# real checkpoints: (group, mode, --max-nodes of the paused run, or None for
# a finished one). The Z21 walk pauses between two targets at 1456 nodes,
# inside its second target, before that target's first record, at 1500, and
# inside its last target, after every record, at 3000
_CHECKPOINTS = {
    "Z15-direct": ("Z15", [], 200),
    "Z15-direct-finished": ("Z15", [], None),
    "Z21-mid-target-early": ("Z21", ["--extended"], 1500),
    "Z21-mid-target": ("Z21", ["--extended"], 3000),
    "Z21-mid-target-pool": ("Z21", ["--extended", "--threads", 2], 3000),
    "Z21-between-targets": ("Z21", ["--extended"], 1456),
}


@pytest.mark.parametrize("spec,mode,allowance", _CHECKPOINTS.values(),
                         ids=_CHECKPOINTS)
def test_each_one_field_edit_of_a_checkpoint_is_refused(
        cli, spec, mode, allowance):
    # each field of the envelope, of state and of state.inner, edited one at
    # a time, is refused: by the round trip, or else by the seal over the
    # state and the records before it
    ck = cli.tmp / "ck.json"
    budget = ["--max-nodes", allowance] if allowance else []
    code, _, _ = cli("enumerate-extremal", "--group", spec, "--out",
                     cli.tmp / "r.jsonl", "--checkpoint", ck, *budget, *mode)
    assert code == (2 if allowance else 0)
    data = json.loads(ck.read_text())
    inner = data["state"]["inner"] or {}  # null once every walk is done
    # between targets, the next target's engine at its root
    assert (inner.get("nodes") == 0) == (allowance == 1456)
    fields = ([(key,) for key in data] + [("state", key) for key in data["state"]]
              + [("state", "inner", key) for key in inner])
    outcomes = []
    for path in fields:
        *parents, key = path
        owner = data
        for name in parents:
            owner = owner[name]
        edits = _one_field_edits(owner[key])
        if path == ("state", "inner", "cursor"):
            # each cursor moved by one, the top one included
            edits += [(f"[{d}]{step:+d}", [*owner[key][:d], c + step,
                                           *owner[key][d + 1:]])
                      for d, c in enumerate(owner[key]) for step in (1, -1)]
        for how, value in edits:
            where = cli.tmp / f"edit-{len(outcomes)}"
            where.mkdir()
            for kept in cli.tmp.glob("r.jsonl*"):
                shutil.copy(kept, where / kept.name)
            edited = json.loads(json.dumps(dict(data, records=str(where / "r.jsonl"))))
            owner = edited
            for name in parents:
                owner = owner[name]
            if value is _GONE:
                del owner[key]
            else:
                owner[key] = value
            (where / "ck.json").write_text(json.dumps(edited))
            code, _, _ = cli("enumerate-extremal", "--group", spec, "--resume",
                             where / "ck.json", *mode)
            rec, label = _campaigns(cli)[-1], ("/".join(path), how)
            assert code == 1 and rec["status"] == "FAILED", label
            assert "CheckpointMismatch" in rec["summary"]["error"], label
            outcomes.append(label)
    assert len(outcomes) > 60


def test_resume_refuses_a_null_inner_on_an_unfinished_run(cli):
    # paused between targets: the checkpoint holds the next target's engine
    ck = cli.tmp / "ck.json"
    assert cli("enumerate-extremal", "--group", "Z21", "--extended", "--out",
               cli.tmp / "r.jsonl", "--checkpoint", ck, "--max-nodes", 1456)[0] == 2
    data = json.loads(ck.read_text())
    assert data["state"]["inner"]["path"] == []
    data["state"]["inner"] = None
    ck.write_text(json.dumps(data))
    code, _, err = cli("enumerate-extremal", "--group", "Z21", "--extended",
                       "--resume", ck)
    assert code == 1
    assert "checkpoint inner null" in err
    assert "CheckpointMismatch" in _campaigns(cli)[-1]["summary"]["error"]


def test_resume_refuses_a_records_line_edited_before_the_checkpoint(cli):
    # the first record swapped for a later one of the straight run: a resume
    # would keep the line and fold it into its tallies, so the seal refuses it
    full = cli.tmp / "full.jsonl"
    assert cli("enumerate-extremal", "--group", "Z21", "--extended",
               "--out", full)[0] == 0
    later = full.read_text().splitlines(keepends=True)[30]
    ck, partial = cli.tmp / "ck.json", cli.tmp / "r.jsonl.partial"
    assert cli("enumerate-extremal", "--group", "Z21", "--extended", "--out",
               cli.tmp / "r.jsonl", "--checkpoint", ck, "--max-nodes", 600)[0] == 2
    lines = partial.read_text().splitlines(keepends=True)
    assert json.loads(ck.read_text())["state"]["emitted"] == len(lines) == 22
    edited, ck_bytes = "".join([later, *lines[1:]]), ck.read_bytes()
    partial.write_text(edited)
    code, _, err = cli("enumerate-extremal", "--group", "Z21", "--extended",
                       "--resume", ck)
    assert code == 1
    assert (f"checkpoint {ck} sha256 is not the seal of its state and the 22 "
            f"records written before it") in err
    assert "CheckpointMismatch" in _campaigns(cli)[-1]["summary"]["error"]
    assert partial.read_text() == edited and ck.read_bytes() == ck_bytes


def test_resume_from_another_directory_continues_a_relative_out(cli, monkeypatch):
    # the checkpoint names its records file by absolute path
    full = cli.tmp / "full.jsonl"
    assert cli("enumerate-extremal", "--group", "Z21", "--out", full)[0] == 0
    here, there = cli.tmp / "here", cli.tmp / "there"
    here.mkdir()
    there.mkdir()
    monkeypatch.chdir(here)
    assert cli("enumerate-extremal", "--group", "Z21", "--out", "r.jsonl",
               "--checkpoint", "ck.json", "--max-nodes", 3000)[0] == 2
    monkeypatch.chdir(there)
    code, _, err = cli("enumerate-extremal", "--group", "Z21", "--resume",
                       "../here/ck.json")
    assert code == 0, err
    assert (here / "r.jsonl").read_bytes() == full.read_bytes()
    assert list(there.iterdir()) == []


def test_fresh_run_errors_keep_their_own_text(cli):
    code, _, err = cli("enumerate-extremal", "--group", "Z2")
    assert code == 1
    assert "critical number requires order >= 3" in err
    assert _campaigns(cli)[-1]["summary"]["error"].startswith(
        "ValueError: critical number requires order >= 3")


def test_group_past_the_direct_budget_takes_the_missed_target_walk(cli):
    # C(30, 9) = 14,307,150 candidate sets: past the direct walk's budget,
    # so the plain run is the --extended one, record for record
    digests = []
    for flags in ([], ["--extended"]):
        out = cli.tmp / f"z31{len(flags)}.jsonl"
        code, text, _ = cli("enumerate-extremal", "--group", "Z31",
                            "--out", out, *flags)
        assert code == 0
        assert "(size 9, mode missed_target, orbit_dedup true)" in text
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests == [
        "17f05b9cf220fb7419d59ac6d0511aa82f42af18ca9db8d5a953a0c507d4b019"] * 2


def test_group_past_the_padded_layout_cap_fails_with_its_text(cli):
    # the walk is chosen without building C(65535, k), whose digits would
    # exceed Python's integer-to-string limit
    spec = "x".join(["Z2"] * 16)
    code, _, err = cli("enumerate-extremal", "--group", spec)
    assert code == 1
    assert "exceeds the padded-layout cap" in err
    assert _campaigns(cli)[-1]["summary"]["error"].startswith(
        "GroupTooLargeError: ")


def test_orbit_dedup_is_no_flag_only_no_orbit_dedup_is(cli):
    # orbit dedup is on wherever it applies; the one flag turns it off
    code, _, err = cli("enumerate-extremal", "--group", "Z15", "--orbit-dedup")
    assert code == 1
    assert "unrecognized arguments: --orbit-dedup" in err
    assert _campaigns(cli) == []


def test_zero_second_budget_pauses_before_the_first_node(cli):
    out, ck = cli.tmp / "z15.jsonl", cli.tmp / "ck.json"
    code, text, _ = cli("enumerate-extremal", "--group", "Z15", "--out", out,
                        "--checkpoint", ck, "--max-seconds", 0)
    assert code == 2 and "budget exhausted" in text
    (rec,) = _campaigns(cli)
    assert rec["summary"]["nodes"] == 0 and rec["summary"]["records"] == 0
    inner = json.loads(ck.read_text())["state"]["inner"]
    assert inner["path"] == [] and inner["nodes"] == 0  # the root engine
    assert cli("enumerate-extremal", "--group", "Z15", "--resume", ck)[0] == 0
    assert _campaigns(cli)[-1]["summary"]["nodes"] == 2804
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _ENUM_Z15


def _unit_nodes(state):
    """Nodes of the last first-element unit before a pool pause: the node
    of that first element and its subtree, as one worker walks them."""
    inner = state["inner"]
    g = S.parse_group_spec(inner["group"])
    first = inner["cursor"][0] - 1
    return 1 + spanlab.search.run_work_unit(g.cyclic_orders, inner["target"],
                                            inner["k"], first)[1]


@pytest.mark.parametrize("spec,mode,allowance,total", [
    ("Z21", [], 3000, 44_573),
    ("Z3xZ3xZ3", ["--extended", "--threads", 1], 10_000, 158_618),
    ("Z3xZ3xZ3", ["--extended", "--threads", 2], 10_000, 158_618),
], ids=["Z21-direct", "Z27-extended-1", "Z27-extended-2"])
def test_resume_chain_pauses_at_the_allowance_and_counts_each_node_once(
        cli, spec, mode, allowance, total):
    pool = mode[-1:] == [2]
    full = cli.tmp / "full.jsonl"
    assert cli("enumerate-extremal", "--group", spec, "--out", full, *mode)[0] == 0
    assert _campaigns(cli)[0]["summary"]["nodes"] == total
    out, ck = cli.tmp / "chain.jsonl", cli.tmp / "ck.json"
    code, _, _ = cli("enumerate-extremal", "--group", spec, "--out", out,
                     "--checkpoint", ck, "--max-nodes", allowance, *mode)
    while code == 2:
        nodes = _campaigns(cli)[-1]["summary"]["nodes"]
        state = json.loads(ck.read_text())["state"]
        if pool:
            # the pool pauses at the first unit boundary at or past it
            assert state["inner"]["path"] == []
            assert nodes - _unit_nodes(state) < allowance <= nodes
        else:
            assert nodes == allowance  # one worker: exactly at it
        code, _, _ = cli("enumerate-extremal", "--group", spec, "--resume", ck,
                         "--max-nodes", allowance, *mode)
    assert code == 0
    chain = _campaigns(cli)[1:]
    assert len(chain) > 3
    assert pool or chain[-1]["summary"]["nodes"] <= allowance
    assert sum(rec["summary"]["nodes"] for rec in chain) == total
    assert out.read_bytes() == full.read_bytes()


# ---------------------------------------------------- conjectures


def test_refuted_certificate_is_a_completed_run(cli):
    code, out, _ = cli("conjecture", "--group", "Z15")
    assert code == 0, "a definitive REFUTED certificate is a success"
    assert "REFUTED" in out
    (rec,) = _campaigns(cli)
    assert rec["status"] == "COMPLETE"
    cert = json.loads(_artifact(cli, rec, "cert.json").read_text())
    assert cert["outcome"] == "REFUTED"
    assert cert["extremal_count"] == 28
    assert cert["failing_count"] == 24
    assert len(cert["counterexamples"]) <= 25
    records = _artifact(cli, rec, "records.jsonl").read_text().splitlines()
    assert len(records) == 28


@pytest.mark.parametrize("spec", ["Z16", "Z25", "Z33", "Z3xZ5"])
def test_conjecture_refuses_a_group_outside_both_windows(cli, spec):
    # the group names the conjecture: Z_pq in the 'coset' or 'interval'
    # window, on a single-factor spec
    code, _, err = cli("conjecture", "--group", spec)
    assert code == 1
    assert "'coset' window (conjecture 1)" in err
    assert "'interval' window (conjecture 2)" in err
    (rec,) = _campaigns(cli)
    assert rec["status"] == "FAILED" and rec["group"] == spec


# ----------------------------------------------------------- fuzz


def test_fuzz_clean_campaign_exits_zero(cli):
    code, out, _ = cli("fuzz-bounds", "--lemma", "2.1", "--trials", 300)
    assert code == 0
    (rec,) = _campaigns(cli)
    (entry,) = json.loads(_artifact(cli, rec, "fuzz.json").read_text())
    assert entry["lemma"] == "2.1"
    assert entry["violations"] == 0
    assert entry["clean"] is True


def test_fuzz_negative_trials_is_a_usage_error(cli):
    code, _, err = cli("fuzz-bounds", "--lemma", "2.1", "--trials", -5)
    assert code == 1
    assert "--trials" in err
    assert _campaigns(cli) == []


def test_fuzz_exhaustive_is_an_unknown_argument(cli):
    for flag in ("--exhaustive", "--no-exhaustive"):
        code, _, err = cli("fuzz-bounds", "--lemma", "2.6", "--trials", 0, flag)
        assert code == 1
        assert f"unrecognized arguments: {flag}" in err
    assert _campaigns(cli) == []


# ----------------------------------------------------- store paths


def test_store_environment_variable_is_honored(cli, tmp_path):
    env_store = tmp_path / "envstore"
    code, _, _ = cli("cr", "--group", "Z7", "--formula",
                     env={"SPANLAB_STORE": str(env_store)},
                     use_store_flag=False)
    assert code == 0
    assert (env_store / "campaigns.jsonl").exists()


def test_store_flag_beats_environment(cli, tmp_path):
    env_store = tmp_path / "envstore"
    code, _, _ = cli("cr", "--group", "Z7", "--formula",
                     env={"SPANLAB_STORE": str(env_store)})
    assert code == 0
    assert (cli.store / "campaigns.jsonl").exists()
    assert not (env_store / "campaigns.jsonl").exists()


# -------------------------------------------------- other commands


def test_verify_theorem_a_small_window(cli):
    code, out, _ = cli("verify-theorem-a", "--max-order", 10)
    assert code == 0
    (rec,) = _campaigns(cli)
    table = json.loads(_artifact(cli, rec, "table.json").read_text())
    assert all(row["agree"] for row in table["rows"])
    specs = {row["spec"] for row in table["rows"]}
    assert "Z2xZ4" in specs and "Z9" in specs


def test_verify_theorem_a_names_unsettled_groups_not_disagreements(cli):
    code, out, _ = cli("verify-theorem-a", "--max-order", 5, "--max-nodes", 1)
    assert code == 2
    assert "0 disagreements" in out and "PARTIAL" in out
    (rec,) = _campaigns(cli)
    md = _artifact(cli, rec, "table.md").read_text()
    assert md.splitlines()[0] == ("critical numbers up to order 5: no "
                                  "disagreement, unsettled: Z3, Z2xZ2, Z4, Z5")
    table = json.loads(_artifact(cli, rec, "table.json").read_text())
    assert table["all_agree"] is False


def test_classify_prints_record(cli):
    code, out, _ = cli("classify", "--group", "Z16",
                       "--set", "2,4,6,8,10,12,14")
    assert code == 0
    assert "SHAPE_I" in out and "SHAPE_II" in out
    (rec,) = _campaigns(cli)
    payload = json.loads(_artifact(cli, rec, "record.json").read_text())
    assert payload["set"] == [2, 4, 6, 8, 10, 12, 14]


def test_classify_rejects_non_extremal_set(cli):
    code, _, err = cli("classify", "--group", "Z15", "--set", "1,2")
    assert code == 1


def test_verify_main_rejects_group_outside_hypothesis(cli):
    code, _, err = cli("verify-main", "--group", "Z16")
    assert code == 1
    assert "Z16" in err


@pytest.mark.extended
def test_verify_main_z65_at_the_pq_boundary(cli):
    # Z65: p = 5, q = 13 = 2p + 3, the smallest q of the paper's second result
    # at p = 5; unit-orbit dedup with the stabilizer-pruned DFS on 2 workers
    code, out, _ = cli("verify-main", "--group", "Z65", "--threads", 2)
    assert code == 0
    assert "VERIFIED" in out and "extremal sets: 110, violations: 0" in out
    (rec,) = _campaigns(cli)
    assert rec["summary"]["outcome"] == "VERIFIED"
    records = _artifact(cli, rec, "records.jsonl")
    assert len(records.read_text().splitlines()) == 110
    assert hashlib.sha256(records.read_bytes()).hexdigest() == (
        "b4708e5cab0c9452d3aba28a01a769c65b978744d8e2ad6e1276c60b604d9cd7")


def test_report_lists_campaigns_without_adding_records(cli):
    assert cli("cr", "--group", "Z15", "--formula")[0] == 0
    assert cli("fuzz-bounds", "--lemma", "2.3", "--trials", 50)[0] == 0
    before = _campaigns(cli)
    code, out, _ = cli("report")
    assert code == 0
    for rec in before:
        assert rec["campaign_id"] in out
    code, out, _ = cli("report", "--campaign", before[0]["campaign_id"])
    assert code == 0
    assert "cr.json" in out
    assert _campaigns(cli) == before  # reporting never writes


def test_report_unknown_campaign_fails(cli):
    code, _, err = cli("report", "--campaign", "does-not-exist")
    assert code == 1


def test_report_markdown_format(cli):
    assert cli("verify-theorem-a", "--max-order", 8)[0] == 0
    rec = _campaigns(cli)[0]
    code, out, _ = cli("report", "--campaign", rec["campaign_id"],
                       "--format", "markdown")
    assert code == 0
    assert "|" in out  # tables render as pipe markdown


def _cells(out: str, fmt: str) -> list[list[str]]:
    """The rows of every table in a report, as lists of cells."""
    if fmt == "markdown":
        return [[c.strip() for c in line.strip("|").split("|")]
                for line in out.splitlines() if line.startswith("|")]
    return [line.split() for line in out.splitlines()]


@pytest.mark.parametrize("fmt", ["text", "markdown"])
def test_report_renders_records_and_fuzz_tables(cli, fmt):
    assert cli("enumerate-extremal", "--group", "Z15")[0] == 0
    assert cli("fuzz-bounds", "--trials", 30)[0] == 0
    enum, fuzz = _campaigns(cli)
    code, out, _ = cli("report", "--campaign", enum["campaign_id"], "--format", fmt)
    assert code == 0 and "28 records" in out
    rows = _cells(out, fmt)
    assert ["SHAPE_EX2", "4"] in rows and ["UNCLASSIFIED", "24"] in rows
    code, out, _ = cli("report", "--campaign", fuzz["campaign_id"], "--format", fmt)
    assert code == 0
    rows = [row for row in _cells(out, fmt) if row and row[0] in S.CAMPAIGNS]
    assert [row[0] for row in rows] == sorted(S.CAMPAIGNS)  # one row per bound
    assert all(row[1] == "30" and row[-1] == "yes" for row in rows)


# ------------------------------------------------------ golden bytes

# Artifact sha256, stdout (campaign id and store masked) and ledger summary
# of cr, verify-theorem-a, the enumerating commands and the fuzz campaigns.
# Artifact bytes are the contract: a refactor keeps these values, a change of
# output updates them on purpose. checkpoint.json, cert.json and theorem.json are hashed without
# their top-level "records" line, the only run-specific path in them.
_ENUM_Z36 = "733ad1e88dc53c177a989981441ff089158b964d79a1d5dee23594bcddb5fa46"
_ENUM_Z15 = "5444b8751eca39ff259bb993ff529cb71da2527a61c85657fcaff8f770dad077"
_FUZZ_LINES = ("  2.1: trials 300, applied {}, violations 0 [ok]",
               "  2.2: trials 300, applied 300, violations 0 [ok]",
               "  2.3: trials 300, applied 300, violations 0 [ok]",
               "  2.4: trials 300, applied {}, violations 0 [ok]",
               "  2.5: trials 300, applied {}, violations 0 [ok]",
               "  2.6: trials 300, applied 300, violations 0, exhaustive 0 "
               "violations [ok]",
               "  2.7: trials 300, applied 300, violations 0 [ok]",
               "  2.8: trials 300, applied 300, violations 0 [ok]",
               "  2.9: trials 300, applied 300, violations 0, exhaustive 0 "
               "violations [ok]",
               "9 campaigns, 0 with violations",
               "campaign <id>: COMPLETE")


def _fuzz_lines(a21, a24, a25):
    applied = iter((a21, a24, a25))
    return [ln.format(next(applied)) if "{}" in ln else ln for ln in _FUZZ_LINES]


def _enum_lines(spec, n, size, mode, dedup, tags):
    return [f"{spec}: {n} extremal records (size {size}, mode {mode}, "
            f"orbit_dedup {dedup})",
            "records written to <store>/artifacts/<id>/records.jsonl",
            *(f"  {tag}: {count}" for tag, count in tags.items()),
            "campaign <id>: COMPLETE"]


_SHAPE_I_TAGS = {"HAS_COMPLETE_SUBSET": 1, "SHAPE_B": 1, "SHAPE_I": 1,
                 "SHAPE_II": 1}

GOLDEN = {
    "cr-Z15": (
        ["cr", "--group", "Z15"],
        {"cr.json": "bbfa4e70525a4e948c89e4f9c929b73e2519b81384344e85aebdc03b0cf4bc6e"},
        ["cr(Z15) = 7 by formula (case special_case2)",
         "search: cr = 7, max non-spanning witness [2, 4, 6, 9, 11, 13] "
         "(369 nodes)",
         "formula and exhaustive search agree", "campaign <id>: COMPLETE"],
        {"agree": True, "case": "special_case2", "formula": 7,
         "search": "complete"}),
    "verify-theorem-a-8": (
        ["verify-theorem-a", "--max-order", "8"],
        {"table.json": "e4adf15328bb9306355af20f1adc2f5a47dd7348cc3dd9d4ccdb17506baade88",
         "table.md": "e553802791833159cc3658de5c5ffb423832b227f8a5f4f66f1ae6ebdce13c74"},
        ["checked 9 groups of order 3..8: 9 searched, 0 disagreements",
         "formula matches exhaustive search on every group",
         "campaign <id>: COMPLETE"],
        {"disagreements": 0, "groups": 9, "pending": 0}),
    "enumerate-Z15": (
        ["enumerate-extremal", "--group", "Z15"],
        {"checkpoint.json": "be0fb8376610d8e9906f4c6aa298eee4cf986c68adedbaa6e83c16108a3eb7a1",
         "records.jsonl": _ENUM_Z15},
        _enum_lines("Z15", 28, 6, "direct", "false",
                    {"SHAPE_EX2": 4, "UNCLASSIFIED": 24}),
        {"mode": "direct", "nodes": 2804, "orbit_dedup": False, "records": 28,
         "tags": {"SHAPE_EX2": 4, "UNCLASSIFIED": 24}}),
    "enumerate-Z16": (
        ["enumerate-extremal", "--group", "Z16"],
        {"checkpoint.json": "2b19a762e4c89590227d052395dbee48d66bd5eb2fdd931524a6f151a7e0dadd",
         "records.jsonl": "d86e36c111e81dc17e0b8f52da14ae8a7fe98925cd9952a16ea6c4ca5aebc6af"},
        _enum_lines("Z16", 1, 7, "direct", "false", _SHAPE_I_TAGS),
        {"mode": "direct", "nodes": 3061, "orbit_dedup": False, "records": 1,
         "tags": _SHAPE_I_TAGS}),
    "enumerate-Z3xZ9": (
        ["enumerate-extremal", "--group", "Z3xZ9"],
        {"checkpoint.json": "25e81f59220988c9fc848b5c34e62597608d460c8edae2a973299de6e6813802",
         "records.jsonl": "107887e2914115a36396ba30eedba26eff7ef876ea78e407073d3a29674d8cb5"},
        _enum_lines("Z3xZ9", 72, 9, "direct", "false",
                    {"HAS_COMPLETE_SUBSET": 72, "SHAPE_B": 72, "SHAPE_II": 72}),
        {"mode": "direct", "nodes": 318522, "orbit_dedup": False, "records": 72,
         "tags": {"HAS_COMPLETE_SUBSET": 72, "SHAPE_B": 72, "SHAPE_II": 72}}),
    "enumerate-Z2xZ16-extended": (
        ["enumerate-extremal", "--group", "Z2xZ16", "--extended"],
        {"checkpoint.json": "e80d186dd2f687249bcc10fbbc453abc8ccb6f5280c318fa577b27ea8e74e19e",
         "records.jsonl": "670bbe5a1a69939541eeaaec8e0fb1f2cb40108008cb5436101cf3e978f26afe"},
        _enum_lines("Z2xZ16", 3, 15, "missed_target", "false",
                    {tag: 3 for tag in _SHAPE_I_TAGS}),
        {"mode": "missed_target", "nodes": 121469, "orbit_dedup": False,
         "records": 3, "tags": {tag: 3 for tag in _SHAPE_I_TAGS}}),
    "enumerate-Z36-extended": (
        ["enumerate-extremal", "--group", "Z36", "--extended"],
        {"checkpoint.json": "8eff57084f057f319b868d3f0630bfcbebf3a176716dd030864ceea0b66a83d0",
         "records.jsonl": _ENUM_Z36},
        _enum_lines("Z36", 1, 17, "missed_target", "true", _SHAPE_I_TAGS),
        {"mode": "missed_target", "nodes": 20112, "orbit_dedup": True,
         "records": 1, "tags": _SHAPE_I_TAGS}),
    "conjecture-2-3-5": (
        ["conjecture", "--group", "Z15"],
        {"cert.json": "f957070b072dea65a66a6d3143121d0aca8536819b5495195b7a9d18d43ec20b",
         "checkpoint.json": "98df0cf33bbc56f6e7ea0792c0ecd9317d5c9f2ea56d5ccc88994ade3566a2ea",
         "records.jsonl": _ENUM_Z15},
        ["conjecture 2 at (p, q) = (3, 5) over Z15: REFUTED",
         "extremal sets: 28, failing: 24", "campaign <id>: COMPLETE"],
        {"failing": 24, "outcome": "REFUTED", "total": 28}),
    "conjecture-1-3-7": (
        ["conjecture", "--group", "Z21"],
        {"cert.json": "e90ae4091d4d14fc49de217674be9712cd57f10539f43e25850382a322d39755",
         "checkpoint.json": "04f4230b022a0d9c7a0dc7c73eaac91764aa3527e166ae3d5114118ac6eeb1d0",
         "records.jsonl": "4877becb389f309359acd9f0214577c675c0798645f63c595e4974389fff397f"},
        ["conjecture 1 at (p, q) = (3, 7) over Z21: REFUTED",
         "extremal sets: 390, failing: 358", "campaign <id>: COMPLETE"],
        {"failing": 358, "outcome": "REFUTED", "total": 390}),
    "verify-main-Z33": (
        ["verify-main", "--group", "Z33"],
        {"checkpoint.json": "c44550c5518fa6460751fd3f092ecbf507fad098c9bebac72957de574ad17896",
         "records.jsonl": "9c10172d616683c433377486722816c1f7cd843e53a5f8c9a5068f96737510e3",
         "theorem.json": "2f45fd950b769cb670f2b5b888213a9d0ca269a2b96ed1285ecec4e142f1caf9"},
        ["Z33 (odd case, requires SHAPE_II): VERIFIED",
         "extremal sets: 2, violations: 0", "campaign <id>: COMPLETE"],
        {"outcome": "VERIFIED", "total": 2, "violations": 0,
         "tags": {"HAS_COMPLETE_SUBSET": 2, "SHAPE_B": 2, "SHAPE_II": 2}}),
    "verify-main-Z36": (
        ["verify-main", "--group", "Z36"],
        {"checkpoint.json": "0c865370b08a8dfa1ac5f7c5f0733b783309575988dc878fd3df0b1c11d2f18c",
         "records.jsonl": _ENUM_Z36,
         "theorem.json": "2496daddc54cedac8b66212eaa200954e8f4545477b51702de1ce847186dc489"},
        ["Z36 (even case, requires SHAPE_I): VERIFIED",
         "extremal sets: 1, violations: 0", "campaign <id>: COMPLETE"],
        {"outcome": "VERIFIED", "total": 1, "violations": 0,
         "tags": _SHAPE_I_TAGS}),
    "fuzz-seed-0": (
        ["fuzz-bounds", "--trials", "300", "--seed", "0"],
        {"fuzz.json": "ffd0801fbe5de2d1bad1ea1d55f5f988768e9882fe906716e9f83b2c3cb5a883"},
        _fuzz_lines(238, 170, 121),
        {"campaigns": 9, "dirty": 0, "seed": 0, "trials": 300}),
    "fuzz-seed-7": (
        ["fuzz-bounds", "--trials", "300", "--seed", "7"],
        {"fuzz.json": "bc0e44170316b2c57a8269f5620a231b61440b2d48a3c3e4c05ef6bdd8a079aa"},
        _fuzz_lines(225, 164, 110),
        {"campaigns": 9, "dirty": 0, "seed": 7, "trials": 300}),
}


def _golden_digest(path):
    data = path.read_bytes()
    if path.name in ("checkpoint.json", "cert.json", "theorem.json"):
        data = re.sub(rb'(?m)^  "records": .*\n', b"", data)
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_artifact_bytes(cli, case):
    args, hashes, stdout, summary = GOLDEN[case]
    code, out, _ = cli(*args)
    assert code == 0
    (rec,) = _campaigns(cli)
    masked = (out.replace(rec["campaign_id"], "<id>")
                 .replace(str(cli.store), "<store>"))
    assert masked.splitlines() == stdout
    assert rec["summary"] == summary
    artifacts = _artifact(cli, rec, "")
    assert sorted(p.name for p in artifacts.iterdir()) == sorted(hashes)
    for name, digest in hashes.items():
        assert _golden_digest(artifacts / name) == digest, name
