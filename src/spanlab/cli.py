"""Command-line interface.

Every run (except the read-only ``report``) appends exactly one record, a
plain dict, to the store ledger, a failed or interrupted run included, and
writes its outputs as artifacts under ``<store>/artifacts/<campaign_id>/``.
The exit code follows from the run's status (see _Run.finish): 2 when it
is PARTIAL (a budget ran out, or a Ctrl-C came during an enumerating
command, and a resumable checkpoint was written), 1 when it is FAILED or
the run found a violation (a formula/search disagreement, a bound
violation, or a refuted proved statement), else 0; bad usage and a closed
stdout exit 1 too. Conjecture certificates are different: REFUTED is a
definitive, successful outcome there, so it exits 0.

The flags are the configuration, each range-checked as it is parsed; the
one environment variable, SPANLAB_STORE, is --store's default. The
effective configuration is echoed into every ledger record.

Group specs are written Z<n> or Z<n1>xZ<n2>x... (case-insensitive), e.g.
Z15, Z2xZ4.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from itertools import islice
from pathlib import Path

from .critical import (MAX_EXACT_ORDER, critical_number_case,
                       critical_number_formula, critical_number_search,
                       verify_critical_formula)
from .extremal import (ConjectureReport, ExtremalEnumeration, TheoremReport,
                       Verdict, classify, conjecture_claim, theorem_verdict)
from .fuzz import CAMPAIGNS, DEFAULT_TRIALS, run_all_campaigns
from .groups import ElementSet, parse_group_spec
from .search import (CheckpointMismatch, SearchBudget, check_fields,
                     check_no_extra_fields)
from .store import (STATUS_COMPLETE, STATUS_FAILED, STATUS_PARTIAL,
                    CampaignStore, atomic_write_text, dump_json, sha256_file,
                    utc_stamp)

DEFAULT_STORE = Path.home() / ".spanlab"
CHECKPOINT_SCHEMA = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 is reserved for PARTIAL here."""

    def error(self, message):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    """An argparse type: an integer of at least `low`."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _seconds(text: str) -> float:
    """An argparse type: a finite float of at least 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text}")
    return value


def _config(args) -> dict:
    """The effective configuration: every flag the subcommand declares."""
    return {key.replace("_", "-"): str(val) if isinstance(val, Path) else val
            for key, val in vars(args).items() if key not in ("subcommand", "func")}


def _normalized_command(name: str, config: dict) -> str:
    parts = [name]
    for key in sorted(config):
        val = config[key]
        if val is None or val is False:
            continue
        if val is True:
            parts.append(f"--{key}")
        else:
            parts.append(f"--{key}={val}")
    return " ".join(parts)


class _Run:
    """One campaign: id, ledger record, artifact registration, final print."""

    def __init__(self, store: CampaignStore, args):
        self.store = store
        self.args = args
        self.name = name = args.subcommand
        config = _config(args)
        self.campaign_id = store.new_campaign_id(name)
        self.record = {"campaign_id": self.campaign_id,
                       "command": _normalized_command(name, config),
                       "group": getattr(args, "group", None),
                       "status": STATUS_FAILED, "started": utc_stamp(),
                       "finished": "", "artifacts": {}, "checksums": {},
                       "config": config, "summary": {}}

    @property
    def dir(self) -> Path:
        return self.store.artifact_dir(self.campaign_id)

    def artifact(self, name: str, obj) -> Path:
        path = self.store.write_artifact(self.campaign_id, name, obj)
        self.register(name, path)
        return path

    def register(self, name: str, path: Path) -> None:
        self.record["artifacts"][name] = str(path)
        if path.exists():
            self.record["checksums"][name] = sha256_file(path)

    def finish(self, status: str, summary: dict, lines: list[str],
               violation: bool = False) -> int:
        """Append the record, the campaign's one ledger line, keep the lines
        for execute to print and return the exit code: 2 when status is
        PARTIAL, 1 when it is FAILED or a violation was found, else 0."""
        self.record.update(status=status, finished=utc_stamp(), summary=summary)
        self.lines = [*lines, f"campaign {self.campaign_id}: {status}"]
        self.store.append(self.record)
        if status == STATUS_PARTIAL:
            return 2
        return 1 if status == STATUS_FAILED or violation else 0

    def execute(self) -> int:
        """Run the command, which ends in finish, or finish the run FAILED
        if the command raised first (a Ctrl-C included); then print the lines.
        They print after the append, so a failure there, such as a closed
        stdout, is main's to report and adds no second record."""
        try:
            code = self.args.func(self.args, self)
        except KeyboardInterrupt:
            print("interrupted", file=sys.stderr)
            code = self.finish(STATUS_FAILED, {"error": "KeyboardInterrupt"}, [])
        except Exception as exc:  # noqa: BLE001 - every failure must land in the ledger
            print(f"error: {exc}", file=sys.stderr)
            code = self.finish(STATUS_FAILED,
                               {"error": f"{type(exc).__name__}: {exc}"}, [])
        for line in self.lines:
            print(line)
        return code


# -- checkpoint plumbing -----------------------------------------------------------


def _seal(digest, state: dict) -> str:
    """sha256 of the lines in `digest`, then of state as checkpointed."""
    (h := digest.copy()).update(dump_json(state, pretty=True).encode())
    return h.hexdigest()


def _write_checkpoint(path: Path, command: str, records_path: Path,
                      state: dict, digest) -> None:
    """Write state's checkpoint, sealed over the record lines in `digest`."""
    atomic_write_text(path, dump_json({
        "schema": CHECKPOINT_SCHEMA,
        "command": command,
        "records": str(records_path),
        "sha256": _seal(digest, state),
        "state": state,
    }, pretty=True))


def _load_checkpoint(path: Path, command: str) -> dict:
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise CheckpointMismatch(f"cannot read checkpoint {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CheckpointMismatch(
            f"corrupt checkpoint {path}: {exc.msg} at line {exc.lineno} "
            f"column {exc.colno}") from None
    if not isinstance(data, dict) or not isinstance(data.get("state"), dict):
        raise CheckpointMismatch(f"corrupt checkpoint {path}: no 'state' object")
    check_no_extra_fields(data, f"corrupt checkpoint {path}:",
                          ("schema", "command", "records", "sha256", "state"))
    records = data.get("records")  # absent or null is as wrong as a number
    if not isinstance(records, str) or not records:
        raise CheckpointMismatch(
            f"corrupt checkpoint {path}: records {records!r} names no file")
    check_fields(data, f"checkpoint {path}", schema=CHECKPOINT_SCHEMA,
                 command=command)
    return data


def _partial(records: Path) -> Path:
    return records.with_name(records.name + ".partial")


def _prefix_lines(records: Path, emitted: int) -> list[bytes]:
    """The first `emitted` record lines a run wrote before its checkpoint,
    from <records>.partial, or from <records> once the run finished."""
    source = _partial(records) if _partial(records).exists() else records
    lines = []
    if emitted and source.exists():
        with open(source, "rb") as f:
            lines = list(islice(f, emitted))
    if len(lines) < emitted or lines and not lines[-1].endswith(b"\n"):
        raise CheckpointMismatch(
            f"{source} is missing or holds fewer than the {emitted} records "
            f"the checkpoint expects; refusing to resume from it")
    return lines


def _stream_records(enum: ExtremalEnumeration, budget: SearchBudget,
                    records_final: Path, ck_path: Path, command: str,
                    checkpoint_every: int, keep: int, digest,
                    collect) -> str | None:
    """Drive an enumeration on `budget`, writing one JSON line per record.

    Output goes to <records_final>.partial, cut after `keep` bytes, whose
    sha256 is `digest`, and appended to, then atomically renamed on
    completion. The checkpoint, sealed over the lines it counts, is
    rewritten every `checkpoint_every` records, after those lines are
    flushed, so the pair (partial file, checkpoint) is never ahead of
    itself. Returns None on completion, else why the run stopped. A Ctrl-C
    can land mid-write or mid-step in the engine, so it saves the last
    checkpointed state.
    """
    partial = _partial(records_final)
    partial.parent.mkdir(parents=True, exist_ok=True)
    consistent = enum.state(), digest.copy()
    written = 0
    with open(partial, "a", encoding="utf-8") as f:
        f.truncate(keep)
        try:
            for rec in enum.records(budget):
                d = rec.to_dict()
                f.write(line := dump_json(d) + "\n")
                digest.update(line.encode())
                written += 1
                collect(d)
                if checkpoint_every and written % checkpoint_every == 0:
                    f.flush()
                    state = enum.state(), digest.copy()
                    _write_checkpoint(ck_path, command, records_final, *state)
                    consistent = state
        except KeyboardInterrupt:
            f.flush()
            _write_checkpoint(ck_path, command, records_final, *consistent)
            return "interrupted"
    if enum.done:
        os.replace(partial, records_final)
    _write_checkpoint(ck_path, command, records_final, enum.state(), digest)
    return None if enum.done else "budget exhausted"


# -- subcommands -------------------------------------------------------------------


def _budget(args) -> SearchBudget:
    """The search allowance of --max-nodes and --max-seconds, each infinite
    when unset (the ledger config keeps null)."""
    return SearchBudget(*(math.inf if x is None else x
                          for x in (args.max_nodes, args.max_seconds)))


def cmd_cr(args, run: _Run) -> int:
    group = parse_group_spec(args.group)
    formula = critical_number_formula(group)
    case = critical_number_case(group)
    result = {"group": group.spec_string, "order": group.order,
              "formula": formula, "case": case, "search": None,
              "agree": None}
    lines = [f"cr({group.spec_string}) = {formula} by formula (case {case})"]
    status = STATUS_COMPLETE
    if not args.formula:
        out = critical_number_search(group, _budget(args),
                                     max_exact_order=args.max_exact_order)
        result["search"] = out.to_dict()
        if out.status == "complete":
            result["agree"] = out.value == formula
            lines.append(
                f"search: cr = {out.value}, max non-spanning witness "
                f"{list(out.witness)} ({out.nodes} nodes)")
            if out.value != formula:
                lines.append(f"DISAGREEMENT: formula {formula} (case {case}) "
                             f"!= searched {out.value}")
            else:
                lines.append("formula and exhaustive search agree")
        elif out.status == "skipped":
            lines.append(
                f"search skipped: order {group.order} above the exact-search "
                f"cap ({args.max_exact_order}); raise --max-exact-order "
                f"to force it")
        else:
            lines.append("search ran out of budget before certifying")
            status = STATUS_PARTIAL
    run.artifact("cr.json", result)
    return run.finish(status, {"formula": formula, "case": case,
                               "search": result["search"] and
                               result["search"]["status"],
                               "agree": result["agree"]}, lines,
                      result["agree"] is False)


def cmd_verify_theorem_a(args, run: _Run) -> int:
    table = verify_critical_formula(args.max_order, _budget(args))
    run.artifact("table.json", table.to_dict())
    md = render_critical_table(table.to_dict(), "markdown")
    md_path = run.dir / "table.md"
    atomic_write_text(md_path, md)
    run.register("table.md", md_path)
    complete_rows = [r for r in table.rows if r.status == "complete"]
    pending = [r for r in table.rows if r.status == "budget_exceeded"]
    bad = table.disagreements
    lines = [f"checked {len(table.rows)} groups of order 3..{args.max_order}: "
             f"{len(complete_rows)} searched, {len(bad)} disagreements"]
    for r in bad:
        lines.append(f"  MISMATCH {r.spec}: formula {r.formula}, "
                     f"search {r.searched}")
    status = STATUS_COMPLETE
    if pending and not bad:
        status = STATUS_PARTIAL
        lines.append(f"{len(pending)} groups ran out of budget")
    elif not bad:
        lines.append("formula matches exhaustive search on every group")
    return run.finish(status, {"groups": len(table.rows),
                               "disagreements": len(bad),
                               "pending": len(pending)}, lines, bool(bad))


def _enumerating_run(args, run: _Run, group, orbit_dedup: bool,
                     verdict: Verdict, report) -> int:
    """The run shared by enumerate-extremal, conjecture and verify-main.

    Resumes from --resume in place: the checkpoint's records file keeps the
    lines written before it, folded into `verdict` as the new ones are, and
    an --out or --checkpoint naming another file is refused, as is a
    checkpoint whose sha256 is not the seal of those lines and its state.
    A finished checkpoint searches nothing and rebuilds from its lines.
    report(enum, complete, records_path) writes the command's certificate,
    if any, and returns its (summary, lines, violation found); a PARTIAL
    run adds a resume hint.
    """
    ck = args.resume and _load_checkpoint(Path(args.resume), run.name)
    out, checkpoint = getattr(args, "out", None), getattr(args, "checkpoint", None)
    if ck:
        for flag, given, own in (("--out", out, ck["records"]),
                                 ("--checkpoint", checkpoint, args.resume)):
            if given and Path(given).resolve() != Path(own).resolve():
                raise ValueError(f"{flag} {given} is not the checkpoint's own "
                                 f"file {own}, which a resume continues")
        out, checkpoint = ck["records"], args.resume
    records_path = Path(out or run.dir / "records.jsonl")
    ck_path = Path(checkpoint or run.dir / "checkpoint.json")
    enum = ExtremalEnumeration(group, getattr(args, "extended", False), orbit_dedup,
                               ck and ck["state"], args.threads)
    keep, digest = 0, hashlib.sha256()
    for line in _prefix_lines(records_path, enum.stats.emitted):
        verdict.add(json.loads(line))
        digest.update(line)
        keep += len(line)
    if ck and ck.get("sha256") != _seal(digest, ck["state"]):
        raise CheckpointMismatch(
            f"checkpoint {args.resume} sha256 is not the seal of its state "
            f"and the {enum.stats.emitted} records written before it")
    if ck and records_path.exists() and not _partial(records_path).exists():
        # a finished run: its records file continues as the partial file
        os.replace(records_path, _partial(records_path))
    # resolved, so that the checkpoint names the records from any directory
    stopped = _stream_records(enum, _budget(args), records_path.resolve(), ck_path,
                              run.name, args.checkpoint_every, keep, digest, verdict.add)
    summary, lines, violation = report(enum, stopped is None, records_path)
    run.register("checkpoint", ck_path)
    if stopped is None:
        run.register("records", records_path)
    else:
        run.register("records.partial", _partial(records_path))
        lines.append(f"{stopped}; resume with --resume {ck_path}")
    return run.finish(STATUS_PARTIAL if stopped else STATUS_COMPLETE, summary,
                      lines, violation)


def cmd_enumerate(args, run: _Run) -> int:
    tally = Verdict(None)

    def report(enum, complete, records_path):
        lines = [f"{enum.group.spec_string}: {enum.stats.emitted} extremal "
                 f"records (size {enum.k}, mode {enum.mode}, "
                 f"orbit_dedup {str(enum.orbit_dedup).lower()})"]
        if complete:
            lines.append(f"records written to {records_path}")
            lines += [f"  {tag}: {n}"
                      for tag, n in sorted(tally.tag_counts.items())]
        return ({"records": enum.stats.emitted, "mode": enum.mode,
                 "orbit_dedup": enum.orbit_dedup, "tags": tally.tag_counts,
                 "nodes": enum.stats.nodes}, lines, False)

    return _enumerating_run(args, run, parse_group_spec(args.group),
                            not args.no_orbit_dedup, tally, report)


def cmd_classify(args, run: _Run) -> int:
    group = parse_group_spec(args.group)
    try:
        indices = [int(part) for part in args.set.replace(" ", "").split(",") if part]
    except ValueError:
        raise ValueError(f"--set must be comma-separated indices, got {args.set!r}")
    a = ElementSet.from_indices(group, indices)
    record = classify(a)
    d = record.to_dict()
    run.artifact("record.json", d)
    lines = [dump_json(d, pretty=True).rstrip()]
    return run.finish(STATUS_COMPLETE, {"tags": list(record.tags)}, lines)


def cmd_conjecture(args, run: _Run) -> int:
    group = parse_group_spec(args.group)
    verdict = Verdict(conjecture_claim(group)[3])

    def report(enum, complete, records_path):
        rep = ConjectureReport.from_verdict(group, verdict, complete)
        run.artifact("cert.json", {**rep.to_dict(),
                                   "records": str(records_path)})
        lines = [f"conjecture {rep.which} at (p, q) = ({rep.p}, {rep.q}) "
                 f"over {rep.group}: {rep.outcome}",
                 f"extremal sets: {rep.extremal_count}, failing: "
                 f"{rep.failing_count}"]
        return ({"outcome": rep.outcome, "total": rep.extremal_count,
                 "failing": rep.failing_count}, lines, False)

    return _enumerating_run(args, run, group, False, verdict, report)


def cmd_verify_main(args, run: _Run) -> int:
    group = parse_group_spec(args.group)
    verdict = theorem_verdict(group)

    def report(enum, complete, records_path):
        rep = TheoremReport.from_verdict(group, verdict, complete,
                                         enum.orbit_dedup)
        run.artifact("theorem.json", {**rep.to_dict(),
                                      "records": str(records_path)})
        lines = [f"{rep.group} ({rep.case} case, requires "
                 f"{rep.required_tag}): {rep.outcome}",
                 f"extremal sets: {rep.extremal_count}, violations: "
                 f"{rep.violation_count}"]
        return ({"outcome": rep.outcome, "total": rep.extremal_count,
                 "violations": rep.violation_count, "tags": rep.tag_counts},
                lines, rep.outcome != "VERIFIED")

    return _enumerating_run(args, run, group, not args.no_orbit_dedup,
                            verdict, report)


def cmd_fuzz(args, run: _Run) -> int:
    lemmas = args.lemma or list(CAMPAIGNS)
    reports = run_all_campaigns(args.trials, args.seed, lemmas)
    run.artifact("fuzz.json", [r.to_dict() for r in reports])
    dirty = [r for r in reports if not r.clean]
    lines = []
    for r in reports:
        mark = "ok" if r.clean else "VIOLATIONS"
        extra = ""
        if r.exhaustive:
            extra = f", exhaustive {r.exhaustive['violations']} violations"
        lines.append(f"  {r.lemma}: trials {r.trials}, applied {r.applied}, "
                     f"violations {r.violations}{extra} [{mark}]")
    lines.append(f"{len(reports)} campaigns, {len(dirty)} with violations")
    return run.finish(STATUS_COMPLETE,
                      {"campaigns": len(reports), "dirty": len(dirty),
                       "seed": args.seed, "trials": args.trials},
                      lines, bool(dirty))


# -- report rendering ---------------------------------------------------------------


def _table(headers: list[str], rows: list[list[str]], fmt: str) -> str:
    if fmt == "markdown":
        out = ["| " + " | ".join(headers) + " |",
               "|" + "|".join("---" for _ in headers) + "|"]
        out += ["| " + " | ".join(row) + " |" for row in rows]
        return "\n".join(out) + "\n"
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    fmt_row = "  ".join(f"{{:<{w}}}" for w in widths)
    out = [fmt_row.format(*headers), fmt_row.format(*("-" * w for w in widths))]
    out += [fmt_row.format(*row) for row in rows]
    return "\n".join(out) + "\n"


def render_critical_table(table: dict, fmt: str) -> str:
    rows = []
    for r in table["rows"]:
        rows.append([r["spec"], str(r["order"]), str(r["formula"]),
                     str(r["searched"]) if r["searched"] is not None else "-",
                     {True: "yes", False: "NO", None: "-"}[r["agree"]],
                     str(r["witness"]) if r["witness"] is not None else "-",
                     r["status"]])
    head = ["group", "order", "formula", "searched", "agree", "witness", "status"]
    unsettled = [r["spec"] for r in table["rows"] if r["agree"] is None]
    if any(r["agree"] is False for r in table["rows"]):
        verdict = "DISAGREEMENTS PRESENT"
    elif unsettled:
        verdict = f"no disagreement, unsettled: {', '.join(unsettled)}"
    else:
        verdict = "all agree"
    title = f"critical numbers up to order {table['max_order']}: {verdict}\n\n"
    return title + _table(head, rows, fmt)


def _render_fuzz(reports: list[dict], fmt: str) -> str:
    rows = [[r["lemma"], str(r["trials"]), str(r["applied"]),
             str(r["violations"]),
             str(r["exhaustive"]["violations"]) if r.get("exhaustive") else "-",
             "yes" if r["clean"] else "NO"]
            for r in reports]
    return _table(["bound", "trials", "applied", "violations",
                   "exhaustive-violations", "clean"], rows, fmt)


def _render_records_file(path: Path, fmt: str) -> str:
    tally = Verdict(None)
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                tally.add(json.loads(line))
    rows = [[tag, str(n)] for tag, n in sorted(tally.tag_counts.items())]
    return (f"{tally.total} records\n"
            + _table(["tag", "count"], rows, fmt))


def cmd_report(args, store: CampaignStore) -> int:
    fmt = args.format
    if not args.campaign:
        records = store.records()
        if not records:
            print(f"no campaigns in {store.root}")
            return 0
        rows = [[r["campaign_id"], r["status"], r.get("group") or "-",
                 r["command"][:60]] for r in records]
        print(_table(["campaign", "status", "group", "command"], rows, fmt),
              end="")
        return 0
    rec = store.find(args.campaign)
    if rec is None:
        print(f"error: campaign {args.campaign!r} not found in {store.root}",
              file=sys.stderr)
        return 1
    print(f"campaign {rec['campaign_id']}")
    print(f"  command:  {rec['command']}")
    print(f"  status:   {rec['status']}")
    print(f"  started:  {rec['started']}")
    print(f"  finished: {rec['finished']}")
    if rec.get("summary"):
        print(f"  summary:  {dump_json(rec['summary'])}")
    print()
    for name, raw_path in sorted(rec.get("artifacts", {}).items()):
        path = Path(raw_path)
        if not path.exists():
            print(f"[{name}] missing: {path}")
            continue
        print(f"[{name}] {path}")
        try:
            if name == "table.json":
                print(render_critical_table(json.loads(path.read_text()), fmt))
            elif name == "fuzz.json":
                print(_render_fuzz(json.loads(path.read_text()), fmt))
            elif name.startswith("records"):
                print(_render_records_file(path, fmt))
            elif path.suffix == ".json":
                print(dump_json(json.loads(path.read_text()), pretty=True))
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            print(f"  (unrenderable: {exc})")
    return 0


# -- parser ------------------------------------------------------------------------


def _add_budget_flags(p: _Parser, scope: str) -> None:
    p.add_argument("--max-nodes", type=_int_at_least(0), default=None, metavar="N",
                   help=f"stop after N search nodes {scope}")
    p.add_argument("--max-seconds", type=_seconds, default=None, metavar="S",
                   help=f"stop after S seconds {scope}")


def _add_enum_flags(p: _Parser, orbit_dedup: bool = True) -> None:
    _add_budget_flags(p, "in all, at any --threads (writes a checkpoint)")
    if orbit_dedup:
        p.add_argument("--no-orbit-dedup", action="store_true",
                       help="emit every extremal set, not one per "
                            "unit-scaling orbit (orbit dedup applies to "
                            "missed-target runs on cyclic groups only)")
    p.add_argument("--threads", type=_int_at_least(1), default=1,
                   help="worker processes for a missed-target run, at "
                        "least 1; the pool has at most one per CPU "
                        "(default 1)")
    p.add_argument("--resume", metavar="CHECKPOINT",
                   help="resume from a checkpoint.json written by an "
                        "interrupted run, continuing its records file in "
                        "place")
    p.add_argument("--checkpoint-every", type=_int_at_least(0), default=1000,
                   metavar="N",
                   help="rewrite the checkpoint every N records (default "
                        "1000); 0 writes it only at a pause, a Ctrl-C or "
                        "the end")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="spanlab",
        description="Subset-sum spanning laboratory for finite abelian groups: "
                    "critical numbers, extremal-set enumeration and "
                    "classification, conjecture certificates, and bound fuzzing.",
        epilog="Group specs: Z<n> for cyclic, Z<n1>xZ<n2>x... for products "
               "(case-insensitive), e.g. Z15, Z2xZ4, Z3xZ3. Exit codes: "
               "0 complete, 2 partial (checkpoint written), 1 failure or "
               "violation found.")
    parser.add_argument("--store", type=Path,
                        default=Path(os.environ.get("SPANLAB_STORE",
                                                    str(DEFAULT_STORE))),
                        help="campaign store directory "
                             "(default SPANLAB_STORE or ~/.spanlab)")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                metavar="COMMAND")

    p = sub.add_parser("cr", help="critical number: closed formula plus "
                                  "exhaustive cross-check")
    p.add_argument("--group", required=True, help="group spec, e.g. Z15")
    p.add_argument("--formula", action="store_true",
                   help="closed form only (default: formula plus certified "
                        "exhaustive search with agreement check)")
    _add_budget_flags(p, "in all")
    p.add_argument("--max-exact-order", type=_int_at_least(1), metavar="N",
                   help=f"largest group order searched exhaustively "
                        f"(default {MAX_EXACT_ORDER}; larger orders are "
                        f"skipped)")
    p.set_defaults(func=cmd_cr)

    p = sub.add_parser("verify-theorem-a",
                       help="formula vs exhaustive search on every abelian "
                            "group up to an order cap")
    p.add_argument("--max-order", type=_int_at_least(3), default=24,
                   help="largest group order to verify, at least 3 (default 24)")
    _add_budget_flags(p, "per group (each group's search gets the whole "
                         "allowance)")
    p.set_defaults(func=cmd_verify_theorem_a)

    p = sub.add_parser("enumerate-extremal",
                       help="stream every extremal non-spanning set, classified")
    p.add_argument("--group", required=True)
    p.add_argument("--out", help="records file (default: in the campaign "
                                 "artifact directory; on --resume, the checkpoint's)")
    p.add_argument("--checkpoint", help="checkpoint file (default: in the campaign "
                                        "artifact directory; on --resume, that one)")
    p.add_argument("--extended", action="store_true",
                   help="take the missed-target walk even where the direct "
                        "walk fits (the group picks the walk otherwise)")
    _add_enum_flags(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", help="classify one set against the "
                                        "extremal shapes")
    p.add_argument("--group", required=True)
    p.add_argument("--set", required=True, metavar="I,J,...",
                   help="comma-separated element indices, e.g. 1,2,3,12,13,14")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("conjecture",
                       help="enumerate all extremal sets of Z_pq and emit a "
                            "VERIFIED/REFUTED certificate")
    p.add_argument("--group", required=True,
                   help="Z_pq with (p, q) in pq_window's 'coset' window "
                        "(conjecture 1) or 'interval' window (conjecture "
                        "2), e.g. Z21 or Z15")
    _add_enum_flags(p, orbit_dedup=False)
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("verify-main",
                       help="check the structure theorem's shape claim on "
                            "every extremal set")
    p.add_argument("--group", required=True)
    _add_enum_flags(p)
    p.set_defaults(func=cmd_verify_main)

    p = sub.add_parser("fuzz-bounds",
                       help="randomized + exhaustive campaigns over the "
                            "bound checks")
    p.add_argument("--lemma", action="append", choices=sorted(CAMPAIGNS),
                   help="bound to fuzz (repeatable; default: all)")
    p.add_argument("--trials", type=_int_at_least(0), default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (default 0)")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("report", help="render stored campaigns")
    p.add_argument("--campaign", help="campaign id (default: list campaigns)")
    p.add_argument("--format", choices=("text", "markdown"), default="text")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command. Every command but report is a campaign: one _Run,
    which appends exactly one ledger record, FAILED (exit 1) when the
    command raised or was interrupted."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "formula", False):
        given = [f"--{dest.replace('_', '-')}" for dest in
                 ("max_nodes", "max_seconds", "max_exact_order")
                 if getattr(args, dest) is not None]
        if given:
            parser.error(f"{', '.join(given)} bound a search that --formula does not run")
    if getattr(args, "max_exact_order", MAX_EXACT_ORDER) is None:
        args.max_exact_order = MAX_EXACT_ORDER
    store = CampaignStore(args.store)
    try:
        if args.func is cmd_report:
            code = cmd_report(args, store)
        else:
            code = _Run(store, args).execute()
        sys.stdout.flush()
        return code
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 1
    except BrokenPipeError as exc:
        # stdout's reader is gone: drop what is buffered, or exit fails again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
