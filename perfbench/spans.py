"""Span recording around spanlab's public functions, done from outside.

The benchmark never edits spanlab. It imports the package in the process
that runs the CLI and replaces chosen functions, on their module and on
every spanlab module that imported them by name, with wrappers:

* a span wrapper records (name, start, end, parent, attrs) per call;
* a generator wrapper records one span per resumption, so time spent by
  the consumer between two items is not charged to the generator;
* a counter wrapper only counts calls. The hot kernels (translate_bits,
  subset_sums_bits, canonical_bits_under_units) get counters, since a span
  per call would cost more than the call; their ns/op comes from the
  microbench instead.

Spans stay in memory. Worker processes forked by the process pool start
with empty buffers and append theirs to a per-pid file whenever a root
span ends; the CLI process returns its own in `Tracer.dump()` at exit.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

# Functions that get a span, as (module, qualified name); the span is named
# "<module>.<qualname>".
SPANNED = [
    ("groups", "all_subgroups"),
    ("groups", "abelian_groups_of_order"),
    ("search", "max_avoiding"),
    ("search", "target_representatives"),
    ("search", "run_work_unit"),
    ("critical", "critical_number_search"),
    ("critical", "verify_critical_formula"),
    ("extremal", "classify"),
    ("extremal", "extremality_failure"),
    ("store", "dump_json"),
    ("store", "atomic_write_text"),
    ("store", "sha256_file"),
    ("store", "CampaignStore.append"),
    ("cli", "_write_checkpoint"),
    ("fuzz", "run_campaign"),
    ("fuzz", "_exhaustive_midpoint_z13"),
    ("fuzz", "_exhaustive_full_span_z11"),
    ("fuzz", "_exhaustive_sequences"),
] + [("bounds", name) for name in (
    "check_folk_lemma", "check_hamidoune_dichotomy", "check_cauchy_davenport",
    "check_diderrich", "check_vosper", "check_three_facts",
    "check_growth_bound", "check_prime_growth_bound", "check_sequence_growth")]

GENERATORS = [
    ("search", "SizedEnumerator.run"),
    ("search", "AvoidingEnumerator.run"),
    ("extremal", "ExtremalEnumeration.records"),
]

COUNTED = [
    ("groups", "GroupSpec.translate_bits"),
    ("groups", "GroupSpec.canonical_bits_under_units"),
    ("sums", "subset_sums_bits"),
]

# Functions whose first call marks the end of set-up: the first search
# target, engine, or fuzz campaign. In the parallel workload the engine is
# built inside a pool worker, so pool start counts as set-up.
FIRST_WORK = [
    ("search", "max_avoiding"),
    ("search", "SizedEnumerator.__init__"),
    ("search", "AvoidingEnumerator.__init__"),
    ("fuzz", "run_campaign"),
]


def _resolve(module: str, qualname: str):
    mod = sys.modules[f"spanlab.{module}"]
    owner = mod
    *outer, leaf = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


def _replace(module: str, qualname: str, make_wrapper) -> None:
    """Swap one function for make_wrapper(original) everywhere spanlab sees it."""
    owner, leaf, original = _resolve(module, qualname)
    wrapper = make_wrapper(original)
    setattr(owner, leaf, wrapper)
    if "." in qualname:
        return
    for name, mod in list(sys.modules.items()):
        if name == "spanlab" or name.startswith("spanlab."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def install_first_work_marker(marker_dir: Path, probe: bool) -> None:
    """Write <marker_dir>/first-<pid> holding time.monotonic() at the first
    unit of work in each process. With probe=True the process then exits,
    so a set-up probe pays for set-up only."""
    fired = []

    def mark() -> None:
        if fired:
            return
        fired.append(True)
        now = repr(time.monotonic())
        tmp = marker_dir / f".first-{os.getpid()}"
        tmp.write_text(now)
        os.replace(tmp, marker_dir / f"first-{os.getpid()}")
        if probe:
            os._exit(0)

    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            mark()
            return original(*args, **kwargs)
        return wrapper

    for module, qualname in FIRST_WORK:
        _replace(module, qualname, make)


class Tracer:
    """Span and counter buffers for one process."""

    def __init__(self, worker_dir: Path):
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self.marks: dict[str, list[float]] = {}

    # -- buffers -------------------------------------------------------------

    def cell(self, name: str) -> list[int]:
        return self.counts.setdefault(name, [0])

    def add(self, name: str, n: int) -> None:
        self.cell(name)[0] += n

    def enter(self, name: str, attrs: dict | None = None) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1, attrs])
        self.stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()
        if not self.stack and os.getpid() != self.pid:
            self._flush_worker()

    def _reset_in_child(self) -> None:
        self.spans.clear()
        self.stack.clear()
        for stamps in self.marks.values():
            stamps.clear()
        for cell in self.counts.values():
            cell[0] = 0

    def _flush_worker(self) -> None:
        line = json.dumps(self.dump())
        with open(self.worker_dir / f"worker-{os.getpid()}.jsonl", "a") as f:
            f.write(line + "\n")
        self._reset_in_child()

    def dump(self) -> dict:
        return {"spans": self.spans,
                "counts": {k: v[0] for k, v in self.counts.items()},
                "marks": self.marks}

    # -- wrappers ------------------------------------------------------------

    def span_wrapper(self, name: str, attrs_of=None, on_result=None):
        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                idx = self.enter(name, attrs_of(args, kwargs) if attrs_of else None)
                try:
                    result = original(*args, **kwargs)
                    if on_result is not None:
                        on_result(result)
                finally:
                    self.exit(idx)
                return result
            return wrapper
        return make

    def generator_wrapper(self, name: str, stamp: bool = False):
        """Span each resumption; count yields and engine nodes (stats.nodes).
        With stamp=True also keep the time of every yield."""
        yields = self.cell(f"{name}.yields")
        nodes = self.cell(f"{name}.nodes")
        stamps = self.marks.setdefault(f"{name}.yield_at", []) if stamp else None

        def make(original):
            @functools.wraps(original)
            def wrapper(obj, *args, **kwargs):
                stats = getattr(obj, "stats", None)
                before = stats.nodes if stats is not None else 0
                it = original(obj, *args, **kwargs)
                try:
                    while True:
                        idx = self.enter(name)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            self.exit(idx)
                        yields[0] += 1
                        if stamps is not None:
                            stamps.append(time.perf_counter())
                        yield item
                finally:
                    if stats is not None:
                        nodes[0] += stats.nodes - before
                    it.close()
            return wrapper
        return make

    def counter_wrapper(self, name: str):
        cell = self.cell(f"{name}.calls")

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, _original=original, _cell=cell):
                _cell[0] += 1
                return _original(*args)
            return wrapper
        return make

    def install(self) -> None:
        """Wrap every function in SPANNED, GENERATORS and COUNTED."""
        special = {
            "search.max_avoiding": {
                "on_result": lambda r: self.add("search.max_avoiding.nodes", r.nodes)},
            "search.target_representatives": {
                "on_result": lambda r: self.add("search.targets", len(r))},
            "critical.critical_number_search": {
                "attrs_of": lambda a, k: {"cyclic": a[0].is_cyclic_spec}},
            "fuzz.run_campaign": {
                "attrs_of": lambda a, k: {"lemma": a[0] if a else k["lemma"]}},
        }
        for module, qualname in SPANNED:
            name = f"{module}.{qualname}"
            _replace(module, qualname, self.span_wrapper(name, **special.get(name, {})))
        for module, qualname in GENERATORS:
            name = f"{module}.{qualname}"
            _replace(module, qualname, self.generator_wrapper(
                name, stamp=name == "extremal.ExtremalEnumeration.records"))
        for module, qualname in COUNTED:
            _replace(module, qualname, self.counter_wrapper(f"{module}.{qualname}"))
        os.register_at_fork(after_in_child=self._reset_in_child)


# -- analysis (runs in the benchmark process) ------------------------------------


def self_times(spans: list[list]) -> dict[str, list[float]]:
    """name -> per-call self times: duration minus the children's durations."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list[float]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out.setdefault(name, []).append(end - start - child[i])
    return out


def library_root_time(spans: list[list]) -> float:
    """Time covered by spans outside the cli module with no such ancestor."""
    lib = [not s[0].startswith("cli.") for s in spans]
    total = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        if not lib[i]:
            continue
        p = parent
        while p >= 0 and not lib[p]:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total
