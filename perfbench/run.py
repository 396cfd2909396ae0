"""spanlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs campaigns back to back (a closed loop, one client). Each
campaign is a fixed list of `spanlab` CLI invocations, each in a fresh
interpreter against a fresh temporary store (campaign.py), and every
output is checked against the frozen oracle (oracle.json).

--trace 0  runs campaigns for S seconds, then set-up probes, and prints the
           end-to-end metrics: wall_s, cpu_s, setup_s, peak_rss_mb.
--trace 1  runs untraced campaigns for S/2 seconds, traced campaigns for
           S/2 seconds, then the kernel microbench, and prints the
           per-layer metrics, tracing_overhead, and a self-time rollup.

Metric names and units come from BENCHMARK.json. The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import campaign as C
import spans

SETUP_PROBES = 11
# Every invocation must end by this many seconds after start, so that a hung
# campaign still lets the run report within its 180 s limit.
RUN_DEADLINE_S = 165
BOUND_CHECKS = ("check_folk_lemma", "check_hamidoune_dichotomy",
                "check_cauchy_davenport", "check_diderrich", "check_vosper",
                "check_three_facts", "check_growth_bound",
                "check_prime_growth_bound", "check_sequence_growth")
CENSUS_SPANS = ("fuzz._exhaustive_midpoint_z13", "fuzz._exhaustive_full_span_z11",
                "fuzz._exhaustive_sequences")
RECORDS_SPAN = "extremal.ExtremalEnumeration.records"


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(samples: list[float]) -> tuple[float, int]:
    """(value, percentile) of the highest whole percentile with at least ten
    samples beyond it, by nearest rank; the median when there are too few."""
    s = sorted(samples)
    n = len(s)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct * n / 100)
        if rank >= 1 and n - rank >= 10:
            return s[rank - 1], pct
    return median(s), 50


class Tally:
    """Units attempted and failed across the whole run."""

    def __init__(self, oracle: dict):
        self.oracle = oracle
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, inv: C.Invocation) -> C.Verdict:
        v = C.check(inv, self.oracle)
        self.attempted += v.attempted
        self.failed += v.failed
        self.problems += v.problems
        return v


@dataclass
class Bench:
    """One run: workload, seed, scratch directory, tally, and deadline."""

    workload: str
    seed: int
    tmp: str
    tally: Tally
    deadline: float

    def invoke(self, argv: list[str], mode: str) -> C.Invocation:
        return C.run_cli(argv, mode, self.tmp,
                         max(1.0, self.deadline - time.monotonic()))


def run_campaign(bench: Bench, mode: str) -> dict:
    """Run one campaign; return its end-to-end figures and, traced, its layers."""
    invs = [bench.invoke(argv, mode)
            for argv in C.invocations(bench.workload, bench.seed)]
    verdicts = [bench.tally.check(inv) for inv in invs]
    results = [inv.result for inv in invs]
    out = {
        "wall_s": sum(inv.wall_s for inv in invs),
        "cpu_s": sum(inv.cpu_s for inv in invs),
        "setup": [inv.setup_s for inv in invs if inv.setup_s is not None],
        "peak_rss_mb": max((r.get("maxrss_kb", 0) for r in results), default=0) / 1024,
        "parent_cpu_s": sum(r.get("cpu_s", 0.0) for r in results),
        "worker_cpu_s": sum(r.get("children_cpu_s", 0.0) for r in results),
        "worker_peak_rss_mb": max((r.get("children_maxrss_kb", 0) for r in results),
                                  default=0) / 1024,
        "bytes_written": sum(r.get("bytes_written", 0) for r in results),
        "disagreements": sum(v.disagreements for v in verdicts),
    }
    if mode == "trace":
        out["layers"], out["rollup"] = layer_metrics(invs)
    for inv in invs:
        C.remove_tree(inv.dir)
    return out


def run_loop(bench: Bench, mode: str, budget_s: float) -> list[dict]:
    """At least one campaign; another only if it should end within budget_s."""
    done = []
    t0 = time.monotonic()
    while True:
        c0 = time.monotonic()
        done.append(run_campaign(bench, mode))
        now = time.monotonic()
        if now - t0 + (now - c0) > budget_s:
            return done


def layer_metrics(invs: list[C.Invocation]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced campaign, and module self times."""
    self_s: dict[str, float] = defaultdict(float)
    dur: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    group_ms: list[float] = []
    search_s = {True: 0.0, False: 0.0}
    lemma_s: dict[str, float] = defaultdict(float)
    gaps: list[float] = []
    cli_self = 0.0
    rollup: dict[str, float] = defaultdict(float)
    for inv in invs:
        main = inv.result.get("trace", {"spans": [], "counts": {}, "marks": {}})
        for tr in [main] + inv.worker_traces():
            where = "cli process" if tr is main else "pool workers"
            for name, values in spans.self_times(tr["spans"]).items():
                self_s[name] += sum(values)
                rollup[f"{name.split('.')[0]} ({where})"] += sum(values)
            for name, start, end, _parent, attrs in tr["spans"]:
                dur[name] += end - start
                calls[name] += 1
                if name == "critical.critical_number_search":
                    group_ms.append((end - start) * 1e3)
                    search_s[attrs["cyclic"]] += end - start
                elif name == "fuzz.run_campaign":
                    lemma_s[attrs["lemma"]] += end - start
            counts.update(tr["counts"])
        stamps = main["marks"].get(f"{RECORDS_SPAN}.yield_at", [])
        gaps += [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
        cli_self += inv.wall_s - spans.library_root_time(main["spans"])

    def us_per_call(name: str) -> float:
        return dur[name] / calls[name] * 1e6 if calls[name] else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {
        "groups.translate_bits.calls": counts["groups.GroupSpec.translate_bits.calls"],
        "groups.canonical_bits_under_units.calls":
            counts["groups.GroupSpec.canonical_bits_under_units.calls"],
        "groups.all_subgroups.ms": dur["groups.all_subgroups"] * 1e3,
        "sums.subset_sums_bits.calls": counts["sums.subset_sums_bits.calls"],
        "search.max_avoiding.calls": calls["search.max_avoiding"],
        "search.max_avoiding.nodes": counts["search.max_avoiding.nodes"],
        "search.max_avoiding.self_s": self_s["search.max_avoiding"],
        "search.max_avoiding.nodes_per_s": ratio(counts["search.max_avoiding.nodes"],
                                                 self_s["search.max_avoiding"]),
        "search.targets": counts["search.targets"],
    }
    engine_yields = 0
    for short, name in (("sized", "search.SizedEnumerator.run"),
                        ("avoiding", "search.AvoidingEnumerator.run")):
        nodes, yields = counts[f"{name}.nodes"], counts[f"{name}.yields"]
        engine_yields += yields
        m[f"search.{short}.nodes"] = nodes
        m[f"search.{short}.self_s"] = self_s[name]
        m[f"search.{short}.nodes_per_s"] = ratio(nodes, self_s[name])
        m[f"search.{short}.yield_ratio"] = ratio(yields, nodes)
    for prefix, samples in (("critical.group_ms", group_ms),
                            ("extremal.record_ms", gaps)):
        value, pct = tail(samples)
        m[f"{prefix}.p50"] = median(samples)
        m[f"{prefix}.tail"] = value
        m[f"{prefix}.tail_pct"] = pct
        m[f"{prefix}.samples"] = len(samples)
    m["critical.search_s.cyclic"] = search_s[True]
    m["critical.search_s.noncyclic"] = search_s[False]
    m["extremal.classify.calls"] = calls["extremal.classify"]
    m["extremal.classify.us_per_call"] = us_per_call("extremal.classify")
    m["extremal.extremality_failure.us_per_call"] = us_per_call(
        "extremal.extremality_failure")
    m["extremal.dedup_ratio"] = ratio(counts[f"{RECORDS_SPAN}.yields"], engine_yields)
    m["store.dump_json.us_per_call"] = us_per_call("store.dump_json")
    m["store.checkpoint.writes"] = calls["cli._write_checkpoint"]
    m["store.checkpoint.us_per_write"] = us_per_call("cli._write_checkpoint")
    m["store.append.us_per_call"] = us_per_call("store.CampaignStore.append")
    m["cli.self_s"] = cli_self
    for check in BOUND_CHECKS:
        m[f"bounds.{check}.calls"] = calls[f"bounds.{check}"]
        m[f"bounds.{check}.us_per_call"] = us_per_call(f"bounds.{check}")
    for lemma in (f"2.{i}" for i in range(1, 10)):
        m[f"fuzz.{lemma}.s"] = lemma_s[lemma]
    m["fuzz.census_s"] = sum(dur[name] for name in CENSUS_SPANS)

    rollup["cli (outside library spans)"] = cli_self
    rollup.pop("cli (cli process)", None)
    return m, dict(rollup)


def print_rollup(workload: str, traced: dict, untraced_wall: float) -> None:
    rollup = traced["rollup"]
    wall = traced["wall_s"]
    print(f"self time by module, traced {workload} campaign "
          f"(wall {wall:.3f} s, untraced {untraced_wall:.3f} s; "
          f"share of traced wall, summed over processes):")
    for module, s in sorted(rollup.items(), key=lambda kv: -kv[1]):
        print(f"  {module:<32} {s:9.3f} s  {100 * s / wall:5.1f}%")
    layers = traced["layers"]
    search = layers["critical.search_s.cyclic"] + layers["critical.search_s.noncyclic"]
    if search:
        print(f"  non-cyclic groups: {100 * layers['critical.search_s.noncyclic'] / search:.1f}% "
              f"of critical_number_search time ({search:.3f} s)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=C.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    C.check_checkout()
    spec = json.loads((C.ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    tally = Tally(C.load_oracle())
    C.TMP_ROOT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=C.TMP_ROOT)
    bench = Bench(args.workload, args.seed, tmp, tally,
                  time.monotonic() + RUN_DEADLINE_S)
    try:
        C.warm_up()
        if args.trace:
            metrics = traced_run(bench, args.seconds)
        else:
            metrics = untraced_run(bench, args.seconds)
    finally:
        C.remove_tree(tmp)
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    print(f"fail_ratio {tally.failed / max(tally.attempted, 1):.6f} "
          f"({tally.failed} of {tally.attempted} units)")
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"perfbench: metrics not computed: {missing}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def untraced_run(bench: Bench, seconds: float) -> dict:
    done = run_loop(bench, "plain", seconds)
    setup = [s for c in done for s in c["setup"]]
    argvs = C.invocations(bench.workload, bench.seed)
    tally = bench.tally
    for i in range(SETUP_PROBES):
        inv = bench.invoke(argvs[i % len(argvs)], "probe")
        tally.attempted += 1
        if inv.setup_s is None:
            tally.failed += 1
            tally.problems.append(f"set-up probe {inv.argv} never reached work")
        else:
            setup.append(inv.setup_s)
        C.remove_tree(inv.dir)
    for c in done:
        print(f"campaign: wall {c['wall_s']:.4f} s, cpu {c['cpu_s']:.4f} s, "
              f"peak rss {c['peak_rss_mb']:.1f} MB")
    if bench.workload == "cr-frontier":
        print(f"formula_disagreements {median(c['disagreements'] for c in done):g}")
    return {
        "wall_s": median(c["wall_s"] for c in done),
        "cpu_s": median(c["cpu_s"] for c in done),
        "setup_s": median(setup),
        "peak_rss_mb": median(c["peak_rss_mb"] for c in done),
    }


def traced_run(bench: Bench, seconds: float) -> dict:
    import microbench

    plain = run_loop(bench, "plain", seconds / 2)
    traced = run_loop(bench, "trace", seconds / 2)
    # The microbench imports spanlab here: keep its bytecode out of src/, in
    # the same cache the invocations use.
    sys.pycache_prefix = str(C.PYCACHE)
    sys.path.insert(0, str(C.SRC))
    metrics = {name: median(c["layers"][name] for c in traced)
               for name in traced[0]["layers"]}
    for key, name in (("parent_cpu_s", "extremal.parent_cpu_s"),
                      ("worker_cpu_s", "extremal.worker_cpu_s"),
                      ("worker_peak_rss_mb", "extremal.worker_peak_rss_mb"),
                      ("bytes_written", "store.bytes_written"),
                      ("disagreements", "critical.formula_disagreements")):
        metrics[name] = median(c[key] for c in plain)
    untraced_wall = median(c["wall_s"] for c in plain)
    metrics["tracing_overhead"] = median(c["wall_s"] for c in traced) - untraced_wall
    metrics.update(microbench.kernel_metrics(bench.seed))
    print_rollup(bench.workload, traced[-1], untraced_wall)
    print(f"tracing_overhead {metrics['tracing_overhead']:.4f} s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
