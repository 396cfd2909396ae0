"""Report-only certified-frontier sweep (not a gated workload).

    python3 perfbench/frontier.py

Runs `spanlab verify-theorem-a --max-order 64 --max-seconds 20` once, which
gives every abelian group of order 3..64 the same per-group search budget,
and prints:

* certified_frontier: the largest n such that every group of order <= n
  had its cr(G) settled by exhaustive search within the budget;
* the groups that ran out of budget;
* the groups where the settled search disagrees with the closed formula.

It takes about ten minutes on a 2-vCPU box.
"""

from __future__ import annotations

import json
import tempfile

import campaign as C

MAX_ORDER = 64
BUDGET_S = 20
# Generous: the sweep is about ten minutes, with 25 groups using the whole
# budget.
TIMEOUT_S = 3600


def main() -> None:
    C.check_checkout()
    C.TMP_ROOT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=C.TMP_ROOT)
    try:
        inv = C.run_cli(["verify-theorem-a", "--max-order", str(MAX_ORDER),
                         "--max-seconds", str(BUDGET_S)], "plain", tmp,
                        timeout_s=TIMEOUT_S)
        rows = json.loads(inv.artifact("table.json").read_text())["rows"]
    finally:
        C.remove_tree(tmp)
    pending = [r for r in rows if r["status"] != "complete"]
    first_gap = min((r["order"] for r in pending), default=MAX_ORDER + 1)
    print(f"exit code {inv.code}; {len(rows)} groups of order 3..{MAX_ORDER}, "
          f"{BUDGET_S} s per group, {inv.wall_s:.0f} s in all")
    print(f"certified_frontier {first_gap - 1}")
    print(f"out of budget ({len(pending)}): "
          + ", ".join(f"{r['spec']} (order {r['order']})" for r in pending))
    bad = [r for r in rows if r["agree"] is False]
    print(f"formula disagreements ({len(bad)}): "
          + ", ".join(f"{r['spec']} formula {r['formula']} search {r['searched']}"
                      for r in bad))


if __name__ == "__main__":
    main()
