"""Freeze the output oracle: python3 perfbench/freeze.py

Runs every workload once through the CLI and writes perfbench/oracle.json:

* cr: the searched cr(G) of every group of order 3..36. Before writing, it
  asserts that orders <= 24 agree with the closed formula (the table the
  test suite pins) and that Z5xZ5 searches to 8, the one known formula
  disagreement, which must stay visible;
* records: the sha256 of records.jsonl for each (group, mode);
* fuzz: the nine bounds, and the exhaustive censuses, which do not depend
  on the seed (checked by freezing seed 0 and comparing seed 1).

Run it only when spanlab's output is meant to change; the benchmark
refuses any output that differs from the frozen one.
"""

from __future__ import annotations

import json
import tempfile

import campaign as C


def main() -> None:
    C.check_checkout()
    C.TMP_ROOT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=C.TMP_ROOT)
    try:
        oracle = {"cr": {}, "records": {}, "fuzz": {}}
        (inv,) = [C.run_cli(a, "plain", tmp) for a in C.invocations("cr-frontier", 0)]
        rows = json.loads(inv.artifact("table.json").read_text())["rows"]
        for r in rows:
            assert r["status"] == "complete", r
            if r["order"] <= 24:
                assert r["agree"], r
            oracle["cr"][r["spec"]] = r["searched"]
        assert len(rows) == 60 and oracle["cr"]["Z5xZ5"] == 8

        for workload in ("extremal-stream", "extremal-parallel"):
            for argv in C.invocations(workload, 0):
                inv = C.run_cli(argv, "plain", tmp)
                assert inv.code == 0, inv.argv
                path = inv.artifact("records")
                oracle["records"][C.records_key(argv)] = {
                    "sha256": C.sha256_of(path),
                    "records": len(path.read_text().splitlines())}

        censuses = []
        for seed in (0, 1):
            (inv,) = [C.run_cli(a, "plain", tmp) for a in C.invocations("fuzz-bounds", seed)]
            assert inv.code == 0
            reports = json.loads(inv.artifact("fuzz.json").read_text())
            assert all(r["clean"] for r in reports)
            censuses.append({r["lemma"]: r["exhaustive"] for r in reports
                             if r["exhaustive"] is not None})
        assert censuses[0] == censuses[1], "censuses depend on the seed"
        oracle["fuzz"] = {"lemmas": [r["lemma"] for r in reports],
                          "censuses": censuses[0]}
        C.ORACLE_PATH.write_text(json.dumps(oracle, indent=1, sort_keys=True) + "\n")
        print(f"wrote {C.ORACLE_PATH}")
    finally:
        C.remove_tree(tmp)


if __name__ == "__main__":
    main()
