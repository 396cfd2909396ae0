"""Shipping gate: one test per release criterion, each ending in a PASS line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time

import pytest

import spanlab as S
from spanlab.cli import main as cli_main

import reference as ref


def _line(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS — {detail}")


# --------------------------------------------------------------- 1


# cr(G) of every abelian group of order 3..36, as exhaustive search certifies it
CR_TABLE_TO_36 = {
    "Z3": 2, "Z2xZ2": 3, "Z4": 3, "Z5": 3, "Z6": 4, "Z7": 4, "Z2xZ2xZ2": 4,
    "Z2xZ4": 5, "Z8": 5, "Z3xZ3": 5, "Z9": 5, "Z10": 5, "Z11": 6,
    "Z2xZ6": 6, "Z12": 6, "Z13": 6, "Z14": 7, "Z15": 7, "Z2xZ2xZ2xZ2": 8,
    "Z2xZ2xZ4": 8, "Z2xZ8": 8, "Z4xZ4": 8, "Z16": 8, "Z17": 7, "Z3xZ6": 9,
    "Z18": 9, "Z19": 8, "Z2xZ10": 10, "Z20": 10, "Z21": 8, "Z22": 11,
    "Z23": 9, "Z2xZ2xZ6": 12, "Z2xZ12": 12, "Z24": 12, "Z5xZ5": 8,
    "Z25": 9, "Z26": 13, "Z3xZ3xZ3": 10, "Z3xZ9": 10, "Z27": 10,
    "Z2xZ14": 14, "Z28": 14, "Z29": 10, "Z30": 15, "Z31": 10,
    "Z2xZ2xZ2xZ2xZ2": 16, "Z2xZ2xZ2xZ4": 16, "Z2xZ2xZ8": 16,
    "Z2xZ4xZ4": 16, "Z2xZ16": 16, "Z4xZ8": 16, "Z32": 16, "Z33": 12,
    "Z34": 17, "Z35": 11, "Z2xZ18": 18, "Z3xZ12": 18, "Z6xZ6": 18,
    "Z36": 18,
}


def test_criterion_1_critical_number_table_order_3_to_36():
    t0 = time.monotonic()
    table = S.verify_critical_formula(36)
    dt = time.monotonic() - t0
    rows = {row.spec: row for row in table.rows}
    want_specs = {S.make_group(t).spec_string
                  for n in range(3, 37) for t in S.abelian_groups_of_order(n)}
    assert set(rows) == want_specs == set(CR_TABLE_TO_36) and len(rows) == 60
    for row in table.rows:
        assert row.status == "complete"
        assert row.agree, f"{row.spec}: formula {row.formula} != searched {row.searched}"
        assert row.searched == row.formula == CR_TABLE_TO_36[row.spec]
    assert table.all_agree and not table.disagreements
    # the six groups on the exceptional list of the middle case, the two
    # smallest products of distinct odd primes, and both groups of order 25
    for spec, value in (("Z2xZ2", 3), ("Z3xZ3", 5), ("Z4", 3), ("Z6", 4),
                        ("Z2xZ4", 5), ("Z8", 5), ("Z15", 7), ("Z21", 8),
                        ("Z25", 9), ("Z5xZ5", 8)):
        assert rows[spec].formula == value
    assert dt <= 300, f"took {dt:.1f}s, budget 300s"
    _line(1, f"60 groups of order 3..36, search == formula everywhere "
             f"({dt:.2f}s)")


# --------------------------------------------------------------- 2


def test_criterion_2_bound_fuzz_campaigns_clean():
    t0 = time.monotonic()
    reports = S.run_all_campaigns(trials=10**4)
    dt = time.monotonic() - t0
    assert [r.lemma for r in reports] == [f"2.{i}" for i in range(1, 10)]
    for r in reports:
        assert r.trials == 10**4
        assert r.applied > 0, f"{r.lemma}: hypothesis never fired"
        assert r.violations == 0 and r.examples == [], f"{r.lemma} dirty"
    census_26 = next(r for r in reports if r.lemma == "2.6").exhaustive
    assert census_26["violations"] == 0
    midpoint, fullspan = census_26["suites"]
    assert midpoint["sets"] == 924 and midpoint["violations"] == 0
    assert midpoint["observed_bare_failures"] == 462
    assert fullspan["zero_free_sets"] == 386 and fullspan["violations"] == 0
    assert fullspan["with_zero_sets"] == 637
    census_29 = next(r for r in reports if r.lemma == "2.9").exhaustive
    assert census_29["sequences"] == 27695 and census_29["violations"] == 0
    assert dt <= 600, f"took {dt:.1f}s, budget 600s"
    applied = sum(r.applied for r in reports)
    _line(2, f"9 campaigns x 10^4 trials + exhaustive censuses, "
             f"{applied} applications, 0 violations ({dt:.2f}s)")


# --------------------------------------------------------------- 3


def test_criterion_3_oracle_equivalence_on_random_instances():
    rnd = random.Random(20260818)
    t0 = time.monotonic()
    checked = 0
    for _ in range(1000):
        order = rnd.randrange(2, 37)
        group = S.make_group(rnd.choice(S.abelian_groups_of_order(order)))
        size = rnd.randrange(1, min(group.order, 15))
        idx = rnd.sample(range(group.order), size)
        a = S.ElementSet.from_indices(group, idx)
        assert set(S.subset_sums(a).indices()) == \
            ref.subset_sums_brute(group, idx)
        h = rnd.randrange(0, min(size, 6) + 1)
        assert set(S.restricted_sums(a, h).indices()) == \
            ref.restricted_sums_brute(group, idx, h)
        zero_free = [i for i in idx if i != 0]
        if zero_free:
            b = S.ElementSet.from_indices(group, zero_free)
            got = S.contains_complete_subset(b) is not None
            assert got == ref.contains_complete_subset_brute(group, zero_free)
        checked += 1
    dt = time.monotonic() - t0
    assert checked == 1000
    assert dt <= 120, f"took {dt:.1f}s, budget 120s"
    _line(3, f"1000 random instances (|G| <= 36, |A| <= 14), three oracles "
             f"vs brute force, 0 mismatches ({dt:.2f}s)")


# --------------------------------------------------------------- 4


def test_criterion_4_interval_conjecture_certificate_z15(z15_records):
    t0 = time.monotonic()
    rep = S.check_conjecture(2, 3, 5)
    dt = time.monotonic() - t0
    assert dt < 1.0, f"took {dt:.3f}s, budget 1s"
    assert rep.group == "Z15" and rep.outcome in ("VERIFIED", "REFUTED")
    assert rep.outcome == "REFUTED"  # certificate is definitive either way
    assert rep.extremal_count == len(z15_records) == 28
    assert all(rec.tags for rec in z15_records)  # every set classified
    assert rep.failing_count == 24 == len(rep.counterexamples)
    assert rep.counterexamples == [r.to_dict() for r in z15_records
                                   if S.SHAPE_EX2 not in r.tags]
    _line(4, f"all C(14,6) candidates in Z15 enumerated in {dt*1000:.0f}ms, "
             f"definitive REFUTED certificate, 28 extremal sets classified")


# --------------------------------------------------------------- 5


def test_criterion_5_complete_subset_conjecture_certificate_z21(z21_records):
    t0 = time.monotonic()
    rep = S.check_conjecture(1, 3, 7)
    dt = time.monotonic() - t0
    assert dt <= 60, f"took {dt:.1f}s, budget 60s"
    assert rep.group == "Z21" and rep.outcome in ("VERIFIED", "REFUTED")
    assert rep.outcome == "REFUTED"
    assert rep.extremal_count == len(z21_records) == 390
    assert all(rec.tags for rec in z21_records)
    assert rep.failing_count == 358
    failing = [r.to_dict() for r in z21_records
               if S.HAS_COMPLETE_SUBSET not in r.tags]
    assert len(failing) == 358 and rep.counterexamples == failing[:25]
    _line(5, f"all C(20,7) candidates in Z21 enumerated in {dt:.2f}s, "
             f"definitive REFUTED certificate, 390 extremal sets classified")


# --------------------------------------------------------------- 6


def test_criterion_6_coset_observation_holds_on_every_record():
    total = 0
    for spec in ("Z15", "Z16", "Z21"):
        for rec in S.ExtremalEnumeration(S.parse_group_spec(spec)).records():
            assert S.check_observation_31(rec.element_set).holds, rec.indices
            total += 1
    assert total == 28 + 1 + 390
    _line(6, f"coset-count observation holds for {total}/419 extremal "
             f"records across Z15, Z16, Z21")


# --------------------------------------------------------------- 7


def test_criterion_7_interval_constructions_are_extremal():
    for p, q in ((3, 5), (5, 7)):
        a = S.make_example_2(p, q)
        g = a.group
        assert g.order == p * q
        assert a.cardinality == p + q - 2 == S.critical_number_formula(g) - 1
        assert 0 not in a.indices()
        assert not S.subset_sums(a).is_full
        assert not ref.spans_brute(g, a.indices())
    _line(7, "size-(p+q-2) interval constructions for (3,5) and (5,7) are "
             "one below the critical number and do not span")


# --------------------------------------------------------------- 8


@pytest.mark.parametrize("spec,required", [("Z33", S.SHAPE_II),
                                           ("Z36", S.SHAPE_I)])
def test_criterion_8_structure_theorem_smallest_qualifying_groups(spec, required):
    g = S.parse_group_spec(spec)
    threads = min(8, os.cpu_count() or 1)
    t0 = time.monotonic()
    rep = S.verify_theorem_main(g, orbit_dedup=True, threads=threads)
    dt = time.monotonic() - t0
    assert dt <= 7200, f"took {dt:.0f}s, budget 2h"
    assert rep.required_tag == required
    assert not rep.violations and rep.violation_count == 0
    assert rep.outcome == "VERIFIED"
    assert rep.extremal_count > 0
    _line(8, f"{spec}: {rep.extremal_count} orbit-reduced extremal sets all "
             f"carry {required} ({dt:.0f}s, {threads} threads)")


# --------------------------------------------------------------- 9


def test_criterion_9_interrupted_resume_is_byte_identical(tmp_path, capsys,
                                                          monkeypatch):
    monkeypatch.delenv("SPANLAB_STORE", raising=False)

    def run(*args):
        try:
            code = cli_main(["--store", str(tmp_path / "store"),
                             *[str(a) for a in args]])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        capsys.readouterr()
        return code

    straight = tmp_path / "straight.jsonl"
    assert run("enumerate-extremal", "--group", "Z21", "--out", straight) == 0

    partial = tmp_path / "resumed.jsonl"
    ck = tmp_path / "ck.json"
    assert run("enumerate-extremal", "--group", "Z21", "--out", partial,
               "--checkpoint", ck, "--max-nodes", 3000) == 2
    assert not partial.exists()  # only the .partial prefix so far
    assert run("enumerate-extremal", "--group", "Z21", "--resume", ck,
               "--out", partial, "--checkpoint", ck) == 0

    a, b = straight.read_bytes(), partial.read_bytes()
    assert sorted(a.splitlines()) == sorted(b.splitlines())
    digest_a = hashlib.sha256(a).hexdigest()
    digest_b = hashlib.sha256(b).hexdigest()
    assert digest_a == digest_b
    lines = len(a.splitlines())
    _line(9, f"interrupted+resumed Z21 enumeration reproduces the straight "
             f"run byte for byte ({lines} records, sha256 {digest_a[:12]}…)")
